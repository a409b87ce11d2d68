"""The three closed-loop workloads of the fearsim benchmark.

Each workload has a set-up (done once per process: the program's import,
both rule bases parsed, the first inputs loaded), an endless sequence of
op keys, ``run`` (one op: the user-visible work, and nothing else, so it
is what run.py times) and ``inspect`` (after timing: tick count plus the
SHA-256 digests that are compared with ``reference.json``).

Run as a script, ``python3 perfbench/workloads.py <workload> <seed>``
performs only the set-up in this fresh interpreter and prints ``ready``;
run.py times that to report ``setup_s``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "fearsim" / "data"

# Number of generated controller_sweep documents with recorded digests;
# a run walks the pool from a seed-dependent start.
CONTROLLER_POOL = 64


def prepare_interpreter() -> None:
    """Put the program's sources first on sys.path.

    Raises FileNotFoundError when the checkout holds no program source.
    """
    if not (SRC / "fearsim" / "__init__.py").is_file():
        raise FileNotFoundError(f"no fearsim sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _dir_digest(path: Path) -> str:
    """Digest of every file name and content in a directory, in name order."""
    listing = [f"{p.name} {sha256(p.read_bytes())}" for p in sorted(path.iterdir())]
    return sha256("\n".join(listing))


def _load_rules() -> None:
    from fearsim import emotion
    emotion.likelihood_rulebase()
    emotion.fear_rulebase()


def _run_sweep_text(text: str, source: str):
    """Config text -> monitored sweep dataset and its serialize() bytes."""
    from fearsim import configio, experiments
    rows, settings = configio.load_sweep_rows(text, source=source)
    spec = experiments.SweepSpec(rows=tuple(rows), repetitions=settings["repetitions"],
                                 ticks=settings["ticks"], base_seed=settings["base_seed"])
    dataset = experiments.run_sweep(spec)
    return dataset, dataset.serialize()


def _dataset_ticks(dataset) -> int:
    return sum(len(run.trace.records) for run in dataset.runs)


class PaperSweeps:
    """Both shipped validation sweeps (550 runs x 100 ticks), exported to files.

    One op is one shipped sweep document, from config text through
    load_sweep_rows, run_sweep and serialize to write_sweep_dir.  A
    session is one pass over both documents, the paper's 550-run study.
    """

    name = "paper_sweeps"
    ops_per_session = 2
    min_sessions = 2
    warmup_ops = 0
    documents = ("sweep_close_gap.cfg", "sweep_spaced_gap.cfg")

    def __init__(self, seed: int):
        from fearsim import configio, experiments  # noqa: F401  (the sweep's import cost)
        _load_rules()
        self.texts = {}
        for name in self.documents:
            self.texts[name] = (DATA / name).read_text(encoding="utf-8")
            configio.load_sweep_rows(self.texts[name], source=name)

    def keys(self):
        return itertools.cycle(self.documents)

    def trace_keys(self) -> list:
        return list(self.documents)

    def run(self, key, workdir: Path):
        from fearsim import experiments
        dataset, blob = _run_sweep_text(self.texts[key], key)
        out_dir = Path(tempfile.mkdtemp(dir=workdir))
        experiments.write_sweep_dir(dataset, out_dir)
        return dataset, blob, out_dir

    def inspect(self, key, result) -> tuple[int, dict]:
        dataset, blob, out_dir = result
        digests = {"serialize": sha256(blob), "export": _dir_digest(out_dir)}
        shutil.rmtree(out_dir)
        return _dataset_ticks(dataset), digests


def controller_document(index: int) -> str:
    """Sweep document ``index`` of the controller_sweep pool.

    Twelve rows of four repetitions and 300 ticks.  Every row draws its
    own world and scenario constants, with a jittered target phase so the
    repetitions differ.  The appraisal constants reach outside the
    paper's values (undesirability = ig = 1, threshold 0 or 0.05) on
    purpose: rows with low undesirability or a high threshold make Inv1A
    report VIOLATED, a finding about the model that the ranges must keep
    showing.
    """
    rng = random.Random(f"controller_sweep/{index}")
    lines = [
        "[sweep]", "repetitions = 4", "ticks = 300", f"base_seed = {rng.randrange(10**6)}", "",
        "[scenario]", "kind = rear_end", "eeec_agent = true", "reaction_profile = eeec_agent", "",
    ]
    for row in range(1, 13):
        lines += [
            f"[scenario.{row}]",
            f"tick_seconds = {rng.choice([0.1, 0.2, 0.5, 1.0, 2.0])}",
            f"min_velocity = {rng.randrange(5, 55, 5)}",
            f"separation = {rng.uniform(0.5, 12.0):.2f}",
            f"bullet_acceleration = {rng.uniform(0.02, 0.2):.3f}",
            f"bullet_deceleration = {rng.uniform(0.05, 0.4):.3f}",
            f"target_acceleration = {rng.uniform(0.01, 0.2):.3f}",
            f"target_deceleration = {rng.uniform(0.01, 0.2):.3f}",
            f"target_phase_ticks = {rng.randrange(10, 200)}",
            f"phase_jitter_ticks = {rng.randrange(1, 60)}",
            f"undesirability = {rng.uniform(0.35, 1.0):.2f}",
            f"ig = {rng.uniform(0.35, 1.0):.2f}",
            f"fear_threshold = {rng.uniform(0.0, 0.2):.2f}",
            "",
        ]
    return "\n".join(lines)


class ControllerSweep:
    """Generated sweeps in which the fear controller acts; kept in memory.

    One op (and one session) is one generated document, from text through
    load_sweep_rows and run_sweep to serialize.  The seed picks where in
    the pool of documents the run starts.
    """

    name = "controller_sweep"
    ops_per_session = 1
    min_sessions = 5
    warmup_ops = 1
    trace_documents = 3

    def __init__(self, seed: int):
        from fearsim import configio, experiments  # noqa: F401  (the sweep's import cost)
        _load_rules()
        self.start = (seed * 17) % CONTROLLER_POOL
        self.texts = {}
        configio.load_sweep_rows(self._text(self.start), source="controller_sweep")

    def _text(self, index: int) -> str:
        if index not in self.texts:
            self.texts[index] = controller_document(index)
        return self.texts[index]

    def keys(self):
        # Each document is generated when its key is drawn, outside the timed op.
        for i in itertools.count():
            index = (self.start + i) % CONTROLLER_POOL
            self._text(index)
            yield index

    def trace_keys(self) -> list:
        return list(itertools.islice(self.keys(), self.trace_documents))

    def run(self, key, workdir: Path):
        return _run_sweep_text(self.texts[key], f"controller_sweep/{key}")

    def inspect(self, key, result) -> tuple[int, dict]:
        dataset, blob = result
        return _dataset_ticks(dataset), {"serialize": sha256(blob)}


class ReplaySession:
    """A command-line user's session, run in process through fearsim.cli.main.

    simulate --plot on the shipped 1200-tick replay, validate on that
    trace, compare-ssd --plot and compare-osd --plot.
    """

    name = "replay_session"
    ops_per_session = 1
    min_sessions = 100
    warmup_ops = 1
    trace_sessions = 10

    def __init__(self, seed: int):
        from fearsim import cli, configio  # noqa: F401  (the session's import cost)
        _load_rules()
        self.config_path = DATA / "replay_close_gap_low_speed.cfg"
        configio.load_scenario_config(self.config_path.read_text(encoding="utf-8"),
                                      source=str(self.config_path))

    def keys(self):
        return itertools.repeat("session")

    def trace_keys(self) -> list:
        return ["session"] * self.trace_sessions

    def run(self, key, workdir: Path):
        from fearsim import cli
        out = Path(tempfile.mkdtemp(dir=workdir))
        commands = [
            ["simulate", "--config", str(self.config_path), "--out", str(out / "trace.csv"),
             "--plot", str(out / "trace.svg")],
            ["validate", "--trace", str(out / "trace.csv"), "--out", str(out / "report.csv")],
            ["compare-ssd", "--out", str(out / "ssd.csv"), "--plot", str(out / "ssd.svg")],
            ["compare-osd", "--out", str(out / "osd.csv"), "--plot", str(out / "osd.svg")],
        ]
        codes, printed = [], []
        for argv in commands:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                codes.append(cli.main(argv))
            printed.append(buffer.getvalue())
        return codes, printed, out

    def inspect(self, key, result) -> tuple[int, dict]:
        codes, printed, out = result
        digests = {"exit_codes": " ".join(str(c) for c in codes),
                   "validate_stdout": sha256(printed[1])}
        for name in ("trace.csv", "trace.svg", "report.csv", "ssd.csv", "ssd.svg",
                     "osd.csv", "osd.svg"):
            path = out / name
            digests[name] = sha256(path.read_bytes()) if path.is_file() else "missing"
        trace_csv = out / "trace.csv"
        ticks = trace_csv.read_bytes().count(b"\n") - 1 if trace_csv.is_file() else 0
        shutil.rmtree(out)
        return ticks, digests



WORKLOADS = {w.name: w for w in (PaperSweeps, ControllerSweep, ReplaySession)}


if __name__ == "__main__":
    prepare_interpreter()
    WORKLOADS[sys.argv[1]](int(sys.argv[2]))
    print("ready", flush=True)
