"""fearsim benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload {paper_sweeps,controller_sweep,replay_session}
                             --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run times the workload for S seconds and reports
the end-to-end metrics; with ``--trace 1`` it runs a fixed pass of the
workload once untraced and once traced, and reports per-layer metrics
(see tracer.py).  Every op's outputs are compared with the SHA-256
digests in ``reference.json``; an exception or a mismatch counts as a
failed op.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end timings are in nominal seconds: scaled to a nominal host
speed with the kernel in calibrate.py, sampled every 50 ms during ops.
Files are written only under ``.perfbench_work/`` and ``.perfbench_out/``
in the checkout root.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One thread for numeric libraries, set before numpy is first imported;
# the set-up probes inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import calibrate  # noqa: E402
import workloads  # noqa: E402

ROOT = workloads.ROOT
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Runner:
    """Runs ops of one workload and checks each against the reference digests.

    With a calibrator, op times are in nominal seconds; without, in
    measured seconds.
    """

    def __init__(self, workload, reference: dict, workdir: Path, calibrator=None):
        self.workload = workload
        self.reference = reference
        self.workdir = workdir
        self.calibrator = calibrator
        self.attempted = 0
        self.failed = 0

    def op(self, key) -> tuple[float, int]:
        """Run, time and check one op; returns (seconds, ticks)."""
        self.attempted += 1
        ticks = 0
        start = time.perf_counter()
        try:
            try:
                result = self.workload.run(key, self.workdir)
            finally:
                end = time.perf_counter()
            ticks, digests = self.workload.inspect(key, result)
            expected = self.reference[str(key)]
            if digests != expected:
                self.failed += 1
                bad = sorted(k for k in expected if digests.get(k) != expected[k])
                print(f"output mismatch on {key}: {', '.join(bad)}", file=sys.stderr)
        except Exception:
            self.failed += 1
            traceback.print_exc()
        if self.calibrator is None:
            return end - start, ticks
        return self.calibrator.nominal(start, end), ticks

    def loop(self, keys, stop=lambda done: False) -> list[tuple[float, int]]:
        """Closed loop over ``keys`` until they run out or ``stop(done)`` is true."""
        done = []
        for key in keys:
            done.append(self.op(key))
            if stop(done):
                break
        return done

    def warm_up(self) -> None:
        """Untimed ops that fill lazy caches; their outputs are still checked."""
        self.loop(itertools.islice(self.workload.keys(), self.workload.warmup_ops))


def measure_setup(workload_name: str, seed: int) -> list[float]:
    """Nominal seconds from launching a fresh interpreter to its workload set-up being ready.

    The kernel is sampled between probes, not during them, so that it
    does not compete with the probe for the host.
    """
    times, kernel = [], [calibrate.sample(40)]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "workloads.py"), workload_name, str(seed)],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT) as probe:
            ready = probe.stdout.readline().strip() == "ready"
            elapsed = time.perf_counter() - start
            probe.communicate()
        if not ready or probe.returncode != 0:
            raise RuntimeError(f"set-up probe for {workload_name} failed")
        times.append(elapsed)
        kernel.append(calibrate.sample(40))
    factor = calibrate.NOMINAL_SAMPLE_S / statistics.mean(kernel)
    return [t * factor for t in times]


def end_to_end(workload_class, args, reference: dict, workdir: Path):
    setup = measure_setup(workload_class.name, args.seed)
    workload = workload_class(args.seed)
    calibrator = calibrate.Calibrator()
    runner = Runner(workload, reference, workdir, calibrator)
    per = workload.ops_per_session

    def stop(done):
        return (len(done) % per == 0 and len(done) // per >= workload.min_sessions
                and time.perf_counter() - started >= args.seconds)

    with calibrator.active():
        runner.warm_up()
        started = time.perf_counter()
        done = runner.loop(workload.keys(), stop)
    sessions = [sum(s for s, _ in done[i:i + per]) for i in range(0, len(done), per)]
    ticks = sum(t for _, t in done)
    print(f"# {workload.name}: {len(sessions)} sessions, {len(done)} ops, {ticks} ticks, "
          f"{len(calibrator.durations)} kernel samples of mean "
          f"{1000 * statistics.mean(calibrator.durations):.3f} ms", file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ticks_per_s": (ticks / sum(sessions), "1/s"),
        "session_p50_ms": (1000.0 * statistics.median(sessions), "ms"),
        "session_p90_ms": (1000.0 * statistics.quantiles(sessions, n=10, method="inclusive")[-1], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, runner


def per_layer(workload_class, args, reference: dict, workdir: Path):
    from tracer import Tracer

    tracer = Tracer()
    with tracer.installed():
        workload = workload_class(args.seed)
    runner = Runner(workload, reference, workdir)
    runner.warm_up()
    keys = workload.trace_keys()
    untraced = runner.loop(keys)
    traced = []
    with tracer.installed():
        for key in keys:
            tracer.new_op()
            traced.append(runner.op(key))
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = (sum(s for s, _ in traced) / sum(s for s, _ in untraced), "ratio")
    tracer.write_csv(ROOT / ".perfbench_out" / f"spans_{workload.name}.csv")
    return metrics, runner


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads.prepare_interpreter()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, runner = measure(workload, args, reference[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
