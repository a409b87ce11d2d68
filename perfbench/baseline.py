"""Measure the baseline of this commit and write ``perfbench/baseline.json``.

    python3 perfbench/baseline.py [--runs 10] [--seconds 30]

Runs every workload ``--runs`` times untraced, each time with another
seed, and once traced, plus controller_sweep on a held-out seed.
Records the median and quartiles of every end-to-end metric, the
quartile spread as a share of the median, the per-layer numbers, the
error rates, the machine, and the notes that must be read with the
numbers.  About 25 minutes with the defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A controller_sweep seed used by no run while the benchmark was written.
HELD_OUT_SEED = 1000

NOTES = {
    "timings": "Every end-to-end time is in nominal seconds: an op's wall time, less the kernel "
               "samples inside it, divided by the mean of those samples and scaled to the nominal "
               "sample time (calibrate.py samples a frozen tick miniature every 50 ms), so that "
               "host-speed drift cancels. Per-layer self times are raw seconds of the traced pass.",
    "tail": "session_p90_ms is the tail: replay_session measures at least 100 sessions, so at least "
            "10 lie beyond p90. The sweep workloads measure 4 to 20 sessions per run, where p90 is "
            "interpolated between the slowest sessions.",
    "sessions": "paper_sweeps: a session is one pass over both shipped sweeps (550 runs, 2 ops). "
                "controller_sweep: one generated sweep document (48 runs x 300 ticks). "
                "replay_session: simulate, validate, compare-ssd and compare-osd in process.",
    "error_rate": "failed / attempted of the result line. An exception or a digest mismatch fails "
                  "an op. It is 0 at this commit, so it is not an end-to-end metric (those must "
                  "never be 0); perfbench/test_perfbench.py plants a fault to show it rises.",
    "traced_pass": "--trace 1 runs a fixed pass (paper_sweeps: both sweeps; controller_sweep: 3 "
                   "documents; replay_session: 10 sessions) once untraced and once traced, so every "
                   "count repeats exactly for a given seed.",
    "paper_sweeps_caching": "550 runs hold 8 distinct traces (experiments.distinct_traces vs "
                            "sim.run.calls). A gain from caching identical runs must be reported "
                            "through sim.run.calls, apart from any batching gain.",
    "controller_sweep_violations": "Inv1A reports VIOLATED in some runs (monitors.violated > 0): "
                                   "rows whose undesirability or fear_threshold lies outside the "
                                   "paper's values. This is a finding about the model, not a "
                                   "benchmark failure; the generator's ranges must not be narrowed "
                                   "to hide it.",
    "repeated_inputs": "Ops repeat the same inputs within a run (every op on paper_sweeps and "
                       "replay_session). A cache that outlives one run_sweep or cli.main call "
                       "would fake a gain; sim.run.calls and fuzzy.mamdani.calls expose it.",
}

# Layer metric -> (end-to-end metrics it should move, workloads where it should).
LAYER_MAP = [
    (["fuzzy.mamdani.calls", "fuzzy.mamdani.self_s"], ["ticks_per_s", "session_p50_ms"],
     "all three; about half of tick time"),
    (["fuzzy.additive.calls", "fuzzy.additive.self_s", "emotion.potential.self_s"], ["ticks_per_s"],
     "mostly controller_sweep, where undesirability and ig vary by row"),
    (["emotion.likelihood.self_s", "emotion.quantize.self_s"], ["ticks_per_s"], "both sweeps"),
    (["sim.step.calls", "sim.step.self_s", "sim.run.calls", "sim.run.self_s"], ["ticks_per_s"],
     "both sweeps (batching); prediction for replay_session: no change"),
    (["experiments.distinct_traces", "sim.run.calls"], ["ticks_per_s"],
     "paper_sweeps only (caching); prediction for controller_sweep: no change"),
    (["experiments.sweep.self_s", "experiments.serialize.self_s"], ["ticks_per_s"], "both sweeps"),
    (["experiments.export.self_s", "configio.write.calls", "configio.write.self_s",
      "configio.write.bytes", "sim.trace_csv.self_s", "sim.trace_csv.bytes"],
     ["ticks_per_s", "session_p50_ms"],
     "paper_sweeps and replay_session; controller_sweep writes nothing"),
    (["monitors.self_s", "monitors.reports", "monitors.armed_ratio", "monitors.violated"],
     ["ticks_per_s"], "both sweeps; share of tick time under 1%"),
    (["sight.calls", "sight.self_s", "experiments.studies.self_s", "charts.self_s", "charts.bytes",
      "sim.trace_parse.self_s", "cli.self_s"], ["session_p50_ms", "session_p90_ms"],
     "replay_session"),
    (["fuzzy.parse.self_s", "configio.load.self_s"], ["setup_s"], "all three"),
    (["trace.overhead_ratio"], [], "all three; moves no end-to-end metric"),
]


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run's result line, with metric values flattened."""
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    result["error_rate"] = result["failed"] / result["attempted"]
    return result


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def _machine() -> dict:
    import numpy

    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "git_rev": rev.stdout.strip() or "unknown"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    workloads = {}
    for spec in benchmark["workloads"]:
        name = spec["name"]
        runs = [_run(name, seed, args.seconds, 0) for seed in range(1, args.runs + 1)]
        summary = {metric: _summary([r["metrics"][metric] for r in runs]) for metric in runs[0]["metrics"]}
        for metric, s in summary.items():
            print(f"{name} {metric}: median {s['median']:.6g} spread {s['spread']:.4f} "
                  f"(bound {bounds[metric]})", flush=True)
        traced = _run(name, 1, args.seconds, 1)
        workloads[name] = {"why": spec["why"], "end_to_end": summary,
                           "error_rate": [r["error_rate"] for r in runs] + [traced["error_rate"]],
                           "per_layer_seed_1": traced["metrics"]}
    held_out = _run("controller_sweep", HELD_OUT_SEED, args.seconds, 0)
    baseline = {"machine": _machine(), "run_seconds": args.seconds, "seeds": list(range(1, args.runs + 1)),
                "held_out_controller_sweep": {"seed": HELD_OUT_SEED, "error_rate": held_out["error_rate"],
                                              "metrics": held_out["metrics"]},
                "notes": NOTES,
                "layer_map": [{"layer_metrics": m, "moves": e, "on": w} for m, e, w in LAYER_MAP],
                "workloads": workloads}
    args.out.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
