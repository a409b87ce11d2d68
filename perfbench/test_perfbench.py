"""Self-tests of the benchmark: output contract, exact counts, armed oracle.

    python3 -m pytest -q perfbench

Each workload runs at its smallest size (``--seconds 0``: the minimum
number of sessions, or the fixed traced pass).  About three minutes on a
2-core host.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = workloads.ROOT
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def _result(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.fixture(scope="module")
def traced_twice():
    results = {}
    for workload in WORKLOAD_NAMES:
        runs = [_run(workload, trace=1) for _ in range(2)]
        for done in runs:
            assert done.returncode == 0, done.stderr
        results[workload] = [_result(done.stdout) for done in runs]
    return results


def test_benchmark_json_matches_workloads():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert sorted(WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    assert "setup_s" in {m["name"] for m in BENCHMARK["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_end_to_end_metrics_printed_with_units(workload):
    done = _run(workload, trace=0)
    assert done.returncode == 0, done.stderr
    result = _result(done.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_per_layer_metrics_printed_with_units(workload, traced_twice):
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for result in traced_twice[workload]:
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_counts_repeat_exactly(workload, traced_twice):
    first, second = (r["metrics"] for r in traced_twice[workload])
    counted = [name for name, m in first.items() if m["unit"] in ("count", "bytes")]
    counted.append("monitors.armed_ratio")
    assert len(counted) > 20
    for name in counted:
        assert first[name]["value"] == second[name]["value"], name


def test_counts_show_the_workload_properties(traced_twice):
    paper = traced_twice["paper_sweeps"][0]["metrics"]
    assert paper["sim.run.calls"]["value"] == 550
    assert paper["experiments.distinct_traces"]["value"] == 8
    # one CSV per run, plus aggregate.csv and invariants.csv per sweep
    assert paper["configio.write.calls"]["value"] == 550 + 2 * 2
    controller = traced_twice["controller_sweep"][0]["metrics"]
    assert controller["experiments.distinct_traces"]["value"] > 0.8 * controller["sim.run.calls"]["value"]
    assert controller["sim.speed_changed_runs"]["value"] > 0.5 * controller["sim.run.calls"]["value"]
    assert controller["sim.collisions"]["value"] > 0
    assert controller["monitors.violated"]["value"] > 0
    assert controller["configio.write.calls"]["value"] == 0
    replay = traced_twice["replay_session"][0]["metrics"]
    assert replay["cli.calls"]["value"] == 4 * workloads.ReplaySession.trace_sessions


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_planted_fault_is_caught(workload, monkeypatch, capsys):
    """Shift classify_level's display plateau where the simulator calls it."""
    workloads.prepare_interpreter()
    from fearsim import sim

    original = sim.classify_level

    def shifted(intensity):
        level, display = original(intensity)
        return level, display + 1

    monkeypatch.setattr(sim, "classify_level", shifted)
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1"]) == 0
    result = _result(capsys.readouterr().out)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_refuses_a_checkout_without_the_program():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = _run("controller_sweep", trace=0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""
