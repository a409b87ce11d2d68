"""Spans and counts recorded from outside the program.

``Tracer.installed()`` replaces public fearsim functions at the places
they are called from (module attributes looked up at call time, and two
class methods) with wrappers that record a span: layer name, start, end,
parent span and op id.  Spans stay in compact in-memory arrays until
``write_csv`` at the end of the run.  Leaving the context restores every
original, so nothing under ``src/`` is changed.

A layer's self time is the sum of its spans' durations minus the time
covered by their child spans.  The counts (calls, bytes, ticks, verdicts,
distinct traces) are exact: they repeat bit for bit between two runs of
the same code on the same seed.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from pathlib import Path

import numpy as np

# Layers whose self time and call count are reported, in output order.
LAYERS = (
    "fuzzy.parse", "fuzzy.mamdani", "fuzzy.additive",
    "emotion.likelihood", "emotion.potential", "emotion.quantize",
    "sight", "sim.step", "sim.run", "sim.trace_csv", "sim.trace_parse",
    "monitors", "experiments.sweep", "experiments.serialize", "experiments.export",
    "experiments.studies", "configio.load", "configio.write", "charts", "cli",
)


def _call_sites():
    """(owner, attribute, layer) for every wrapped call site."""
    from fearsim import charts, cli, configio, emotion, experiments, fuzzy, monitors, sim

    return [
        (emotion, "parse_rules", "fuzzy.parse"),
        (fuzzy.RuleBase, "evaluate_detailed", "fuzzy.mamdani"),
        (emotion, "evaluate_additive", "fuzzy.additive"),
        (sim, "compute_likelihood", "emotion.likelihood"),
        (sim, "fear_potential", "emotion.potential"),
        (sim, "fear_intensity", "emotion.quantize"),
        (sim, "classify_level", "emotion.quantize"),
        (sim, "stopping_sight_distance", "sight"),
        (sim, "overtaking_sight_distance", "sight"),
        (experiments, "stopping_sight_distance", "sight"),
        (experiments, "overtaking_sight_distance", "sight"),
        (sim, "step", "sim.step"),
        (experiments, "run_scenario", "sim.run"),
        (cli, "run_scenario", "sim.run"),
        (experiments, "trace_to_csv", "sim.trace_csv"),
        (cli, "trace_to_csv", "sim.trace_csv"),
        (cli, "trace_from_csv", "sim.trace_parse"),
        (monitors, "check_trace_invariants", "monitors"),
        (monitors, "check_comparison_invariants", "monitors"),
        (experiments, "run_sweep", "experiments.sweep"),
        (experiments.SweepDataset, "serialize", "experiments.serialize"),
        (experiments, "write_sweep_dir", "experiments.export"),
        (experiments, "compare_ssd", "experiments.studies"),
        (experiments, "compare_osd", "experiments.studies"),
        (configio, "load_sweep_rows", "configio.load"),
        (configio, "load_scenario_config", "configio.load"),
        (configio, "load_osd_calibration_doc", "configio.load"),
        (cli, "load_scenario_config", "configio.load"),
        (cli, "load_sweep_rows", "configio.load"),
        (cli, "load_osd_calibration_doc", "configio.load"),
        (configio, "atomic_write", "configio.write"),
        (cli, "atomic_write", "configio.write"),
        (charts, "trace_chart_svg", "charts"),
        (charts, "comparison_chart_svg", "charts"),
        (cli, "main", "cli"),
    ]


class Tracer:
    """In-memory spans and exact counts of one traced run."""

    def __init__(self):
        self.layer_ids = {name: i for i, name in enumerate(LAYERS)}
        self.starts = array("d")
        self.ends = array("d")
        self.layers = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.stack = [-1]
        self.op = 0
        self.counts = dict.fromkeys(("sim.ticks", "sim.collisions", "sim.speed_changed_runs",
                                     "configio.write.bytes", "sim.trace_csv.bytes", "charts.bytes",
                                     "monitors.reports", "monitors.armed", "monitors.violated"), 0)
        self.distinct_traces = set()
        self.levels = set()

    def new_op(self) -> None:
        """Spans recorded from now on share a fresh op id."""
        self.op += 1

    def _wrap(self, fn, layer: str, observe):
        layer_id = self.layer_ids[layer]
        starts, ends, layers, parents, ops, stack = (
            self.starts, self.ends, self.layers, self.parents, self.ops, self.stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            starts.append(0.0)
            ends.append(0.0)
            layers.append(layer_id)
            parents.append(stack[-1])
            ops.append(self.op)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[index] = start
                ends[index] = end
            if observe is not None:
                observe(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observers(self) -> dict:
        """Per layer, a function of (result, args, kwargs) that updates the exact counts."""
        counts = self.counts

        def run(trace, args, kwargs):
            records = trace.records
            counts["sim.ticks"] += len(records)
            counts["sim.collisions"] += trace.collision
            counts["sim.speed_changed_runs"] += any(r.bullet_speed != records[0].bullet_speed
                                                    for r in records)
            self.levels.update(r.fear_level for r in records)
            self.distinct_traces.add((records, trace.collision_tick))

        def text_bytes(key):
            def observe(text, args, kwargs):
                counts[key] += len(text.encode("utf-8"))
            return observe

        def write(result, args, kwargs):
            data = args[1] if len(args) > 1 else kwargs["data"]
            counts["configio.write.bytes"] += len(data.encode("utf-8"))

        def verdicts(reports, args, kwargs):
            counts["monitors.reports"] += len(reports)
            counts["monitors.armed"] += sum(str(rep.verdict) != "vacuous" for rep in reports)
            counts["monitors.violated"] += sum(str(rep.verdict) == "violated" for rep in reports)

        return {"sim.run": run, "sim.trace_csv": text_bytes("sim.trace_csv.bytes"),
                "charts": text_bytes("charts.bytes"), "configio.write": write,
                "monitors": verdicts}

    @contextlib.contextmanager
    def installed(self):
        """Wrap every call site for the duration of the block."""
        originals = []
        observers = self._observers()
        try:
            for owner, attr, layer in _call_sites():
                original = owner.__dict__[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, layer, observers.get(layer)))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def layer_metrics(self) -> dict:
        """calls and self_s per layer, plus the exact counts."""
        starts = np.frombuffer(self.starts, dtype=np.float64)
        durations = np.frombuffer(self.ends, dtype=np.float64) - starts
        layers = np.frombuffer(self.layers, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent], weights=durations[has_parent],
                                 minlength=len(durations))
        self_time = np.bincount(layers, weights=durations - child_time, minlength=len(LAYERS))
        calls = np.bincount(layers, minlength=len(LAYERS))
        metrics = {}
        for i, name in enumerate(LAYERS):
            metrics[f"{name}.calls"] = (int(calls[i]), "count")
            metrics[f"{name}.self_s"] = (float(self_time[i]), "s")
        for key, value in self.counts.items():
            if key != "monitors.armed":
                metrics[key] = (value, "bytes" if key.endswith(".bytes") else "count")
        reports = self.counts["monitors.reports"]
        metrics["monitors.armed_ratio"] = (self.counts["monitors.armed"] / reports if reports else 0.0,
                                           "ratio")
        metrics["experiments.distinct_traces"] = (len(self.distinct_traces), "count")
        metrics["emotion.levels_visited"] = (len(self.levels), "count")
        return metrics

    def write_csv(self, path: Path) -> None:
        """All spans, one line each: id, op, parent, layer, start and end in seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = ["id,op,parent,layer,start_s,end_s"]
        lines += [f"{i},{op},{parent},{LAYERS[layer]},{start!r},{end!r}"
                  for i, (op, parent, layer, start, end)
                  in enumerate(zip(self.ops, self.parents, self.layers, self.starts, self.ends))]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
