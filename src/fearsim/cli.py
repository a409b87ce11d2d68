"""Command-line interface.

Subcommands: fuzzy-eval, simulate, sweep, validate, compare-ssd,
compare-osd, plot.  Exit codes: 0 success, 1 configuration or data error,
2 usage error, 3 invariant violation.  Output files are written through a
temp-and-rename so a failed run never leaves a partial file.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import lru_cache

from . import charts, experiments, monitors
from .configio import ConfigError, atomic_write, load_osd_calibration_doc, load_scenario_config, load_sweep_rows
from .fuzzy import RuleParseError, parse_rules
from .sim import import_simconnector, run_scenario, trace_from_csv, trace_to_csv

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_VIOLATION = 3


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None


# The fastest speed either study takes, in mph.  The measured stopping
# distance sizes its Euler arrays by the speed: about 131k steps here.
_MAX_SPEED = 1000.0
# The most speeds a lo:hi:count range gives; each is one table row and one
# measured distance (5,000 take about a second).
_MAX_SPEED_COUNT = 10_000


def _speed(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"--speeds: {text.strip()!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"--speeds: {text.strip()!r} is not finite")
    if abs(value) > _MAX_SPEED:
        raise ConfigError(f"--speeds: {text.strip()!r} is out of range")
    return value


def _very_small_gap(value: float) -> float:
    """The Inv1A arming gap; nan or a gap of 0 or less would never arm it."""
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"--very-small-gap: {value!r} is not a finite gap above 0")
    return value


def _parse_speeds(spec: str) -> list[float]:
    """Either 'lo:hi:count' or a comma-separated list of finite mph values."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"--speeds: a range must be lo:hi:count, got {spec!r}")
        lo, hi = _speed(parts[0]), _speed(parts[1])
        try:
            count = int(parts[2])
        except ValueError:
            raise ConfigError(f"--speeds: count {parts[2].strip()!r} is not an integer") from None
        if count < 1 or hi < lo or not math.isfinite(hi - lo):
            raise ConfigError(f"--speeds: bad speed range {spec!r}")
        if count > _MAX_SPEED_COUNT:
            raise ConfigError(f"--speeds: count {count} is above {_MAX_SPEED_COUNT:,}")
        if count == 1:
            return [lo]
        step = (hi - lo) / (count - 1)
        return [lo + step * i for i in range(count)]
    return [_speed(p) for p in spec.split(",") if p.strip()]


def _cmd_fuzzy_eval(args) -> int:
    rulebase = parse_rules(_read(args.rules))
    inputs = {}
    for item in args.input:
        if "=" not in item:
            raise ConfigError(f"--input needs var=value, got {item!r}")
        name, _, raw = item.partition("=")
        name = name.strip()
        if name in inputs:
            raise ConfigError(f"--input {name}: given more than once")
        try:
            inputs[name] = float(raw)
        except ValueError:
            raise ConfigError(f"--input {name}: {raw.strip()!r} is not a number") from None
    result = rulebase.evaluate_detailed(inputs)
    suffix = " (degenerate: no rule fired)" if result.degenerate else ""
    print(f"{rulebase.output.name} = {result.value!r}{suffix}")
    if args.out:
        atomic_write(args.out, f"{result.value!r}\n")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = load_scenario_config(_read(args.config), source=args.config)
    if args.emotions:
        records = import_simconnector(_read(args.emotions))
        from dataclasses import replace
        config = replace(config, emotion_records=tuple(records))
    trace = run_scenario(config)
    atomic_write(args.out, trace_to_csv(trace))
    if args.plot:
        atomic_write(args.plot, charts.trace_chart_svg(trace))
    status = "collision" if trace.collision else "ok"
    print(f"simulated {len(trace.columns.tick)} ticks ({status}) -> {args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    rows, settings = load_sweep_rows(_read(args.config), source=args.config)
    spec = experiments.SweepSpec(rows=tuple(rows), repetitions=settings["repetitions"],
                                 ticks=settings["ticks"], base_seed=settings["base_seed"])
    dataset = experiments.run_sweep(spec, very_small_gap=_very_small_gap(args.very_small_gap))
    experiments.write_sweep_dir(dataset, args.out_dir)
    verdicts = [rep for run in dataset.runs for rep in run.reports]
    violated = sum(1 for rep in verdicts if not rep.ok)
    print(f"ran {len(dataset.runs)} runs -> {args.out_dir} "
          f"({violated} invariant violations)")
    counts = {}
    for rep in verdicts:
        counts.setdefault(rep.invariant_id, dict.fromkeys(monitors.Verdict, 0))[rep.verdict] += 1
    for invariant_id, by_verdict in counts.items():
        print(invariant_id, *(f"{verdict}={n}" for verdict, n in by_verdict.items()))
    return EXIT_VIOLATION if violated else EXIT_OK


def _cmd_validate(args) -> int:
    trace = trace_from_csv(_read(args.trace))
    reports = monitors.check_trace_invariants(trace, _very_small_gap(args.very_small_gap))
    print(monitors.summarize_reports(reports))
    if args.out:
        atomic_write(args.out, monitors.reports_to_csv(reports))
    return EXIT_VIOLATION if any(not rep.ok for rep in reports) else EXIT_OK


def _cmd_compare_ssd(args) -> int:
    table = experiments.compare_ssd(_parse_speeds(args.speeds))
    reports = monitors.check_comparison_invariants(table)
    atomic_write(args.out, table.to_csv())
    if args.plot:
        atomic_write(args.plot, charts.comparison_chart_svg(table, "stopping distance"))
    print(monitors.summarize_reports(reports))
    return EXIT_VIOLATION if any(not rep.ok for rep in reports) else EXIT_OK


def _cmd_compare_osd(args) -> int:
    calibration = None
    if args.calibration:
        calibration = load_osd_calibration_doc(_read(args.calibration), source=args.calibration)
    table = experiments.compare_osd(_parse_speeds(args.speeds), calibration=calibration)
    reports = monitors.check_comparison_invariants(table)
    atomic_write(args.out, table.to_csv())
    if args.plot:
        atomic_write(args.plot, charts.comparison_chart_svg(table, "overtaking distance"))
    print(monitors.summarize_reports(reports))
    return EXIT_VIOLATION if any(not rep.ok for rep in reports) else EXIT_OK


def _cmd_plot(args) -> int:
    if bool(args.trace) == bool(args.table):
        raise ConfigError("plot needs exactly one of --trace or --table")
    if args.trace:
        svg = charts.trace_chart_svg(trace_from_csv(_read(args.trace)))
    else:
        svg = charts.comparison_chart_svg(experiments.ComparisonTable.from_csv(_read(args.table)))
    atomic_write(args.out, svg)
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fearsim",
        description="Fear-driven two-vehicle collision avoidance simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fuzzy-eval", help="evaluate a rule file on crisp inputs")
    p.add_argument("--rules", required=True)
    p.add_argument("--input", action="append", required=True, metavar="VAR=VALUE")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fuzzy_eval)

    p = sub.add_parser("simulate", help="run one scenario and write its trace CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--emotions", help="emotion record CSV overriding scenario constants")
    p.add_argument("--plot", help="also write a trace chart SVG")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="run a sweep config into a dataset directory")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--very-small-gap", type=float, default=monitors.DEFAULT_VERY_SMALL_GAP)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("validate", help="check trace invariants on a trace CSV")
    p.add_argument("--trace", required=True)
    p.add_argument("--very-small-gap", type=float, default=monitors.DEFAULT_VERY_SMALL_GAP)
    p.add_argument("--out", help="write the invariant report CSV here")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("compare-ssd", help="stopping-distance comparison study")
    p.add_argument("--speeds", default="15:50:12", help="lo:hi:count or comma list (mph, at most 1000)")
    p.add_argument("--out", required=True)
    p.add_argument("--plot")
    p.set_defaults(func=_cmd_compare_ssd)

    p = sub.add_parser("compare-osd", help="overtaking-distance comparison study")
    p.add_argument("--speeds", default="25:50:7", help="lo:hi:count or comma list (mph, at most 1000)")
    p.add_argument("--calibration", help="override the shipped calibration document")
    p.add_argument("--out", required=True)
    p.add_argument("--plot")
    p.set_defaults(func=_cmd_compare_osd)

    p = sub.add_parser("plot", help="render a trace or comparison CSV as SVG")
    p.add_argument("--trace")
    p.add_argument("--table")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plot)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: each parse makes a new
    namespace, and nothing the parser holds changes."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, RuleParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
