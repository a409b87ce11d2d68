"""End-to-end command line checks using only shipped configuration files."""


from importlib import resources

import pytest

from fearsim import cli, experiments
from fearsim.cli import main
from fearsim.emotion import FearLevel
from fearsim.sim import trace_from_csv


@pytest.fixture
def data_file(tmp_path):
    def copy(name):
        target = tmp_path / name
        target.write_text(resources.files("fearsim.data").joinpath(name).read_text())
        return str(target)
    return copy


def test_simulate_happy_path(tmp_path, data_file, capsys):
    out = tmp_path / "trace.csv"
    code = main(["simulate", "--config", data_file("replay_close_gap_low_speed.cfg"),
                 "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == "tick,ssd,distance,fear_display,fear_level,bullet_speed,target_speed"
    assert "simulated" in capsys.readouterr().out


def test_simulate_prints_the_tick_count(tmp_path, data_file, capsys):
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--config", data_file("replay_close_gap_low_speed.cfg"),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"simulated 1200 ticks (ok) -> {out}\n"


def test_simulate_unknown_flag_exits_usage():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--bogus"])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_usage():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_simulate_missing_config_is_config_error(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "t.csv")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_simulate_bad_config_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[scenario]\nseparation = -3\n")
    code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "t.csv")])
    assert code == 1
    assert "bad.cfg" in capsys.readouterr().err


def test_validate_clean_trace(tmp_path, data_file):
    trace_path = tmp_path / "trace.csv"
    assert main(["simulate", "--config", data_file("replay_close_gap_low_speed.cfg"),
                 "--out", str(trace_path)]) == 0
    assert main(["validate", "--trace", str(trace_path)]) == 0


def test_validate_violating_trace_exits_3(tmp_path, capsys):
    trace_path = tmp_path / "bad_trace.csv"
    trace_path.write_text(
        "tick,ssd,distance,fear_display,fear_level,bullet_speed,target_speed\n"
        "0,0.16,0.5,16,VeryLow,10.0,10.0\n"
    )
    code = main(["validate", "--trace", str(trace_path)])
    assert code == 3
    assert "Inv1A: violated" in capsys.readouterr().out


def test_validate_passes_very_small_gap_to_the_monitors(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text(
        "tick,ssd,distance,fear_display,fear_level,bullet_speed,target_speed\n"
        "0,0.16,5.0,49,Medium,10.0,10.0\n"
    )
    assert main(["validate", "--trace", str(trace_path)]) == 0
    assert "Inv1A: vacuous" in capsys.readouterr().out
    assert main(["validate", "--trace", str(trace_path), "--very-small-gap", "6"]) == 3
    assert "Inv1A: violated" in capsys.readouterr().out


def test_validate_writes_report(tmp_path, data_file):
    trace_path = tmp_path / "trace.csv"
    main(["simulate", "--config", data_file("replay_close_gap_low_speed.cfg"),
          "--out", str(trace_path)])
    report = tmp_path / "report.csv"
    assert main(["validate", "--trace", str(trace_path), "--out", str(report)]) == 0
    assert report.read_text().startswith("invariant,verdict")


def test_sweep_writes_dataset(tmp_path):
    config = tmp_path / "mini.cfg"
    config.write_text(
        "[sweep]\nrepetitions = 2\nticks = 20\nbase_seed = 5\n"
        "[scenario]\nseparation = 2\n"
        "[scenario.1]\nseparation = 1\n"
        "[scenario.2]\nseparation = 4\n"
    )
    out_dir = tmp_path / "dataset"
    assert main(["sweep", "--config", str(config), "--out-dir", str(out_dir)]) == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert "aggregate.csv" in names and "invariants.csv" in names
    assert sum(1 for n in names if n.startswith("run_")) == 4


def test_sweep_shipped_config_end_to_end(tmp_path, data_file, capsys):
    out_dir = tmp_path / "dataset"
    code = main(["sweep", "--config", data_file("sweep_spaced_gap.cfg"),
                 "--out-dir", str(out_dir)])
    assert code == 0
    names = [p.name for p in out_dir.iterdir()]
    assert sum(1 for n in names if n.startswith("run_")) == 250
    invariants = (out_dir / "invariants.csv").read_text()
    assert "violated" not in invariants
    # Neither invariant arms in this sweep.
    assert capsys.readouterr().out.splitlines() == [
        f"ran 250 runs -> {out_dir} (0 invariant violations)",
        "Inv1A pass=0 violated=0 vacuous=250",
        "Inv1B pass=0 violated=0 vacuous=250",
    ]


def test_compare_ssd_writes_table_and_plot(tmp_path):
    out = tmp_path / "ssd.csv"
    plot = tmp_path / "ssd.svg"
    assert main(["compare-ssd", "--out", str(out), "--plot", str(plot)]) == 0
    assert out.read_text().startswith("speed_mph,")
    assert plot.read_text().startswith("<svg")


def test_compare_osd_default_speeds(tmp_path):
    out = tmp_path / "osd.csv"
    assert main(["compare-osd", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 7


def test_compare_osd_custom_calibration(tmp_path, data_file):
    out = tmp_path / "osd.csv"
    code = main(["compare-osd", "--speeds", "25,50", "--out", str(out),
                 "--calibration", data_file("calibration.cfg")])
    assert code == 0


@pytest.mark.parametrize("command", ["compare-ssd", "compare-osd"])
@pytest.mark.parametrize("speeds, bad", [
    ("30,nan,20", "'nan' is not finite"),
    ("nan:60:3", "'nan' is not finite"),
    ("30,inf", "'inf' is not finite"),
    ("10:inf:3", "'inf' is not finite"),
    ("30,x", "'x' is not a number"),
    ("30,1e200", "'1e200' is out of range"),
    ("10:1e200:3", "'1e200' is out of range"),
])
def test_compare_rejects_bad_speeds(tmp_path, capsys, command, speeds, bad):
    out = tmp_path / "table.csv"
    assert main([command, "--speeds", speeds, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: --speeds: {bad}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["compare-ssd", "compare-osd"])
@pytest.mark.parametrize("speeds, bad", [
    ("30,1e8", "1e8"), ("30,1000.5", "1000.5"), ("10:1e8:3", "1e8"), ("-2000,30", "-2000"),
])
def test_compare_rejects_speeds_past_the_ceiling(tmp_path, capsys, monkeypatch, command, speeds, bad):
    def unreachable(*args):
        pytest.fail("a rejected speed reached the study")

    monkeypatch.setattr(experiments, "measured_stopping_distance", unreachable)
    monkeypatch.setattr(experiments, "measured_overtaking_distance", unreachable)
    out = tmp_path / "table.csv"
    assert main([command, f"--speeds={speeds}", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --speeds: '{bad}' is out of range\n"
    assert not out.exists()


def test_speeds_up_to_the_ceiling_are_accepted():
    assert cli._parse_speeds("0:1000:3") == [0.0, 500.0, 1000.0]
    assert cli._parse_speeds("-1000,1000") == [-1000.0, 1000.0]


@pytest.mark.parametrize("command", ["compare-ssd", "compare-osd"])
@pytest.mark.parametrize("count", [10_001, 200_000])
def test_compare_rejects_a_speed_count_past_the_cap(tmp_path, capsys, monkeypatch, command, count):
    def unreachable(*args, **kwargs):
        pytest.fail("a rejected speed count reached the study")

    monkeypatch.setattr(experiments, "compare_ssd", unreachable)
    monkeypatch.setattr(experiments, "compare_osd", unreachable)
    out = tmp_path / "table.csv"
    assert main([command, f"--speeds=10:20:{count}", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --speeds: count {count} is above 10,000\n"
    assert not out.exists()


def test_speed_count_up_to_the_cap_is_accepted():
    speeds = cli._parse_speeds("10:20:10000")
    assert len(speeds) == 10_000
    assert (speeds[0], speeds[-1]) == (10.0, 20.0)


def test_parser_is_built_once_and_keeps_no_inputs(data_file, capsys):
    rules = data_file("likelihood.rules")
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli._parser()
    assert main(["fuzzy-eval", "--rules", rules, "--input", "distance=0.3", "--input", "speed=0.5"]) == 0
    assert capsys.readouterr().out == "likelihood = 0.710950600896861\n"
    # Had the first call's inputs stayed, this one would see distance twice.
    assert main(["fuzzy-eval", "--rules", rules, "--input", "distance=0.3"]) == 1
    assert capsys.readouterr().err == "error: missing input variable 'speed'\n"


_SMALL_TRACE = ("tick,ssd,distance,fear_display,fear_level,bullet_speed,target_speed\n"
                "0,0.16,2.0,76,VeryHigh,10.0,10.0\n")


@pytest.mark.parametrize("gap", ["nan", "inf", "-inf", "-1", "0", "-0"])
@pytest.mark.parametrize("command", ["sweep", "validate"])
def test_very_small_gap_must_be_finite_and_positive(tmp_path, capsys, command, gap):
    out = tmp_path / "out"
    if command == "sweep":
        config = tmp_path / "mini.cfg"
        config.write_text("[sweep]\nrepetitions = 1\nticks = 5\n[scenario]\nseparation = 2\n")
        args = ["sweep", "--config", str(config), "--out-dir", str(out)]
    else:
        trace = tmp_path / "trace.csv"
        trace.write_text(_SMALL_TRACE)
        args = ["validate", "--trace", str(trace), "--out", str(out)]
    assert main(args + [f"--very-small-gap={gap}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --very-small-gap: ")
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_fuzzy_eval_shipped_rules(tmp_path, data_file, capsys):
    code = main(["fuzzy-eval", "--rules", data_file("likelihood.rules"),
                 "--input", "distance=0.0", "--input", "speed=1.0"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("likelihood = 0.92")


def test_fuzzy_eval_bad_input_is_config_error(data_file, capsys):
    code = main(["fuzzy-eval", "--rules", data_file("likelihood.rules"),
                 "--input", "distance=2.0", "--input", "speed=0.5"])
    assert code == 1


def test_fuzzy_eval_non_number_input_names_the_flag(data_file, capsys):
    code = main(["fuzzy-eval", "--rules", data_file("likelihood.rules"),
                 "--input", "distance=abc", "--input", "speed=0.5"])
    assert code == 1
    assert capsys.readouterr().err == "error: --input distance: 'abc' is not a number\n"


def test_fuzzy_eval_rejects_a_repeated_input(data_file, capsys):
    code = main(["fuzzy-eval", "--rules", data_file("likelihood.rules"),
                 "--input", "distance=0.3", "--input", "distance=0.9", "--input", "speed=0.5"])
    assert code == 1
    assert capsys.readouterr().err == "error: --input distance: given more than once\n"


def test_fuzzy_eval_massless_output_term_exits_1(tmp_path, data_file, capsys):
    rules = tmp_path / "thin.rules"
    rules.write_text(resources.files("fearsim.data").joinpath("likelihood.rules").read_text()
                     .replace("term likelihood VLLH 0 0 0.24", "term likelihood VLLH 0.0005 0.0005 0.0005"))
    code = main(["fuzzy-eval", "--rules", str(rules),
                 "--input", "distance=0.0", "--input", "speed=1.0"])
    assert code == 1
    assert "line 19, column 17: output term likelihood.VLLH has no mass" in capsys.readouterr().err


def test_fuzzy_eval_out_of_order_term_exits_1(tmp_path, data_file, capsys):
    rules = tmp_path / "unordered.rules"
    rules.write_text(resources.files("fearsim.data").joinpath("likelihood.rules").read_text()
                     .replace("term likelihood VLLH 0 0 0.24", "term likelihood VLLH 0 0.5 0.6"))
    code = main(["fuzzy-eval", "--rules", str(rules),
                 "--input", "distance=0.0", "--input", "speed=1.0"])
    assert code == 1
    # VLLH now peaks at 0.5, so LLH (peak 0.3) on the next line is the first term out of order.
    assert "line 20, column 17: likelihood: terms must be ordered by peak" in capsys.readouterr().err


def test_plot_from_trace_csv(tmp_path, data_file):
    trace_path = tmp_path / "trace.csv"
    main(["simulate", "--config", data_file("replay_close_gap_low_speed.cfg"),
          "--out", str(trace_path)])
    out = tmp_path / "chart.svg"
    assert main(["plot", "--trace", str(trace_path), "--out", str(out)]) == 0
    assert out.read_text().startswith("<svg")


def test_plot_requires_exactly_one_source(tmp_path, capsys):
    assert main(["plot", "--out", str(tmp_path / "x.svg")]) == 1


def _with_field(line, index, value):
    fields = line.split(",")
    fields[index] = value
    return ",".join(fields)


def _table_csv(tmp_path):
    path = tmp_path / "ssd.csv"
    assert main(["compare-ssd", "--speeds", "15,30,50", "--out", str(path)]) == 0
    return path.read_text().splitlines()


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:3] + [lines[3][:25]], "line 4: expected 7 comma-separated fields, got 3"),
    (lambda lines: [lines[0], _with_field(lines[1], 4, "yes")] + lines[2:],
     "line 2: success: expected true or false, got 'yes'"),
    # Blank lines count.
    (lambda lines: [lines[0], "", lines[1], _with_field(lines[2], 1, "x")] + lines[3:],
     "line 4: agent_ft is not a number: 'x'"),
])
def test_plot_malformed_table_names_the_line(tmp_path, capsys, edit, message):
    table = tmp_path / "bad.csv"
    table.write_text("\n".join(edit(_table_csv(tmp_path))) + "\n")
    capsys.readouterr()
    assert main(["plot", "--table", str(table), "--out", str(tmp_path / "x.svg")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:2] + [_with_field(lines[2], 1, "x")] + lines[3:],
     "line 3: ssd is not a number: 'x'"),
    (lambda lines: lines + ["# collision at tick"], "line 1202: collision tick is not an integer: 'tick'"),
    (lambda lines: lines[:5] + [lines[5] + ",1"], "line 6: expected 7 comma-separated fields, got 8"),
])
def test_validate_malformed_trace_names_the_line(tmp_path, data_file, capsys, edit, message):
    trace = tmp_path / "trace.csv"
    assert main(["simulate", "--config", data_file("replay_close_gap_low_speed.cfg"),
                 "--out", str(trace)]) == 0
    trace.write_text("\n".join(edit(trace.read_text().splitlines())) + "\n")
    capsys.readouterr()
    assert main(["validate", "--trace", str(trace)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_simulate_with_emotion_records(tmp_path, data_file):
    emotions = tmp_path / "emotions.csv"
    emotions.write_text("undesirability,likelihood,ig\n0.0,0.0,0.0\n")
    trace_path = tmp_path / "trace.csv"
    code = main(["simulate", "--config", data_file("replay_close_gap_low_speed.cfg"),
                 "--emotions", str(emotions), "--out", str(trace_path)])
    assert code == 0
    trace = trace_from_csv(trace_path.read_text())
    assert all(r.fear_level in (FearLevel.VERY_LOW, FearLevel.LOW) for r in trace.records)


def test_failed_write_leaves_no_partial_file(tmp_path, data_file, monkeypatch):
    import fearsim.cli as cli_module

    def boom(trace):
        raise ValueError("render exploded")

    monkeypatch.setattr(cli_module, "run_scenario", lambda cfg: (_ for _ in ()).throw(ValueError("boom")))
    out = tmp_path / "trace.csv"
    code = main(["simulate", "--config", data_file("replay_close_gap_low_speed.cfg"),
                 "--out", str(out)])
    assert code == 1
    assert not out.exists()
