"""End-to-end command line checks using only shipped configuration files."""


from importlib import resources

import pytest

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


def test_sweep_shipped_config_end_to_end(tmp_path, data_file):
    out_dir = tmp_path / "dataset"
    code = main(["sweep", "--config", data_file("sweep_spaced_gap.cfg"),
                 "--out-dir", str(out_dir)])
    assert code == 0
    names = [p.name for p in out_dir.iterdir()]
    assert sum(1 for n in names if n.startswith("run_")) == 250
    invariants = (out_dir / "invariants.csv").read_text()
    assert "violated" not in invariants


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


def test_fuzzy_eval_massless_output_term_exits_1(tmp_path, data_file, capsys):
    rules = tmp_path / "thin.rules"
    rules.write_text(resources.files("fearsim.data").joinpath("likelihood.rules").read_text()
                     .replace("term likelihood VLLH 0 0 0.24", "term likelihood VLLH 0.0005 0.0005 0.0005"))
    code = main(["fuzzy-eval", "--rules", str(rules),
                 "--input", "distance=0.0", "--input", "speed=1.0"])
    assert code == 1
    assert "line 19, column 17: output term likelihood.VLLH has no mass" in capsys.readouterr().err


def test_plot_from_trace_csv(tmp_path, data_file):
    trace_path = tmp_path / "trace.csv"
    main(["simulate", "--config", data_file("replay_close_gap_low_speed.cfg"),
          "--out", str(trace_path)])
    out = tmp_path / "chart.svg"
    assert main(["plot", "--trace", str(trace_path), "--out", str(out)]) == 0
    assert out.read_text().startswith("<svg")


def test_plot_requires_exactly_one_source(tmp_path, capsys):
    assert main(["plot", "--out", str(tmp_path / "x.svg")]) == 1


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
