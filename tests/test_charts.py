"""SVG chart rendering."""

import pytest

from fearsim.charts import comparison_chart_svg, trace_chart_svg
from fearsim.experiments import ComparisonTable, compare_ssd
from fearsim.sim import ScenarioConfig, Trace, TraceColumns, run_scenario


def test_trace_chart_is_valid_svg_with_two_series():
    svg = trace_chart_svg(run_scenario(ScenarioConfig(ticks=50)))
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2


def test_trace_chart_bytes_deterministic():
    trace = run_scenario(ScenarioConfig(ticks=80, separation=3.0))
    assert trace_chart_svg(trace) == trace_chart_svg(trace)


def test_single_tick_trace_degenerates_to_points():
    svg = trace_chart_svg(run_scenario(ScenarioConfig(ticks=1)))
    assert "<circle" in svg
    assert "</svg>" in svg


def test_empty_trace_is_rejected():
    empty = Trace(config=ScenarioConfig(), columns=TraceColumns(*[()] * 7))
    with pytest.raises(ValueError):
        trace_chart_svg(empty)


def test_comparison_chart_has_bar_pair_per_speed():
    speeds = [15 + (50 - 15) * i / 11 for i in range(12)]
    table = compare_ssd(speeds)
    svg = comparison_chart_svg(table)
    assert svg.count("<rect") == 2 + 2 * 12  # frame + background + bars


def test_comparison_chart_agent_bars_shorter():
    table = compare_ssd([20.0, 40.0])
    svg = comparison_chart_svg(table)
    heights = [float(line.split('height="')[1].split('"')[0])
               for line in svg.splitlines()
               if line.startswith("<rect") and ('#1b9e77' in line or '#d95f02' in line)]
    agent_heights = heights[0::2]
    human_heights = heights[1::2]
    assert all(a < h for a, h in zip(agent_heights, human_heights))


def test_comparison_chart_rejects_empty_table():
    with pytest.raises(ValueError):
        comparison_chart_svg(ComparisonTable(()))
