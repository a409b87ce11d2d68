"""SVG chart rendering."""

import pytest
from hypothesis import given, settings, strategies as st

from fearsim import charts
from fearsim.charts import comparison_chart_svg, trace_chart_svg
from fearsim.emotion import DISPLAY_PLATEAUS, FearLevel
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


def per_point_trace_chart_svg(trace):
    """The trace chart as first written: every coordinate of both series
    placed and formatted point by point."""
    c = charts

    def fmt(x):
        return f"{x:.2f}"

    def x_at(i, n):
        if n <= 1:
            return c._MARGIN_L + c._PLOT_W / 2
        return c._MARGIN_L + c._PLOT_W * i / (n - 1)

    def y_at(value, lo, hi):
        if hi <= lo:
            return c._MARGIN_T + c._PLOT_H / 2
        frac = (value - lo) / (hi - lo)
        return c._MARGIN_T + c._PLOT_H * (1.0 - frac)

    def series(points, color):
        if len(points) == 1:
            x, y = points[0]
            return f'<circle cx="{fmt(x)}" cy="{fmt(y)}" r="3" fill="{color}"/>'
        coords = " ".join(f"{fmt(x)},{fmt(y)}" for x, y in points)
        return f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'

    gaps = trace.columns.distance
    n = len(gaps)
    gap_hi = max(max(gaps), 1.0)
    parts = c._header("fear and gap per tick")
    fear_pts = [(x_at(i, n), y_at(d, 0.0, 100.0)) for i, d in enumerate(trace.columns.fear_display)]
    gap_pts = [(x_at(i, n), y_at(g, 0.0, gap_hi)) for i, g in enumerate(gaps)]
    parts.append(series(fear_pts, c._FEAR_COLOR))
    parts.append(series(gap_pts, c._GAP_COLOR))
    parts.append(f'<text x="{c._MARGIN_L - 8}" y="{c._MARGIN_T + 12}" text-anchor="end" '
                 f'font-family="sans-serif" font-size="11" fill="{c._FEAR_COLOR}">100</text>')
    parts.append(f'<text x="{c._MARGIN_L - 8}" y="{c._MARGIN_T + c._PLOT_H}" text-anchor="end" '
                 f'font-family="sans-serif" font-size="11" fill="{c._FEAR_COLOR}">0</text>')
    parts.append(f'<text x="{c._MARGIN_L + c._PLOT_W + 8}" y="{c._MARGIN_T + 12}" '
                 f'font-family="sans-serif" font-size="11" fill="{c._GAP_COLOR}">{gap_hi:.2f}</text>')
    parts.append(f'<text x="{c._MARGIN_L + c._PLOT_W + 8}" y="{c._MARGIN_T + c._PLOT_H}" '
                 f'font-family="sans-serif" font-size="11" fill="{c._GAP_COLOR}">0</text>')
    parts.append(f'<text x="{c._W / 2:.0f}" y="{c._H - 14}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12">tick (n={n})</text>')
    parts.append(f'<text x="{c._MARGIN_L}" y="{c._H - 14}" font-family="sans-serif" '
                 f'font-size="11" fill="{c._FEAR_COLOR}">fear display</text>')
    parts.append(f'<text x="{c._MARGIN_L + 110}" y="{c._H - 14}" font-family="sans-serif" '
                 f'font-size="11" fill="{c._GAP_COLOR}">gap (sim units)</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@st.composite
def chart_traces(draw):
    """Traces of 1 to 300 ticks on the fear plateaus, with gaps all below
    1 (so the gap scale tops out at 1) or reaching past it."""
    n = draw(st.integers(1, 300))
    displays = draw(st.lists(st.sampled_from(DISPLAY_PLATEAUS), min_size=n, max_size=n))
    gaps = draw(st.lists(st.floats(-1.0, 1.0, exclude_max=True), min_size=n, max_size=n))
    if draw(st.booleans()):
        gaps[draw(st.integers(0, n - 1))] = draw(st.floats(1.0, 1e4, exclude_min=True))
    zeros = (0.0,) * n
    columns = TraceColumns(tuple(range(n)), zeros, tuple(gaps), tuple(displays),
                           (FearLevel.LOW,) * n, zeros, zeros)
    return Trace(ScenarioConfig(), columns)


@settings(max_examples=150, deadline=None)
@given(chart_traces())
def test_trace_chart_is_the_per_point_chart(trace):
    assert trace_chart_svg(trace) == per_point_trace_chart_svg(trace)


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
