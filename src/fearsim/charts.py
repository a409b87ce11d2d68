"""Static SVG charts for traces and comparison tables.

Rendering is plain string assembly with fixed-precision coordinates, so
identical inputs always produce identical bytes.
"""

from __future__ import annotations

from .experiments import ComparisonTable
from .sim import Trace

__all__ = ["trace_chart_svg", "comparison_chart_svg"]

_W, _H = 860, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 60, 60, 30, 50
_PLOT_W = _W - _MARGIN_L - _MARGIN_R
_PLOT_H = _H - _MARGIN_T - _MARGIN_B

_FEAR_COLOR = "#d95f02"
_GAP_COLOR = "#7570b3"
_AGENT_COLOR = "#1b9e77"
_HUMAN_COLOR = "#d95f02"


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _x_at(i: int, n: int) -> float:
    if n <= 1:
        return _MARGIN_L + _PLOT_W / 2
    return _MARGIN_L + _PLOT_W * i / (n - 1)


def _y_at(value: float, lo: float, hi: float) -> float:
    if hi <= lo:
        return _MARGIN_T + _PLOT_H / 2
    frac = (value - lo) / (hi - lo)
    return _MARGIN_T + _PLOT_H * (1.0 - frac)


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="20" text-anchor="middle" font-family="sans-serif" '
        f'font-size="14">{title}</text>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{_PLOT_W}" height="{_PLOT_H}" '
        f'fill="none" stroke="#cccccc"/>',
    ]


def _series(xs: list[str], ys, color: str) -> str:
    """One series from its formatted x and y coordinates."""
    if len(xs) == 1:
        y, = ys
        return f'<circle cx="{xs[0]}" cy="{y}" r="3" fill="{color}"/>'
    coords = " ".join([f"{x},{y}" for x, y in zip(xs, ys)])
    return f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'


def trace_chart_svg(trace: Trace) -> str:
    """Two-series line chart: fear display (0..100) and gap over ticks.

    Each coordinate string is formatted once: an x for both series, a fear
    y per distinct display and a gap y per tick.
    """
    displays, gaps = trace.columns.fear_display, trace.columns.distance
    if not gaps:
        raise ValueError("cannot chart an empty trace")
    n = len(gaps)
    gap_hi = max(max(gaps), 1.0)
    parts = _header("fear and gap per tick")
    xs = [_fmt(_x_at(i, n)) for i in range(n)]
    fear_y = {d: _fmt(_y_at(d, 0.0, 100.0)) for d in set(displays)}
    parts.append(_series(xs, map(fear_y.__getitem__, displays), _FEAR_COLOR))
    parts.append(_series(xs, [_fmt(_y_at(g, 0.0, gap_hi)) for g in gaps], _GAP_COLOR))
    # axes annotation: left fear scale, right gap scale, tick count below
    parts.append(f'<text x="{_MARGIN_L - 8}" y="{_MARGIN_T + 12}" text-anchor="end" '
                 f'font-family="sans-serif" font-size="11" fill="{_FEAR_COLOR}">100</text>')
    parts.append(f'<text x="{_MARGIN_L - 8}" y="{_MARGIN_T + _PLOT_H}" text-anchor="end" '
                 f'font-family="sans-serif" font-size="11" fill="{_FEAR_COLOR}">0</text>')
    parts.append(f'<text x="{_MARGIN_L + _PLOT_W + 8}" y="{_MARGIN_T + 12}" '
                 f'font-family="sans-serif" font-size="11" fill="{_GAP_COLOR}">{gap_hi:.2f}</text>')
    parts.append(f'<text x="{_MARGIN_L + _PLOT_W + 8}" y="{_MARGIN_T + _PLOT_H}" '
                 f'font-family="sans-serif" font-size="11" fill="{_GAP_COLOR}">0</text>')
    parts.append(f'<text x="{_W / 2:.0f}" y="{_H - 14}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12">tick (n={n})</text>')
    parts.append(f'<text x="{_MARGIN_L}" y="{_H - 14}" font-family="sans-serif" '
                 f'font-size="11" fill="{_FEAR_COLOR}">fear display</text>')
    parts.append(f'<text x="{_MARGIN_L + 110}" y="{_H - 14}" font-family="sans-serif" '
                 f'font-size="11" fill="{_GAP_COLOR}">gap (sim units)</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def comparison_chart_svg(table: ComparisonTable, title: str = "agent vs human distance") -> str:
    """Grouped bar chart: one group per speed, agent bar beside human bar."""
    if not table.rows:
        raise ValueError("cannot chart an empty comparison table")
    n = len(table.rows)
    hi = max(max(r.agent_ft, r.human_ft) for r in table.rows)
    parts = _header(title)
    group_w = _PLOT_W / n
    bar_w = min(group_w * 0.35, 40.0)
    for i, row in enumerate(table.rows):
        cx = _MARGIN_L + group_w * (i + 0.5)
        for offset, value, color in ((-bar_w, row.agent_ft, _AGENT_COLOR),
                                     (0.0, row.human_ft, _HUMAN_COLOR)):
            top = _y_at(value, 0.0, hi)
            parts.append(
                f'<rect x="{_fmt(cx + offset)}" y="{_fmt(top)}" width="{_fmt(bar_w)}" '
                f'height="{_fmt(_MARGIN_T + _PLOT_H - top)}" fill="{color}"/>'
            )
        parts.append(f'<text x="{_fmt(cx)}" y="{_H - 32}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{row.speed_mph:g}</text>')
    parts.append(f'<text x="{_MARGIN_L - 8}" y="{_MARGIN_T + 12}" text-anchor="end" '
                 f'font-family="sans-serif" font-size="11">{hi:.1f} ft</text>')
    parts.append(f'<text x="{_W / 2:.0f}" y="{_H - 14}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12">speed (mph)</text>')
    parts.append(f'<text x="{_MARGIN_L}" y="{_H - 14}" font-family="sans-serif" '
                 f'font-size="11" fill="{_AGENT_COLOR}">agent</text>')
    parts.append(f'<text x="{_MARGIN_L + 60}" y="{_H - 14}" font-family="sans-serif" '
                 f'font-size="11" fill="{_HUMAN_COLOR}">human</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
