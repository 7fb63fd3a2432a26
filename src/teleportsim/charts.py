"""Minimal deterministic SVG line charts, no plotting dependency.

Output is plain text built with fixed formatting, so identical inputs give
byte-identical files that can be diffed in tests.
"""

from __future__ import annotations

from typing import Sequence

WIDTH = 880
HEIGHT = 560
MARGIN_LEFT = 70
MARGIN_RIGHT = 230
MARGIN_TOP = 50
MARGIN_BOTTOM = 70

COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]
X_LABEL = "noise probability p"
Y_LABEL = "fidelity"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _line(x1, y1, x2, y2, stroke: str, width) -> str:
    return (
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
        f'stroke="{stroke}" stroke-width="{width}"/>'
    )


def _text(x, y, size: int, text: str, anchor: str = "", transform: str = "") -> str:
    """A text element; the anchor and the transform are left out when empty."""
    anchor = anchor and f' text-anchor="{anchor}"'
    transform = transform and f' transform="{transform}"'
    return (
        f'<text x="{x}" y="{y}"{anchor} font-size="{size}" '
        f'font-family="sans-serif"{transform}>{_escape(text)}</text>'
    )


def render_line_chart(
    title: str, series: Sequence[tuple[str, Sequence[tuple[float, float]]]]
) -> str:
    """Render labelled (x, y) polylines with axes, grid, and a legend."""
    if not series or not any(points for _, points in series):
        raise ValueError("nothing to plot")

    xs = [x for _, pts in series for x, _ in pts]
    x_min, x_max = min(xs), max(xs)
    if x_max <= x_min:
        x_max = x_min + 1.0
    y_min, y_max = 0.0, 1.0

    plot_left = MARGIN_LEFT
    plot_right = WIDTH - MARGIN_RIGHT
    plot_top = MARGIN_TOP
    plot_bottom = HEIGHT - MARGIN_BOTTOM

    def px(x: float) -> float:
        return plot_left + (x - x_min) / (x_max - x_min) * (plot_right - plot_left)

    def py(y: float) -> float:
        return plot_bottom - (y - y_min) / (y_max - y_min) * (plot_bottom - plot_top)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        _text(f"{WIDTH / 2:.1f}", 28, 18, title, "middle"),
    ]

    ticks = 5
    for k in range(ticks + 1):
        yv = y_min + (y_max - y_min) * k / ticks
        y = py(yv)
        lines.append(_line(plot_left, f"{y:.2f}", plot_right, f"{y:.2f}", "#dddddd", 1))
        lines.append(_text(plot_left - 8, f"{y + 4:.2f}", 12, f"{yv:.2f}", "end"))
        xv = x_min + (x_max - x_min) * k / ticks
        x = f"{px(xv):.2f}"
        lines.append(_line(x, plot_bottom, x, plot_bottom + 5, "#000000", 1))
        lines.append(_text(x, plot_bottom + 20, 12, f"{xv:.3g}", "middle"))

    lines.append(_line(plot_left, plot_bottom, plot_right, plot_bottom, "#000000", 1.5))
    lines.append(_line(plot_left, plot_top, plot_left, plot_bottom, "#000000", 1.5))

    legend_x = plot_right + 18
    legend_y = plot_top + 14
    for idx, (label, points) in enumerate(series):
        color = COLORS[idx % len(COLORS)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in points)
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{coords}"/>'
        )
        ly = legend_y + idx * 22
        lines.append(_line(legend_x, ly, legend_x + 22, ly, color, 2))
        lines.append(_text(legend_x + 28, ly + 4, 12, label))

    lines.append(_text(f"{(plot_left + plot_right) / 2:.1f}", HEIGHT - 20, 14, X_LABEL, "middle"))
    mid_y = f"{(plot_top + plot_bottom) / 2:.1f}"
    lines.append(_text(22, mid_y, 14, Y_LABEL, "middle", f"rotate(-90 22 {mid_y})"))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
