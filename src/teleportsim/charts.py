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
        f'<text x="{WIDTH / 2:.1f}" y="28" text-anchor="middle" font-size="18" '
        f'font-family="sans-serif">{_escape(title)}</text>',
    ]

    ticks = 5
    for k in range(ticks + 1):
        yv = y_min + (y_max - y_min) * k / ticks
        y = py(yv)
        lines.append(
            f'<line x1="{plot_left}" y1="{y:.2f}" x2="{plot_right}" y2="{y:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{plot_left - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-size="12" font-family="sans-serif">{yv:.2f}</text>'
        )
        xv = x_min + (x_max - x_min) * k / ticks
        x = px(xv)
        lines.append(
            f'<line x1="{x:.2f}" y1="{plot_bottom}" x2="{x:.2f}" y2="{plot_bottom + 5}" '
            'stroke="#000000" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{x:.2f}" y="{plot_bottom + 20}" text-anchor="middle" '
            f'font-size="12" font-family="sans-serif">{xv:.3g}</text>'
        )

    lines.append(
        f'<line x1="{plot_left}" y1="{plot_bottom}" x2="{plot_right}" y2="{plot_bottom}" '
        'stroke="#000000" stroke-width="1.5"/>'
    )
    lines.append(
        f'<line x1="{plot_left}" y1="{plot_top}" x2="{plot_left}" y2="{plot_bottom}" '
        'stroke="#000000" stroke-width="1.5"/>'
    )

    legend_x = plot_right + 18
    legend_y = plot_top + 14
    for idx, (label, points) in enumerate(series):
        color = COLORS[idx % len(COLORS)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in points)
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{coords}"/>'
        )
        ly = legend_y + idx * 22
        lines.append(
            f'<line x1="{legend_x}" y1="{ly}" x2="{legend_x + 22}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        lines.append(
            f'<text x="{legend_x + 28}" y="{ly + 4}" font-size="12" '
            f'font-family="sans-serif">{_escape(label)}</text>'
        )

    lines.append(
        f'<text x="{(plot_left + plot_right) / 2:.1f}" y="{HEIGHT - 20}" '
        f'text-anchor="middle" font-size="14" font-family="sans-serif">{_escape(X_LABEL)}</text>'
    )
    mid_y = (plot_top + plot_bottom) / 2
    lines.append(
        f'<text x="22" y="{mid_y:.1f}" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif" transform="rotate(-90 22 {mid_y:.1f})">{_escape(Y_LABEL)}</text>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
