"""Hand-emitted SVG: eigenvalue histogram overlaid with a law density.

No plotting dependency; the output is plain XML with axis lines, bars,
the density polyline over the full law support, and dashed support-edge
markers.  The renderer returns the text and writes no file.
"""

from __future__ import annotations

import numpy as np

WIDTH, HEIGHT = 640, 400
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 60, 20, 30, 45
CURVE_POINTS = 256  # samples of the law density along its support


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_histogram_svg(
    bin_edges: np.ndarray,
    densities: np.ndarray,
    law,
    title: str,
) -> str:
    """The SVG text; the density curve is one `law.pdf` call on its points."""
    bin_edges = np.asarray(bin_edges, dtype=float)
    densities = np.asarray(densities, dtype=float)
    lo_s, hi_s = law.support
    x_min = min(float(bin_edges[0]), lo_s)
    x_max = max(float(bin_edges[-1]), hi_s)
    pad = 0.05 * (x_max - x_min)
    x_min -= pad
    x_max += pad

    xs = np.linspace(lo_s, hi_s, CURVE_POINTS)
    curve = law.pdf(xs)
    y_max = 1.1 * max(float(densities.max(initial=0.0)), float(curve.max()), 1e-9)

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):  # a float or an array, in the same operation order
        return MARGIN_L + (x - x_min) / (x_max - x_min) * plot_w

    def py(y):
        return MARGIN_T + (1.0 - y / y_max) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{_esc(title)}</text>',
    ]

    x0, x1, y0 = px(bin_edges[:-1]), px(bin_edges[1:]), py(densities)
    bar = ('<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="#9ecae1" '
           'stroke="#6baed6" stroke-width="0.5"/>')
    bars = zip(x0.tolist(), y0.tolist(), (x1 - x0).tolist(), (py(0.0) - y0).tolist())
    parts.extend(map(bar.__mod__, bars))

    pts = " ".join(map("%.2f,%.2f".__mod__, zip(px(xs).tolist(), py(curve).tolist())))
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="#d62728" stroke-width="1.8"/>'
    )

    for edge in law.support:
        parts.append(
            f'<line x1="{px(edge):.2f}" y1="{py(0.0):.2f}" x2="{px(edge):.2f}" '
            f'y2="{MARGIN_T}" stroke="#999999" stroke-width="1" '
            'stroke-dasharray="4 3"/>'
        )

    axis_y = py(0.0)
    parts.append(
        f'<line x1="{MARGIN_L}" y1="{axis_y:.2f}" x2="{WIDTH - MARGIN_R}" '
        f'y2="{axis_y:.2f}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
        f'y2="{axis_y:.2f}" stroke="black" stroke-width="1"/>'
    )
    for tick in np.linspace(x_min, x_max, 7):
        x = px(float(tick))
        parts.append(
            f'<line x1="{x:.2f}" y1="{axis_y:.2f}" x2="{x:.2f}" '
            f'y2="{axis_y + 5:.2f}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{axis_y + 18:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{tick:.2f}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        yv = frac * y_max
        y = py(yv)
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{y:.2f}" x2="{MARGIN_L}" '
            f'y2="{y:.2f}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{y + 3:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{yv:.3f}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
