"""Hand-rolled SVG histogram (rect/text elements only).

No plotting stack: output is a deterministic string, suitable for golden-file
comparison.
"""

from __future__ import annotations

WIDTH = 640
HEIGHT = 400
MARGIN_LEFT = 60
MARGIN_RIGHT = 20
MARGIN_TOP = 30
MARGIN_BOTTOM = 50


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def histogram_svg(bin_edges, counts) -> str:
    """Render a bar histogram with 'min-cut capacity' / 'frequency' axes."""
    if len(bin_edges) != len(counts) + 1 or not counts:
        raise ValueError("need len(bin_edges) == len(counts) + 1 >= 2")
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    x_lo, x_hi = bin_edges[0], bin_edges[-1]
    x_span = max(x_hi - x_lo, 1e-12)
    y_max = max(max(counts), 1)

    def sx(x):
        return MARGIN_LEFT + (x - x_lo) / x_span * plot_w

    def sy(c):
        return MARGIN_TOP + plot_h - c / y_max * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    for lo, hi, count in zip(bin_edges, bin_edges[1:], counts):
        if count <= 0:
            continue
        x = sx(lo)
        w = sx(hi) - x
        y = sy(count)
        h = MARGIN_TOP + plot_h - y
        parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{_fmt(h)}" fill="#4878a8" stroke="black" stroke-width="0.5"/>'
        )
    # Axes drawn as thin rects so the file stays rect/text only.
    parts.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP + plot_h}" width="{plot_w}" '
        f'height="1" fill="black"/>'
    )
    parts.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="1" height="{plot_h}" '
        f'fill="black"/>'
    )
    # Tick labels: bin edges on x, 0 and max on y.
    step = max(1, len(bin_edges) // 10)
    for i in range(0, len(bin_edges), step):
        e = bin_edges[i]
        parts.append(
            f'<text x="{_fmt(sx(e))}" y="{MARGIN_TOP + plot_h + 18}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f"{_fmt(e)}</text>"
        )
    for c in (0, y_max):
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{_fmt(sy(c) + 4)}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11">{c}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w // 2}" y="{HEIGHT - 10}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="13">'
        f"min-cut capacity</text>"
    )
    parts.append(
        f'<text x="16" y="{MARGIN_TOP + plot_h // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {MARGIN_TOP + plot_h // 2})">frequency</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
