"""Self-contained SVG line and scatter plots.

Just enough plotting for the command-line reports: one axes box, ticks,
polyline or point series, a legend, and an optional unit-diagonal
reference.  Output is deterministic text with no external resources.
"""

from __future__ import annotations

import numpy as np

__all__ = ["svg_plot"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_MARGIN_L = 64.0
_MARGIN_R = 16.0
_MARGIN_T = 38.0
_MARGIN_B = 50.0
_WIDTH = 720
_HEIGHT = 520


def _extent(values):
    lo = float(min(values))
    hi = float(max(values))
    if hi == lo:
        lo -= 0.5
        hi += 0.5
    span = hi - lo
    return lo - 0.05 * span, hi + 0.05 * span


def _ticks(lo, hi):
    return [lo + (hi - lo) * k / 4 for k in range(5)]


def svg_plot(series, *, title="", xlabel="", ylabel="", diagonal=False) -> str:
    """Render series to a 720 x 520 SVG string.

    Each series is a dict with keys ``label``, ``x``, ``y`` (of equal
    length) and an optional ``kind`` of "line" (default) or "points";
    series take the palette's colours in order.  With diagonal=True the
    line y=x is drawn across the shared data range for reference.
    """
    series = list(series)
    if not series:
        raise ValueError("need at least one series")
    xy = [(np.asarray(s["x"], dtype=float), np.asarray(s["y"], dtype=float)) for s in series]
    if any(xs.shape != ys.shape for xs, ys in xy):
        raise ValueError("each series needs as many y values as x values")
    all_x = np.concatenate([xs for xs, _ in xy])
    all_y = np.concatenate([ys for _, ys in xy])
    if not (np.isfinite(all_x).all() and np.isfinite(all_y).all()):
        raise ValueError("series values must be finite")
    xlo, xhi = _extent(all_x)
    ylo, yhi = _extent(all_y)
    if diagonal:
        lo = min(xlo, ylo)
        hi = max(xhi, yhi)
        xlo = ylo = lo
        xhi = yhi = hi

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x):
        return _MARGIN_L + (x - xlo) / (xhi - xlo) * plot_w

    def py(y):
        return _MARGIN_T + (yhi - y) / (yhi - ylo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L:.2f}" y="{_MARGIN_T:.2f}" width="{plot_w:.2f}" '
        f'height="{plot_h:.2f}" fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.2f}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>'
        )
    for tx in _ticks(xlo, xhi):
        x = px(tx)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_T + plot_h:.2f}" x2="{x:.2f}" '
            f'y2="{_MARGIN_T + plot_h + 5:.2f}" stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_MARGIN_T + plot_h + 20:.2f}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f"{tx:.4g}</text>"
        )
    for ty in _ticks(ylo, yhi):
        y = py(ty)
        parts.append(
            f'<line x1="{_MARGIN_L - 5:.2f}" y1="{y:.2f}" x2="{_MARGIN_L:.2f}" '
            f'y2="{y:.2f}" stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 9:.2f}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{ty:.4g}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{_HEIGHT - 12:.2f}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="13">'
            f"{xlabel}</text>"
        )
    if ylabel:
        x = 16.0
        y = _MARGIN_T + plot_h / 2
        parts.append(
            f'<text x="{x:.2f}" y="{y:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 {x:.2f} {y:.2f})">{ylabel}</text>'
        )
    if diagonal:
        parts.append(
            f'<line x1="{px(xlo):.2f}" y1="{py(xlo):.2f}" x2="{px(xhi):.2f}" '
            f'y2="{py(xhi):.2f}" stroke="#999" stroke-width="1" '
            f'stroke-dasharray="5,4"/>'
        )
    for k, (s, (xs, ys)) in enumerate(zip(series, xy)):
        color = _COLORS[k % len(_COLORS)]
        if s.get("kind", "line") == "points":
            for xv, yv in zip(xs, ys):
                parts.append(
                    f'<circle cx="{px(xv):.2f}" cy="{py(yv):.2f}" r="3.5" '
                    f'fill="{color}" fill-opacity="0.8"/>'
                )
        else:
            pts = " ".join(f"{px(xv):.2f},{py(yv):.2f}" for xv, yv in zip(xs, ys))
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="1.8"/>'
            )
        ly = _MARGIN_T + 16 + 18 * k
        lx = _MARGIN_L + plot_w - 140
        parts.append(
            f'<line x1="{lx:.2f}" y1="{ly - 4:.2f}" x2="{lx + 22:.2f}" '
            f'y2="{ly - 4:.2f}" stroke="{color}" stroke-width="2.5"/>'
        )
        parts.append(
            f'<text x="{lx + 28:.2f}" y="{ly:.2f}" font-family="sans-serif" '
            f'font-size="12">{s["label"]}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
