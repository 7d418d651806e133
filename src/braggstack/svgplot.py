"""Minimal deterministic SVG line plots.

No rendering dependency: the document is assembled from fixed-format strings,
so identical inputs produce identical bytes, which makes the plots usable as
golden files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 24, 36, 52
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")
ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})  # text content


@dataclass(frozen=True)
class Series:
    x: np.ndarray
    y: np.ndarray
    label: str = ""


def _widened(lo: float, hi: float) -> float:
    """hi, or for a constant axis an upper end above lo: lo + 1, or a few
    ulps of lo from 2^53 on, where lo + 1 rounds back to lo."""
    if hi > lo:
        return hi
    return lo + (1.0 if abs(lo) < 2.0**53 else abs(lo) * 2.0**-50)


def _nice_ticks(lo: float, hi: float):
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("tick range must be finite")
    hi = _widened(lo, hi)
    raw = (hi - lo) / 6  # about six ticks
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0.0 else 0.0  # may underflow
    step = next((m * mag for m in (1.0, 2.0, 5.0, 10.0) if raw <= m * mag), 0.0)
    if step < math.ulp(max(abs(lo), abs(hi))):
        return [lo]  # a step below an ulp of the axis gives no distinct ticks
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t = first + len(ticks) * step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _m4(x, y):
    """Indices, in order, of the first, last, min-y and max-y point of each
    pixel column floor(x) of a non-decreasing x: the M4 aggregation, whose
    polyline draws the pixels of the full one (Jugel et al., PVLDB 7(10),
    2014).  Integer column edges by binary search: no sort, no copy of x."""
    cols = np.arange(math.floor(x[0]) + 1, math.floor(x[-1]) + 1)
    edges = [0, *np.searchsorted(x, cols).tolist(), x.size]
    keep = set()
    for a, b in zip(edges, edges[1:]):
        if a < b:
            keep.update((a, b - 1, a + int(np.argmin(y[a:b])),
                         a + int(np.argmax(y[a:b]))))
    return np.array(sorted(keep))


def render_svg(series, xlabel: str, ylabel: str) -> str:
    """Line plot of the given series with axes, ticks and a legend."""
    series = list(series)
    if not series:
        raise ValueError("need at least one series")
    for i, s in enumerate(series):  # zip would drop points; min() fails on none
        name, n, m = repr(s.label) if s.label else f"#{i}", np.size(s.x), np.size(s.y)
        if np.ndim(s.x) != 1 or np.ndim(s.y) != 1:
            raise ValueError(f"series {name}: x and y must be 1-d")
        if n != m:
            raise ValueError(f"series {name}: x has {n} points, y has {m}")
        if n == 0:
            raise ValueError(f"series {name} is empty")
    # limits of the series' limits, in numpy: a NaN anywhere gives NaN limits
    x_lo, x_hi = (float(f([f(s.x) for s in series])) for f in (np.min, np.max))
    y_lo, y_hi = (float(f([f(s.y) for s in series])) for f in (np.min, np.max))
    x_hi, y_hi = _widened(x_lo, x_hi), _widened(y_lo, y_hi)
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#000000"/>',
    ]
    font = 'font-family="sans-serif" font-size="13"'
    for t in _nice_ticks(x_lo, x_hi):
        x = px(t)
        out.append(f'<line x1="{_fmt(x)}" y1="{py(y_lo)}" x2="{_fmt(x)}" '
                   f'y2="{_fmt(py(y_lo) + 5)}" stroke="#000000"/>')
        out.append(f'<text x="{_fmt(x)}" y="{_fmt(py(y_lo) + 20)}" {font} '
                   f'text-anchor="middle">{t:g}</text>')
    for t in _nice_ticks(y_lo, y_hi):
        y = py(t)
        out.append(f'<line x1="{MARGIN_L - 5}" y1="{_fmt(y)}" x2="{MARGIN_L}" '
                   f'y2="{_fmt(y)}" stroke="#000000"/>')
        out.append(f'<text x="{MARGIN_L - 8}" y="{_fmt(y + 4)}" {font} '
                   f'text-anchor="end">{t:g}</text>')
    out.append(f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 12}" '
               f'{font} text-anchor="middle">{xlabel.translate(ESCAPES)}</text>')
    out.append(f'<text x="18" y="{MARGIN_T + plot_h / 2:.1f}" {font} '
               f'text-anchor="middle" transform="rotate(-90 18 '
               f'{MARGIN_T + plot_h / 2:.1f})">{ylabel.translate(ESCAPES)}</text>')
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        # px and py over whole arrays: the same float64 operations, in the
        # same order, as on one point; a long series whose px is
        # non-decreasing keeps only its M4 points, to which py is applied
        x, y = px(np.asarray(s.x, dtype=float)), np.asarray(s.y, dtype=float)
        if x.size > 4 * plot_w and np.all(x[1:] >= x[:-1]):
            keep = _m4(x, y)
            x, y = x[keep], y[keep]
        # one % over the Python floats of x and py(y), interleaved
        xy = np.stack([x, py(y)], axis=1).ravel().tolist()
        points = " ".join(["%.3f,%.3f"] * x.size) % tuple(xy)
        out.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        if s.label:
            ly = MARGIN_T + 16 + 16 * i
            lx = WIDTH - MARGIN_R - 150
            out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" '
                       f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
            out.append(f'<text x="{lx + 28}" y="{ly}" {font}>'
                       f'{s.label.translate(ESCAPES)}</text>')
    out.append("</svg>\n")
    return "\n".join(out)


def spectrum_series(tables):
    """One R Series per table, labeled from metadata."""
    out = []
    for i, t in enumerate(tables):
        label = t.metadata.get("label", "") if t.metadata else ""
        if not label and len(tables) > 1:
            label = f"run {i}"
        out.append(Series(t.delta_over_gamma, t.R, label))
    return out
