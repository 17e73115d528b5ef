"""Deterministic standalone SVG line plots (axes, ticks, legend, one
polyline per curve).  Identical input produces byte-identical files."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .csvio import write_atomic

_WIDTH, _HEIGHT = 720, 480
_ML, _MR, _MT, _MB = 70, 24, 28, 48
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")


def _transform(lo: float, hi: float, pixel_lo: float, pixel_hi: float):
    span = hi - lo if hi > lo else 1.0

    def to_pixel(v):
        return pixel_lo + (v - lo) / span * (pixel_hi - pixel_lo)
    return to_pixel


def _xml_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def emit_plot(series, path, loglog: bool = False, title: str = "") -> Path:
    """Write labeled (x, y) curves as an SVG file.

    series: list of (label, x_values, y_values).
    """
    if not series:
        raise ValueError("empty series")
    curves = []
    for label, xs, ys in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.size < 2 or xs.size != ys.size:
            raise ValueError(f"curve {label!r} needs >= 2 matching points")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError(f"curve {label!r} has non-finite values")
        if loglog and (np.any(xs <= 0.0) or np.any(ys <= 0.0)):
            raise ValueError(f"nonpositive value on log axis in curve {label!r}")
        if loglog:
            curves.append((str(label), np.log10(xs), np.log10(ys)))
        else:
            curves.append((str(label), xs, ys))

    x_lo = min(c[1].min() for c in curves)
    x_hi = max(c[1].max() for c in curves)
    y_lo = min(c[2].min() for c in curves)
    y_hi = max(c[2].max() for c in curves)
    px = _transform(x_lo, x_hi, _ML, _WIDTH - _MR)
    py = _transform(y_lo, y_hi, _HEIGHT - _MB, _MT)  # y grows upward

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="18" text-anchor="middle" '
        f'font-family="monospace" font-size="13">{_xml_text(title)}</text>',
        f'<line x1="{_ML}" y1="{_HEIGHT - _MB}" x2="{_WIDTH - _MR}" '
        f'y2="{_HEIGHT - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_HEIGHT - _MB}" '
        f'stroke="black"/>',
    ]

    def tick_label(v: float) -> str:
        return format(10.0 ** v if loglog else v, ".4g")

    for v in np.linspace(x_lo, x_hi, 5):
        x = px(v)
        parts.append(f'<line x1="{x:.2f}" y1="{_HEIGHT - _MB}" x2="{x:.2f}" '
                     f'y2="{_HEIGHT - _MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{_HEIGHT - _MB + 20}" '
                     f'text-anchor="middle" font-family="monospace" '
                     f'font-size="11">{tick_label(v)}</text>')
    for v in np.linspace(y_lo, y_hi, 5):
        y = py(v)
        parts.append(f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" '
                     f'y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-family="monospace" font-size="11">{tick_label(v)}</text>')

    for i, (label, xs, ys) in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = _MT + 14 + 16 * i
        parts.append(f'<line x1="{_WIDTH - _MR - 130}" y1="{ly - 4}" '
                     f'x2="{_WIDTH - _MR - 106}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{_WIDTH - _MR - 100}" y="{ly}" '
                     f'font-family="monospace" font-size="11">{_xml_text(label)}</text>')

    parts.append("</svg>")
    out = Path(path)
    write_atomic(out, "\n".join(parts) + "\n")
    return out
