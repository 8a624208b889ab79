"""Minimal static SVG line plots: axes, series, legend. Byte-stable output."""

from __future__ import annotations

from typing import Sequence

_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728")

_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 36, 48


def _ticks(lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def line_plot(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    xlabel: str,
    ylabel: str,
    title: str = "",
) -> str:
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi - x_lo < 1e-30:
        x_hi = x_lo + 1.0
    pad = 0.05 * (y_hi - y_lo) or 1.0
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
            f'font-size="14">{title}</text>'
        )
    for xv in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(xv):.2f}" y1="{_MARGIN_T + plot_h}" '
            f'x2="{px(xv):.2f}" y2="{_MARGIN_T + plot_h + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{px(xv):.2f}" y="{_MARGIN_T + plot_h + 18}" '
            f'text-anchor="middle">{xv:.3g}</text>'
        )
    for yv in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{py(yv):.2f}" '
            f'x2="{_MARGIN_L}" y2="{py(yv):.2f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{py(yv) + 4:.2f}" '
            f'text-anchor="end">{yv:.3g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 10}" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.1f})">{ylabel}</text>'
    )
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MARGIN_T + 14 + 16 * i
        parts.append(
            f'<line x1="{_MARGIN_L + plot_w - 110}" y1="{ly}" '
            f'x2="{_MARGIN_L + plot_w - 86}" y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{_MARGIN_L + plot_w - 80}" y="{ly + 4}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
