"""Self-contained SVG line charts; no plotting dependency.

Produces a fixed-size chart with axes, tick labels, an optional
log-scaled x axis and a legend. Output is a deterministic function of
the inputs so repeated runs emit byte-identical files. Each distinct x
is mapped to the plot once, however many series share it, and each
polyline is written in one pass from a single "%.2f,%.2f " template.

Ticks are the whole multiples of a nice step, or the whole decades on a
log axis, taken from an index range, so their number is fixed before any
is made. A tick is drawn only where its printed position lies inside the
plot area, and once per printed position: at float resolution a multiple
of the step can round outside the axis or onto its neighbour. An axis
with no span in plotted units (ends whose log10 is the same float, or
linear ends less than the smallest normal float apart) is halved and
doubled on a log axis and widened by max(0.5, ulp) at each end on a
linear one. Spans are taken from halved ends and linear ends
are clamped to the finite floats, so any finite data keeps a finite
axis: ys at -1e308 and 1e308 have a span past the largest float.
"""

import math
import sys
from typing import Sequence

__all__ = ["render_line_chart"]

_PALETTE = ("#1b6ca8", "#d1495b", "#2e933c", "#8f2d56", "#e09f3e", "#484f5c")
_WIDTH, _HEIGHT = 860, 540
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72, 24, 40, 56
_FLOAT_MAX = sys.float_info.max
_FLOAT_TINY = math.ulp(0.0)  # the smallest positive float, 5e-324


def _half_span(lo: float, hi: float) -> float:
    """(hi - lo) / 2, halved before the subtraction so that no finite ends overflow."""
    return hi / 2.0 - lo / 2.0


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    # a subnormal span's step stops at the smallest positive float, not at 0
    raw = max(_half_span(lo, hi) / (target / 2.0), _FLOAT_TINY)
    mag = max(10.0 ** math.floor(math.log10(raw)), _FLOAT_TINY)
    step = mag * next((mult for mult in (1.0, 2.0, 2.5, 5.0) if raw <= mult * mag), 10.0)
    return [k * step for k in range(math.ceil(lo / step), math.floor(hi / step + 1e-9) + 1)]


def _log_ticks(lo: float, hi: float) -> list[float]:
    first, last = math.ceil(math.log10(lo) - 1e-12), math.floor(math.log10(hi) + 1e-12)
    if last <= first:  # range inside one decade; fall back to linear ticks
        return _nice_ticks(lo, hi)
    # every step-th decade, step the first that keeps at most 20 of them
    step = next(k for k in (1, 2, 5, 10, 20, 50) if last - first <= 19 * k)
    return [10.0 ** d for d in range(math.ceil(first / step) * step, last + 1, step)]


def _on_plot(ticks: list[float], place, low: float, high: float) -> list[tuple[float, float]]:
    """(tick, position) for each tick whose position, rounded to the printed
    0.01 px, lies in [low, high]; the first tick at each rounded position."""
    kept = {}
    for t in ticks:
        at = place(t)
        printed = round(at, 2)  # the value "%.2f" prints: both round the exact binary value
        if low <= printed <= high and printed not in kept:
            kept[printed] = (t, at)
    return list(kept.values())


def _widen_empty(lo: float, hi: float, log: bool) -> tuple[float, float]:
    if log:
        if math.log10(lo) < math.log10(hi):
            return lo, hi
        # halved and doubled, but not past the positive floats
        return lo / 2.0 or lo, min(hi * 2.0, _FLOAT_MAX)
    if not hi - lo >= sys.float_info.min:
        lo, hi = lo - max(0.5, math.ulp(lo)), hi + max(0.5, math.ulp(hi))
    return max(lo, -_FLOAT_MAX), min(hi, _FLOAT_MAX)


def _fmt_tick(value: float, digits: int = 0) -> str:
    """%g, or one-digit scientific outside [0.001, 10000); digits asks for
    up to that many significant digits, with trailing zeros dropped."""
    if value == 0:
        return "0"
    if abs(value) >= 10000 or abs(value) < 0.001:
        mantissa, exponent = f"{value:.{max(digits - 1, 0)}e}".split("e")
        return f"{mantissa.rstrip('0').rstrip('.')}e{int(exponent)}"
    return f"{value:.{max(digits, 6)}g}"


def _tick_labels(ticks: list[float]) -> list[str]:
    """_fmt_tick's labels, widened to the tick step's precision when two
    distinct ticks would share one (17 digits tell any two floats apart)."""
    labels = [_fmt_tick(t) for t in ticks]
    if len(set(labels)) < len(set(ticks)):
        step = min(b - a for a, b in zip(ticks, ticks[1:]) if b > a)
        digits = math.floor(math.log10(max(map(abs, ticks)))) - math.floor(math.log10(step)) + 2
        labels = [_fmt_tick(t, min(digits, 17)) for t in ticks]
    return labels


def render_line_chart(series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
                      *, x_label: str, y_label: str, log_x: bool = False) -> str:
    """Render labelled (x, y) series to an SVG document string.

    series: iterable of (label, xs, ys) with equal-length coordinate
    sequences; at least one finite point is required overall.
    """
    finite = [[(x, y) for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)]
              for _, xs, ys in series]
    xs_all = [x for points in finite for x, _ in points]
    ys_all = [y for points in finite for _, y in points]
    if not xs_all:
        raise ValueError("nothing to plot: no finite data points")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if log_x and x_lo <= 0:
        raise ValueError("log-scaled x axis needs strictly positive x values")
    x_lo, x_hi = _widen_empty(x_lo, x_hi, log_x)
    pad = 0.1 * _half_span(y_lo, y_hi)  # 5% of the span
    y_lo, y_hi = _widen_empty(y_lo - pad, y_hi + pad, False)

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    # The halved low ends (logs on a log axis) and half spans are taken once
    # per chart; px and py map a point's halved offset from the low end.
    x0 = (math.log10(x_lo) if log_x else x_lo) / 2.0
    x_half = (math.log10(x_hi) if log_x else x_hi) / 2.0 - x0
    y0 = y_lo / 2.0
    y_half = y_hi / 2.0 - y0

    def px(x: float) -> float:
        return _MARGIN_L + ((math.log10(x) if log_x else x) / 2.0 - x0) / x_half * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + (1.0 - (y / 2.0 - y0) / y_half) * plot_h

    # The sweeps give every series the same xs, so each distinct x (its
    # log10 on a log axis) is mapped once, not once per series.
    x_pixels = {x: px(x) for x in set(xs_all)}

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
               f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">')
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')

    x_ticks = _on_plot(_log_ticks(x_lo, x_hi) if log_x else _nice_ticks(x_lo, x_hi), px,
                       _MARGIN_L, _MARGIN_L + plot_w)
    y_ticks = _on_plot(_nice_ticks(y_lo, y_hi), py, _MARGIN_T, _MARGIN_T + plot_h)
    for (_, x), label in zip(x_ticks, _tick_labels([t for t, _ in x_ticks])):
        out.append(f'<line x1="{x:.2f}" y1="{_MARGIN_T}" x2="{x:.2f}" '
                   f'y2="{_MARGIN_T + plot_h}" stroke="#dddddd"/>')
        out.append(f'<text x="{x:.2f}" y="{_MARGIN_T + plot_h + 18}" '
                   f'text-anchor="middle">{label}</text>')
    for (_, y), label in zip(y_ticks, _tick_labels([t for t, _ in y_ticks])):
        out.append(f'<line x1="{_MARGIN_L}" y1="{y:.2f}" x2="{_MARGIN_L + plot_w}" '
                   f'y2="{y:.2f}" stroke="#dddddd"/>')
        out.append(f'<text x="{_MARGIN_L - 8}" y="{y + 4:.2f}" '
                   f'text-anchor="end">{label}</text>')

    # axes on top of the grid
    out.append(f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
               f'fill="none" stroke="#333333"/>')
    out.append(f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 14}" '
               f'text-anchor="middle">{_escape(x_label)}</text>')
    out.append(f'<text x="18" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
               f'transform="rotate(-90 18 {_MARGIN_T + plot_h / 2:.1f})">{_escape(y_label)}</text>')

    for k, points in enumerate(finite):
        if not points:
            continue
        coords = tuple(v for x, y in points for v in (x_pixels[x], py(y)))
        path = ("%.2f,%.2f " * len(points) % coords)[:-1]
        color = _PALETTE[k % len(_PALETTE)]
        out.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.8"/>')

    # legend, top right inside the plot area
    legend_w = 14 + 34 + 8 + max(6 * max(len(label) for label, _, _ in series), 40)
    legend_x = _MARGIN_L + plot_w - legend_w - 10
    legend_y = _MARGIN_T + 10
    out.append(f'<rect x="{legend_x}" y="{legend_y}" width="{legend_w}" '
               f'height="{16 * len(series) + 10}" fill="white" fill-opacity="0.85" '
               f'stroke="#999999"/>')
    for k, (label, _, _) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        y = legend_y + 14 + 16 * k
        out.append(f'<line x1="{legend_x + 8}" y1="{y - 4}" x2="{legend_x + 34}" y2="{y - 4}" '
                   f'stroke="{color}" stroke-width="1.8"/>')
        out.append(f'<text x="{legend_x + 40}" y="{y}">{_escape(label)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
