import hashlib
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from blockfade.svg import render_line_chart


def sample_series():
    xs = [100.0, 1000.0, 10000.0]
    return [("alpha", xs, [0.1, 0.4, 0.6]), ("beta", xs, [0.2, 0.5, 0.65])]


def test_basic_structure():
    doc = render_line_chart(sample_series(), x_label="n", y_label="rate")
    assert doc.startswith("<svg")
    assert doc.rstrip().endswith("</svg>")
    assert doc.count("<polyline") == 2
    assert ">alpha<" in doc and ">beta<" in doc
    assert ">n<" in doc and ">rate<" in doc


def test_log_axis_ticks_are_decades():
    doc = render_line_chart(sample_series(), x_label="n", y_label="rate", log_x=True)
    for label in (">100<", ">1000<", ">1e4<"):
        assert label in doc


def test_log_axis_rejects_non_positive_x():
    series = [("a", [0.0, 1.0], [0.0, 1.0])]
    with pytest.raises(ValueError):
        render_line_chart(series, x_label="x", y_label="y", log_x=True)


def test_requires_finite_data():
    with pytest.raises(ValueError):
        render_line_chart([("a", [float("nan")], [1.0])], x_label="x", y_label="y")


def test_deterministic_output():
    a = render_line_chart(sample_series(), x_label="n", y_label="rate", log_x=True)
    b = render_line_chart(sample_series(), x_label="n", y_label="rate", log_x=True)
    assert a == b


def test_escapes_markup():
    doc = render_line_chart([("a<b>&c", [1.0, 2.0], [1.0, 2.0])], x_label="x", y_label="y")
    assert "a&lt;b&gt;&amp;c" in doc


def test_flat_series_padded():
    doc = render_line_chart([("flat", [1.0, 2.0], [0.5, 0.5])], x_label="x", y_label="y")
    assert "<polyline" in doc


NAN, INF = math.nan, math.inf

# Inputs at the edges of the point filter and the axis padding, each with the
# polylines it draws and the sha256 of the whole document. Points with a NaN
# or infinite coordinate are dropped, a series with none left draws no
# polyline, a flat series is padded by 0.5 either side, and a single point
# is padded on both axes (halved and doubled on a log axis).
EDGE_CASES = {
    "non-finite points dropped": (
        [("a", [1.0, 2.0, 3.0, 4.0, 5.0], [0.5, NAN, INF, 1.5, -INF]),
         ("b", [NAN, 2.0, INF, 4.0], [1.0, 1.0, 2.0, 0.25])], False,
        ["72.00,383.09 836.00,60.18", "326.67,221.64 836.00,463.82"],
        "bd3c0f1f09834cb5dbe411638f94240dd05e9e713b0ee17e21eee9b4c48e3fd6"),
    "series without finite points skipped": (
        [("a", [1.0, 10.0, 100.0], [0.1, 0.2, 0.3]), ("empty", [1.0, 10.0], [NAN, INF])], True,
        ["72.00,463.82 454.00,262.00 836.00,60.18"],
        "dc3705f81fc30f3f16cc22f93487baf6ff326593656228bce68728388fcfd7f3"),
    "flat series": (
        [("flat", [1.0, 2.0], [0.5, 0.5])], False,
        ["72.00,262.00 836.00,262.00"],
        "428a41d0d992c7e132389165a92c279225286d4c13b453dc27813e83a9068532"),
    "single point": (
        [("one", [500.0], [0.25])], True,
        ["454.00,262.00"],
        "0d3f279231b2c39400cd1a2ff997f7ad7f07797a10f26a32e54e109fc51c3a84"),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_case_output_is_pinned(case):
    series, log_x, polylines, digest = EDGE_CASES[case]
    doc = render_line_chart(series, x_label="x", y_label="y", log_x=log_x)
    assert [line.split('"')[1] for line in doc.splitlines()
            if line.startswith("<polyline")] == polylines
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


def test_each_distinct_x_is_mapped_once(monkeypatch):
    # six series on one 40-point log grid, as rate-vs-blocklength draws
    # them: 40 logs for the points plus a few for the axis ends and ticks,
    # not one per point of every series
    xs = [100.0 * 10.0 ** (2.0 * i / 39) for i in range(40)]
    series = [(f"s{k}", xs, [k + x / 1e4 for x in xs]) for k in range(6)]
    expected = render_line_chart(series, x_label="n", y_label="rate", log_x=True)
    logged = []
    real_log10 = math.log10
    monkeypatch.setattr(math, "log10", lambda x: logged.append(x) or real_log10(x))
    assert render_line_chart(series, x_label="n", y_label="rate", log_x=True) == expected
    assert len(logged) < 2 * len(xs)


def grid_ends(doc):
    """(x1, x2, y1, y2) of each grid line, as printed: one line per x tick and per y tick."""
    return [tuple(float(re.search(f' {name}="([^"]+)"', line).group(1))
                  for name in ("x1", "x2", "y1", "y2"))
            for line in doc.splitlines() if line.startswith("<line") and "#dddddd" in line]


def tick_labels(doc):
    """(x ticks, y ticks) as lists of (position, label)."""
    return (re.findall(r'<text x="([-\d.]+)" y="502" text-anchor="middle">([^<]*)<', doc),
            re.findall(r'<text x="64" y="([-\d.]+)" text-anchor="end">([^<]*)<', doc))


def assert_labels_tell_ticks_apart(doc):
    # ticks drawn at different positions never share a label
    for ticks in tick_labels(doc):
        positions = {}
        for position, label in ticks:
            positions.setdefault(label, set()).add(position)
        assert all(len(at) == 1 for at in positions.values()), ticks


def assert_drawable(doc, polylines):
    assert doc.count("<polyline") == polylines
    assert re.search(r"\b(nan|inf)\b", doc) is None
    ends = grid_ends(doc)
    vertical = sum(x1 == x2 for x1, x2, _, _ in ends)
    horizontal = sum(y1 == y2 for _, _, y1, y2 in ends)
    assert 1 <= vertical <= 20 and 1 <= horizontal <= 20
    # every grid line lies on the plot area, [72, 836] x [40, 484]
    for x1, x2, y1, y2 in ends:
        assert 72.0 <= min(x1, x2) and max(x1, x2) <= 836.0, (x1, x2)
        assert 40.0 <= min(y1, y2) and max(y1, y2) <= 484.0, (y1, y2)
    assert_labels_tell_ticks_apart(doc)


@pytest.mark.parametrize("xs,ys,axis,labels", [
    ([1.0, 1.0000000000000002], [0.0, 1.0], 0, {"1", "1.0000000000000002"}),
    ([0.0, 1.0], [10000.0, 10000.5], 1, {"1e4", "1.00001e4", "1.00005e4"}),
    ([0.0, 1.0], [20000.0, 30000.0], 1, {"2e4", "2.2e4", "3e4"}),
    ([0.0, 1.0], [0.0, 25000.0], 1, {"0", "5000", "1e4", "1.5e4", "2.5e4"}),
], ids=["x-one-ulp-apart", "y-at-1e4", "y-one-digit-scientific", "y-both-styles"])
def test_colliding_tick_labels_are_widened_to_the_step(xs, ys, axis, labels):
    # at their default precision these ticks would all read 1, 1e4, or
    # 2e4 and 3e4 for five different values; 15000 and 25000 would read
    # 2e4 next to 20000, and widening keeps 5000 out of the e+03 style
    doc = render_line_chart([("a", xs, ys)], x_label="x", y_label="y")
    assert_drawable(doc, 1)
    assert labels <= {label for _, label in tick_labels(doc)[axis]}
    assert "e+" not in doc



@pytest.mark.parametrize("ys", [[-1e308, 1e308], [0.0, 1.7e308]])
def test_y_range_past_the_largest_float_is_drawn(ys):
    # the span of the ends overflows; the axis halves them before subtracting
    doc = render_line_chart([("wide", [1.0, 2.0], ys)], x_label="x", y_label="y")
    assert_drawable(doc, 1)
    assert "72.00,463.82 836.00,60.18" in doc


@pytest.mark.parametrize("ys", [[1e17, 1e17], [0.0, 5e-324]], ids=["flat-at-1e17", "subnormal-span"])
def test_y_range_without_a_tick_step_is_widened(ys):
    # y +- 0.5 rounds back to y at 1e17, so the range is widened by ulp(y);
    # a subnormal span has no nonzero tick step, so it is widened like a flat one
    doc = render_line_chart([("flat", [1.0, 2.0], ys)], x_label="x", y_label="y")
    assert_drawable(doc, 1)
    assert "72.00,262.00 836.00,262.00" in doc


def test_log_axis_labels_share_one_exponent_style():
    doc = render_line_chart([("a", [1e8, 1e12], [0.0, 1.0])], x_label="x", y_label="y",
                            log_x=True)
    for label in (">1e8<", ">1e9<", ">1e10<", ">1e11<", ">1e12<"):
        assert label in doc
    assert "e+" not in doc


@st.composite
def charts(draw):
    """1 to 6 series with positive xs up to 2^53 and ys in [-1.7e308, 1.7e308].

    Some xs are a shared base nudged down by a few ulps, and some ys repeat
    a shared value, so repeated and adjacent floats and flat series are drawn.
    Ys near both ends have a span past the largest float.
    """
    y_range = st.floats(-1.7e308, 1.7e308)
    x_base, y_base = draw(st.floats(1.0, 2.0 ** 53)), draw(y_range)

    def nudged(ulps):
        x = x_base
        for _ in range(ulps):
            x = math.nextafter(x, 0.0)
        return x

    x_values = st.one_of(st.floats(1.0, 2.0 ** 53), st.integers(0, 3).map(nudged))
    y_values = st.one_of(y_range, st.just(y_base))
    series = []
    for k in range(draw(st.integers(1, 6))):
        xs = draw(st.lists(x_values, min_size=1, max_size=8))
        ys = draw(st.lists(y_values, min_size=len(xs), max_size=len(xs)))
        series.append((f"s{k}", xs, ys))
    return series, draw(st.booleans())


@settings(max_examples=100, derandomize=True, deadline=None)
@given(charts())
def test_any_sweep_range_renders_finite_bounded_axes(chart):
    series, log_x = chart
    doc = render_line_chart(series, x_label="x", y_label="y", log_x=log_x)
    assert_drawable(doc, len(series))


TINY, HUGE = 5e-324, 1.7e308


@pytest.mark.parametrize("xs", [[TINY], [HUGE], [TINY, 1e-323], [TINY, HUGE], [1e-300, 1.0],
                                [2.2e-308, math.nextafter(2.2e-308, 1.0)]],
                         ids=["smallest", "largest", "two-smallest", "whole-range", "300-decades",
                              "one-ulp-near-the-normal-floor"])
def test_log_axis_at_the_ends_of_the_float_range(xs):
    # a one-value axis is halved and doubled only inside the positive floats,
    # and a subnormal span still has a nonzero tick step
    doc = render_line_chart([("a", xs, [1.0] * len(xs))], x_label="x", y_label="y", log_x=True)
    assert_drawable(doc, 1)


def test_decade_ticks_are_thinned_to_twenty():
    # 301 decades: every 20th, from 1e-300 up to 1
    doc = render_line_chart([("a", [1e-300, 1.0], [0.0, 1.0])], x_label="x", y_label="y",
                            log_x=True)
    labels = re.findall(r'text-anchor="middle">(1e-?\d+|1)<', doc)
    assert labels == [f"1e-{d}" for d in range(300, 0, -20)] + ["1"]


@st.composite
def log_charts(draw):
    """1 to 3 series on a log axis, xs anywhere in [5e-324, 1.7e308].

    Some xs are a shared base nudged up by a few ulps, so one-value axes and
    spans of a few ulps are drawn at every magnitude, subnormals included.
    """
    x_range = st.floats(TINY, HUGE)
    x_base = draw(x_range)

    def nudged(ulps):
        x = x_base
        for _ in range(ulps):
            x = math.nextafter(x, math.inf)
        return min(x, HUGE)

    x_values = st.one_of(x_range, st.integers(0, 3).map(nudged))
    series = []
    for k in range(draw(st.integers(1, 3))):
        xs = draw(st.lists(x_values, min_size=1, max_size=6))
        series.append((f"s{k}", xs, [float(i) for i in range(len(xs))]))
    return series


@settings(max_examples=200, derandomize=True, deadline=None)
@given(log_charts())
def test_any_positive_xs_render_a_finite_bounded_log_axis(series):
    doc = render_line_chart(series, x_label="x", y_label="y", log_x=True)
    assert_drawable(doc, len(series))
