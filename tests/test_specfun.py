import math

import numpy as np
import pytest

from blockfade import InvalidParameterError, std_normal_cdf, std_normal_inv_cdf
from blockfade.specfun import _std_normal_pdf
from oracles import bisect_quantile, mp_norm_cdf


def test_cdf_at_zero():
    assert std_normal_cdf(0.0) == 0.5


@pytest.mark.parametrize("x", [0.5, 1.0, 3.0])
def test_cdf_symmetry(x):
    assert std_normal_cdf(-x) == pytest.approx(1.0 - std_normal_cdf(x), abs=1e-15)


def test_cdf_against_series_oracle():
    for x in np.linspace(-8.0, 8.0, 161):
        assert std_normal_cdf(float(x)) == pytest.approx(mp_norm_cdf(float(x)), abs=1e-12)


def test_cdf_975_point():
    assert std_normal_cdf(1.959964) == pytest.approx(mp_norm_cdf(1.959964), abs=1e-12)
    assert round(std_normal_cdf(1.959964), 3) == 0.975


def test_pdf_basics():
    assert _std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-15)
    assert _std_normal_pdf(2.0) == pytest.approx(math.exp(-2.0) / math.sqrt(2.0 * math.pi), rel=1e-14)


def test_quantile_median_exact():
    assert std_normal_inv_cdf(0.5) == 0.0


def test_quantile_001_against_bisection_oracle():
    oracle = bisect_quantile(0.01)
    value = std_normal_inv_cdf(0.01)
    assert value == pytest.approx(oracle, abs=1e-9)
    assert value == pytest.approx(-2.3263479, abs=1e-6)


def test_round_trip_log_spaced_grid():
    grid = np.geomspace(1e-6, 1.0 - 1e-6, 10_000)
    worst = max(abs(std_normal_cdf(std_normal_inv_cdf(float(p))) - float(p)) for p in grid)
    assert worst <= 1e-9


def test_inverse_round_trip_on_x_grid():
    for x in np.linspace(-5.0, 5.0, 101):
        x = float(x)
        assert std_normal_inv_cdf(std_normal_cdf(x)) == pytest.approx(x, abs=1e-8)


def test_cdf_monotonic():
    # strict where double precision can resolve the increments,
    # non-decreasing out to the saturated tails
    xs = np.linspace(-6.0, 6.0, 2001)
    values = [std_normal_cdf(float(x)) for x in xs]
    assert all(b > a for a, b in zip(values, values[1:]))
    xs = np.linspace(-9.0, 9.0, 2001)
    values = [std_normal_cdf(float(x)) for x in xs]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_quantile_monotonic():
    ps = np.linspace(1e-9, 1.0 - 1e-9, 2001)
    values = [std_normal_inv_cdf(float(p)) for p in ps]
    assert all(b > a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_cdf_rejects_non_finite(x):
    with pytest.raises(InvalidParameterError):
        std_normal_cdf(x)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1, math.nan])
def test_quantile_rejects_out_of_range(p):
    with pytest.raises(InvalidParameterError):
        std_normal_inv_cdf(p)


def test_extreme_tail_round_trip():
    for p in (1e-12, 1e-9, 1.0 - 1e-9):
        assert std_normal_cdf(std_normal_inv_cdf(p)) == pytest.approx(p, rel=1e-6)
