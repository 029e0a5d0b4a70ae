import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from blockfade import (
    ChannelSpec,
    InvalidParameterError,
    bound_columns,
    discretize_rayleigh,
    make_distribution,
    sweep_dispersion_stats,
    water_fill,
)
import blockfade.bounds as bounds
from blockfade.bounds import _normal_quantile
from blockfade.waterfill import link_moments
from oracles import (
    TWO_STATE,
    awgn_dispersion,
    bisect_quantile,
    mp_norm_cdf,
    oracle_bound_terms,
    oracle_bounds,
    oracle_channel_quantities,
    oracle_dispersions_for_alloc,
)
from test_waterfill import random_channels


def two_state_spec(n_c=1):
    return ChannelSpec(noise_var=1.0, n_c=n_c,
                       fading=make_distribution(TWO_STATE["gains"], TWO_STATE["probs"]))


def preset_spec():
    return ChannelSpec(noise_var=1.0, n_c=1, fading=discretize_rayleigh(0.1, 4.1, 10, 1.0))


PRESET_BUDGET = 10.0 ** 0.5


def stats_at(spec, budget):
    """The one-row sweep at one budget: one float per stat field."""
    return {name: float(col[0]) for name, col in sweep_dispersion_stats(spec, [budget]).items()}


def bounds_at(spec, budget, n, epsilon, beta=0.01):
    """The one-row bound_columns call at one budget and n: one Python number per field."""
    columns = bound_columns(spec, [budget], [n], epsilon, beta)
    return {name: col.tolist()[0] for name, col in columns.items()}


def must_not_run(*args, **kwargs):
    raise AssertionError("bound_columns computed before it checked its inputs")


@pytest.fixture
def no_sweep(monkeypatch):
    """Fail the test if bound_columns starts the sweep or a water-filling solve."""
    for name in ("sweep_dispersion_stats", "water_fill"):
        monkeypatch.setattr(bounds, name, must_not_run)


class TestNormalQuantile:
    def test_median_exact(self):
        assert _normal_quantile(0.5) == 0.0

    def test_001_against_bisection_oracle(self):
        value = _normal_quantile(0.01)
        assert value == pytest.approx(bisect_quantile(0.01), abs=1e-9)
        assert value == pytest.approx(-2.3263479, abs=1e-6)

    @pytest.mark.parametrize("branch", ["tail", "central"])
    def test_within_16_ulps_of_bisection(self, branch):
        # Acklam's approximation alone is 8e4 to 1e7 ulps off on this grid;
        # one Newton step brings every point within 7
        for p in np.geomspace(1e-30, 0.49, 41):
            if (p < bounds._P_LOW) == (branch == "tail"):
                oracle = bisect_quantile(float(p))
                assert abs(_normal_quantile(float(p)) - oracle) <= 16 * math.ulp(oracle), p

    @pytest.mark.parametrize("p", [1e-3, 1e-2, 0.1])
    def test_correctly_rounded_at_common_epsilons(self, p):
        assert _normal_quantile(p) == bisect_quantile(p)

    def test_inverse_round_trip_on_x_grid(self):
        for x in np.linspace(-5.0, 5.0, 101):
            x = float(x)
            assert _normal_quantile(mp_norm_cdf(x)) == pytest.approx(x, abs=1e-8)

    @pytest.mark.parametrize("p", [1e-12, 1e-9, 1.0 - 1e-9])
    def test_extreme_tail_round_trip(self, p):
        assert mp_norm_cdf(_normal_quantile(p)) == pytest.approx(p, rel=1e-6)

    def test_monotonic(self):
        ps = np.linspace(1e-9, 1.0 - 1e-9, 2001)
        values = [_normal_quantile(float(p)) for p in ps]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestDispersions:
    def test_two_state_against_independent_oracle(self):
        spec = two_state_spec()
        oracle = oracle_channel_quantities(TWO_STATE["gains"], TWO_STATE["probs"], 1.0, 1, 1.0)
        stats = stats_at(spec, 1.0)
        assert water_fill(spec, [1.0])[0][0] == pytest.approx(oracle["level"], abs=1e-11)
        assert stats["water_level"] == pytest.approx(oracle["level"], abs=1e-11)
        assert stats["capacity"] == pytest.approx(oracle["capacity"], abs=1e-11)
        assert stats["v_bf"] == pytest.approx(oracle["v_bf"], abs=1e-11)
        assert stats["v_bf_prime"] == pytest.approx(oracle["v_bf_prime"], abs=1e-11)
        # four-significant-digit benchmark values
        assert oracle["level"] == pytest.approx(1.625, abs=5e-5)
        assert oracle["capacity"] == pytest.approx(0.58933, abs=5e-6)
        assert oracle["v_bf"] == pytest.approx(0.5461, abs=5e-5)
        assert oracle["v_bf_prime"] == pytest.approx(0.4529, abs=5e-5)

    def test_single_state_degenerates_to_link_dispersion(self):
        spec = ChannelSpec(noise_var=1.0, n_c=1, fading=make_distribution([1.0], [1.0]))
        g2 = spec.fading.gains[0] ** 2 * water_fill(spec, [2.0])[1][0, 0]
        v = 0.5 * (1.0 - (1.0 / (1.0 + g2)) ** 2)
        stats = stats_at(spec, 2.0)
        assert stats["v_bf"] == pytest.approx(v, rel=1e-14)
        assert stats["v_bf_prime"] == pytest.approx(v, rel=1e-14)

    def test_block_length_adds_rate_variance(self):
        spec1 = two_state_spec(n_c=1)
        spec2 = two_state_spec(n_c=2)
        oracle = oracle_channel_quantities(TWO_STATE["gains"], TWO_STATE["probs"], 1.0, 1, 1.0)
        # the allocation does not depend on n_c, so both share one water level
        v1 = stats_at(spec1, 1.0)["v_bf"]
        v2 = stats_at(spec2, 1.0)["v_bf"]
        assert v2 - v1 == pytest.approx(oracle["var_c"], abs=1e-11)
        assert v2 == pytest.approx(0.6663, abs=5e-5)
        assert oracle["var_c"] == pytest.approx(0.120112, abs=2e-6)

    def test_two_state_prime_below_plain(self):
        stats = stats_at(two_state_spec(), 1.0)
        assert stats["v_bf_prime"] < stats["v_bf"]

    @given(random_channels())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_accumulation_order_equivalence(self, params):
        gains, probs, noise_var, budget = params
        spec = ChannelSpec(noise_var=noise_var, n_c=1, fading=make_distribution(gains, probs))
        levels, powers = water_fill(spec, [budget])
        oracle = oracle_dispersions_for_alloc(gains, list(spec.fading.probs), noise_var, 1,
                                              powers[0].tolist(), float(levels[0]), budget)
        stats = stats_at(spec, budget)
        v_bf, v_bfp = stats["v_bf"], stats["v_bf_prime"]
        assert abs(v_bf - oracle["v_bf"]) <= 1e-14 * max(1.0, abs(v_bf))
        assert abs(v_bfp - oracle["v_bf_prime"]) <= 1e-14 * max(1.0, abs(v_bfp))

    @given(random_channels())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_prime_never_exceeds_plain_at_unit_block(self, params):
        # at n_c = 1 the covariance of rate and power fraction is non-negative
        gains, probs, noise_var, budget = params
        spec = ChannelSpec(noise_var=noise_var, n_c=1, fading=make_distribution(gains, probs))
        stats = stats_at(spec, budget)
        assert stats["v_bf_prime"] <= stats["v_bf"] + 1e-12

    def test_v_bf_increases_with_budget(self):
        for spec in (two_state_spec(), preset_spec()):
            budgets = np.geomspace(0.05, 50.0, 20)
            values = [stats_at(spec, float(b))["v_bf"] for b in budgets]
            assert all(b > a for a, b in zip(values, values[1:]))


class TestNocsit:
    def test_single_state_matches_csit(self):
        spec = ChannelSpec(noise_var=1.0, n_c=1, fading=make_distribution([1.0], [1.0]))
        stats = stats_at(spec, 2.0)
        cap, disp = stats["nocsit_capacity"], stats["nocsit_v"]
        assert cap == pytest.approx(stats["capacity"], abs=1e-9)
        assert disp == pytest.approx(stats["v_bf"], abs=1e-9)

    def test_two_state_capacity_value(self):
        stats = stats_at(two_state_spec(), 1.0)
        cap, disp = stats["nocsit_capacity"], stats["nocsit_v"]
        assert cap == pytest.approx(0.25 * math.log(2.0) + 0.25 * math.log(5.0), rel=1e-14)
        assert disp > 0.0

    def test_preset_below_csit_capacity(self):
        spec = preset_spec()
        stats = stats_at(spec, PRESET_BUDGET)
        assert stats["nocsit_capacity"] < stats["capacity"]

    def test_invalid_budget(self):
        with pytest.raises(InvalidParameterError):
            sweep_dispersion_stats(two_state_spec(), [-1.0])


class TestDispersionStats:
    def test_fields_populated(self):
        stats = stats_at(two_state_spec(), 1.0)
        assert stats["capacity"] == pytest.approx(TWO_STATE["capacity"], abs=1e-9)
        assert stats["water_level"] == pytest.approx(1.625, abs=1e-9)
        assert stats["v_bf"] > stats["v_bf_prime"] > 0.0

    @given(random_channels(), st.integers(1, 60))
    @settings(max_examples=60, derandomize=True, deadline=None)
    # sweeps of thousands of budgets: the kernel call stacks twice as many rows
    @example(([1.0, 2.0], [0.5, 0.5], 1.0, 1.0), 3000)
    @example(([0.1 + 0.37 * i for i in range(12)], [1.0 / 12] * 12, 0.7, 4.0), 1200)
    def test_sweep_rows_equal_single_budget_calls(self, params, points):
        gains, probs, noise_var, budget = params
        spec = ChannelSpec(noise_var=noise_var, n_c=3, fading=make_distribution(gains, probs))
        budgets = list(np.geomspace(budget / 30.0, budget * 30.0, points))
        columns = sweep_dispersion_stats(spec, budgets)
        assert list(columns) == ["capacity", "v_bf", "v_bf_prime", "water_level",
                                 "nocsit_capacity", "nocsit_v"]
        assert all(col.shape == (points,) for col in columns.values())
        g = np.asarray(spec.fading.gains)
        for i, b in enumerate(budgets):
            row = {name: col[i] for name, col in columns.items()}
            # row i of the many-row sweep is the one-row sweep, bit for bit
            assert row == {name: col[0] for name, col in sweep_dispersion_stats(spec, [b]).items()}
            levels, powers = water_fill(spec, [b])
            assert row["water_level"] == levels[0]
            _, _, cap, var_c, var_l, mean_v = link_moments(spec, g * g * powers[0])
            assert row["capacity"] == cap
            assert row["v_bf"] == mean_v + spec.n_c * var_c + 0.5 * var_l
            # the constant-power pair is capacity and V_bf at power b in every state,
            # from the kernel's own call on that one row
            _, _, cap, var_c, var_l, mean_v = link_moments(spec, g * g * b)
            assert row["nocsit_capacity"] == cap
            assert row["nocsit_v"] == mean_v + spec.n_c * var_c + 0.5 * var_l

    def test_sweep_matches_oracle_on_preset(self):
        spec = preset_spec()
        budgets = [10.0 ** (db / 10.0) for db in range(0, 21, 5)]
        columns = sweep_dispersion_stats(spec, budgets)
        for i, b in enumerate(budgets):
            oracle = oracle_channel_quantities(spec.fading.gains, spec.fading.probs, 1.0, 1, b)
            for field in ("capacity", "v_bf", "v_bf_prime", "nocsit_capacity", "nocsit_v"):
                assert columns[field][i] == pytest.approx(oracle[field], rel=1e-12), field
            assert columns["water_level"][i] == pytest.approx(oracle["level"], rel=1e-12)

    def test_sweep_rejects_bad_budget(self):
        with pytest.raises(InvalidParameterError):
            sweep_dispersion_stats(two_state_spec(), [1.0, -1.0])


class TestBoundPoint:
    def setup_method(self):
        self.spec = two_state_spec()

    def test_two_state_reference_point(self):
        bp = bounds_at(self.spec, 1.0, 10_000, 0.01, 0.01)
        # every term from the independent oracle, not the library expression
        oracle = oracle_bounds(TWO_STATE["gains"], TWO_STATE["probs"], 1.0, 1, 1.0,
                               10_000, 0.01, 0.01)
        for name in ("log_m_lb_lt", "log_m_lb_st", "log_m_ub_st", "log_m_ub_lt"):
            assert bp[name] == pytest.approx(oracle[name], abs=1e-9), name
        # coarse benchmark values
        assert bp["log_m_lb_lt"] == pytest.approx(5630.5, abs=0.15)
        assert bp["log_m_lb_st"] == pytest.approx(5559.8, abs=0.15)
        assert bp["log_m_ub_st"] == pytest.approx(5746.0, abs=0.15)
        assert bp["log_m_ub_lt"] == pytest.approx(5776.8, abs=0.15)

    def test_rates_are_log_m_over_n(self):
        bp = bounds_at(self.spec, 1.0, 5000, 0.01)
        assert bp["rate_lb_st"] == bp["log_m_lb_st"] / 5000
        assert bp["rate_lb_lt"] == bp["log_m_lb_lt"] / 5000
        assert bp["rate_ub_st"] == bp["log_m_ub_st"] / 5000
        assert bp["rate_ub_lt"] == bp["log_m_ub_lt"] / 5000

    def test_st_below_lt(self):
        for n in (100, 1000, 100_000):
            bp = bounds_at(self.spec, 1.0, n, 0.01)
            assert bp["log_m_lb_st"] <= bp["log_m_lb_lt"]
            assert bp["log_m_ub_st"] <= bp["log_m_ub_lt"]

    def test_block_structure_respected(self):
        # the block length comes from the spec, so blocks = n / n_c always
        bp = bounds_at(two_state_spec(n_c=3), 1.0, 300, 0.01)
        assert bp["blocks"] == 100
        with pytest.raises(InvalidParameterError):
            bound_columns(two_state_spec(n_c=3), [1.0], [301], 0.01)
        with pytest.raises(InvalidParameterError):
            bound_columns(self.spec, [1.0], [0], 0.01)

    @pytest.mark.parametrize("eps", [0.6, 0.5, 0.0, -0.1, 1.0, 1.1, math.nan])
    def test_epsilon_domain(self, no_sweep, eps):
        with pytest.raises(InvalidParameterError, match="error probability"):
            bound_columns(self.spec, [1.0], [1000], eps)

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.5, 2.0])
    def test_beta_domain(self, no_sweep, beta):
        with pytest.raises(InvalidParameterError):
            bound_columns(self.spec, [1.0], [1000], 0.01, beta)

    def test_negative_log_m_reported_raw(self):
        bp = bounds_at(self.spec, 1.0, 4, 0.01)
        assert bp["log_m_lb_st"] < 0.0
        assert bp["rate_lb_st"] < 0.0

    @given(random_channels(), st.integers(100, 200_000))
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_ordering_chain_on_random_channels(self, params, n):
        gains, probs, noise_var, budget = params
        spec = ChannelSpec(noise_var=noise_var, n_c=1, fading=make_distribution(gains, probs))
        bp = bounds_at(spec, budget, n, 0.01)
        assert bp["log_m_lb_st"] <= bp["log_m_lb_lt"]
        assert bp["log_m_ub_st"] <= bp["log_m_ub_lt"]
        assert bp["log_m_lb_lt"] <= bp["log_m_ub_st"]


class TestConvergence:
    def test_rates_approach_capacity(self):
        spec = preset_spec()
        stats = stats_at(spec, PRESET_BUDGET)

        def deviations(n):
            bp = bounds_at(spec, PRESET_BUDGET, n, 0.01)
            return [abs(bp[name] - stats["capacity"]) for name in
                    ("rate_lb_st", "rate_lb_lt", "rate_ub_st", "rate_ub_lt")]

        grid = [10 ** k for k in range(3, 8)]
        devs = [deviations(n) for n in grid]
        # each bound's deviation shrinks along the grid
        for j in range(4):
            series = [d[j] for d in devs]
            assert all(b < a for a, b in zip(series, series[1:]))
        assert max(deviations(10 ** 10)) <= 1e-3

    def test_deviation_envelope_scales_like_root_n(self):
        # measure K = max |rate - target| * n^((1-beta)/2) on a coarse log
        # grid, then check the K/n^0.495 envelope on a 10x finer grid
        spec = preset_spec()
        stats = stats_at(spec, PRESET_BUDGET)
        coarse = [int(round(10 ** k)) for k in np.arange(3.0, 7.01, 0.5)]
        fine = [int(round(10 ** k)) for k in np.arange(3.0, 7.001, 0.05)]
        for attr in ("rate_lb_st", "rate_lb_lt", "rate_ub_st", "rate_ub_lt", "rate_nocsit"):
            target = stats["capacity"] if attr != "rate_nocsit" else stats["nocsit_capacity"]

            def scaled(n):
                return abs(bounds_at(spec, PRESET_BUDGET, n, 0.01)[attr] - target) * n ** 0.495

            k_const = max(scaled(n) for n in coarse)
            assert math.isfinite(k_const) and k_const > 0.0
            assert all(scaled(n) <= 1.05 * k_const for n in fine)


def scalar_bound_point(stats, n, num_states, epsilon, beta):
    """The bounds at one n in scalar math, in the library's order of operations."""
    q = _normal_quantile(epsilon)
    log_n = math.log(n)
    backoff = float(n) ** ((1.0 - beta) / 2.0)
    lb_lt = n * stats["capacity"] + math.sqrt(n * stats["v_bf"]) * q + 0.5 * log_n - backoff
    lb_st = lb_lt - math.sqrt(n / 2.0)
    ub_st = (n * stats["capacity"] + math.sqrt(n * stats["v_bf_prime"]) * q
             + 0.5 * num_states * log_n)
    ub_lt = ub_st + math.sqrt(n) / (2.0 * stats["water_level"])
    nocsit = (n * stats["nocsit_capacity"] + math.sqrt(n * stats["nocsit_v"]) * q
              + 0.5 * log_n - backoff)
    return {"log_m_lb_st": lb_st, "log_m_lb_lt": lb_lt, "log_m_ub_st": ub_st,
            "log_m_ub_lt": ub_lt, "rate_lb_st": lb_st / n, "rate_lb_lt": lb_lt / n,
            "rate_ub_st": ub_st / n, "rate_ub_lt": ub_lt / n, "rate_nocsit": nocsit / n}


class TestBoundColumns:
    def setup_method(self):
        self.spec = two_state_spec()
        self.stats = stats_at(self.spec, 1.0)

    @given(random_channels(), st.integers(1, 5),
           st.lists(st.integers(1, 10 ** 7), min_size=1, max_size=12),
           st.sampled_from([1e-3, 1e-2, 0.1, 0.3]), st.floats(0.001, 0.999))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_rows_equal_one_row_calls_bit_for_bit(self, params, n_c, blocks, epsilon, beta):
        gains, probs, noise_var, budget = params
        spec = ChannelSpec(noise_var=noise_var, n_c=n_c, fading=make_distribution(gains, probs))
        budgets = [budget * 0.5 ** i for i in range(len(blocks))]
        n = [b * n_c for b in blocks]
        k = spec.fading.num_states
        # many n at one budget, and one n at many budgets
        for row_budgets, lengths in (([budget], n), (budgets, [n[0]])):
            columns = bound_columns(spec, row_budgets, lengths, epsilon, beta)
            assert list(columns) == [*bounds._BOUND_FIELDS, *bounds._STAT_FIELDS]
            assert all(len(col) == len(blocks) for col in columns.values())
            assert columns["n"].dtype.kind == columns["blocks"].dtype.kind == "i"
            for i in range(len(blocks)):
                b_i = row_budgets[min(i, len(row_budgets) - 1)]
                n_i = lengths[min(i, len(lengths) - 1)]
                one = bound_columns(spec, [b_i], [n_i], epsilon, beta)
                assert {name: col[i] for name, col in columns.items()} == \
                    {name: col[0] for name, col in one.items()}
                s_i = stats_at(spec, b_i)
                for name, value in s_i.items():
                    assert columns[name][i] == value, name
                for name, value in scalar_bound_point(s_i, n_i, k, epsilon, beta).items():
                    assert columns[name][i] == value, name
                assert columns["n"][i] == n_i and columns["blocks"][i] * n_c == n_i

    def test_dense_sweep_matches_scalar_math_bit_for_bit(self):
        # NumPy's own log and power differ from math.log and float ** in the
        # last bit for a few percent of n; over this many n that reaches the
        # outputs, so the kernel must take those two terms from math
        n = list(range(1, 20_001))
        columns = bound_columns(self.spec, [1.0], n, 0.01)
        expected = [scalar_bound_point(self.stats, v, 2, 0.01, 0.01) for v in n]
        for name in expected[0]:
            assert columns[name].tolist() == [row[name] for row in expected], name

    @given(random_channels(), st.integers(1, 5),
           st.floats(1.0, 6.0).map(lambda e: round(10.0 ** e)),
           st.sampled_from([1e-3, 1e-2, 0.1]), st.floats(0.001, 0.999))
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_columns_match_the_independent_oracle(self, params, n_c, blocks, epsilon, beta):
        # scalar_bound_point repeats the library's expressions, so it cannot
        # catch a slip it shares; oracle_bounds shares no code with them
        gains, probs, noise_var, budget = params
        spec = ChannelSpec(noise_var=noise_var, n_c=n_c, fading=make_distribution(gains, probs))
        n = blocks * n_c
        args = (spec.fading.gains, spec.fading.probs, noise_var, n_c, budget, n, epsilon, beta)
        tol = 1e-12 * float(max(abs(term) for term in oracle_bound_terms(*args).values()))
        columns = bound_columns(spec, [budget], [n], epsilon, beta)
        for name, expected in oracle_bounds(*args).items():
            scale = tol if name.startswith("log_m_") else tol / n
            assert abs(columns[name][0] - expected) <= scale, name

    def test_numpy_integers_accepted(self):
        spec = two_state_spec(n_c=3)
        columns = bound_columns(spec, np.array([1.0]), np.array([300, 600]), 0.01)
        assert columns["blocks"].tolist() == [100, 200]
        assert columns["rate_ub_lt"][1] == bounds_at(spec, 1.0, 600, 0.01)["rate_ub_lt"]

    @pytest.mark.parametrize("rows,n,n_c", [
        (1, [], 1),                   # empty n
        (1, [100, 200.0], 1),         # a float n
        (1, [100, True], 1),          # a bool n
        (1, [30, 31, 33], 3),         # a non-multiple of n_c in the middle
        (2, [100, 200, 300], 1),      # two lengths above 1 that differ
        (0, [100], 1),                # no budgets
    ])
    def test_invalid_inputs(self, no_sweep, rows, n, n_c):
        # rows is the budget count; each fault is found before any solve
        with pytest.raises(InvalidParameterError):
            bound_columns(two_state_spec(n_c), [1.0] * rows, n, 0.01)

    @pytest.mark.parametrize("n", [200.0, True, 0, np.float64(100.0)])
    def test_length_that_is_not_a_whole_number_follows_the_integer_rule(self, n):
        # errors.whole decides what a codeword length is, as for every count
        message = f"codeword length must be an integer >= 1, got {n!r}"
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            bound_columns(two_state_spec(), [1.0], [100, n], 0.01)
        assert bound_columns(two_state_spec(), [1.0], [np.int64(100)], 0.01)["n"].tolist() == [100]

    def test_non_multiple_is_named(self):
        with pytest.raises(InvalidParameterError, match="31"):
            bound_columns(two_state_spec(n_c=3), [1.0], [30, 31, 33], 0.01)

    def test_lengths_capped_at_2_to_the_53(self, monkeypatch):
        # up to 2^53 a float holds every length exactly and n stays an int64
        # column; past the int64 range np.array(n) would turn it into floats
        columns = bound_columns(self.spec, [1.0], [2 ** 53], 0.01)
        assert columns["n"].dtype.kind == "i" and columns["n"].tolist() == [2 ** 53]
        monkeypatch.setattr(bounds, "sweep_dispersion_stats", must_not_run)  # the cap comes first
        for n in (2 ** 53 + 1, 10 ** 19):
            with pytest.raises(InvalidParameterError, match=rf"{n} exceeds 2\^53"):
                bound_columns(self.spec, [1.0], [100, n], 0.01)

    @pytest.mark.parametrize("n_c", [1, 3])
    def test_block_length_and_state_count_come_from_the_spec(self, n_c):
        spec = two_state_spec(n_c)
        columns = bound_columns(spec, [1.0], [300], 0.01)
        assert columns["blocks"].tolist() == [300 // n_c]
        expected = scalar_bound_point(stats_at(spec, 1.0), 300, 2, 0.01, 0.01)
        assert columns["rate_ub_st"][0] == expected["rate_ub_st"]
        if n_c == 1:
            # the converse's (num_states/2)*log n term at two states
            assert columns["rate_ub_st"][0] == pytest.approx(0.51796, abs=5e-6)

    def test_sweep_check_fires_and_names_the_field(self):
        # at noise_var 1e300 and budget 1e-300 the capacity underflows to 0.0
        spec = ChannelSpec(noise_var=1e300, n_c=1, fading=two_state_spec().fading)
        message = r"capacity must be positive and finite, got 0\.0"
        with pytest.raises(InvalidParameterError, match=message):
            sweep_dispersion_stats(spec, [1.0, 1e-300])
        with pytest.raises(InvalidParameterError, match=message):
            bound_columns(spec, [1e-300], [100], 0.01)

    def test_bound_that_overflows_a_float_is_rejected(self):
        # at noise_var 1e-310 and budget 1e-320 the water level is about 1e-320,
        # so sqrt(n) / (2 * level) in log_m_ub_lt overflows; the error names the
        # first row at fault, and no RuntimeWarning (an error in this suite) comes first
        spec = ChannelSpec(noise_var=1e-310, n_c=1, fading=two_state_spec().fading)
        message = r"^log_m_ub_lt overflows a float at n {} and power budget 1e-320$"
        with pytest.raises(InvalidParameterError, match=message.format(100)):
            bound_columns(spec, [1e-320], [100], 0.01)
        with pytest.raises(InvalidParameterError, match=message.format(200)):
            bound_columns(spec, [1e-300, 1e-320], [200], 0.01)
        assert np.isfinite(bound_columns(spec, [1e-300], [200], 0.01)["log_m_ub_lt"]).all()

    def test_bound_near_the_float_range_is_kept(self):
        # a single state with gain 1e154 at budget 1e-300 and n = 2^53 puts
        # log_m_ub_lt within a factor of 4 of the largest float: finite, so kept
        spec = ChannelSpec(noise_var=1.0, n_c=1, fading=make_distribution([1e154], [1.0]))
        log_m = bound_columns(spec, [1e-300], [2 ** 53], 0.01)["log_m_ub_lt"][0]
        assert 4e307 < log_m < math.inf


def unit_scale(columns, name, i):
    """How far a unit-free column may move: 1e-12 of this, per row."""
    value = abs(float(columns[name][i]))
    if name.startswith("log_m_"):
        return value + float(columns["n"][i] * columns["capacity"][i])
    if name.startswith("rate_"):
        return value + float(columns["capacity"][i])
    return value


# Every column that holds nats, nats^2 or nats per use. log_m_ub_lt and
# rate_ub_lt belong here too, but ub_lt's sqrt(n)/(2*level) term has units
# of 1/power (ROADMAP item 12); they are checked on their own below.
UNIT_FREE = ("capacity", "v_bf", "v_bf_prime", "nocsit_capacity", "nocsit_v",
             "log_m_lb_st", "log_m_lb_lt", "log_m_ub_st",
             "rate_lb_st", "rate_lb_lt", "rate_ub_st", "rate_nocsit")


def bound_table(gains, probs, noise_var, budget, n_c, n):
    spec = ChannelSpec(noise_var=noise_var, n_c=n_c, fading=make_distribution(gains, probs))
    return bound_columns(spec, [budget], n, 0.01)


class TestInvariants:
    # The channel model fixes these without a formula, so a slip that a
    # second copy of the formulas would repeat still shows here.

    @given(random_channels(), st.floats(-3.0, 3.0), st.integers(1, 3),
           st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=4))
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_noise_and_budget_scaled_together_leave_the_rates(self, params, log_k, n_c, blocks):
        # (noise_var, budget) -> (k*noise_var, k*budget) is the same channel
        # in other units of power
        gains, probs, noise_var, budget = params
        k = 10.0 ** log_k
        n = [b * n_c for b in blocks]
        base = bound_table(gains, probs, noise_var, budget, n_c, n)
        scaled = bound_table(gains, probs, k * noise_var, k * budget, n_c, n)
        for i in range(len(n)):
            for name in UNIT_FREE:
                gap = abs(scaled[name][i] - base[name][i])
                assert gap <= 1e-12 * unit_scale(base, name, i), name
            assert scaled["water_level"][i] == pytest.approx(k * base["water_level"][i], rel=1e-12)

    @pytest.mark.parametrize("k", [pytest.param(k, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 12: ub_lt's sqrt(n)/(2*level) term is not unit-free"))
        for k in (7.0, 0.1)])
    def test_upper_bound_lt_is_unit_free(self, k):
        # two-state channel, n = 100, 1000 and 10000: log_m_ub_lt moves by
        # 5.2% at k = 7 and 54% at k = 0.1
        n = [100, 1000, 10000]
        base = bound_table(TWO_STATE["gains"], TWO_STATE["probs"], 1.0, 1.0, 1, n)
        scaled = bound_table(TWO_STATE["gains"], TWO_STATE["probs"], k, k, 1, n)
        for i in range(len(n)):
            for name in ("log_m_ub_lt", "rate_ub_lt"):
                gap = abs(scaled[name][i] - base[name][i])
                assert gap <= 1e-12 * unit_scale(base, name, i), name

    @given(random_channels(), st.integers(-6, 6), st.integers(1, 3))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_gains_by_a_power_of_two_leave_every_column_bit_identical(self, params, j, n_c):
        # gains * 2^j with noise_var * 4^j: every received SNR is the same,
        # and power-of-two scaling rounds nothing
        gains, probs, noise_var, budget = params
        n = [n_c, 100 * n_c, 10 ** 5 * n_c]
        base = bound_table(gains, probs, noise_var, budget, n_c, n)
        scaled = bound_table([g * 2.0 ** j for g in gains], probs, noise_var * 4.0 ** j,
                             budget, n_c, n)
        for name, column in base.items():
            assert scaled[name].tobytes() == column.tobytes(), name

    @given(st.floats(0.01, 100.0), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_one_state_dispersions_are_the_awgn_dispersion(self, gain, noise_var, budget):
        # one state: no fading, so both dispersions are the real AWGN
        # channel's at SNR = gain^2 * budget / noise_var
        stats = stats_at(ChannelSpec(noise_var=noise_var, n_c=1,
                                     fading=make_distribution([gain], [1.0])), budget)
        expected = awgn_dispersion(gain * gain * budget / noise_var)
        assert stats["v_bf"] == pytest.approx(expected, rel=1e-15)
        assert stats["v_bf_prime"] == pytest.approx(expected, rel=1e-15)

    @given(st.floats(0.01, 100.0), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3),
           st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=4))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_one_state_block_length_moves_no_bound(self, gain, noise_var, budget, blocks):
        # one state has no rate variance for n_c to multiply
        n = [3 * b for b in blocks]
        one = bound_table([gain], [1.0], noise_var, budget, 1, n)
        three = bound_table([gain], [1.0], noise_var, budget, 3, n)
        for name in one:
            if name.startswith(("log_m_", "rate_")):
                assert three[name].tobytes() == one[name].tobytes(), name

    @given(random_channels(), st.integers(1, 3), st.integers(0, 11))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_splitting_a_state_moves_only_the_state_count_term(self, params, n_c, index):
        # State i (gain g, mass p) becomes two states, g and g(1+delta), with
        # p/2 each. To first order in delta, at the water level lambda with
        # l = 1 - (noise_var/g^2)/lambda in an active state: the level moves
        # by mu = -(p/active mass)(1 - l_i)*delta relative, |mu| <= delta; per
        # state, c moves by at most delta, l by 2*delta and v by 2*delta
        # (c = log(lambda*g^2/noise_var)/2, dl = (1 - l)(dlog lambda + 2 dlog g),
        # dv = (1 - l) dl); at constant power only the moved half moves,
        # less. So capacity moves by (p/2)*l_i*delta <= delta/2 (envelope);
        # E[V] by at most delta; Var X by at most 2*sd(X)*max|dX|, with
        # n_c*sd(C) <= sqrt(n_c*v_bf) and sd(n_c*C - L/2) <= sqrt(v_bf_prime).
        # Hence |d v_bf| <= 2(1 + sqrt(n_c*v_bf))*delta (nocsit_v alike),
        # |d v_bf_prime| <= (1 + 2(n_c + 1)*sqrt(v_bf_prime))*delta, and a
        # rate C + sqrt(V/n)*q moves by at most (1/2 + |q|*K_V/(2*sqrt(n*V)))
        # *delta for |dV| <= K_V*delta. The upper bounds count states, so
        # they move by log(n)/(2n) more, whatever delta; ub_lt's
        # 1/(2*lambda*sqrt(n)) adds delta/(2*lambda*sqrt(n)). 1% covers the
        # delta^2 terms.
        gains, probs, noise_var, budget = params
        fits = [j for j in range(len(gains)) if j + 1 == len(gains)
                or gains[j] * 1.001 < gains[j + 1]]
        i = fits[index % len(fits)]
        n = [100 * n_c, 10 ** 4 * n_c]
        nf = np.array(n, dtype=float)
        q = abs(_normal_quantile(0.01))
        base = bound_table(gains, probs, noise_var, budget, n_c, n)
        v, v_prime, v_const = (base[name][0] for name in ("v_bf", "v_bf_prime", "nocsit_v"))
        k_v = 2.0 * (1.0 + math.sqrt(n_c * v))
        k_prime = 1.0 + 2.0 * (n_c + 1) * math.sqrt(v_prime)
        k_const = 2.0 * (1.0 + math.sqrt(n_c * v_const))

        def rate_constant(k, dispersion):
            return 0.5 + q * k / (2.0 * np.sqrt(nf * dispersion))

        state_term = np.log(nf) / (2.0 * nf)
        # column: (first-order constant, the exact jump)
        expected = {
            "capacity": (0.5, 0.0), "nocsit_capacity": (0.5, 0.0),
            "v_bf": (k_v, 0.0), "v_bf_prime": (k_prime, 0.0), "nocsit_v": (k_const, 0.0),
            "rate_lb_st": (rate_constant(k_v, v), 0.0),
            "rate_lb_lt": (rate_constant(k_v, v), 0.0),
            "rate_nocsit": (rate_constant(k_const, v_const), 0.0),
            "rate_ub_st": (rate_constant(k_prime, v_prime), state_term),
            # ub_lt - ub_st is the 1/(2*lambda*sqrt(n)) term, per use
            "rate_ub_lt": (rate_constant(k_prime, v_prime)
                           + (base["log_m_ub_lt"] - base["log_m_ub_st"]) / nf, state_term),
        }
        for delta in (1e-3, 1e-6):
            split = bound_table(gains[:i + 1] + [gains[i] * (1.0 + delta)] + gains[i + 1:],
                                probs[:i] + [probs[i] / 2.0] * 2 + probs[i + 1:],
                                noise_var, budget, n_c, n)
            for name, (k, jump) in expected.items():
                moved = np.abs(split[name] - base[name] - jump)
                assert np.all(moved <= 1.01 * k * delta), (name, delta, moved / delta)
