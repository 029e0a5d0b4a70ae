import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockfade import (
    ChannelSpec,
    DispersionStats,
    DomainError,
    InvalidParameterError,
    bound_columns,
    bound_point,
    capacity,
    discretize_rayleigh,
    dispersion_stats,
    dispersion_v_bf,
    dispersion_v_bf_prime,
    make_distribution,
    nocsit_stats,
    solve_waterfill,
    std_normal_inv_cdf,
    sweep_dispersion_stats,
)
from oracles import (
    TWO_STATE,
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


class TestDispersions:
    def test_two_state_against_independent_oracle(self):
        spec = two_state_spec()
        oracle = oracle_channel_quantities(TWO_STATE["gains"], TWO_STATE["probs"], 1.0, 1, 1.0)
        alloc = solve_waterfill(spec, 1.0)
        assert alloc.water_level == pytest.approx(oracle["level"], abs=1e-11)
        assert capacity(spec, alloc) == pytest.approx(oracle["capacity"], abs=1e-11)
        assert dispersion_v_bf(spec, alloc) == pytest.approx(oracle["v_bf"], abs=1e-11)
        assert dispersion_v_bf_prime(spec, alloc) == pytest.approx(oracle["v_bf_prime"], abs=1e-11)
        # four-significant-digit benchmark values
        assert oracle["level"] == pytest.approx(1.625, abs=5e-5)
        assert oracle["capacity"] == pytest.approx(0.58933, abs=5e-6)
        assert oracle["v_bf"] == pytest.approx(0.5461, abs=5e-5)
        assert oracle["v_bf_prime"] == pytest.approx(0.4529, abs=5e-5)

    def test_single_state_degenerates_to_link_dispersion(self):
        spec = ChannelSpec(noise_var=1.0, n_c=1, fading=make_distribution([1.0], [1.0]))
        alloc = solve_waterfill(spec, 2.0)
        g2 = alloc.gain_power(spec.fading.gains)[0]
        v = 0.5 * (1.0 - (1.0 / (1.0 + g2)) ** 2)
        assert dispersion_v_bf(spec, alloc) == pytest.approx(v, rel=1e-14)
        assert dispersion_v_bf_prime(spec, alloc) == pytest.approx(v, rel=1e-14)

    def test_block_length_adds_rate_variance(self):
        spec1 = two_state_spec(n_c=1)
        spec2 = two_state_spec(n_c=2)
        alloc = solve_waterfill(spec1, 1.0)
        oracle = oracle_channel_quantities(TWO_STATE["gains"], TWO_STATE["probs"], 1.0, 1, 1.0)
        v1 = dispersion_v_bf(spec1, alloc)
        v2 = dispersion_v_bf(spec2, alloc)
        assert v2 - v1 == pytest.approx(oracle["var_c"], abs=1e-11)
        assert v2 == pytest.approx(0.6663, abs=5e-5)
        assert oracle["var_c"] == pytest.approx(0.120112, abs=2e-6)

    def test_two_state_prime_below_plain(self):
        spec = two_state_spec()
        alloc = solve_waterfill(spec, 1.0)
        assert dispersion_v_bf_prime(spec, alloc) < dispersion_v_bf(spec, alloc)

    @given(random_channels())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_accumulation_order_equivalence(self, params):
        gains, probs, noise_var, budget = params
        spec = ChannelSpec(noise_var=noise_var, n_c=1, fading=make_distribution(gains, probs))
        alloc = solve_waterfill(spec, budget)
        oracle = oracle_dispersions_for_alloc(gains, list(spec.fading.probs), noise_var, 1,
                                              alloc.powers, alloc.water_level, budget)
        v_bf = dispersion_v_bf(spec, alloc)
        v_bfp = dispersion_v_bf_prime(spec, alloc)
        assert abs(v_bf - oracle["v_bf"]) <= 1e-14 * max(1.0, abs(v_bf))
        assert abs(v_bfp - oracle["v_bf_prime"]) <= 1e-14 * max(1.0, abs(v_bfp))

    @given(random_channels())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_prime_never_exceeds_plain_at_unit_block(self, params):
        # at n_c = 1 the covariance of rate and power fraction is non-negative
        gains, probs, noise_var, budget = params
        spec = ChannelSpec(noise_var=noise_var, n_c=1, fading=make_distribution(gains, probs))
        alloc = solve_waterfill(spec, budget)
        assert dispersion_v_bf_prime(spec, alloc) <= dispersion_v_bf(spec, alloc) + 1e-12

    def test_v_bf_increases_with_budget(self):
        for spec in (two_state_spec(), preset_spec()):
            budgets = np.geomspace(0.05, 50.0, 20)
            values = [dispersion_v_bf(spec, solve_waterfill(spec, float(b))) for b in budgets]
            assert all(b > a for a, b in zip(values, values[1:]))


class TestNocsit:
    def test_single_state_matches_csit(self):
        spec = ChannelSpec(noise_var=1.0, n_c=1, fading=make_distribution([1.0], [1.0]))
        cap, disp = nocsit_stats(spec, 2.0)
        alloc = solve_waterfill(spec, 2.0)
        assert cap == pytest.approx(capacity(spec, alloc), abs=1e-9)
        assert disp == pytest.approx(dispersion_v_bf(spec, alloc), abs=1e-9)

    def test_two_state_capacity_value(self):
        cap, disp = nocsit_stats(two_state_spec(), 1.0)
        assert cap == pytest.approx(0.25 * math.log(2.0) + 0.25 * math.log(5.0), rel=1e-14)
        assert disp > 0.0

    def test_preset_below_csit_capacity(self):
        spec = preset_spec()
        stats = dispersion_stats(spec, PRESET_BUDGET)
        assert stats.nocsit_capacity < stats.capacity

    def test_invalid_budget(self):
        with pytest.raises(InvalidParameterError):
            nocsit_stats(two_state_spec(), -1.0)


class TestDispersionStats:
    def test_fields_populated(self):
        stats = dispersion_stats(two_state_spec(), 1.0)
        assert stats.capacity == pytest.approx(TWO_STATE["capacity"], abs=1e-9)
        assert stats.water_level == pytest.approx(1.625, abs=1e-9)
        assert stats.v_bf > stats.v_bf_prime > 0.0

    @given(random_channels(), st.integers(1, 60))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_sweep_rows_equal_single_budget_calls(self, params, points):
        gains, probs, noise_var, budget = params
        spec = ChannelSpec(noise_var=noise_var, n_c=3, fading=make_distribution(gains, probs))
        budgets = list(np.geomspace(budget / 30.0, budget * 30.0, points))
        rows = sweep_dispersion_stats(spec, budgets)
        assert len(rows) == points
        for b, row in zip(budgets, rows):
            # one code path: the single-budget call is the one-row sweep
            assert row == dispersion_stats(spec, b)
            alloc = solve_waterfill(spec, b)
            assert row.water_level == alloc.water_level
            assert row.capacity == capacity(spec, alloc)
            assert row.v_bf == dispersion_v_bf(spec, alloc)
            assert row.v_bf_prime == dispersion_v_bf_prime(spec, alloc)
            assert (row.nocsit_capacity, row.nocsit_v) == nocsit_stats(spec, b)

    def test_sweep_matches_oracle_on_preset(self):
        spec = preset_spec()
        budgets = [10.0 ** (db / 10.0) for db in range(0, 21, 5)]
        for b, row in zip(budgets, sweep_dispersion_stats(spec, budgets)):
            oracle = oracle_channel_quantities(spec.fading.gains, spec.fading.probs, 1.0, 1, b)
            for field in ("capacity", "v_bf", "v_bf_prime", "nocsit_capacity", "nocsit_v"):
                assert getattr(row, field) == pytest.approx(oracle[field], rel=1e-12), field
            assert row.water_level == pytest.approx(oracle["level"], rel=1e-12)

    def test_sweep_rejects_bad_budget(self):
        with pytest.raises(InvalidParameterError):
            sweep_dispersion_stats(two_state_spec(), [1.0, -1.0])

    def test_rejects_nonsense(self):
        with pytest.raises(InvalidParameterError):
            DispersionStats(capacity=-1.0, v_bf=0.5, v_bf_prime=0.4,
                            water_level=1.0, nocsit_capacity=0.1, nocsit_v=0.1)
        with pytest.raises(InvalidParameterError):
            DispersionStats(capacity=0.5, v_bf=0.5, v_bf_prime=0.4,
                            water_level=1.0, nocsit_capacity=0.7, nocsit_v=0.1)


class TestBoundPoint:
    def setup_method(self):
        self.stats = dispersion_stats(two_state_spec(), 1.0)

    def test_two_state_reference_point(self):
        bp = bound_point(self.stats, 10_000, 1, 2, 0.01, 0.01)
        # recompose every term independently of the library expression
        n = 10_000
        q = std_normal_inv_cdf(0.01)
        lb_lt = (n * self.stats.capacity + math.sqrt(n * self.stats.v_bf) * q
                 + 0.5 * math.log(n) - n ** 0.495)
        lb_st = lb_lt - math.sqrt(n / 2.0)
        ub_st = (n * self.stats.capacity + math.sqrt(n * self.stats.v_bf_prime) * q
                 + 1.0 * math.log(n))
        ub_lt = ub_st + math.sqrt(n) / (2.0 * self.stats.water_level)
        assert bp.log_m_lb_lt == pytest.approx(lb_lt, abs=1e-9)
        assert bp.log_m_lb_st == pytest.approx(lb_st, abs=1e-9)
        assert bp.log_m_ub_st == pytest.approx(ub_st, abs=1e-9)
        assert bp.log_m_ub_lt == pytest.approx(ub_lt, abs=1e-9)
        # coarse benchmark values
        assert bp.log_m_lb_lt == pytest.approx(5630.5, abs=0.15)
        assert bp.log_m_lb_st == pytest.approx(5559.8, abs=0.15)
        assert bp.log_m_ub_st == pytest.approx(5746.0, abs=0.15)
        assert bp.log_m_ub_lt == pytest.approx(5776.8, abs=0.15)

    def test_rates_are_log_m_over_n(self):
        bp = bound_point(self.stats, 5000, 1, 2, 0.01)
        assert bp.rate_lb_st == bp.log_m_lb_st / 5000
        assert bp.rate_lb_lt == bp.log_m_lb_lt / 5000
        assert bp.rate_ub_st == bp.log_m_ub_st / 5000
        assert bp.rate_ub_lt == bp.log_m_ub_lt / 5000

    def test_st_below_lt(self):
        for n in (100, 1000, 100_000):
            bp = bound_point(self.stats, n, 1, 2, 0.01)
            assert bp.log_m_lb_st <= bp.log_m_lb_lt
            assert bp.log_m_ub_st <= bp.log_m_ub_lt

    def test_block_structure_respected(self):
        bp = bound_point(self.stats, 300, 3, 2, 0.01)
        assert bp.blocks == 100
        with pytest.raises(InvalidParameterError):
            bound_point(self.stats, 301, 3, 2, 0.01)
        with pytest.raises(InvalidParameterError):
            bound_point(self.stats, 0, 1, 2, 0.01)

    @pytest.mark.parametrize("eps", [0.6, 0.5, 0.0, -0.1, 1.0])
    def test_epsilon_domain(self, eps):
        with pytest.raises(DomainError):
            bound_point(self.stats, 1000, 1, 2, eps)

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.5, 2.0])
    def test_beta_domain(self, beta):
        with pytest.raises(InvalidParameterError):
            bound_point(self.stats, 1000, 1, 2, 0.01, beta)

    def test_negative_log_m_reported_raw(self):
        bp = bound_point(self.stats, 4, 1, 2, 0.01)
        assert bp.log_m_lb_st < 0.0
        assert bp.rate_lb_st < 0.0

    @given(random_channels(), st.integers(100, 200_000))
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_ordering_chain_on_random_channels(self, params, n):
        gains, probs, noise_var, budget = params
        spec = ChannelSpec(noise_var=noise_var, n_c=1, fading=make_distribution(gains, probs))
        stats = dispersion_stats(spec, budget)
        bp = bound_point(stats, n, 1, spec.fading.num_states, 0.01)
        assert bp.log_m_lb_st <= bp.log_m_lb_lt
        assert bp.log_m_ub_st <= bp.log_m_ub_lt
        assert bp.log_m_lb_lt <= bp.log_m_ub_st


class TestConvergence:
    def test_rates_approach_capacity(self):
        spec = preset_spec()
        stats = dispersion_stats(spec, PRESET_BUDGET)

        def deviations(n):
            bp = bound_point(stats, n, 1, 10, 0.01)
            return [abs(r - stats.capacity) for r in
                    (bp.rate_lb_st, bp.rate_lb_lt, bp.rate_ub_st, bp.rate_ub_lt)]

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
        stats = dispersion_stats(spec, PRESET_BUDGET)
        coarse = [int(round(10 ** k)) for k in np.arange(3.0, 7.01, 0.5)]
        fine = [int(round(10 ** k)) for k in np.arange(3.0, 7.001, 0.05)]
        for attr in ("rate_lb_st", "rate_lb_lt", "rate_ub_st", "rate_ub_lt", "rate_nocsit"):
            target = stats.capacity if attr != "rate_nocsit" else stats.nocsit_capacity

            def scaled(n):
                bp = bound_point(stats, n, 1, 10, 0.01)
                return abs(getattr(bp, attr) - target) * n ** 0.495

            k_const = max(scaled(n) for n in coarse)
            assert math.isfinite(k_const) and k_const > 0.0
            assert all(scaled(n) <= 1.05 * k_const for n in fine)


def scalar_bound_point(stats, n, num_states, epsilon, beta):
    """The bounds at one n in scalar math, in the library's order of operations."""
    q = std_normal_inv_cdf(epsilon)
    log_n = math.log(n)
    backoff = float(n) ** ((1.0 - beta) / 2.0)
    lb_lt = n * stats.capacity + math.sqrt(n * stats.v_bf) * q + 0.5 * log_n - backoff
    lb_st = lb_lt - math.sqrt(n / 2.0)
    ub_st = n * stats.capacity + math.sqrt(n * stats.v_bf_prime) * q + 0.5 * num_states * log_n
    ub_lt = ub_st + math.sqrt(n) / (2.0 * stats.water_level)
    nocsit = (n * stats.nocsit_capacity + math.sqrt(n * stats.nocsit_v) * q
              + 0.5 * log_n - backoff)
    return {"log_m_lb_st": lb_st, "log_m_lb_lt": lb_lt, "log_m_ub_st": ub_st,
            "log_m_ub_lt": ub_lt, "rate_lb_st": lb_st / n, "rate_lb_lt": lb_lt / n,
            "rate_ub_st": ub_st / n, "rate_ub_lt": ub_lt / n, "rate_nocsit": nocsit / n}


class TestBoundColumns:
    def setup_method(self):
        self.stats = dispersion_stats(two_state_spec(), 1.0)

    @given(random_channels(), st.integers(1, 5),
           st.lists(st.integers(1, 10 ** 7), min_size=1, max_size=12),
           st.sampled_from([1e-3, 1e-2, 0.1, 0.3]), st.floats(0.001, 0.999))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_rows_equal_bound_point_bit_for_bit(self, params, n_c, blocks, epsilon, beta):
        gains, probs, noise_var, budget = params
        spec = ChannelSpec(noise_var=noise_var, n_c=n_c, fading=make_distribution(gains, probs))
        many_stats = sweep_dispersion_stats(spec, [budget * 0.5 ** i for i in range(len(blocks))])
        n = [b * n_c for b in blocks]
        k = spec.fading.num_states
        # many n with one stats, and one n with many stats
        for stats, lengths in (([many_stats[0]], n), (many_stats, [n[0]])):
            columns = bound_columns(stats, lengths, n_c, k, epsilon, beta)
            assert all(len(col) == len(blocks) for col in columns.values())
            for i in range(len(blocks)):
                s_i, n_i = stats[min(i, len(stats) - 1)], lengths[min(i, len(lengths) - 1)]
                bp = bound_point(s_i, n_i, n_c, k, epsilon, beta)
                assert {name: col[i] for name, col in columns.items()} == vars(bp)
                for name, value in scalar_bound_point(s_i, n_i, k, epsilon, beta).items():
                    assert getattr(bp, name) == value, name
                assert type(bp.n) is int and type(bp.blocks) is int and bp.blocks * n_c == n_i

    def test_dense_sweep_matches_scalar_math_bit_for_bit(self):
        # NumPy's own log and power differ from math.log and float ** in the
        # last bit for a few percent of n; over this many n that reaches the
        # outputs, so the kernel must take those two terms from math
        n = list(range(1, 20_001))
        columns = bound_columns([self.stats], n, 1, 2, 0.01)
        expected = [scalar_bound_point(self.stats, v, 2, 0.01, 0.01) for v in n]
        for name in expected[0]:
            assert columns[name].tolist() == [row[name] for row in expected], name

    def test_numpy_integers_accepted(self):
        columns = bound_columns([self.stats], np.array([300, 600]), 3, 2, 0.01)
        assert columns["blocks"].tolist() == [100, 200]
        assert columns["rate_ub_lt"][1] == bound_point(self.stats, 600, 3, 2, 0.01).rate_ub_lt

    @pytest.mark.parametrize("stats_count,n,n_c", [
        (1, [], 1),                   # empty n
        (1, [100, 200.0], 1),         # a float n
        (1, [100, True], 1),          # a bool n
        (1, [30, 31, 33], 3),         # a non-multiple of n_c in the middle
        (2, [100, 200, 300], 1),      # two lengths above 1 that differ
        (0, [100], 1),                # no stats
        (1, [100], 0),                # n_c below 1
    ])
    def test_invalid_inputs(self, stats_count, n, n_c):
        with pytest.raises(InvalidParameterError):
            bound_columns([self.stats] * stats_count, n, n_c, 2, 0.01)

    def test_non_multiple_is_named(self):
        with pytest.raises(InvalidParameterError, match="31"):
            bound_columns([self.stats], [30, 31, 33], 3, 2, 0.01)
