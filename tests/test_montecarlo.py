import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings

from blockfade import (
    ChannelSpec,
    InvalidParameterError,
    SimConfig,
    delta_b,
    density_block_moments,
    discretize_rayleigh,
    hoeffding_violation_bound,
    make_distribution,
    min_blocks_for_backoff,
    simulate_information_density,
    simulate_st_controller,
    solve_waterfill,
)
from blockfade.montecarlo import _controller_spends, _ks_distance
from oracles import (
    binomial_acceptance_region,
    controller_powers,
    exact_violation_probability,
    oracle_link_c,
    oracle_link_v,
    per_block_violations,
    waterfill_powers,
)
from test_waterfill import random_channels

TWO_STATE = make_distribution([1.0, 2.0], [0.5, 0.5])


def two_state_cfg(blocks, trials, alpha=0.1, seed=42, n_c=1, budget=1.0):
    spec = ChannelSpec(noise_var=1.0, n_c=n_c, fading=TWO_STATE)
    return SimConfig(spec=spec, budget=budget, blocks=blocks, alpha=alpha,
                     trials=trials, seed=seed)


class TestScalarBounds:
    def test_delta_b_reference_value(self):
        value = delta_b(1000, 0.1, 1.625)
        assert value == pytest.approx(1.625 * math.sqrt(2.0 / 1000.0 ** 0.9), rel=1e-15)
        assert value == pytest.approx(0.10265, abs=1e-5)

    def test_delta_b_single_block(self):
        for lam in (0.5, 1.625, 4.0):
            assert delta_b(1, 0.3, lam) == pytest.approx(lam * math.sqrt(2.0), rel=1e-15)

    @pytest.mark.parametrize("blocks,alpha,lam", [
        (10, 0.05, 0.5), (100, 0.3, 1.625), (1000, 0.1, 1.625), (10000, 0.9, 4.0),
    ])
    def test_hoeffding_collapses_to_exp_of_power(self, blocks, alpha, lam):
        # with the canonical back-off the exponent is exactly -blocks^alpha
        bound = hoeffding_violation_bound(blocks, delta_b(blocks, alpha, lam), lam)
        assert bound == pytest.approx(math.exp(-float(blocks) ** alpha), rel=1e-12)

    def test_hoeffding_zero_delta(self):
        assert hoeffding_violation_bound(500, 0.0, 1.0) == 1.0

    def test_hoeffding_reference_value(self):
        bound = hoeffding_violation_bound(1000, 0.10265222404272396, 1.625)
        assert bound == pytest.approx(math.exp(-1000.0 ** 0.1), rel=1e-12)
        assert bound == pytest.approx(0.1360, abs=2e-4)

    def test_hoeffding_decreasing_in_blocks(self):
        values = [hoeffding_violation_bound(b, 0.05, 1.0) for b in (10, 100, 1000, 10000)]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("call", [
        lambda: delta_b(0, 0.1, 1.0),
        lambda: delta_b(10, 0.0, 1.0),
        lambda: delta_b(10, 1.0, 1.0),
        lambda: delta_b(10, 0.1, 0.0),
        lambda: hoeffding_violation_bound(0, 0.1, 1.0),
        lambda: hoeffding_violation_bound(10, -0.1, 1.0),
        lambda: two_state_cfg(blocks=10, trials=10, seed=-1),
        lambda: two_state_cfg(blocks=10, trials=10, seed=2 ** 64),
    ])
    def test_scalar_preconditions(self, call):
        with pytest.raises(InvalidParameterError):
            call()

    def test_min_blocks_for_backoff(self):
        # two-state level 1.625, budget 1, alpha 0.5:
        # blocks^(0.5) > 2*1.625^2 means blocks > 27.9
        assert min_blocks_for_backoff(1.0, 0.5, 1.625) == 28
        assert delta_b(28, 0.5, 1.625) < 1.0
        assert delta_b(27, 0.5, 1.625) >= 1.0


class TestController:
    def test_single_state_never_violates(self):
        spec = ChannelSpec(noise_var=1.0, n_c=1, fading=make_distribution([1.0], [1.0]))
        cfg = SimConfig(spec=spec, budget=2.0, blocks=50, alpha=0.3, trials=500, seed=3)
        report = simulate_st_controller(cfg)
        assert report.empirical_prob == 0.0

    def test_deterministic_reports(self):
        cfg = two_state_cfg(blocks=200, trials=400)
        assert simulate_st_controller(cfg) == simulate_st_controller(cfg)

    def test_single_trial_reproducible(self):
        cfg = two_state_cfg(blocks=100, trials=1, seed=9)
        first = simulate_st_controller(cfg)
        second = simulate_st_controller(cfg)
        assert first == second
        assert first.empirical_prob in (0.0, 1.0)

    def test_trial_results_do_not_depend_on_trial_count(self):
        # substreams: the first trial's draw is fixed, so prefix counts agree
        small = simulate_st_controller(two_state_cfg(blocks=150, trials=50, seed=5))
        large = simulate_st_controller(two_state_cfg(blocks=150, trials=200, seed=5))
        assert small.delta_b == large.delta_b
        assert small.lambda_b == large.lambda_b
        assert round(small.empirical_prob * 50) <= round(large.empirical_prob * 200)

    def test_bound_reported_matches_canonical_form(self):
        cfg = two_state_cfg(blocks=1000, trials=10)
        report = simulate_st_controller(cfg)
        assert report.hoeffding_bound == pytest.approx(math.exp(-1000.0 ** 0.1), rel=1e-12)
        assert report.delta_b == pytest.approx(delta_b(1000, 0.1, 1.625), rel=1e-9)

    def test_backed_off_level_value(self):
        report = simulate_st_controller(two_state_cfg(blocks=1000, trials=10))
        # both states stay active at the reduced budget, so the level drops
        # by exactly the back-off
        assert report.lambda_b == pytest.approx(1.625 - report.delta_b, abs=1e-9)

    def test_violations_within_hoeffding_bound(self):
        report = simulate_st_controller(two_state_cfg(blocks=1000, trials=2000))
        slack = 3.0 * math.sqrt(report.empirical_prob * (1.0 - report.empirical_prob) / report.trials)
        assert report.empirical_prob <= report.hoeffding_bound + slack

    @pytest.mark.parametrize("blocks", [100, 1000, 10000])
    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2])
    def test_bound_grid(self, blocks, alpha):
        report = simulate_st_controller(two_state_cfg(blocks=blocks, trials=1500, alpha=alpha))
        slack = 3.0 * math.sqrt(report.empirical_prob * (1.0 - report.empirical_prob) / report.trials)
        assert report.empirical_prob <= report.hoeffding_bound + slack

    def test_budget_below_backoff_names_minimum_blocks(self):
        cfg = two_state_cfg(blocks=1, trials=10, alpha=0.5)
        with pytest.raises(InvalidParameterError, match="28"):
            simulate_st_controller(cfg)

    def test_rare_violations_are_counted(self):
        # widely spread gains with a tiny back-off exponent put the exact
        # violation probability at 5.575e-4, far below the bound; the count
        # over 4M trials must lie in that probability's binomial acceptance
        # region at a false-alarm rate of 1e-6
        gains, probs = [0.18, 30.0], [0.5, 0.5]
        spec = ChannelSpec(noise_var=1.0, n_c=1, fading=make_distribution(gains, probs))
        cfg = SimConfig(spec=spec, budget=1.0, blocks=1000, alpha=0.01,
                        trials=4_000_000, seed=42)
        exact = exact_violation_probability(
            probs, controller_powers(gains, probs, 1.0, 1.0, 1000, 0.01), 1000, 1000.0)
        assert exact == pytest.approx(5.575e-4, abs=5e-8)
        report = simulate_st_controller(cfg)
        lo, hi = binomial_acceptance_region(cfg.trials, exact, 1e-6)
        assert lo <= round(report.empirical_prob * cfg.trials) <= hi
        assert report.empirical_prob <= report.hoeffding_bound

    def test_exact_probability_at_verify_defaults(self):
        gains, probs = [1.0, 2.0], [0.5, 0.5]
        powers = controller_powers(gains, probs, 1.0, 1.0, 1000, 0.1)
        exact = exact_violation_probability(probs, powers, 1000, 1000.0)
        assert exact == pytest.approx(1.854e-18, rel=5e-4)
        report = simulate_st_controller(two_state_cfg(blocks=1000, trials=10))
        assert report.lambda_b == pytest.approx(powers[0] + 1.0, rel=1e-12)
        assert exact < report.hoeffding_bound


def _violations(cfg, powers, cap):
    return sum(np.count_nonzero(spends > cap) for spends in _controller_spends(cfg, powers))


class TestControllerEngine:
    # A block's power lies in [0, level], so its s.d. is at most level/2,
    # and the canonical back-off puts a violation at least 2*sqrt(2) s.d.
    # above the mean spend (about 2e-3 under the normal approximation).
    # To compare rates, these tests hand the engine water-filling powers
    # at a budget just under the cap instead. FALSE_ALARM is the chance
    # that each check fails a correct engine.
    FALSE_ALARM = 1e-6

    def test_two_state_agrees_with_per_block_sampler_and_exact(self):
        gains, probs = [1.0, 2.0], [0.5, 0.5]
        blocks, cap = 200, 200.0
        powers = np.array(waterfill_powers(gains, probs, 1.0, 0.9713))
        exact = exact_violation_probability(probs, powers, blocks, cap)
        assert 0.05 <= exact <= 0.3

        cfg = two_state_cfg(blocks=blocks, trials=200_000, seed=3)
        new = _violations(cfg, powers, cap)
        old_trials = 20_000
        old = per_block_violations(probs, powers, blocks, cap, old_trials, seed=3)

        for count, trials in ((new, cfg.trials), (old, old_trials)):
            lo, hi = binomial_acceptance_region(trials, exact, self.FALSE_ALARM)
            assert lo <= count <= hi
        # two-proportion z test of the two samplers against each other
        pooled = (new + old) / (cfg.trials + old_trials)
        se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / cfg.trials + 1.0 / old_trials))
        z_crit = NormalDist().inv_cdf(1.0 - self.FALSE_ALARM / 2.0)
        assert abs(new / cfg.trials - old / old_trials) <= z_crit * se

    def test_three_state_agrees_with_multinomial_enumeration(self):
        gains, probs = [0.5, 1.0, 2.0], [0.2, 0.3, 0.5]
        blocks, cap = 30, 30.0
        powers = np.array(waterfill_powers(gains, probs, 1.0, 0.9017))
        exact = exact_violation_probability(probs, powers, blocks, cap)
        assert 0.05 <= exact <= 0.3

        spec = ChannelSpec(noise_var=1.0, n_c=1, fading=make_distribution(gains, probs))
        cfg = SimConfig(spec=spec, budget=1.0, blocks=blocks, alpha=0.5,
                        trials=500_000, seed=17)
        lo, hi = binomial_acceptance_region(cfg.trials, exact, self.FALSE_ALARM)
        assert lo <= _violations(cfg, powers, cap) <= hi

    @pytest.mark.parametrize("fading", [TWO_STATE, discretize_rayleigh(0.1, 4.1, 10, 1.0)],
                             ids=["two-state", "preset"])
    def test_trial_results_do_not_depend_on_chunk_boundaries(self, fading):
        # one substream per 4096-trial chunk: runs that end inside, at or
        # just past a chunk edge see the same spends for the trials they share
        spec = ChannelSpec(noise_var=1.0, n_c=1, fading=fading)
        powers = np.asarray(solve_waterfill(spec, 0.9).powers)
        spends = {}
        for trials in (4095, 4096, 4097, 8199):
            cfg = SimConfig(spec=spec, budget=1.0, blocks=50, alpha=0.1, trials=trials, seed=5)
            spends[trials] = np.concatenate(list(_controller_spends(cfg, powers)))
            assert spends[trials].shape == (trials,)
        longest = spends[8199]
        for trials in (4095, 4096, 4097):
            assert np.array_equal(spends[trials], longest[:trials])


class TestDensityMoments:
    @given(random_channels())
    @settings(max_examples=50, derandomize=True, deadline=None)
    def test_block_moment_identities(self, params):
        # mean reduces to n_c*C(g^2), variance to n_c*V(g^2)
        gains, probs, noise_var, budget = params
        for n_c in (1, 3):
            spec = ChannelSpec(noise_var=noise_var, n_c=n_c, fading=make_distribution(gains, probs))
            alloc = solve_waterfill(spec, budget)
            means, variances = density_block_moments(spec, alloc)
            for g, p, m, v in zip(gains, alloc.powers, means, variances):
                g2 = g * g * p
                assert m == pytest.approx(n_c * oracle_link_c(g2, noise_var), abs=1e-12)
                assert v == pytest.approx(n_c * oracle_link_v(g2, noise_var), abs=1e-12)


class TestDensitySimulation:
    def test_deterministic(self):
        cfg = two_state_cfg(blocks=300, trials=150, seed=11)
        assert simulate_information_density(cfg) == simulate_information_density(cfg)

    def test_requires_enough_trials(self):
        with pytest.raises(InvalidParameterError):
            simulate_information_density(two_state_cfg(blocks=100, trials=99))

    def test_analytic_targets(self):
        cfg = two_state_cfg(blocks=200, trials=100)
        stats = simulate_information_density(cfg)
        assert stats.analytic_mean == pytest.approx(0.58933, abs=5e-6)
        assert stats.analytic_var == pytest.approx(0.51952, abs=5e-6)

    def test_moderate_run_matches_targets(self):
        cfg = two_state_cfg(blocks=2000, trials=1000, seed=7)
        stats = simulate_information_density(cfg)
        n = 2000
        se_mean = math.sqrt(stats.analytic_var / (1000 * n))
        assert abs(stats.empirical_mean_per_use - stats.analytic_mean) <= 3.0 * se_mean
        assert abs(stats.empirical_var_per_use - stats.analytic_var) <= 0.10 * stats.analytic_var
        assert stats.ks_distance <= 0.05

    def test_single_state_gaussian_sum(self):
        spec = ChannelSpec(noise_var=1.0, n_c=1, fading=make_distribution([1.0], [1.0]))
        cfg = SimConfig(spec=spec, budget=2.0, blocks=500, alpha=0.1, trials=1000, seed=21)
        stats = simulate_information_density(cfg)
        g2 = 2.0
        assert stats.analytic_mean == pytest.approx(oracle_link_c(g2, 1.0), abs=1e-9)
        assert stats.analytic_var == pytest.approx(oracle_link_v(g2, 1.0), abs=1e-9)
        assert stats.ks_distance <= 0.06

    def test_block_length_two(self):
        cfg = two_state_cfg(blocks=400, trials=400, n_c=2, seed=13)
        stats = simulate_information_density(cfg)
        # per-use variance target picks up the block length: E[V] + 2*Var[C]
        assert stats.analytic_var == pytest.approx(0.639633, abs=1e-5)
        n = 800
        se_mean = math.sqrt(stats.analytic_var / (400 * n))
        assert abs(stats.empirical_mean_per_use - stats.analytic_mean) <= 4.0 * se_mean
        assert abs(stats.empirical_var_per_use - stats.analytic_var) <= 0.2 * stats.analytic_var


class TestKsHelper:
    def test_perfect_quantile_grid_scores_low(self):
        from blockfade import std_normal_inv_cdf
        n = 2000
        sample = np.array([std_normal_inv_cdf((i - 0.5) / n) for i in range(1, n + 1)])
        assert _ks_distance(np.sort(sample)) <= 1.0 / n

    def test_shifted_sample_scores_high(self):
        from blockfade import std_normal_inv_cdf
        n = 500
        sample = np.array([std_normal_inv_cdf((i - 0.5) / n) + 1.0 for i in range(1, n + 1)])
        assert _ks_distance(np.sort(sample)) > 0.3


class TestReportSerialization:
    def test_reports_round_trip_through_json(self):
        import dataclasses
        import json

        report = simulate_st_controller(two_state_cfg(blocks=100, trials=200))
        # a NumPy scalar here would turn verify's pass flags into np.bool_
        assert type(report.empirical_prob) is float
        again = json.loads(json.dumps(dataclasses.asdict(report)))
        assert again["empirical_prob"] == report.empirical_prob
        assert again["lambda_b"] == report.lambda_b

        stats = simulate_information_density(two_state_cfg(blocks=100, trials=100))
        again = json.loads(json.dumps(dataclasses.asdict(stats)))
        assert again["ks_distance"] == stats.ks_distance


class TestSimConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(budget=0.0), dict(budget=-1.0), dict(blocks=0), dict(alpha=0.0),
        dict(alpha=1.0), dict(trials=0), dict(seed=1.5),
    ])
    def test_rejects_bad_fields(self, kwargs):
        base = dict(spec=ChannelSpec(noise_var=1.0, n_c=1, fading=TWO_STATE),
                    budget=1.0, blocks=10, alpha=0.1, trials=10, seed=1)
        base.update(kwargs)
        with pytest.raises(InvalidParameterError):
            SimConfig(**base)
