import dataclasses
import json
import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockfade import (
    ChannelSpec,
    InvalidParameterError,
    SimConfig,
    discretize_rayleigh,
    make_distribution,
    simulate_information_density,
    simulate_st_controller,
    sweep_dispersion_stats,
    water_fill,
)
import blockfade.montecarlo as montecarlo
from blockfade.cli import main
from blockfade.montecarlo import (_controller_spends, _delta_b, _density_coefficients,
                                  _density_totals, _ks_distance, _lookup_states,
                                  _min_blocks_for_backoff, _state_guide)
from oracles import (
    binomial_acceptance_region,
    controller_powers,
    exact_violation_probability,
    fsum_mean_var,
    oracle_link_c,
    oracle_link_v,
    per_block_violations,
    per_trial_density_totals,
    waterfill_powers,
)
from test_waterfill import random_channels

TWO_STATE = make_distribution([1.0, 2.0], [0.5, 0.5])


def two_state_cfg(blocks, trials, seed=42, n_c=1, budget=1.0):
    spec = ChannelSpec(noise_var=1.0, n_c=n_c, fading=TWO_STATE)
    return SimConfig(spec=spec, budget=budget, blocks=blocks, trials=trials, seed=seed)


class TestScalarBounds:
    def test_delta_b_reference_value(self):
        value = _delta_b(1000, 0.1, 1.625)
        assert value == pytest.approx(1.625 * math.sqrt(2.0 / 1000.0 ** 0.9), rel=1e-15)
        assert value == pytest.approx(0.10265, abs=1e-5)

    def test_delta_b_single_block(self):
        for lam in (0.5, 1.625, 4.0):
            assert _delta_b(1, 0.3, lam) == pytest.approx(lam * math.sqrt(2.0), rel=1e-15)

    @pytest.mark.parametrize("blocks,alpha,lam", [
        (10, 0.05, 0.5), (100, 0.3, 1.625), (1000, 0.1, 1.625), (10000, 0.9, 4.0),
    ])
    def test_hoeffding_collapses_to_exp_of_power(self, blocks, alpha, lam):
        # with the canonical back-off the exponent is exactly -blocks^alpha;
        # one state of gain 1 puts the water level at budget + noise_var = lam
        spec = ChannelSpec(noise_var=0.1 * lam, n_c=1, fading=make_distribution([1.0], [1.0]))
        cfg = SimConfig(spec=spec, budget=0.9 * lam, blocks=blocks, trials=1, seed=1)
        report = simulate_st_controller(cfg, alpha=alpha)
        assert report["delta_b"] == pytest.approx(_delta_b(blocks, alpha, lam), rel=1e-12)
        assert report["hoeffding_bound"] == pytest.approx(math.exp(-float(blocks) ** alpha),
                                                          rel=1e-12)

    def test_hoeffding_reference_value(self):
        cfg = two_state_cfg(blocks=1000, trials=1)
        bound = simulate_st_controller(cfg, alpha=0.1)["hoeffding_bound"]
        assert bound == pytest.approx(math.exp(-1000.0 ** 0.1), rel=1e-12)
        assert bound == pytest.approx(0.1360, abs=2e-4)

    def test_hoeffding_decreasing_in_blocks(self):
        values = [simulate_st_controller(two_state_cfg(blocks=b, trials=1),
                                         alpha=0.1)["hoeffding_bound"]
                  for b in (10, 100, 1000, 10000)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_min_blocks_for_backoff(self):
        # two-state level 1.625, budget 1, alpha 0.5:
        # blocks^(0.5) > 2*1.625^2 means blocks > 27.9
        assert _min_blocks_for_backoff(1.0, 0.5, 1.625) == 28
        assert _delta_b(28, 0.5, 1.625) < 1.0
        assert _delta_b(27, 0.5, 1.625) >= 1.0
        # alpha 0.9: blocks > (2*1.625^2)^10 = 16879798.7
        assert _min_blocks_for_backoff(1.0, 0.9, 1.625) == 16879799
        assert _delta_b(16879799, 0.9, 1.625) < 1.0 <= _delta_b(16879798, 0.9, 1.625)

    @pytest.mark.parametrize("alpha", [0.96, 0.999, 1.0 - 1e-12])
    def test_min_blocks_past_2_to_53_is_an_error(self, alpha):
        # the threshold (2*1.625^2)^(1/(1-alpha)) overflows a float at 0.999
        with pytest.raises(InvalidParameterError, match=r"2\^53"):
            _min_blocks_for_backoff(1.0, alpha, 1.625)

    @given(st.floats(1e-3, 1e3), st.floats(1e-3, 0.999), st.floats(0.1, 100.0))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_min_blocks_is_the_first_count_below_the_budget(self, budget, alpha, ratio):
        level = budget * ratio
        try:
            blocks = _min_blocks_for_backoff(budget, alpha, level)
        except InvalidParameterError:
            assert _delta_b(2 ** 53, alpha, level) >= budget
            return
        assert _delta_b(blocks, alpha, level) < budget
        assert blocks == 1 or budget <= _delta_b(blocks - 1, alpha, level)


class TestController:
    def test_single_state_never_violates(self):
        spec = ChannelSpec(noise_var=1.0, n_c=1, fading=make_distribution([1.0], [1.0]))
        cfg = SimConfig(spec=spec, budget=2.0, blocks=50, trials=500, seed=3)
        report = simulate_st_controller(cfg, alpha=0.3)
        assert report["empirical_prob"] == 0.0

    def test_deterministic_reports(self):
        cfg = two_state_cfg(blocks=200, trials=400)
        assert simulate_st_controller(cfg, alpha=0.1) == simulate_st_controller(cfg, alpha=0.1)

    def test_single_trial_reproducible(self):
        cfg = two_state_cfg(blocks=100, trials=1, seed=9)
        first = simulate_st_controller(cfg, alpha=0.1)
        second = simulate_st_controller(cfg, alpha=0.1)
        assert first == second
        assert first["empirical_prob"] in (0.0, 1.0)

    def test_trial_results_do_not_depend_on_trial_count(self):
        # substreams: the first trial's draw is fixed, so prefix counts agree
        small = simulate_st_controller(two_state_cfg(blocks=150, trials=50, seed=5), alpha=0.1)
        large = simulate_st_controller(two_state_cfg(blocks=150, trials=200, seed=5), alpha=0.1)
        assert small["delta_b"] == large["delta_b"]
        assert small["lambda_b"] == large["lambda_b"]
        assert round(small["empirical_prob"] * 50) <= round(large["empirical_prob"] * 200)

    def test_bound_reported_matches_canonical_form(self):
        cfg = two_state_cfg(blocks=1000, trials=10)
        report = simulate_st_controller(cfg, alpha=0.1)
        assert report["hoeffding_bound"] == pytest.approx(math.exp(-1000.0 ** 0.1), rel=1e-12)
        assert report["delta_b"] == pytest.approx(_delta_b(1000, 0.1, 1.625), rel=1e-9)

    def test_backed_off_level_value(self):
        report = simulate_st_controller(two_state_cfg(blocks=1000, trials=10), alpha=0.1)
        # both states stay active at the reduced budget, so the level drops
        # by exactly the back-off
        assert report["lambda_b"] == pytest.approx(1.625 - report["delta_b"], abs=1e-9)

    def test_violations_within_hoeffding_bound(self):
        report = simulate_st_controller(two_state_cfg(blocks=1000, trials=2000), alpha=0.1)
        assert report["pass"] is True

    @pytest.mark.parametrize("blocks", [100, 1000, 10000])
    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2])
    def test_bound_grid(self, blocks, alpha):
        report = simulate_st_controller(two_state_cfg(blocks=blocks, trials=1500), alpha=alpha)
        assert report["pass"] is True

    @pytest.mark.parametrize("alpha", [0.0, 1.0, math.nan])
    def test_rejects_bad_alpha_before_any_work(self, monkeypatch, alpha):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the controller solved or drew before it checked alpha")

        for name in ("water_fill", "_substream"):
            monkeypatch.setattr(montecarlo, name, must_not_run)
        with pytest.raises(InvalidParameterError, match=r"alpha must lie strictly in \(0, 1\)"):
            simulate_st_controller(two_state_cfg(blocks=10, trials=10), alpha=alpha)

    def test_alpha_is_keyword_only(self):
        with pytest.raises(TypeError):
            simulate_st_controller(two_state_cfg(blocks=10, trials=10), 0.1)

    def test_budget_below_backoff_names_minimum_blocks(self):
        cfg = two_state_cfg(blocks=1, trials=10)
        with pytest.raises(InvalidParameterError, match="28"):
            simulate_st_controller(cfg, alpha=0.5)

    def test_rare_violations_are_counted(self):
        # widely spread gains with a tiny back-off exponent put the exact
        # violation probability at 5.575e-4, far below the bound; the count
        # over 4M trials must lie in that probability's binomial acceptance
        # region at a false-alarm rate of 1e-6
        gains, probs = [0.18, 30.0], [0.5, 0.5]
        spec = ChannelSpec(noise_var=1.0, n_c=1, fading=make_distribution(gains, probs))
        cfg = SimConfig(spec=spec, budget=1.0, blocks=1000, trials=4_000_000, seed=42)
        exact = exact_violation_probability(
            probs, controller_powers(gains, probs, 1.0, 1.0, 1000, 0.01), 1000, 1000.0)
        assert exact == pytest.approx(5.575e-4, abs=5e-8)
        report = simulate_st_controller(cfg, alpha=0.01)
        lo, hi = binomial_acceptance_region(cfg.trials, exact, 1e-6)
        assert lo <= round(report["empirical_prob"] * cfg.trials) <= hi
        assert report["empirical_prob"] <= report["hoeffding_bound"]

    def test_exact_probability_at_verify_defaults(self):
        gains, probs = [1.0, 2.0], [0.5, 0.5]
        powers = controller_powers(gains, probs, 1.0, 1.0, 1000, 0.1)
        exact = exact_violation_probability(probs, powers, 1000, 1000.0)
        assert exact == pytest.approx(1.854e-18, rel=5e-4)
        report = simulate_st_controller(two_state_cfg(blocks=1000, trials=10), alpha=0.1)
        assert report["lambda_b"] == pytest.approx(powers[0] + 1.0, rel=1e-12)
        assert exact < report["hoeffding_bound"]


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
        cfg = SimConfig(spec=spec, budget=1.0, blocks=blocks, trials=500_000, seed=17)
        lo, hi = binomial_acceptance_region(cfg.trials, exact, self.FALSE_ALARM)
        assert lo <= _violations(cfg, powers, cap) <= hi

    @pytest.mark.parametrize("fading", [TWO_STATE, discretize_rayleigh(0.1, 4.1, 10, 1.0)],
                             ids=["two-state", "preset"])
    def test_trial_results_do_not_depend_on_chunk_boundaries(self, fading):
        # one substream per 4096-trial chunk: runs that end inside, at or
        # just past a chunk edge see the same spends for the trials they share
        spec = ChannelSpec(noise_var=1.0, n_c=1, fading=fading)
        powers = water_fill(spec, [0.9])[1][0]
        spends = {}
        for trials in (4095, 4096, 4097, 8199):
            cfg = SimConfig(spec=spec, budget=1.0, blocks=50, trials=trials, seed=5)
            spends[trials] = np.concatenate(list(_controller_spends(cfg, powers)))
            assert spends[trials].shape == (trials,)
        longest = spends[8199]
        for trials in (4095, 4096, 4097):
            assert np.array_equal(spends[trials], longest[:trials])


class TestDensityMoments:
    @given(random_channels())
    @settings(max_examples=50, derandomize=True, deadline=None)
    def test_block_moment_identities(self, params):
        # W = fixed + lin*sum(z) - quad*sum(z^2) with z ~ N(0, s2) over n_c
        # uses has mean fixed - quad*n_c*s2 and variance
        # lin^2*n_c*s2 + 2*quad^2*n_c*s2^2; at the water-filling powers these
        # reduce to n_c*C(g^2) and n_c*V(g^2)
        gains, probs, noise_var, budget = params
        for n_c in (1, 3):
            spec = ChannelSpec(noise_var=noise_var, n_c=n_c, fading=make_distribution(gains, probs))
            g = np.asarray(gains)
            x = g * g * water_fill(spec, [budget])[1][0]
            fixed, lin, quad = _density_coefficients(spec, x)
            means = fixed - quad * (n_c * noise_var)
            variances = lin * lin * (n_c * noise_var) + 2.0 * quad * quad * (n_c * noise_var ** 2)
            for g2, m, v in zip(x, means, variances):
                assert m == pytest.approx(n_c * oracle_link_c(g2, noise_var), abs=1e-12)
                assert v == pytest.approx(n_c * oracle_link_v(g2, noise_var), abs=1e-12)


class TestDensitySimulation:
    def test_deterministic(self):
        cfg = two_state_cfg(blocks=300, trials=150, seed=11)
        assert simulate_information_density(cfg) == simulate_information_density(cfg)

    def test_requires_enough_trials(self):
        with pytest.raises(InvalidParameterError):
            simulate_information_density(two_state_cfg(blocks=100, trials=99))

    @given(random_channels(), st.integers(1, 3))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_analytic_targets_share_the_bounds_moments(self, params, n_c):
        gains, probs, noise_var, budget = params
        spec = ChannelSpec(noise_var=noise_var, n_c=n_c, fading=make_distribution(gains, probs))
        cfg = SimConfig(spec=spec, budget=budget, blocks=3, trials=100, seed=5)
        stats = simulate_information_density(cfg)
        # one code path for E[C]: the bounds' capacity, bit for bit
        assert stats["analytic_mean"] == sweep_dispersion_stats(spec, [budget])["capacity"][0]
        probs = spec.fading.probs
        powers = waterfill_powers(gains, probs, noise_var, budget)
        g2 = [g * g * p for g, p in zip(gains, powers)]
        mean_v, _ = fsum_mean_var([oracle_link_v(x, noise_var) for x in g2], probs)
        _, var_c = fsum_mean_var([oracle_link_c(x, noise_var) for x in g2], probs)
        assert stats["analytic_var"] == pytest.approx(mean_v + n_c * var_c, rel=1e-12)

    def test_analytic_targets(self):
        cfg = two_state_cfg(blocks=200, trials=100)
        stats = simulate_information_density(cfg)
        assert stats["analytic_mean"] == pytest.approx(0.58933, abs=5e-6)
        assert stats["analytic_var"] == pytest.approx(0.51952, abs=5e-6)

    def test_moderate_run_matches_targets(self):
        cfg = two_state_cfg(blocks=2000, trials=1000, seed=7)
        stats = simulate_information_density(cfg)
        n = 2000
        se_mean = math.sqrt(stats["analytic_var"] / (1000 * n))
        assert abs(stats["empirical_mean_per_use"] - stats["analytic_mean"]) <= 3.0 * se_mean
        assert abs(stats["empirical_var_per_use"] - stats["analytic_var"]) \
            <= 0.10 * stats["analytic_var"]
        assert stats["ks_distance"] <= 0.05

    def test_single_state_gaussian_sum(self):
        spec = ChannelSpec(noise_var=1.0, n_c=1, fading=make_distribution([1.0], [1.0]))
        cfg = SimConfig(spec=spec, budget=2.0, blocks=500, trials=1000, seed=21)
        stats = simulate_information_density(cfg)
        g2 = 2.0
        assert stats["analytic_mean"] == pytest.approx(oracle_link_c(g2, 1.0), abs=1e-9)
        assert stats["analytic_var"] == pytest.approx(oracle_link_v(g2, 1.0), abs=1e-9)
        assert stats["ks_distance"] <= 0.06

    def test_block_length_two(self):
        cfg = two_state_cfg(blocks=400, trials=400, n_c=2, seed=13)
        stats = simulate_information_density(cfg)
        # per-use variance target picks up the block length: E[V] + 2*Var[C]
        assert stats["analytic_var"] == pytest.approx(0.639633, abs=1e-5)
        n = 800
        se_mean = math.sqrt(stats["analytic_var"] / (400 * n))
        assert abs(stats["empirical_mean_per_use"] - stats["analytic_mean"]) <= 4.0 * se_mean
        assert abs(stats["empirical_var_per_use"] - stats["analytic_var"]) \
            <= 0.2 * stats["analytic_var"]


class TestDensityEngine:
    # The engine against the original per-trial loop (oracles.py), bit for
    # bit: the same draws in the same order, the same increments and sums.
    CHANNELS = {
        "two-state": (TWO_STATE, 1.0, 1),
        "paper-rayleigh": (discretize_rayleigh(0.1, 4.1, 10, 1.0), 1.0, 1),
        "one-state": (make_distribution([1.0], [1.0]), 1.0, 1),
        # the edges 0.3 and 0.6 fall inside guide cells
        "edge-inside-a-cell": (make_distribution([0.5, 1.0, 2.0], [0.3, 0.3, 0.4]), 1.0, 1),
        # edges crowd the top cells, so many keys go back to searchsorted
        "rayleigh-1000": (discretize_rayleigh(0.001, 6.0, 1000), 1.0, 1),
        "nc3": (TWO_STATE, 0.7, 3),
    }

    @staticmethod
    def cum(fading):
        cum = np.cumsum(np.asarray(fading.probs, dtype=float))
        cum[-1] = 1.0
        return cum

    @pytest.mark.parametrize("name", sorted(CHANNELS))
    def test_totals_equal_the_per_trial_oracle_bit_for_bit(self, name):
        fading, noise_var, n_c = self.CHANNELS[name]
        spec = ChannelSpec(noise_var=noise_var, n_c=n_c, fading=fading)
        cfg = SimConfig(spec=spec, budget=1.0, blocks=700, trials=12, seed=2 ** 64 - 1)
        gains = np.asarray(fading.gains, dtype=float)
        coefficients = _density_coefficients(spec, gains * gains * water_fill(spec, [1.0])[1][0])
        ours = _density_totals(cfg, *coefficients)
        theirs = per_trial_density_totals(*coefficients, fading.probs, noise_var, n_c,
                                          cfg.blocks, cfg.trials, cfg.seed)
        assert ours.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("name,least,most", [
        ("two-state", 0.0, 0.0), ("one-state", 0.0, 0.0),
        ("edge-inside-a-cell", 0.1, 0.2), ("rayleigh-1000", 0.1, 1.0),
    ])
    def test_share_of_split_cells(self, name, least, most):
        # the two-state edge 1/2 is a cell corner; see CHANNELS for the others
        cum = self.cum(self.CHANNELS[name][0])
        cells, table = _state_guide(cum)
        assert cells >= 4 * len(cum) or cells == 2 ** 14
        assert least <= np.mean(table == len(cum)) <= most

    @given(random_channels())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_lookup_equals_searchsorted_at_every_edge(self, params):
        # keys at, just below and just above every cumulative edge and
        # every cell corner, where a wrong cell or table entry would show
        gains, probs, _, _ = params
        cum = self.cum(make_distribution(gains, probs))
        cells, table = _state_guide(cum)
        points = np.concatenate((cum[:-1], np.arange(cells) / cells))
        keys = np.concatenate((points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)))
        keys = keys[(keys >= 0.0) & (keys < 1.0)]
        states = np.empty(len(keys), dtype=np.intp)
        _lookup_states(keys, cum, cells, table, states)
        assert np.array_equal(states, np.searchsorted(cum, keys, side="right"))


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


class TestVerifySections:
    def test_threshold_fields_follow_their_formulas(self):
        # each threshold written once, here; widely spread gains make
        # violations common enough that the binomial slack is not zero
        fading = make_distribution([0.18, 30.0], [0.5, 0.5])
        spec = ChannelSpec(noise_var=1.0, n_c=1, fading=fading)
        cfg = SimConfig(spec=spec, budget=1.0, blocks=1000, trials=20_000, seed=42)
        ctrl = simulate_st_controller(cfg, alpha=0.01)
        p_hat, trials = ctrl["empirical_prob"], ctrl["trials"]
        assert p_hat > 0.0 and trials == cfg.trials and ctrl["blocks"] == cfg.blocks
        slack = 3.0 * math.sqrt(p_hat * (1.0 - p_hat) / trials)
        assert ctrl["binomial_slack"] == pytest.approx(slack, rel=1e-12)
        assert ctrl["threshold"] == pytest.approx(ctrl["hoeffding_bound"] + slack, rel=1e-12)
        assert ctrl["pass"] is (p_hat <= ctrl["threshold"])

        # here the KS distance, 0.0217, lies just above its threshold, and
        # the variance's relative error, 0.0107, below its tolerance
        cfg = two_state_cfg(blocks=50, trials=1000, seed=4)
        dens = simulate_information_density(cfg)
        assert dens["trials"] == cfg.trials and dens["blocks"] == cfg.blocks
        n = cfg.blocks * cfg.spec.n_c
        mean_tolerance = 3.0 * math.sqrt(dens["analytic_var"] / (cfg.trials * n))
        assert dens["mean_tolerance"] == pytest.approx(mean_tolerance, rel=1e-12)
        assert dens["var_rel_tolerance"] == dens["ks_threshold"] == 0.02
        assert dens["mean_pass"] is (abs(dens["empirical_mean_per_use"] - dens["analytic_mean"])
                                     <= dens["mean_tolerance"])
        assert dens["var_pass"] is (abs(dens["empirical_var_per_use"] - dens["analytic_var"])
                                    <= 0.02 * dens["analytic_var"])
        assert dens["ks_pass"] is (dens["ks_distance"] <= 0.02)
        assert dens["pass"] is (dens["mean_pass"] and dens["var_pass"] and dens["ks_pass"])


class TestReportSerialization:
    def test_reports_round_trip_through_json(self, tmp_path):
        # verify's two sections are the simulations' return values as they
        # are, so a seed sweep can call the library without the CLI
        out = tmp_path / "report.json"
        assert main(["verify", "--trials", "100", "--seed", "3", "--out", str(out)]) in (0, 3)
        report = json.loads(out.read_text(encoding="utf-8"))
        spec = ChannelSpec(noise_var=1.0, n_c=1, fading=TWO_STATE)
        sections = {
            "controller": simulate_st_controller(SimConfig(spec=spec, budget=1.0, blocks=1000,
                                                           trials=100, seed=3), alpha=0.1),
            "density": simulate_information_density(SimConfig(spec=spec, budget=1.0, blocks=10000,
                                                              trials=100, seed=3)),
        }
        for name, section in sections.items():
            assert report[name] == json.loads(json.dumps(section))
            # a NumPy scalar here would turn the pass flags into np.bool_
            assert {type(value) for value in section.values()} <= {float, int, bool}
        assert report["pass"] is (report["controller"]["pass"] and report["density"]["pass"])


class TestSimConfigValidation:
    def test_fields_are_the_sampling_plan(self):
        # the back-off exponent belongs to the controller, not to the plan
        names = [field.name for field in dataclasses.fields(SimConfig)]
        assert names == ["spec", "budget", "blocks", "trials", "seed"]

    @pytest.mark.parametrize("kwargs", [
        dict(budget=0.0), dict(budget=-1.0), dict(blocks=0), dict(trials=0), dict(seed=1.5),
        dict(seed=-1), dict(seed=2 ** 64),
    ])
    def test_rejects_bad_fields(self, kwargs):
        base = dict(spec=ChannelSpec(noise_var=1.0, n_c=1, fading=TWO_STATE),
                    budget=1.0, blocks=10, trials=10, seed=1)
        base.update(kwargs)
        with pytest.raises(InvalidParameterError):
            SimConfig(**base)
