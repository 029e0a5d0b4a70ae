import dataclasses
import json
import math
import mmap
import os
import re
import threading
import time
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockfade import (
    ChannelSpec,
    InvalidParameterError,
    SimConfig,
    bound_columns,
    discretize_rayleigh,
    link_terms,
    make_distribution,
    simulate_information_density,
    simulate_st_controller,
    sweep_dispersion_stats,
    water_fill,
)
import blockfade.montecarlo as montecarlo
import blockfade.waterfill as waterfill
from blockfade.bounds import _normal_quantile
from blockfade.cli import main
from blockfade.montecarlo import (_CONTROLLER_CHUNK, _CONTROLLER_STREAM, _DENSITY_STREAM,
                                  _MIN_PART_TRIALS, _delta_b, _density_coefficients,
                                  _density_totals, _in_parts, _ks_distance,
                                  _min_blocks_for_backoff, _seeker)
from oracles import (
    binomial_acceptance_region,
    controller_powers,
    exact_violation_probability,
    fsum_mean_var,
    mp_norm_cdf,
    oracle_link_c,
    oracle_link_v,
    per_block_violations,
    per_trial_density_totals,
    sufficient_statistic_density_totals,
    waterfill_powers,
)
from test_cli import GOLDEN_VERIFY_SHA256, verify_report_digest
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

        for name in ("water_fill", "_seeker"):
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

    @pytest.mark.parametrize("gains,budget", [([1.0, 2.0], 10 ** 154.5), ([0.5, 1.0], 1e307)],
                             ids=["1545-dB", "3070-dB"])
    def test_budget_whose_level_squared_overflows_rejected_before_any_draw(
            self, monkeypatch, gains, budget):
        # 2 * level^2 is the Hoeffding exponent's denominator: past the float
        # range the bound would be inf / inf, and counts * powers could overflow
        def must_not_draw(*args, **kwargs):
            raise AssertionError("the controller drew before it checked the budget")

        monkeypatch.setattr(montecarlo, "_seeker", must_not_draw)
        spec = ChannelSpec(noise_var=1.0, n_c=1, fading=make_distribution(gains, [0.5, 0.5]))
        cfg = SimConfig(spec=spec, budget=budget, blocks=1000, trials=10, seed=1)
        with pytest.raises(InvalidParameterError,
                           match=re.escape(f"power budget {budget!r} is too large for the "
                                           "controller")):
            simulate_st_controller(cfg, alpha=0.1)

    def test_budget_whose_level_squared_is_finite_gives_a_finite_report(self):
        # 1530 dB: level^2 is about 1e306, so every field stays finite
        spec = ChannelSpec(noise_var=1.0, n_c=1, fading=TWO_STATE)
        cfg = SimConfig(spec=spec, budget=1e153, blocks=1000, trials=10, seed=1)
        report = simulate_st_controller(cfg, alpha=0.1)
        assert all(math.isfinite(value) for value in report.values())
        assert report["pass"] is True

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


def _controller_chunks(cfg):
    """(first trial, counts) per 4096-trial chunk, drawn as the controller draws them."""
    seek, rng = _seeker(cfg.seed, _CONTROLLER_STREAM)
    for c, first in enumerate(range(0, cfg.trials, _CONTROLLER_CHUNK)):
        seek(c)
        yield first, rng.multinomial(cfg.blocks, cfg.spec.fading.probs,
                                     size=min(_CONTROLLER_CHUNK, cfg.trials - first))


def _violations(cfg, powers, cap):
    return sum(np.count_nonzero(np.sum(counts * powers, axis=-1) > cap)
               for _, counts in _controller_chunks(cfg))


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

    def test_engine_counts_what_the_chunk_walk_draws(self):
        # the walk above is the controller's: at the engine's backed-off
        # powers it counts the engine's violations (about 28 of 50,000)
        gains, probs, blocks, alpha = [0.18, 30.0], [0.5, 0.5], 1000, 0.01
        spec = ChannelSpec(noise_var=1.0, n_c=1, fading=make_distribution(gains, probs))
        cfg = SimConfig(spec=spec, budget=1.0, blocks=blocks, trials=50_000, seed=42)
        backoff = _delta_b(blocks, alpha, float(water_fill(spec, [1.0])[0][0]))
        powers = water_fill(spec, [1.0 - backoff])[1][0]
        violations = _violations(cfg, powers, blocks * 1.0)
        assert violations > 0
        report = simulate_st_controller(cfg, alpha=alpha)
        assert report["empirical_prob"] == violations / cfg.trials

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
        # one counter block per 4096-trial chunk: runs that end inside, at
        # or just past a chunk edge see the same counts for the trials they
        # share
        spec = ChannelSpec(noise_var=1.0, n_c=1, fading=fading)
        counts = {}
        for trials in (4095, 4096, 4097, 8199):
            cfg = SimConfig(spec=spec, budget=1.0, blocks=50, trials=trials, seed=5)
            chunks = list(_controller_chunks(cfg))
            assert [first for first, _ in chunks] == list(range(0, trials, _CONTROLLER_CHUNK))
            counts[trials] = np.concatenate([rows for _, rows in chunks])
            assert counts[trials].shape == (trials, fading.num_states)
            assert np.all(counts[trials].sum(axis=1) == 50)
        longest = counts[8199]
        for trials in (4095, 4096, 4097):
            assert np.array_equal(counts[trials], longest[:trials])


def _fresh(seed, stream, c):
    return np.random.Generator(np.random.Philox(key=(stream << 64) | seed, counter=c << 192))


class TestChunkWalker:
    def test_each_chunk_draws_what_a_fresh_philox_at_its_counter_draws(self):
        # after the counts, each chunk draws three uint32s, which leaves
        # half a 64-bit word buffered; the next chunk must not see it
        seed, stream, trials = 2 ** 64 - 1, 7, 5
        seek, rng = _seeker(seed, stream)
        walked = 0
        for c, first in enumerate(range(0, trials, 2)):
            seek(c)
            fresh = _fresh(seed, stream, c)
            size = min(2, trials - first)
            counts = rng.multinomial(30, TWO_STATE.probs, size=size)
            assert np.array_equal(counts, fresh.multinomial(30, TWO_STATE.probs, size=size))
            assert np.array_equal(rng.integers(0, 2 ** 31, size=3, dtype=np.uint32),
                                  fresh.integers(0, 2 ** 31, size=3, dtype=np.uint32))
            walked += len(counts)
        assert walked == trials

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    @pytest.mark.parametrize("c", [0, 1, 2 ** 53 - 1], ids=["0", "1", "last-trial"])
    def test_seek_at_the_edges_of_its_keys(self, seed, c):
        # the extreme seeds, and 2^53 - 1, the last trial index SimConfig
        # allows; the seek follows draws that left the buffer half used
        seek, rng = _seeker(seed, _DENSITY_STREAM)
        seek(5)
        rng.integers(0, 2 ** 32, size=3, dtype=np.uint32)
        rng.standard_normal(3)
        seek(c)
        fresh = _fresh(seed, _DENSITY_STREAM, c)
        for draw in (lambda g: g.integers(0, 2 ** 32, size=3, dtype=np.uint32),
                     lambda g: g.multinomial(700, [0.3, 0.3, 0.4]),
                     lambda g: g.standard_normal(4), lambda g: g.standard_gamma(2.5, 3)):
            assert draw(rng).tobytes() == draw(fresh).tobytes()


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

    def test_one_kernel_call_per_run(self, monkeypatch):
        # the analytic targets come from one link_moments call, and the
        # coefficients form their own link terms; montecarlo is patched too,
        # so a direct call counts
        shapes = []

        def counting(x, noise_var):
            shapes.append(np.shape(x))
            return link_terms(x, noise_var)

        monkeypatch.setattr(waterfill, "link_terms", counting)
        monkeypatch.setattr(montecarlo, "link_terms", counting, raising=False)
        simulate_information_density(two_state_cfg(blocks=100, trials=100))
        assert shapes == [(1, 2)]

    @pytest.mark.parametrize("flags", [[], ["--channel", "paper-rayleigh"], ["--nc", "3"]],
                             ids=["defaults", "paper-rayleigh", "nc3"])
    def test_a_wrong_link_rate_fails_verify(self, tmp_path, monkeypatch, flags):
        # The totals build their model from the channel, not from
        # link_terms, so a rate 10% high in link_terms moves the analytic
        # targets and not the sample: verify at seed 0, which passes
        # unplanted, reports a failed check.
        def planted(x, noise_var):
            c, l, v = link_terms(x, noise_var)
            return 1.1 * c, l, v

        out = tmp_path / "report.json"
        assert main(["verify", "--seed", "0", "--out", str(out)] + flags) == 0
        monkeypatch.setattr(waterfill, "link_terms", planted)
        assert main(["verify", "--seed", "0", "--out", str(out)] + flags) == 3
        assert json.loads(out.read_text())["density"]["mean_pass"] is False

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 17: l enters only Var L, which no density "
                              "target reads, so no check sees a wrong l")
    def test_a_wrong_link_power_fraction_fails_verify(self, tmp_path, monkeypatch):
        # l 5% high in link_terms moves Var L and with it the bounds, but
        # verify at seed 0 still passes
        def planted(x, noise_var):
            c, l, v = link_terms(x, noise_var)
            return c, 1.05 * l, v

        monkeypatch.setattr(waterfill, "link_terms", planted)
        assert main(["verify", "--seed", "0", "--out", str(tmp_path / "report.json")]) == 3

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


# Two-sided normal tail beyond 5 s.e. is 5.7e-7: the false-alarm rate of
# each moment check below.
_Z_LIMIT = 5.0


def _estimates(sample):
    """A sample's mean and variance, and their squared standard errors.

    A variance's is (m4 - s^4) / n, which holds whatever the kurtosis.
    """
    centred = sample - sample.mean()
    var = float(np.mean(centred ** 2))
    m4 = float(np.mean(centred ** 4))
    return (np.array([sample.mean(), var]),
            np.array([var / len(sample), (m4 - var * var) / len(sample)]))


def _moment_z_scores(sample, reference):
    """z-scores of a sample's mean and variance against reference: a
    second, independent sample, or the exact (mean, variance)."""
    values, se2 = _estimates(sample)
    if isinstance(reference, tuple):
        expected, expected_se2 = np.array(reference), 0.0
    else:
        expected, expected_se2 = _estimates(reference)
    return (values - expected) / np.sqrt(se2 + expected_se2)


def _ks_two_sample(a, b) -> float:
    a, b = np.sort(a), np.sort(b)
    points = np.concatenate((a, b))
    gap = (np.searchsorted(a, points, side="right") / len(a)
           - np.searchsorted(b, points, side="right") / len(b))
    return float(np.max(np.abs(gap)))


def _engine_totals(spec, budget, blocks, trials, seed):
    gains = np.asarray(spec.fading.gains, dtype=float)
    x = gains * gains * water_fill(spec, [budget])[1][0]
    coefficients = _density_coefficients(spec, x)
    cfg = SimConfig(spec=spec, budget=budget, blocks=blocks, trials=trials, seed=seed)
    return _density_totals(cfg, *coefficients), coefficients


def _exact_total_moments(spec, coefficients, blocks):
    # one block in state i has mean fixed - quad*n_c*s2 and variance
    # lin^2*n_c*s2 + 2*quad^2*n_c*s2^2; the state is drawn per block
    fixed, lin, quad = coefficients
    s2, n_c = spec.noise_var, spec.n_c
    probs = np.asarray(spec.fading.probs, dtype=float)
    means = fixed - quad * n_c * s2
    variances = lin * lin * n_c * s2 + 2.0 * quad * quad * n_c * s2 * s2
    mean = float(probs @ means)
    return blocks * mean, blocks * (float(probs @ variances) + float(probs @ means ** 2) - mean ** 2)


class TestDensityEngine:
    # The sufficient-statistic engine against two oracles (oracles.py): a
    # plain rewrite of its own draws, byte for byte, and the per-use
    # sampler it replaced, by distribution, since the two draw different
    # variates.
    CHANNELS = {
        "two-state": (TWO_STATE, 1.0, 1),
        "paper-rayleigh": (discretize_rayleigh(0.1, 4.1, 10, 1.0), 1.0, 1),
        "one-state": (make_distribution([1.0], [1.0]), 1.0, 1),
        # three states whose cumulative edges, 0.3 and 0.6, are not dyadic
        "edge-inside-a-cell": (make_distribution([0.5, 1.0, 2.0], [0.3, 0.3, 0.4]), 1.0, 1),
        # at 100 blocks most of the 1000 states get no block, and many one
        "rayleigh-1000": (discretize_rayleigh(0.001, 6.0, 1000), 1.0, 1),
        "nc3": (TWO_STATE, 0.7, 3),
    }

    @pytest.mark.parametrize("name", sorted(CHANNELS))
    def test_totals_equal_the_per_trial_oracle_bit_for_bit(self, name):
        # The engine against a plain per-trial, per-state rewrite of its
        # draws (oracles.py): the same substream, the same draws in the
        # same order, the same arithmetic and sum, so the same bytes.
        fading, noise_var, n_c = self.CHANNELS[name]
        spec = ChannelSpec(noise_var=noise_var, n_c=n_c, fading=fading)
        ours, coefficients = _engine_totals(spec, 1.0, blocks=700, trials=12, seed=2 ** 64 - 1)
        theirs = sufficient_statistic_density_totals(*coefficients, fading.probs, noise_var, n_c,
                                                     blocks=700, trials=12, seed=2 ** 64 - 1)
        assert ours.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("name", sorted(CHANNELS))
    def test_totals_match_the_per_use_oracle_in_law(self, name):
        # Mean and variance at 5 s.e. (each 5.7e-7 false alarms) and the
        # two-sample KS distance at the asymptotic Kolmogorov 1e-6 point:
        # about 2.1e-6 false alarms per channel, under 1.3e-5 over the six.
        # The seeds differ, so the samples are independent.
        fading, noise_var, n_c = self.CHANNELS[name]
        spec = ChannelSpec(noise_var=noise_var, n_c=n_c, fading=fading)
        blocks, trials = 100, 3000
        ours, coefficients = _engine_totals(spec, 1.0, blocks, trials, seed=2 ** 64 - 1)
        theirs = per_trial_density_totals(*coefficients, fading.probs, noise_var, n_c,
                                          blocks, trials, seed=7)
        assert np.all(np.abs(_moment_z_scores(ours, theirs)) <= _Z_LIMIT)
        ks_limit = math.sqrt(-math.log(1e-6 / 2.0) / 2.0 * 2.0 / trials)
        assert _ks_two_sample(ours, theirs) <= ks_limit

    def test_state_with_no_block(self):
        # one block among three states: every trial leaves two states with
        # m = 0 uses, where S^2/m and a chi-square draw are undefined; any
        # numpy RuntimeWarning is an error in this suite
        spec = ChannelSpec(noise_var=1.0, n_c=2, fading=self.CHANNELS["edge-inside-a-cell"][0])
        totals, coefficients = _engine_totals(spec, 1.0, blocks=1, trials=4000, seed=3)
        assert np.all(np.isfinite(totals))
        exact = _exact_total_moments(spec, coefficients, 1)
        assert np.all(np.abs(_moment_z_scores(totals, exact)) <= _Z_LIMIT)

    def test_state_with_one_use(self):
        # one block of one use: sum(z^2) is sum(z)^2, with no chi-square
        # part; drawing one with m, not m - 1, degrees of freedom would move
        # the mean by quad*s2, about 26 s.e. here
        spec = ChannelSpec(noise_var=1.0, n_c=1, fading=self.CHANNELS["one-state"][0])
        totals, coefficients = _engine_totals(spec, 1.0, blocks=1, trials=4000, seed=3)
        exact = _exact_total_moments(spec, coefficients, 1)
        assert np.all(np.abs(_moment_z_scores(totals, exact)) <= _Z_LIMIT)

    def test_first_totals_do_not_depend_on_trial_count(self):
        spec = ChannelSpec(noise_var=1.0, n_c=1, fading=TWO_STATE)
        short, _ = _engine_totals(spec, 1.0, blocks=300, trials=100, seed=9)
        longer, _ = _engine_totals(spec, 1.0, blocks=300, trials=150, seed=9)
        assert short.tobytes() == longer[:100].tobytes()

    @pytest.mark.parametrize("name", ["two-state", "rayleigh-1000"])
    def test_totals_do_not_depend_on_buffer_size(self, monkeypatch, name):
        # The buffer holds the arithmetic, not the draws: buffers of one
        # trial (also when one element is less than a trial), of three, and
        # of seven, which does not divide 30, give the default's bytes.
        fading, noise_var, n_c = self.CHANNELS[name]
        spec = ChannelSpec(noise_var=noise_var, n_c=n_c, fading=fading)
        default, _ = _engine_totals(spec, 1.0, blocks=700, trials=30, seed=11)
        for buffer in (1, 3 * fading.num_states, 7 * fading.num_states):
            monkeypatch.setattr(montecarlo, "_DENSITY_BUFFER", buffer)
            ours, _ = _engine_totals(spec, 1.0, blocks=700, trials=30, seed=11)
            assert ours.tobytes() == default.tobytes(), buffer

    def test_buffer_rows_stop_at_the_trial_count(self):
        # a 100-trial two-state run needs 100 buffer rows, 4.8 KB, not the
        # 2048 rows (98 KB) of a full _DENSITY_BUFFER
        spec = ChannelSpec(noise_var=1.0, n_c=1, fading=TWO_STATE)
        _engine_totals(spec, 1.0, blocks=1000, trials=100, seed=1)  # imports, caches
        tracemalloc.start()
        try:
            _engine_totals(spec, 1.0, blocks=1000, trials=100, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50_000

    @pytest.mark.parametrize("name", ["two-state", "paper-rayleigh"])
    def test_scalar_and_array_gamma_draws_agree(self, monkeypatch, name):
        # one standard_gamma call per state or one per trial: the same draws
        fading, noise_var, n_c = self.CHANNELS[name]
        spec = ChannelSpec(noise_var=noise_var, n_c=n_c, fading=fading)
        totals = []
        for scalar_states in (0, fading.num_states):
            monkeypatch.setattr(montecarlo, "_SCALAR_GAMMA_STATES", scalar_states)
            totals.append(_engine_totals(spec, 1.0, blocks=700, trials=30, seed=11)[0].tobytes())
        assert totals[0] == totals[1]

    @pytest.mark.parametrize("k", [7.0, 0.1])
    def test_totals_do_not_depend_on_units(self, k):
        # (k*s2, k*budget) is the same channel in other units: the same
        # draws give the same totals up to rounding
        base, _ = _engine_totals(ChannelSpec(noise_var=1.0, n_c=2, fading=TWO_STATE), 1.0,
                                 blocks=500, trials=200, seed=5)
        scaled, _ = _engine_totals(ChannelSpec(noise_var=k, n_c=2, fading=TWO_STATE), k,
                                   blocks=500, trials=200, seed=5)
        assert np.max(np.abs(scaled - base) / np.abs(base)) <= 1e-12


def _no_child_left():
    # the calling process has no child, running or a zombie
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cpus(monkeypatch):
    """cpus(count): the density split sees count usable CPUs. Forks are
    counted, and a call that would write the CPU mask, in the parent or in
    a forked child, fails the test: the split reads how many CPUs it may
    use, never which, and leaves the kernel to place its processes."""
    calls = {"forks": 0}
    # shared with forked children, whose failures the parent only recomputes
    mask_written = mmap.mmap(-1, 1)
    real_fork = os.fork

    def fork():
        pid = real_fork()
        calls["forks"] += pid != 0
        return pid

    def set_mask(pid, mask):
        mask_written[0] = 1
        pytest.fail(f"the split wrote the CPU mask: sched_setaffinity({pid}, {sorted(mask)})")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_setaffinity", set_mask)

    def use(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        calls["forks"] = 0
        return calls

    yield use
    assert mask_written[0] == 0, "the split wrote the CPU mask"


class TestDensityParts:
    # The trials split into contiguous ranges, one process each (_in_parts):
    # every part count gives the serial bytes, failures fall back to the
    # parent, and no child outlives a call.
    CHANNELS = {
        "two-state": (TWO_STATE, 1),
        "paper-rayleigh": (discretize_rayleigh(0.1, 4.1, 10, 1.0), 1),  # array gammas
        "nc2": (TWO_STATE, 2),
    }
    UNEVEN = (2 * _MIN_PART_TRIALS + 1, 4097)

    @pytest.mark.parametrize("name", sorted(CHANNELS))
    @pytest.mark.parametrize("trials", UNEVEN)
    def test_totals_do_not_depend_on_part_count(self, cpus, name, trials):
        fading, n_c = self.CHANNELS[name]
        spec = ChannelSpec(noise_var=1.0, n_c=n_c, fading=fading)
        totals = {}
        for count in (1, 2, 3):
            calls = cpus(count)
            totals[count] = _engine_totals(spec, 1.0, blocks=700, trials=trials, seed=13)[0].tobytes()
            parts = min(count, trials // _MIN_PART_TRIALS)
            assert calls["forks"] == parts - 1
            _no_child_left()
        assert totals[1] == totals[2] == totals[3]

    @pytest.mark.parametrize("name", sorted(CHANNELS))
    def test_split_totals_equal_the_per_trial_oracle_bit_for_bit(self, cpus, name):
        # TestDensityEngine's oracle check on a run that crosses a part boundary
        fading, n_c = self.CHANNELS[name]
        spec = ChannelSpec(noise_var=1.0, n_c=n_c, fading=fading)
        trials = self.UNEVEN[0]
        calls = cpus(2)
        ours, coefficients = _engine_totals(spec, 1.0, blocks=700, trials=trials, seed=2 ** 64 - 1)
        assert calls["forks"] == 1
        theirs = sufficient_statistic_density_totals(*coefficients, fading.probs, 1.0, n_c,
                                                     blocks=700, trials=trials, seed=2 ** 64 - 1)
        assert ours.tobytes() == theirs.tobytes()

    def test_verify_reports_do_not_depend_on_part_count(self, tmp_path, cpus):
        for count in (1, 2, 3):
            calls = cpus(count)
            digest, _ = verify_report_digest(tmp_path, "default")
            assert digest == GOLDEN_VERIFY_SHA256["default"][2], count
            assert calls["forks"] == count - 1
            _no_child_left()

    def test_failed_fork_falls_back_to_the_parent(self, tmp_path, cpus, monkeypatch):
        cpus(2)

        def fork():
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        digest, _ = verify_report_digest(tmp_path, "default")
        assert digest == GOLDEN_VERIFY_SHA256["default"][2]
        _no_child_left()

    @pytest.mark.parametrize("failure", ["exit", "raise"])
    def test_failed_child_falls_back_to_the_parent(self, tmp_path, cpus, monkeypatch, failure):
        calls = cpus(2)
        parent = os.getpid()

        def planted(count, work):
            def child_fails(lo, hi):
                if os.getpid() != parent:
                    if failure == "exit":
                        os._exit(1)
                    raise ValueError("planted")
                return work(lo, hi)
            return _in_parts(count, child_fails)

        monkeypatch.setattr(montecarlo, "_in_parts", planted)
        digest, _ = verify_report_digest(tmp_path, "default")
        assert digest == GOLDEN_VERIFY_SHA256["default"][2]
        assert calls["forks"] == 1
        _no_child_left()

    def test_parent_failure_kills_and_reaps_its_children(self, cpus):
        cpus(3)
        parent = os.getpid()

        def work(lo, hi):
            if os.getpid() != parent:
                time.sleep(60)
                os._exit(0)
            raise KeyboardInterrupt

        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            _in_parts(3 * _MIN_PART_TRIALS, work)
        assert time.perf_counter() - start < 10.0
        _no_child_left()

    def test_serial_below_the_floor_beside_threads_and_without_fork(self, cpus, monkeypatch):
        calls = cpus(2)

        def work(lo, hi):
            return np.arange(lo, hi, dtype=float)

        # one part would get fewer than _MIN_PART_TRIALS trials
        assert _in_parts(2 * _MIN_PART_TRIALS - 1, work).tobytes() == \
            np.arange(2 * _MIN_PART_TRIALS - 1, dtype=float).tobytes()
        assert calls["forks"] == 0
        # another Python thread runs, which a forked child would not have
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            _in_parts(4 * _MIN_PART_TRIALS, work)
        finally:
            release.set()
            thread.join()
        assert calls["forks"] == 0
        # no fork on this platform
        monkeypatch.delattr(os, "fork")
        assert _in_parts(4 * _MIN_PART_TRIALS, work).tobytes() == \
            np.arange(4 * _MIN_PART_TRIALS, dtype=float).tobytes()

    def test_real_split_keeps_bytes_and_leaves_the_cpu_mask(self, monkeypatch):
        # no stubs: where this process may run on two CPUs or more, 4097
        # trials split for real and the process's mask stays as it was; on
        # one CPU they run serially
        mask = os.sched_getaffinity(0)
        spec = ChannelSpec(noise_var=1.0, n_c=1, fading=TWO_STATE)
        ours, _ = _engine_totals(spec, 1.0, blocks=700, trials=4097, seed=13)
        assert os.sched_getaffinity(0) == mask
        _no_child_left()
        monkeypatch.setattr(montecarlo, "_MIN_PART_TRIALS", 10 ** 9)
        alone, _ = _engine_totals(spec, 1.0, blocks=700, trials=4097, seed=13)
        assert ours.tobytes() == alone.tobytes()

class TestKsHelper:
    def test_perfect_quantile_grid_scores_low(self):
        n = 2000
        sample = np.array([_normal_quantile((i - 0.5) / n) for i in range(1, n + 1)])
        assert _ks_distance(np.sort(sample)) <= 1.0 / n

    def test_shifted_sample_scores_high(self):
        n = 500
        sample = np.array([_normal_quantile((i - 0.5) / n) + 1.0 for i in range(1, n + 1)])
        assert _ks_distance(np.sort(sample)) > 0.3


class TestKsCdf:
    # The KS distance of a one-point sample [t] is max(1 - cdf(t), cdf(t)),
    # which is cdf(|t|): these read the erfc map of _ks_distance.
    @staticmethod
    def one_point(t):
        return _ks_distance(np.array([float(t)]))

    def test_at_zero(self):
        assert self.one_point(0.0) == 0.5

    @pytest.mark.parametrize("x", [0.5, 1.0, 3.0])
    def test_symmetry(self, x):
        # reads 1 - cdf(-x) and cdf(x)
        assert self.one_point(-x) == pytest.approx(self.one_point(x), abs=1e-15)

    @pytest.mark.parametrize("half", ["negative", "non-negative"])
    def test_against_series_oracle(self, half):
        for t in np.linspace(-8.0, 8.0, 161):
            if (t < 0.0) == (half == "negative"):
                assert self.one_point(t) == pytest.approx(mp_norm_cdf(abs(float(t))), abs=1e-12)

    def test_975_point(self):
        assert self.one_point(1.959964) == pytest.approx(mp_norm_cdf(1.959964), abs=1e-12)
        assert round(self.one_point(1.959964), 3) == 0.975

    def test_monotonic(self):
        # strict where double precision can resolve the increments,
        # non-decreasing out to the saturated tail
        values = [self.one_point(t) for t in np.linspace(0.0, 6.0, 1001)]
        assert all(b > a for a, b in zip(values, values[1:]))
        values = [self.one_point(t) for t in np.linspace(0.0, 9.0, 1001)]
        assert all(b >= a for a, b in zip(values, values[1:]))


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

        # here the mean passes, while the KS distance, 0.0221, and the
        # variance's relative error, 0.0393, lie above their thresholds
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

    def test_codeword_length_capped_at_2_to_the_53(self):
        # blocks * n_c is the density run's codeword length, taken as a float
        for n_c, blocks in ((1, 2 ** 53), (3, 2 ** 53 // 3)):
            spec = ChannelSpec(noise_var=1.0, n_c=n_c, fading=TWO_STATE)
            SimConfig(spec=spec, budget=1.0, blocks=blocks, trials=1, seed=1)
            with pytest.raises(InvalidParameterError, match=r"exceeds 2\^53 = 9007199254740992"):
                SimConfig(spec=spec, budget=1.0, blocks=blocks + 1, trials=1, seed=1)

    def test_codeword_cap_has_the_wording_of_bound_columns(self):
        # one check, fading._codeword_length, raises the cap for both
        spec = ChannelSpec(noise_var=1.0, n_c=1, fading=TWO_STATE)
        messages = []
        for build in (lambda: SimConfig(spec=spec, budget=1.0, blocks=2 ** 53 + 1, trials=1,
                                        seed=1),
                      lambda: bound_columns(spec, [1.0], [2 ** 53 + 1], 0.01)):
            with pytest.raises(InvalidParameterError) as info:
                build()
            messages.append(str(info.value))
        assert messages[0] == messages[1] == (
            "codeword length 9007199254740993 exceeds 2^53 = 9007199254740992, the largest "
            "integer a float holds exactly")
