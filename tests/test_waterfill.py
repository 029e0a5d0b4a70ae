import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockfade import (
    ChannelSpec,
    InvalidParameterError,
    link_terms,
    make_distribution,
    sweep_dispersion_stats,
    water_fill,
)
from blockfade.cli import preset_fading
from oracles import closed_form_water_level, oracle_link_c, oracle_link_l, oracle_link_v


def channel(gains, probs, noise_var=1.0, n_c=1):
    return ChannelSpec(noise_var=noise_var, n_c=n_c, fading=make_distribution(gains, probs))


def fill_one(spec, budget):
    """The one-row water_fill call: the level and the per-state powers as floats."""
    levels, powers = water_fill(spec, [budget])
    return float(levels[0]), powers[0].tolist()


@st.composite
def random_channels(draw):
    k = draw(st.integers(2, 12))
    base = draw(st.floats(0.05, 2.0))
    steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=k - 1, max_size=k - 1))
    gains = [base]
    for s in steps:
        gains.append(gains[-1] + s)
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    total = math.fsum(weights)
    probs = [w / total for w in weights]
    noise_var = draw(st.floats(0.1, 5.0))
    budget = draw(st.floats(0.05, 50.0))
    return gains, probs, noise_var, budget


class TestLinkFunctions:
    def test_zero_input(self):
        assert link_terms(0.0, 1.0) == (0.0, 0.0, 0.0)

    def test_ratio_value(self):
        assert link_terms(5.5, 1.0)[1] == pytest.approx(5.5 / 6.5, rel=1e-15)

    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_exponential_identity(self, x):
        # 1 - L(x) == exp(-2 C(x))
        c, l, _ = link_terms(x, 1.0)
        assert 1.0 - l == pytest.approx(math.exp(-2.0 * c), rel=1e-14)

    def test_scaled_noise(self):
        c, _, v = link_terms(3.0, 2.0)
        assert c == pytest.approx(0.5 * math.log(2.5), rel=1e-14)
        assert v == pytest.approx(0.5 * (1.0 - (2.0 / 5.0) ** 2), rel=1e-14)

    def test_array_kernel_matches_oracle(self):
        x = np.array([[0.0, 0.1, 1.0], [5.5, 10.0, 1e4]])
        c, l, v = link_terms(x, 2.0)
        assert c.shape == l.shape == v.shape == x.shape
        for (i, j), xi in np.ndenumerate(x):
            assert c[i, j] == pytest.approx(oracle_link_c(xi, 2.0), rel=1e-14, abs=1e-300)
            assert l[i, j] == pytest.approx(oracle_link_l(xi, 2.0), rel=1e-14, abs=1e-300)
            assert v[i, j] == pytest.approx(oracle_link_v(xi, 2.0), rel=1e-14, abs=1e-300)


    def test_dispersion_keeps_relative_precision_at_tiny_power(self):
        # v = l - l^2/2: 1 - (1 - l)^2 would cancel to 0 for l below 1e-16
        _, l, v = link_terms(np.array([1e-20, 1e-12]), 1.0)
        assert v.tolist() == pytest.approx([1e-20, 1e-12 - 1.5e-24], rel=1e-14)
        assert float(link_terms(1e-20, 1.0)[2]) == pytest.approx(1e-20, rel=1e-14)

class TestSolveWaterfill:
    def test_single_state_level_is_budget_plus_floor(self):
        level, powers = fill_one(channel([1.0], [1.0]), 3.16228)
        assert level == pytest.approx(4.16228, abs=1e-9)
        assert powers[0] == pytest.approx(3.16228, abs=1e-9)

    def test_two_state_both_active(self):
        level, powers = fill_one(channel([1.0, 2.0], [0.5, 0.5]), 1.0)
        assert level == pytest.approx(1.625, abs=1e-9)
        assert powers[0] == pytest.approx(0.625, abs=1e-9)
        assert powers[1] == pytest.approx(1.375, abs=1e-9)

    def test_two_state_weak_state_inactive(self):
        level, powers = fill_one(channel([1.0, 2.0], [0.5, 0.5]), 0.1)
        assert level == pytest.approx(0.45, abs=1e-9)
        assert powers[0] == 0.0
        assert powers[1] == pytest.approx(0.2, abs=1e-9)

    @pytest.mark.parametrize("budget", [0.0, -1.0, math.inf, math.nan])
    def test_invalid_budget(self, budget):
        with pytest.raises(InvalidParameterError):
            water_fill(channel([1.0], [1.0]), [budget])

    @given(random_channels())
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_budget_identity_and_kkt(self, params):
        gains, probs, noise_var, budget = params
        spec = channel(gains, probs, noise_var)
        budgets = [budget, 1e-3 * budget, 1e3 * budget]
        levels, rows = water_fill(spec, budgets)
        for b, level, powers in zip(budgets, levels.tolist(), rows.tolist()):
            # every row spends its own budget within 1e-9*max(1, budget)
            spent = math.fsum(q * p for q, p in zip(probs, powers))
            assert abs(spent - b) <= 1e-9 * max(1.0, b)

            for g, p in zip(gains, powers):
                floor = noise_var / (g * g)
                # positive power exactly when the level clears the floor
                assert (p > 0.0) == (level > floor)
                if p > 0.0:
                    assert p + floor == pytest.approx(level, abs=1e-12 * max(1.0, level))

            # powers non-decreasing in the gain
            assert all(hi >= lo for lo, hi in zip(powers, powers[1:]))

    @given(random_channels())
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_waterfilling_identities(self, params):
        gains, probs, noise_var, budget = params
        spec = channel(gains, probs, noise_var)
        level, powers = fill_one(spec, budget)
        for g, p in zip(gains, powers):
            g2 = g * g * p
            # received-power fraction equals the power over the level
            assert abs(link_terms(g2, noise_var)[1] - p / level) <= 1e-12
            # noise plus received power is at least level * gain^2
            assert noise_var + g2 >= level * g * g - 1e-12 * max(1.0, level * g * g)

    @given(random_channels())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_level_matches_closed_form_oracle(self, params):
        gains, probs, noise_var, budget = params
        level, _ = fill_one(channel(gains, probs, noise_var), budget)
        oracle = closed_form_water_level(gains, probs, noise_var, budget)
        assert level == pytest.approx(oracle, abs=1e-10 * max(1.0, oracle))


def breakpoint_budgets(gains, probs, noise_var):
    """Budgets at which the next weaker state is about to turn on.

    With states m.. active, the level reaches the floor of state m-1
    when the budget is sum_{j>=m} q_j*(f_{m-1} - f_j); entry m-1 of the
    result is that budget and floors[m-1] is the level there.
    """
    floors = [noise_var / (g * g) for g in gains]
    budgets = [math.fsum(q * (floors[m - 1] - f) for q, f in zip(probs[m:], floors[m:]))
               for m in range(1, len(gains))]
    return budgets, floors


class TestWaterLevels:
    @given(random_channels())
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_array_solve_matches_scalar_and_oracle(self, params):
        gains, probs, noise_var, budget = params
        spec = channel(gains, probs, noise_var)
        probs = list(spec.fading.probs)
        at_break, floors = breakpoint_budgets(gains, probs, noise_var)
        near_break = [b * (1.0 + s) for b in at_break for s in (-1e-6, 1e-6)]
        budgets = [budget, 1e-3 * budget, 1e3 * budget] + near_break + at_break
        levels, rows = water_fill(spec, budgets)
        assert levels.shape == (len(budgets),)

        for b, level, row in zip(budgets, levels, rows):
            # row i of the array pass is the one-row call, bit for bit
            one_levels, one_rows = water_fill(spec, [b])
            assert one_levels[0] == level and one_rows[0].tolist() == row.tolist()
            powers = [max(0.0, level - f) for f in floors]
            spent = math.fsum(q * p for q, p in zip(probs, powers))
            assert abs(spent - b) <= 1e-9 * max(1.0, b)

        # away from a breakpoint the oracle's active set is unambiguous
        for b, level in zip(budgets[:3 + len(near_break)], levels):
            oracle = closed_form_water_level(gains, probs, noise_var, b)
            assert abs(level - oracle) <= 1e-12 * oracle
        # on a breakpoint the level equals the floor of the state about to
        # turn on (the oracle's strict consistency test cannot split that
        # tie in floating point, so the floor is the reference)
        for m, level in enumerate(levels[len(budgets) - len(at_break):], start=1):
            assert abs(level - floors[m - 1]) <= 1e-12 * floors[m - 1]

    def test_tiny_budget_keeps_the_strongest_state_on(self):
        # budget/q is far below one unit in the last place of the strongest
        # floor (1/4), so the level rounds to that floor; the strongest state
        # must still take the whole budget
        spec = channel([1.0, 2.0], [0.5, 0.5])
        level, powers = fill_one(spec, 1e-18)
        assert level == pytest.approx(0.25, rel=1e-15)
        assert powers[0] == 0.0
        assert powers[1] == pytest.approx(2e-18, rel=1e-15)
        spent = 0.5 * powers[0] + 0.5 * powers[1]
        assert abs(spent - 1e-18) <= 1e-15 * 1e-18
        assert water_fill(spec, [1e-18, 1.0])[0].tolist() == [level, 1.625]

    @given(random_channels(), st.floats(-6.0, 12.0), st.floats(-18.0, 12.0))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_budget_met_at_extreme_noise_to_budget_ratios(self, params, log_noise, log_budget):
        # floors noise/g^2 up to ~1e14 against budgets down to 1e-18: the
        # powers are formed as depths below the level, so the spent power
        # keeps its relative precision, well inside 1e-9*max(1, budget)
        gains, probs, _, _ = params
        noise_var, budget = 10.0 ** log_noise, 10.0 ** log_budget
        spec = channel(gains, probs, noise_var)
        level, powers = fill_one(spec, budget)
        spent = math.fsum(q * p for q, p in zip(spec.fading.probs, powers))
        assert abs(spent - budget) <= 1e-12 * budget
        assert powers[-1] > 0.0
        # the same row inside a many-row call, bit for bit
        levels, rows = water_fill(spec, [1.0, budget])
        assert levels[1] == level and rows[1].tolist() == powers

    def test_two_state_breakpoint(self):
        # floors 1 and 1/4: the weak state turns on at budget 0.5*(1 - 1/4)
        spec = channel([1.0, 2.0], [0.5, 0.5])
        levels = water_fill(spec, [0.1, 0.375, 1.0])[0]
        assert levels.tolist() == pytest.approx([0.45, 1.0, 1.625], abs=1e-15)

    @staticmethod
    def assert_ties_follow_the_strict_prefix(spec):
        # Budgets exactly at each breakpoint to_floor_k, formed in the order
        # water_fill documents. A tie must leave state k off, so the level
        # and powers equal, bit for bit, the strict rule budget > to_floor_k
        # evaluated here in Python floats.
        floors = [spec.noise_var / (g * g) for g in spec.fading.gains][::-1]
        cum_q = list(itertools.accumulate(spec.fading.probs[::-1]))
        steps = [q * (hi - lo) for q, lo, hi in zip(cum_q, floors, floors[1:])]
        to_floor = [0.0] + list(itertools.accumulate(steps))
        ties = [b for b in to_floor if b > 0.0]
        assert ties
        levels, rows = water_fill(spec, ties)
        for budget, level, row in zip(ties, levels.tolist(), rows.tolist()):
            top = max(k for k, cost in enumerate(to_floor) if budget > cost)
            depth = (budget - to_floor[top]) / cum_q[top]
            assert level == floors[top] + depth
            assert row == [max(0.0, (floors[top] - f) + depth) for f in floors][::-1]

    @pytest.mark.parametrize("fading", [preset_fading(), make_distribution([1.0, 2.0], [0.5, 0.5])],
                             ids=["preset", "two-state"])
    def test_breakpoint_tie_leaves_the_next_state_off(self, fading):
        for noise_var in (0.3, 1.0, 7.0):
            self.assert_ties_follow_the_strict_prefix(
                ChannelSpec(noise_var=noise_var, n_c=1, fading=fading))

    @given(random_channels())
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_breakpoint_tie_on_random_channels(self, params):
        gains, probs, noise_var, _ = params
        self.assert_ties_follow_the_strict_prefix(channel(gains, probs, noise_var))

    def test_empty_budget_array(self):
        assert water_fill(channel([1.0, 2.0], [0.5, 0.5]), [])[0].shape == (0,)

    @pytest.mark.parametrize("budgets", [[1.0, 0.0], [math.nan], [1.0, math.inf], [[1.0]]])
    def test_invalid_budgets(self, budgets):
        with pytest.raises(InvalidParameterError):
            water_fill(channel([1.0, 2.0], [0.5, 0.5]), budgets)

    @pytest.mark.parametrize("budgets,shown", [
        ([1.0, True], "True"), ([1.0, "1.0"], "'1.0'"), ([1.0, math.nan], "nan"),
        ([1.0, math.inf], "inf"), ([1.0, -0.0], "-0.0"), ([1.0, -1.0], "-1.0"),
    ])
    def test_bad_budget_named_by_the_entry_rule(self, budgets, shown):
        # real names the bad entry, whatever the good ones beside it
        with pytest.raises(InvalidParameterError,
                           match=re.escape(f"power budget must be positive and finite, got {shown}")):
            water_fill(channel([1.0, 2.0], [0.5, 0.5]), budgets)

    def test_budget_that_overflows_the_largest_snr_rejected(self):
        # gain^2 tops out at 4: at 1e308 the level is finite but 4 * level is
        # not, and 1e308 / 0.5 overflows inside the solve; neither may warn
        spec = channel([1.0, 2.0], [0.5, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(water_fill(spec, [1e307])[0] * 4.0).all()
            for budget in (1e308, 1.7e308):
                with pytest.raises(InvalidParameterError,
                                   match=re.escape(f"power budget {budget!r} is too large")):
                    water_fill(spec, [1.0, budget])

    def test_budget_that_overflows_the_largest_received_power_rejected(self):
        # at noise_var 1e300 the SNR 4 * level / noise_var stays near 6e8, but
        # the received power 4 * level, which the link terms form, overflows
        spec = channel([1.0, 2.0], [0.5, 0.5], noise_var=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = sweep_dispersion_stats(spec, [1e307])
            assert all(np.isfinite(column).all() for column in stats.values())
            for budget in (1e308, 10 ** 308.2):
                with pytest.raises(InvalidParameterError,
                                   match=re.escape(f"power budget {budget!r} is too large")):
                    water_fill(spec, [1.0, budget])


class TestCapacity:
    def test_two_state_value(self):
        spec = channel([1.0, 2.0], [0.5, 0.5])
        cap = sweep_dispersion_stats(spec, [1.0])["capacity"][0]
        expected = 0.25 * math.log(1.625) + 0.25 * math.log(6.5)
        assert cap == pytest.approx(expected, abs=1e-9)
        assert cap == pytest.approx(0.58933, abs=5e-6)

    def test_single_state_closed_form(self):
        spec = channel([1.0], [1.0])
        cap = sweep_dispersion_stats(spec, [3.16228])["capacity"][0]
        assert cap == pytest.approx(0.5 * math.log(4.16228), abs=1e-9)
        assert cap == pytest.approx(0.71303, abs=5e-6)

    def test_capacity_and_level_increase_with_budget(self):
        spec = channel([0.4, 1.1, 2.7], [0.3, 0.45, 0.25], noise_var=0.8)
        budgets = np.geomspace(0.01, 100.0, 25)
        caps, levels = [], []
        for b in budgets:
            stats = sweep_dispersion_stats(spec, [float(b)])
            caps.append(stats["capacity"][0])
            levels.append(stats["water_level"][0])
        assert all(b > a for a, b in zip(caps, caps[1:]))
        assert all(b > a for a, b in zip(levels, levels[1:]))
