import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockfade import ChannelSpec, FadingDistribution, InvalidParameterError, discretize_rayleigh, make_distribution
import blockfade.fading as fading


def rayleigh_tail(x, scale=1.0):
    return math.exp(-x * x / (2.0 * scale * scale))


class TestDiscretizeRayleigh:
    def test_ten_state_grid(self):
        dist = discretize_rayleigh(0.1, 4.1, 10, 1.0)
        step = 4.0 / 9.0
        assert dist.num_states == 10
        for i, g in enumerate(dist.gains[:-1]):
            assert g == pytest.approx(0.1 + i * step, rel=1e-15)
        assert dist.gains[-1] == 4.1
        assert dist.probs[-1] == pytest.approx(math.exp(-4.1 ** 2 / 2.0), rel=1e-15)
        assert dist.probs[-1] == pytest.approx(2.24e-4, abs=1e-6)
        assert math.fsum(dist.probs) == pytest.approx(1.0, abs=1e-12)

    def test_two_state_tail_arithmetic(self):
        dist = discretize_rayleigh(0.1, 4.1, 2, 1.0)
        tail = math.exp(-8.405)
        assert dist.gains == (0.1, 4.1)
        assert dist.probs[0] == pytest.approx(1.0 - tail, rel=1e-15)
        assert dist.probs[1] == pytest.approx(tail, rel=1e-15)

    def test_lower_tail_folded_into_first_state(self):
        dist = discretize_rayleigh(0.5, 3.0, 4, 1.0)
        # first state carries the whole mass below the second grid point
        assert dist.probs[0] == pytest.approx(1.0 - rayleigh_tail(dist.gains[1]), rel=1e-15)

    @pytest.mark.parametrize("args", [
        (-1.0, 4.0, 10, 1.0),
        (0.0, 4.0, 10, 1.0),
        (4.0, 4.0, 10, 1.0),
        (4.0, 1.0, 10, 1.0),
        (0.1, 4.1, 1, 1.0),
        (0.1, 4.1, 10, 0.0),
        (0.1, 4.1, 10, -2.0),
    ])
    def test_invalid_parameters(self, args):
        with pytest.raises(InvalidParameterError):
            discretize_rayleigh(*args)

    def test_count_is_capped_at_the_state_limit(self):
        # a count is a size: one past the cap is rejected, the cap named
        cap = fading._MAX_STATES
        assert cap == 2 ** 16
        with pytest.raises(InvalidParameterError, match=re.escape(f"count must be an integer "
                                                                  f"in [2, {cap}], got {cap + 1}")):
            discretize_rayleigh(0.1, 4.1, cap + 1)
        assert discretize_rayleigh(0.1, 4.1, cap).num_states == cap

    @pytest.mark.parametrize("args, state, fix", [
        # exp(-4.1^2 / 0.02) underflows: the top state's tail is 0
        ((0.1, 4.1, 10, 0.1), "state 9 (gain 4.1)", "raise scale or lower eta_hi"),
        # exp(-(1.5e-9)^2 / 2) rounds to 1: the bottom state's mass is 0
        ((1e-9, 2e-9, 3, 1.0), "state 0 (gain 1e-09)", "lower scale"),
    ])
    def test_state_with_no_mass_names_state_gain_and_scale(self, args, state, fix):
        with pytest.raises(InvalidParameterError) as info:
            discretize_rayleigh(*args)
        message = str(info.value)
        assert state in message and f"scale {args[3]!r}" in message and fix in message

    @given(eta_lo=st.floats(0.02, 2.0), width=st.floats(0.1, 5.0),
           count=st.integers(2, 64), scale=st.floats(0.25, 4.0))
    @settings(max_examples=80, derandomize=True)
    def test_output_is_always_a_valid_distribution(self, eta_lo, width, count, scale):
        dist = discretize_rayleigh(eta_lo, eta_lo + width, count, scale)
        # construction enforces the invariants; re-check the load-bearing ones
        assert dist.num_states == count
        assert all(b > a for a, b in zip(dist.gains, dist.gains[1:]))
        assert all(q > 0.0 for q in dist.probs)
        assert abs(math.fsum(dist.probs) - 1.0) <= 1e-12

    @given(eta_lo=st.floats(0.05, 1.0), width=st.floats(0.5, 4.0),
           count=st.integers(2, 32), scale=st.floats(0.5, 2.0))
    @settings(max_examples=40, derandomize=True)
    def test_grid_refinement_preserves_mass_split(self, eta_lo, width, count, scale):
        coarse = discretize_rayleigh(eta_lo, eta_lo + width, count, scale)
        fine = discretize_rayleigh(eta_lo, eta_lo + width, 2 * count, scale)
        assert math.fsum(coarse.probs) == pytest.approx(1.0, abs=1e-12)
        assert math.fsum(fine.probs) == pytest.approx(1.0, abs=1e-12)
        # the mass at/above the top grid point does not depend on the resolution
        assert coarse.probs[-1] == fine.probs[-1]


class TestMakeDistribution:
    def test_single_state(self):
        dist = make_distribution([1.0], [1.0])
        assert dist.gains == (1.0,)
        assert dist.probs == (1.0,)

    def test_two_state(self):
        dist = make_distribution([1.0, 2.0], [0.5, 0.5])
        assert dist.num_states == 2

    def test_sum_too_large_rejected(self):
        with pytest.raises(InvalidParameterError, match="sum"):
            make_distribution([1.0, 2.0], [0.6, 0.6])

    def test_small_deviation_renormalized(self):
        dist = make_distribution([1.0, 2.0], [0.5, 0.5 + 4e-10])
        assert abs(math.fsum(dist.probs) - 1.0) <= 1e-12

    def test_deviation_above_threshold_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_distribution([1.0, 2.0], [0.5, 0.5 + 4e-9])

    @pytest.mark.parametrize("gains,probs", [
        ([1.0, 1.0], [0.5, 0.5]),        # duplicate gains
        ([2.0, 1.0], [0.5, 0.5]),        # decreasing gains
        ([-1.0, 2.0], [0.5, 0.5]),       # negative gain
        ([0.0, 2.0], [0.5, 0.5]),        # zero gain
        ([1.0, 2.0], [1.0, 0.0]),        # zero probability
        ([1.0, 2.0], [1.5, -0.5]),       # negative probability
        ([1.0, 2.0], [1.0]),             # length mismatch
        ([], []),                        # empty
        ([1.0, math.inf], [0.5, 0.5]),   # infinite gain
        ([1.0, math.nan], [0.5, 0.5]),   # NaN gain
    ])
    def test_invalid_inputs(self, gains, probs):
        with pytest.raises(InvalidParameterError):
            make_distribution(gains, probs)

    @pytest.mark.parametrize("gains,probs", [
        ([1, 10 ** 400], [0.5, 0.5]),
        ([1.0, 2.0], [10 ** 400, 0.5]),
    ], ids=["gain", "probability"])
    def test_integer_past_the_float_range_named(self, gains, probs):
        with pytest.raises(InvalidParameterError) as info:
            make_distribution(gains, probs)
        assert str(10 ** 400) in str(info.value)


class TestJsonInterface:
    def test_round_trip(self):
        dist = discretize_rayleigh(0.1, 4.1, 10, 1.0)
        again = FadingDistribution.from_json_dict(json.loads(json.dumps(dist.to_json_dict())))
        assert again == dist

    def test_missing_keys_rejected(self):
        with pytest.raises(InvalidParameterError):
            FadingDistribution.from_json_dict({"gains": [1.0]})

    @pytest.mark.parametrize("data,field", [
        ({"gains": ["1", "2"], "probs": ["0.5", "0.5"]}, "gains"),
        ({"gains": [1.0, 2.0], "probs": ["0.5", "0.5"]}, "probs"),
        ({"gains": [True, 2], "probs": [0.5, 0.5]}, "gains"),
        ({"gains": [1.0, 2.0], "probs": [0.5, False]}, "probs"),
        ({"gains": "12", "probs": [0.5, 0.5]}, "gains"),
        ({"gains": {"1": 0}, "probs": {"1": 0}}, "gains"),
        ({"gains": 1, "probs": 1}, "gains"),
        ({"gains": [1.0, 2.0], "probs": [0.5, 0.5], "scale": 1.0}, "scale"),
        ({"gains": [1.0]}, "probs"),
        ({"gains": [1.0, math.nan], "probs": [0.5, 0.5]}, "gains"),
        ({"gains": [1.0, 2.0], "probs": [1.5, -0.5]}, "probs"),
    ], ids=["string-entries", "string-probs", "bool-gain", "bool-prob", "string",
            "objects", "scalars", "extra-key", "missing-key", "nan-gain", "negative-prob"])
    def test_malformed_profile_names_the_field(self, data, field):
        # a profile is exactly {"gains": [...], "probs": [...]} of JSON
        # numbers; nothing is coerced and no key is ignored
        with pytest.raises(InvalidParameterError, match=f"fading profile field '{field}'"):
            FadingDistribution.from_json_dict(data)

    def test_profile_entries_follow_the_number_rule(self):
        # errors.items and errors.real: numpy arrays and scalars are numbers too
        profile = {"gains": np.array([1, 2]), "probs": (np.float32(0.5), 0.5)}
        assert FadingDistribution.from_json_dict(profile) == make_distribution([1.0, 2.0],
                                                                               [0.5, 0.5])

    @pytest.mark.parametrize("data", [[1.0, 2.0], "gains", None])
    def test_profile_that_is_not_an_object_rejected(self, data):
        with pytest.raises(InvalidParameterError, match="fading profile must be an object"):
            FadingDistribution.from_json_dict(data)


class TestChannelSpec:
    def test_valid(self):
        spec = ChannelSpec(noise_var=2.0, n_c=4, fading=make_distribution([1.0], [1.0]))
        assert spec.noise_var == 2.0
        assert spec.n_c == 4

    @pytest.mark.parametrize("noise_var,n_c", [
        (0.0, 1), (-1.0, 1), (math.inf, 1), (1.0, 0), (1.0, -3), (1.0, 1.5),
    ])
    def test_invalid(self, noise_var, n_c):
        with pytest.raises(InvalidParameterError):
            ChannelSpec(noise_var=noise_var, n_c=n_c, fading=make_distribution([1.0], [1.0]))

    @pytest.mark.parametrize("gains,noise_var,named", [
        ([1.0, 1e200], 1.0, "1e+200"),  # gain^2 overflows: the floor would be 0
        ([1e-200, 1.0], 1.0, "1e-200"),  # gain^2 underflows: the floor would be inf
        ([1e-150, 1.0], 1e10, "1e-150"),  # noise_var / gain^2 overflows
        ([1.0, 1e150], 1e-100, "1e+150"),  # noise_var / gain^2 underflows
    ])
    def test_gain_whose_floor_is_not_positive_and_finite(self, gains, noise_var, named):
        with pytest.raises(InvalidParameterError, match=rf"^gain {re.escape(named)} .*"
                                                        "noise_var / gain\\^2"):
            ChannelSpec(noise_var=noise_var, n_c=1, fading=make_distribution(gains, [0.5, 0.5]))
