"""Finite fading-state distributions and the channel description.

A fading distribution is a finite set of strictly increasing positive
finite amplitude gains with strictly positive probabilities summing to one.
Values are immutable after construction and safe to share across
threads.
"""

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import InvalidParameterError, items, real, whole

__all__ = [
    "FadingDistribution",
    "ChannelSpec",
    "make_distribution",
    "discretize_rayleigh",
]

# Strict tolerance on the probability mass after construction.
_SUM_TOL = 1e-12
# Looser input tolerance inside which make_distribution renormalizes.
_RENORM_TOL = 1e-9
# The largest integer a float holds exactly. The bounds and the simulations
# take codeword lengths and block counts as floats, so those counts, the
# library's other count arguments, and every integer config field by
# default, stop here.
_INT_MAX = 2 ** 53
# The keys of a fading profile's JSON form, each an array of numbers.
_PROFILE_KEYS = ("gains", "probs")


def _codeword_length(n: int) -> int:
    """n, a codeword length; InvalidParameterError past _INT_MAX."""
    if n > _INT_MAX:
        raise InvalidParameterError(f"codeword length {n!r} exceeds 2^53 = {_INT_MAX}, the "
                                    "largest integer a float holds exactly")
    return n


@dataclass(frozen=True)
class FadingDistribution:
    """Amplitude gains and their probabilities, strictly validated.

    gains: strictly increasing positive finite channel amplitude gains.
    probs: matching strictly positive probabilities, sum 1 within 1e-12.
    Each is a list, tuple, range or 1-D array of numbers, stored as a float tuple.
    """

    gains: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        gains = tuple([real("gain", g) for g in items("gains", self.gains)])
        probs = tuple([real("probability", q) for q in items("probs", self.probs)])
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "probs", probs)
        if len(gains) != len(probs):
            raise InvalidParameterError(
                f"gains and probs must have equal length, got {len(gains)} and {len(probs)}")
        if not gains:
            raise InvalidParameterError("a fading distribution needs at least one state")
        for prev, g in zip(gains, gains[1:]):
            if not g > prev:
                raise InvalidParameterError(
                    f"gains must be strictly increasing, offending value {g!r}")
        total = math.fsum(probs)
        if abs(total - 1.0) > _SUM_TOL:
            raise InvalidParameterError(
                f"probabilities must sum to 1 within {_SUM_TOL:g}, got {total!r}")

    @property
    def num_states(self) -> int:
        return len(self.gains)

    def to_json_dict(self) -> dict:
        """Plain-dict form, {"gains": [...], "probs": [...]}."""
        return {"gains": list(self.gains), "probs": list(self.probs)}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "FadingDistribution":
        """Build from exactly {"gains": [...], "probs": [...]} of positive finite numbers."""
        if not isinstance(data, Mapping):
            raise InvalidParameterError(f"fading profile must be an object, got {data!r}")
        for key in data:
            if key not in _PROFILE_KEYS:
                raise InvalidParameterError(f"fading profile field {key!r}: not a profile field")
        columns = []
        for key in _PROFILE_KEYS:
            what = f"fading profile field {key!r}"
            # data.get gives None for a missing key, which items rejects
            columns.append([real(what, v) for v in items(what, data.get(key))])
        return make_distribution(*columns)


@dataclass(frozen=True)
class ChannelSpec:
    """Block-fading AWGN channel: noise variance, block length, gain law.

    noise_var: additive noise variance (power units), > 0, stored as a float.
    n_c: channel uses per coherence block, an integer in [1, 2^53].
    Every state's floor noise_var / gain^2 must be positive and finite.
    """

    noise_var: float
    n_c: int
    fading: FadingDistribution

    def __post_init__(self):
        if not isinstance(self.fading, FadingDistribution):
            raise InvalidParameterError(f"fading must be a FadingDistribution, got {self.fading!r}")
        object.__setattr__(self, "noise_var", real("noise_var", self.noise_var))
        object.__setattr__(self, "n_c", whole("n_c", self.n_c, 1, _INT_MAX))
        for g in self.fading.gains:
            # water-filling's floor for the state; in Python floats, so an
            # overflow or underflow here raises no numpy warning
            square = g * g
            floor = self.noise_var / square if square > 0.0 else math.inf
            if not (0.0 < floor < math.inf):
                raise InvalidParameterError(
                    f"gain {g!r} is out of range for noise_var {self.noise_var!r}: the floor "
                    f"noise_var / gain^2 = {floor!r} must be positive and finite")


def make_distribution(gains: Sequence[float], probs: Sequence[float]) -> FadingDistribution:
    """Validate and build a fading distribution; gains and probs as for FadingDistribution.

    Probabilities whose sum deviates from 1 by at most 1e-9 are
    renormalized; larger deviations are rejected.
    """
    probs = [real("probability", q) for q in items("probs", probs)]
    total = math.fsum(probs)
    if abs(total - 1.0) > _RENORM_TOL:
        raise InvalidParameterError(
            f"probabilities sum to {total!r}; deviation from 1 exceeds {_RENORM_TOL:g}")
    return FadingDistribution(gains=gains, probs=tuple(q / total for q in probs))


def discretize_rayleigh(eta_lo: float, eta_hi: float, count: int, scale: float = 1.0) -> FadingDistribution:
    """Quantize a Rayleigh amplitude law onto a uniform grid of gains.

    The grid is eta_lo + i*step with step = (eta_hi - eta_lo)/(count - 1).
    Each interior grid point carries the probability of the half-open
    interval up to the next point; the mass below eta_lo is folded into
    the first state and the mass at or above eta_hi into the last, so
    the result is a proper distribution. A state whose mass rounds to 0
    raises InvalidParameterError naming the state, its gain and scale.
    """
    eta_lo = real("eta_lo", eta_lo)
    eta_hi = real("eta_hi", eta_hi, eta_lo)
    count = whole("count", count, 2, _INT_MAX)
    scale = real("scale", scale)

    step = (eta_hi - eta_lo) / (count - 1)
    gains = [eta_lo + i * step for i in range(count)]
    gains[-1] = eta_hi  # guard against rounding drift at the endpoint

    # tail[i] = P(H >= gains[i]); 1 - tail[1] includes the below-grid mass P(H < eta_lo).
    tail = [math.exp(-g * g / (2.0 * scale * scale)) for g in gains]
    probs = [1.0 - tail[1], *(a - b for a, b in zip(tail[1:-1], tail[2:])), tail[-1]]
    zero = next((i for i, q in enumerate(probs) if q == 0.0), None)
    if zero is not None:
        # far above scale the tail underflows; far below it, 1 - tail rounds to 0
        fix = ("raise scale or lower eta_hi" if gains[zero] >= scale
               else "lower scale or space the gains wider (a larger eta_hi or a smaller count)")
        raise InvalidParameterError(
            f"state {zero} (gain {gains[zero]!r}) has probability 0 at scale {scale!r}: "
            f"its Rayleigh mass rounds to zero; {fix}")

    return FadingDistribution(gains=gains, probs=probs)
