"""Finite fading-state distributions and the channel description.

A fading distribution is a finite set of strictly increasing positive
finite amplitude gains with strictly positive probabilities summing to one.
Values are immutable after construction and safe to share across
threads.
"""

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import InvalidParameterError

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


@dataclass(frozen=True)
class FadingDistribution:
    """Amplitude gains and their probabilities, strictly validated.

    gains: strictly increasing positive finite channel amplitude gains.
    probs: matching strictly positive probabilities, sum 1 within 1e-12.
    """

    gains: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.gains) != len(self.probs):
            raise InvalidParameterError(
                f"gains and probs must have equal length, got {len(self.gains)} and {len(self.probs)}")
        if len(self.gains) < 1:
            raise InvalidParameterError("a fading distribution needs at least one state")
        prev = 0.0
        for g in self.gains:
            if not (g > prev) or not math.isfinite(g):
                raise InvalidParameterError("gains must be positive, finite and strictly "
                                            f"increasing, offending value {g!r}")
            prev = g
        for q in self.probs:
            if not (q > 0.0):
                raise InvalidParameterError(f"probabilities must be strictly positive, got {q!r}")
        total = math.fsum(self.probs)
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
        try:
            gains = data["gains"]
            probs = data["probs"]
        except (KeyError, TypeError) as exc:
            raise InvalidParameterError(
                'fading profile must be an object with "gains" and "probs" arrays') from exc
        return make_distribution(gains, probs)


@dataclass(frozen=True)
class ChannelSpec:
    """Block-fading AWGN channel: noise variance, block length, gain law.

    noise_var: additive noise variance (power units), > 0.
    n_c: channel uses per coherence block, >= 1.
    """

    noise_var: float
    n_c: int
    fading: FadingDistribution

    def __post_init__(self):
        if not (self.noise_var > 0.0) or not math.isfinite(self.noise_var):
            raise InvalidParameterError(f"noise_var must be positive and finite, got {self.noise_var!r}")
        if not isinstance(self.n_c, int) or self.n_c < 1:
            raise InvalidParameterError(f"n_c must be an integer >= 1, got {self.n_c!r}")


def _floats(what: str, values: Iterable[float]) -> tuple[float, ...]:
    out = []
    for value in values:
        try:
            out.append(float(value))
        except OverflowError:  # an integer past the float range
            raise InvalidParameterError(f"{what} {value!r} is too large for a float") from None
    return tuple(out)


def make_distribution(gains: Iterable[float], probs: Iterable[float]) -> FadingDistribution:
    """Validate and build a fading distribution from raw sequences.

    Probabilities whose sum deviates from 1 by at most 1e-9 are
    renormalized; larger deviations are rejected.
    """
    gains = _floats("gain", gains)
    probs = _floats("probability", probs)
    if len(gains) != len(probs):
        raise InvalidParameterError(
            f"gains and probs must have equal length, got {len(gains)} and {len(probs)}")
    total = math.fsum(probs)
    if abs(total - 1.0) > _RENORM_TOL:
        raise InvalidParameterError(
            f"probabilities sum to {total!r}; deviation from 1 exceeds {_RENORM_TOL:g}")
    if total != 1.0:
        probs = tuple(q / total for q in probs)
    return FadingDistribution(gains=gains, probs=probs)


def rayleigh_tail(x: float, scale: float) -> float:
    """P(H >= x) for a Rayleigh-distributed amplitude with the given scale."""
    return math.exp(-x * x / (2.0 * scale * scale))


def discretize_rayleigh(eta_lo: float, eta_hi: float, count: int, scale: float = 1.0) -> FadingDistribution:
    """Quantize a Rayleigh amplitude law onto a uniform grid of gains.

    The grid is eta_lo + i*step with step = (eta_hi - eta_lo)/(count - 1).
    Each interior grid point carries the probability of the half-open
    interval up to the next point; the mass below eta_lo is folded into
    the first state and the mass at or above eta_hi into the last, so
    the result is a proper distribution.
    """
    eta_lo = float(eta_lo)
    eta_hi = float(eta_hi)
    scale = float(scale)
    if not isinstance(count, int) or count < 2:
        raise InvalidParameterError(f"count must be an integer >= 2, got {count!r}")
    if not (0.0 < eta_lo < eta_hi) or not math.isfinite(eta_hi):
        raise InvalidParameterError(
            f"need 0 < eta_lo < eta_hi, got eta_lo={eta_lo!r}, eta_hi={eta_hi!r}")
    if not (scale > 0.0) or not math.isfinite(scale):
        raise InvalidParameterError(f"scale must be positive and finite, got {scale!r}")

    step = (eta_hi - eta_lo) / (count - 1)
    gains = [eta_lo + i * step for i in range(count)]
    gains[-1] = eta_hi  # guard against rounding drift at the endpoint

    probs = [0.0] * count
    # 1 - tail(gains[1]) includes the below-grid mass P(H < eta_lo).
    probs[0] = 1.0 - rayleigh_tail(gains[1], scale)
    for i in range(1, count - 1):
        probs[i] = rayleigh_tail(gains[i], scale) - rayleigh_tail(gains[i + 1], scale)
    probs[count - 1] = rayleigh_tail(gains[count - 1], scale)

    return FadingDistribution(gains=tuple(gains), probs=tuple(probs))
