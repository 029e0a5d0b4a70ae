"""Water-filling power allocation and the per-state link functions.

The allocation assigns power (level - noise_var/gain^2)+ to each fading
state; the common level is chosen so that the average spent power equals
the budget. Gains are strictly increasing, so the per-state floors
noise_var/gain^2 decrease in state order and every active set is a
suffix of the states. The level is solved in closed form, without
iteration: for each candidate suffix the budget equation is linear in
the level, and the largest consistent suffix is picked with cumulative
sums. Many budgets are solved in one array pass.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParameterError
from .fading import ChannelSpec

__all__ = [
    "PowerAllocation",
    "link_terms",
    "link_l",
    "water_levels",
    "solve_waterfill",
    "capacity",
]


def link_terms(x, noise_var: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-use rate, received-power fraction and dispersion, elementwise.

    For received power x: c = 0.5*log(1 + x/noise_var) in nats,
    l = x/(noise_var + x) and v = 0.5*(1 - (1 - l)^2), evaluated as
    0.5*l*(2 - l) so that v keeps its relative precision when l is tiny.
    Inputs are not validated; callers pass non-negative powers and a
    positive variance.
    """
    x = np.asarray(x, dtype=float)
    c = 0.5 * np.log1p(x / noise_var)
    l = x / (noise_var + x)
    v = 0.5 * l * (2.0 - l)
    return c, l, v


def link_l(x: float, noise_var: float) -> float:
    """Received-power fraction x/(noise_var + x)."""
    if x < 0.0 or not math.isfinite(x):
        raise DomainError(f"link functions need x >= 0, got {x!r}")
    if not (noise_var > 0.0):
        raise DomainError(f"noise variance must be positive, got {noise_var!r}")
    return float(link_terms(x, noise_var)[1])


@dataclass(frozen=True)
class PowerAllocation:
    """Water level, the per-state transmit powers it induces, and the budget.

    powers[i] equals max(0, water_level - noise_var/gain_i^2), up to
    rounding, for the channel the allocation was solved against; the
    probability-weighted power sum equals the budget within
    1e-9*max(1, budget).
    """

    water_level: float
    powers: tuple[float, ...]
    budget: float

    def gain_power(self, gains) -> np.ndarray:
        """Effective received powers gain_i^2 * powers[i] per state."""
        g = np.asarray(gains, dtype=float)
        return g * g * np.asarray(self.powers, dtype=float)


def _floors(spec: ChannelSpec) -> np.ndarray:
    # per-state inverse channel quality, decreasing in state order
    gains = np.asarray(spec.fading.gains, dtype=float)
    return spec.noise_var / (gains * gains)


def water_levels(spec: ChannelSpec, budgets) -> np.ndarray:
    """Closed-form water level for each budget in a 1-D array, in one pass."""
    return water_fill(spec, budgets)[0]


def water_fill(spec: ChannelSpec, budgets) -> tuple[np.ndarray, np.ndarray]:
    """Water levels and per-state powers (budgets x states) for a 1-D array.

    With the states reversed (floors f increasing, probabilities q),
    raising the water to f_k over the first k states costs
    to_floor_k = sum_{j<k} q_j*(f_k - f_j), a cumulative sum of
    non-negative terms, so it carries no cancellation. With the first k
    states active the level sits above_k = (budget - to_floor_k) /
    cumsum(q)_k above f_k. above_1 = budget/q_1 > 0, and above_k > 0
    exactly while budget > to_floor_k, so the active states form a
    prefix whose last index (top) count_nonzero finds. Powers are formed
    as (f_top - f_j) + above_top rather than level - f_j, so the spent
    power meets the budget to rounding (far inside 1e-9*max(1, budget))
    even when the floors dwarf the budget.
    """
    budgets = np.asarray(budgets, dtype=float)
    if budgets.ndim != 1:
        raise InvalidParameterError(f"budgets must be a 1-D array, got shape {budgets.shape}")
    bad = ~((budgets > 0.0) & np.isfinite(budgets))
    if bad.any():
        raise InvalidParameterError(
            f"power budget must be positive and finite, got {float(budgets[bad][0])!r}")

    floors = _floors(spec)[::-1]
    probs = np.asarray(spec.fading.probs, dtype=float)[::-1]
    cum_q = np.cumsum(probs)
    to_floor = np.concatenate(([0.0], np.cumsum(cum_q[:-1] * np.diff(floors))))
    above = (budgets[:, None] - to_floor) / cum_q
    top = np.count_nonzero(above > 0.0, axis=1) - 1
    depth = above[np.arange(len(budgets)), top]
    levels = floors[top] + depth
    powers = np.maximum(0.0, (floors[top][:, None] - floors) + depth[:, None])
    return levels, powers[:, ::-1]


def solve_waterfill(spec: ChannelSpec, budget: float) -> PowerAllocation:
    """Water level and per-state powers whose average meets the budget.

    The one-budget case of water_fill: the level comes from a closed
    form (no iteration), and the spent power meets the budget within
    1e-9*max(1, budget).
    """
    budget = float(budget)
    levels, powers = water_fill(spec, [budget])
    return PowerAllocation(water_level=float(levels[0]),
                           powers=tuple(powers[0].tolist()), budget=budget)


def capacity(spec: ChannelSpec, alloc: PowerAllocation) -> float:
    """Average rate in nats per channel use under the given allocation."""
    probs = np.asarray(spec.fading.probs, dtype=float)
    c_vals, _, _ = link_terms(alloc.gain_power(spec.fading.gains), spec.noise_var)
    return float(np.sum(c_vals * probs))
