"""Water-filling power allocation, the per-state link functions and their moments.

The allocation assigns power (level - noise_var/gain^2)+ to each fading
state; the common level is chosen so that the average spent power equals
the budget. Gains are strictly increasing, so the per-state floors
noise_var/gain^2 decrease in state order and every active set is a
suffix of the states. The level is solved in closed form, without
iteration: for each candidate suffix the budget equation is linear in
the level, and the largest consistent suffix is picked with cumulative
sums. Many budgets are solved in one array pass.
"""

import numpy as np

from .errors import InvalidParameterError, items, real
from .fading import ChannelSpec

__all__ = ["link_terms", "water_fill"]


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


def _mean_and_var(values: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Two-pass centered form along the state (last) axis; exact finite sums.
    # np.sum reduces each row alone, so a row's result does not depend on
    # how many rows are stacked (a BLAS matrix-vector product can).
    mean = np.sum(values * probs, axis=-1)
    centered = values - mean[..., None]
    return mean, np.sum(centered * centered * probs, axis=-1)


def link_moments(spec: ChannelSpec, g2: np.ndarray):
    """Link terms and their moments over the fading law, per row of received powers.

    g2 holds one row of per-state received powers per allocation.
    Returns c and l from link_terms and, per row, E[C], Var C, Var L and
    E[V]. Every capacity and dispersion constant is composed from these.
    """
    probs = np.asarray(spec.fading.probs, dtype=float)
    c_vals, l_vals, v_vals = link_terms(g2, spec.noise_var)
    mean_c, var_c = _mean_and_var(c_vals, probs)
    _, var_l = _mean_and_var(l_vals, probs)
    return c_vals, l_vals, mean_c, var_c, var_l, np.sum(v_vals * probs, axis=-1)


def _floors(spec: ChannelSpec) -> np.ndarray:
    # per-state inverse channel quality, decreasing in state order
    gains = np.asarray(spec.fading.gains, dtype=float)
    return spec.noise_var / (gains * gains)


def water_fill(spec: ChannelSpec, budgets) -> tuple[np.ndarray, np.ndarray]:
    """Water levels and per-state powers (budgets x states), one row per budget.

    budgets is a list, tuple, range or 1-D array of positive finite numbers
    (numpy scalars too, never bools); the level and the largest received SNR,
    max(gain)^2 * level / noise_var, must be finite (else one error, no
    warning). Row i equals the one-row call on [budgets[i]] bit for bit.

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
    budgets = np.array([real("power budget", b) for b in items("budgets", budgets)], dtype=float)

    floors = _floors(spec)[::-1]
    probs = np.asarray(spec.fading.probs, dtype=float)[::-1]
    cum_q = np.cumsum(probs)
    to_floor = np.concatenate(([0.0], np.cumsum(cum_q[:-1] * np.diff(floors))))
    # A budget near the float range overflows here; such rows are rejected
    # below, so the overflow is not worth a warning.
    with np.errstate(over="ignore"):
        above = (budgets[:, None] - to_floor) / cum_q
        top = np.count_nonzero(above > 0.0, axis=1) - 1
        depth = above[np.arange(len(budgets)), top]
        levels = floors[top] + depth
        # floors[0] = noise_var / max(gain)^2: the largest received SNR per row
        bad = ~np.isfinite(levels / floors[0])
    if bad.any():
        raise InvalidParameterError(
            f"power budget {float(budgets[bad][0])!r} is too large: the water level or "
            "max(gain)^2 * level / noise_var overflows a float")
    powers = np.maximum(0.0, (floors[top][:, None] - floors) + depth[:, None])
    return levels, powers[:, ::-1]

