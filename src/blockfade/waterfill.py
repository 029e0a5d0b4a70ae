"""Water-filling power allocation, the per-state link functions and their moments.

The allocation assigns power (level - noise_var/gain^2)+ to each fading
state; the common level is chosen so that the average spent power equals
the budget. Gains are strictly increasing, so the per-state floors
noise_var/gain^2 decrease in state order and every active set is a
suffix of the states. The level is solved in closed form, without
iteration: one sorted search finds the active suffix, on which the
budget equation is linear in the level. Many budgets are solved in one
array pass.
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
    # A sum reduces each row alone, so a row's result does not depend on
    # how many rows are stacked (a BLAS matrix-vector product can).
    mean = (values * probs).sum(axis=-1)
    centered = values - mean[..., None]
    return mean, (centered * centered * probs).sum(axis=-1)


def link_moments(spec: ChannelSpec, g2: np.ndarray, offsets=None):
    """The moments of the link terms over the fading law, per row of received powers.

    g2 is 2-D: one row of per-state received powers per allocation.
    Returns E[C], Var C, Var L and E[V], one entry per row, and the
    variances of the composite rows. Every capacity and dispersion
    constant is composed from these but the variance in v_bf_prime:
    offsets, if given, holds a constant per leading row of g2, and the
    fifth value holds Var(n_c*C + offset - L/2) of each such row (empty
    without offsets). All moments come from a single reduction: the rows
    of c, l and v from link_terms and those composite rows are
    concatenated, and each row is reduced on its own. g2 and offsets are
    only read.
    """
    probs = np.asarray(spec.fading.probs, dtype=float)
    c_vals, l_vals, v_vals = link_terms(g2, spec.noise_var)
    terms = [c_vals, l_vals, v_vals]
    if offsets is not None:
        terms.append(spec.n_c * c_vals[:len(offsets)] + offsets[:, None]
                     - 0.5 * l_vals[:len(offsets)])
    means, variances = _mean_and_var(np.concatenate(terms), probs)
    rows = len(c_vals)
    return (means[:rows], variances[:rows], variances[rows:2 * rows], means[2 * rows:3 * rows],
            variances[3 * rows:])


def _floors(spec: ChannelSpec) -> np.ndarray:
    # per-state inverse channel quality, decreasing in state order
    gains = np.asarray(spec.fading.gains, dtype=float)
    return spec.noise_var / (gains * gains)


def water_fill(spec: ChannelSpec, budgets) -> tuple[np.ndarray, np.ndarray]:
    """Water levels and per-state powers (budgets x states), one row per budget.

    budgets is a list, tuple, range or 1-D array of positive finite numbers
    (numpy scalars too, never bools); the level, the largest received power
    max(gain)^2 * level, noise_var plus it and its SNR must be finite (else
    one error, no warning). Row i equals the one-row call on [budgets[i]]
    bit for bit.

    With the states reversed (floors f increasing, probabilities q,
    Q = cumsum(q)), raising the water to f_k over the first k states
    costs to_floor_k = sum_{j<k} q_j*(f_k - f_j), formed as the running
    sum of Q_i*(f_{i+1} - f_i) over i < k in order. Its terms are
    non-negative, so it never decreases and has no cancellation. State k
    is active exactly while budget > to_floor_k (a tie leaves it off), so
    one sorted search finds the last active index, top, and the level
    sits depth = (budget - to_floor_top) / Q_top above f_top. Powers are
    formed as (f_top - f_j) + depth rather than level - f_j, so the spent
    power meets the budget to rounding (far inside 1e-9*max(1, budget))
    even when the floors dwarf the budget.
    """
    budgets = np.array([real("power budget", b) for b in items("budgets", budgets)], dtype=float)

    floors = _floors(spec)[::-1]
    probs = np.asarray(spec.fading.probs, dtype=float)[::-1]
    cum_q = np.cumsum(probs)
    to_floor = np.concatenate(([0.0], np.cumsum(cum_q[:-1] * np.diff(floors))))
    top = np.searchsorted(to_floor, budgets) - 1
    # A budget near the float range overflows here; such rows are rejected
    # below, so the overflow is not worth a warning.
    with np.errstate(over="ignore"):
        depth = (budgets - to_floor[top]) / cum_q[top]
        levels = floors[top] + depth
        # The largest received power per row. The link terms form it, noise_var
        # plus it and its SNR; the quotient below is finite only if all are.
        peak = levels * (spec.fading.gains[-1] * spec.fading.gains[-1])
        bad = ~np.isfinite((spec.noise_var + peak) / min(spec.noise_var, 1.0))
    if bad.any():
        raise InvalidParameterError(
            f"power budget {float(budgets[bad][0])!r} is too large: the water level, the "
            "received power max(gain)^2 * level or its SNR overflows a float")
    powers = np.maximum(0.0, (floors[top][:, None] - floors) + depth[:, None])
    return levels, powers[:, ::-1]

