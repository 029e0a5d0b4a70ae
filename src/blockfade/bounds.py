"""Dispersion statistics and closed-form finite-blocklength rate bounds.

bound_columns goes from the channel to the rates in one call: it runs
sweep_dispersion_stats on the budgets, then evaluates the bounds at each
codeword length. Everything is an exact finite sum over the fading
states; no sampling is involved. All rate quantities are in nats.
"""

import math

import numpy as np

from .errors import InvalidParameterError, items, real, whole
from .fading import ChannelSpec, _codeword_length
from .waterfill import _mean_and_var, link_moments, water_fill

__all__ = ["sweep_dispersion_stats", "bound_columns"]

# The columns of sweep_dispersion_stats, which bound_columns also returns.
_STAT_FIELDS = ("capacity", "v_bf", "v_bf_prime", "water_level", "nocsit_capacity", "nocsit_v")
# The columns of bound_columns, ahead of the stat columns.
_BOUND_FIELDS = ("n", "blocks", "epsilon", "beta",
                 "log_m_lb_st", "log_m_lb_lt", "log_m_ub_st", "log_m_ub_lt",
                 "rate_lb_st", "rate_lb_lt", "rate_ub_st", "rate_ub_lt", "rate_nocsit")

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# Rational quantile approximation (Acklam), ~1.15e-9 relative error on its
# own; one Newton step against the erfc-based cdf brings it to ~1e-15.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def _checked_columns(columns) -> np.ndarray:
    """The sweep's six stat columns, in _STAT_FIELDS order, as one checked array.

    The rules (see sweep_dispersion_stats) apply to each row on its own.
    """
    table = np.array(columns)
    ok = np.isfinite(table) & (table > 0.0)
    # rows in field order: 0 is capacity, 4 is nocsit_capacity
    ok[4] = np.isfinite(table[4]) & (table[4] <= table[0] + 1e-12)
    if not ok.all():
        field, row = np.argwhere(~ok)[0]
        rule = "finite and at most capacity + 1e-12" if field == 4 else "positive and finite"
        raise InvalidParameterError(f"{_STAT_FIELDS[field]} must be {rule}, got "
                                    f"{float(table[field, row])!r}")
    return table


def _acklam(p: float) -> float:
    # Three-region rational approximation of the standard normal quantile.
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
                / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    if p > 1.0 - _P_LOW:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
                 / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    q = p - 0.5
    r = q * q
    return ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))


def _normal_quantile(p: float) -> float:
    """Standard normal quantile at a checked float p in (0, 1).

    Acklam's approximation, then one Newton step on the cdf 0.5*erfc(-x/sqrt(2)).
    """
    x = _acklam(p)
    density = _INV_SQRT_2PI * math.exp(-0.5 * x * x)
    if density > 0.0:
        x -= (0.5 * math.erfc(-x / _SQRT2) - p) / density
    return x


def sweep_dispersion_stats(spec: ChannelSpec, budgets) -> dict[str, np.ndarray]:
    """Every bound ingredient for each budget (as for water_fill), in one array pass.

    Returns one float array per field: capacity, v_bf, v_bf_prime and
    water_level at the water-filling allocation, and nocsit_capacity and
    nocsit_v, the constant-power baseline (the same expressions as
    capacity and v_bf with the received power gain^2 * budget in every
    state). v_bf = E[V] + n_c*Var C + Var L / 2, and v_bf_prime = E[V] +
    Var(n_c*C + budget/(2*level) - L/2), whose constant middle term does
    not move the variance but is kept as part of the defining expression.
    Row i equals the one-row call sweep_dispersion_stats(spec,
    [budgets[i]]) bit for bit, whatever the other budgets. Every field
    must be finite, all but nocsit_capacity positive, and nocsit_capacity
    at most capacity + 1e-12; else InvalidParameterError names the field.
    """
    levels, powers = water_fill(spec, budgets)  # checks the budgets
    budgets = np.asarray(budgets, dtype=float)
    gains = np.asarray(spec.fading.gains, dtype=float)
    rows = len(budgets)
    # The water-filling rows, then the constant-power rows (the budget in
    # every state), in one kernel call: np.sum reduces each row on its own.
    const = np.broadcast_to(budgets[:, None], powers.shape)
    c_vals, l_vals, cap, var_c, var_l, mean_v = link_moments(
        spec, gains * gains * np.concatenate((powers, const)))
    v_bf = mean_v + spec.n_c * var_c + 0.5 * var_l
    # budget / level * 0.5 has the bits of budget / (2 * level) and cannot
    # overflow where 2 * level would.
    composite = (spec.n_c * c_vals[:rows] + (budgets / levels * 0.5)[:, None]
                 - 0.5 * l_vals[:rows])
    _, var_comp = _mean_and_var(composite, np.asarray(spec.fading.probs, dtype=float))
    table = _checked_columns((cap[:rows], v_bf[:rows], mean_v[:rows] + var_comp,
                              levels, cap[rows:], v_bf[rows:]))
    return dict(zip(_STAT_FIELDS, table))


def bound_columns(spec: ChannelSpec, budgets, n, epsilon: float,
                  beta: float = 0.01) -> dict[str, np.ndarray]:
    """The normal-approximation bounds and the constant-power baseline, per row.

    budgets and n (codeword lengths) are each a list, tuple, range or 1-D
    array; each length is blocks*spec.n_c for an integer blocks >= 1 and
    at most 2^53 (the bounds take n as a float, exact only up to there).
    The two have equal lengths, or one has length 1 and serves every row.
    epsilon must lie strictly in (0, 1/2) and beta in (0, 1). All of this
    is checked before sweep_dispersion_stats(spec, budgets) runs, once.
    The block length and the state count come from spec. Returns one
    array per field, one entry per row: n and blocks (integers), epsilon,
    beta, the four log-codebook sizes log_m_{lb,ub}_{st,lt}, the rates
    (each log_m over n), rate_nocsit, and the six columns of
    sweep_dispersion_stats. The residual terms of order n^beta and
    smaller are excluded; log-codebook sizes may be negative at small n
    and are reported as computed, but are always finite: a row where one
    overflows raises InvalidParameterError naming the column, n and
    budget. Row i equals the one-row call on budgets[i] and n[i] bit for
    bit, whatever the other rows.

    The upper bounds' num_states*log(n)/2 term counts the states; it
    does not read the law. Splitting one state into gains g and
    g*(1+delta), each with half its mass, moves capacity, the
    dispersions, the lower bounds and rate_nocsit by O(delta), but
    rate_ub_st and rate_ub_lt by log(n)/(2n) + O(delta), for any delta.
    """
    budgets, n = items("budgets", budgets), items("codeword lengths", n)
    for v in n:
        if _codeword_length(whole("codeword length", v, 1)) % spec.n_c:
            raise InvalidParameterError(f"codeword length {v!r} is not a multiple of the block "
                                        f"length {spec.n_c}")
    if not n or not len(budgets) or (len(budgets) != len(n) and 1 not in (len(budgets), len(n))):
        raise InvalidParameterError(f"budgets and n need equal lengths or length 1, got "
                                    f"{len(budgets)} and {len(n)}")
    epsilon = real("error probability", epsilon, 0.0, 0.5)
    beta = real("beta", beta, 0.0, 1.0)

    stats = sweep_dispersion_stats(spec, budgets)
    cap, v_bf, v_bf_prime, level, nocsit_cap, nocsit_v = stats.values()
    rows = max(len(cap), len(n))
    quantile = _normal_quantile(epsilon)
    ints = np.broadcast_to(np.array(n), rows)
    nf = np.array(n, dtype=float)
    # math.log and float ** are taken per n: NumPy's SIMD log and power can
    # differ from them in the last bit, and the outputs are pinned to them.
    log_n = np.array([math.log(v) for v in n])
    backoff = np.array([float(v) ** ((1.0 - beta) / 2.0) for v in n])

    def achievability(capacity, dispersion):
        return nf * capacity + np.sqrt(nf * dispersion) * quantile + 0.5 * log_n - backoff

    lb_lt = achievability(cap, v_bf)
    lb_st = lb_lt - np.sqrt(nf / 2.0)
    ub_st = (nf * cap + np.sqrt(nf * v_bf_prime) * quantile
             + 0.5 * spec.fading.num_states * log_n)
    # not / (2 * level), which can overflow; a tiny level still overflows
    # the quotient, and such rows are rejected below, so no warning
    with np.errstate(over="ignore"):
        ub_lt = ub_st + np.sqrt(nf) / level * 0.5
    nocsit_log_m = achievability(nocsit_cap, nocsit_v)

    log_m = (lb_st, lb_lt, ub_st, ub_lt)
    if not np.isfinite(log_m).all():
        field, row = np.argwhere(~np.isfinite(log_m))[0]
        budget = float(budgets[row % len(budgets)])
        raise InvalidParameterError(f"{_BOUND_FIELDS[4 + field]} overflows a float at n "
                                    f"{ints[row]} and power budget {budget!r}")
    columns = dict(zip(_BOUND_FIELDS, (ints.copy(), ints // spec.n_c, np.full(rows, epsilon),
                                       np.full(rows, beta), *log_m, *(x / nf for x in log_m),
                                       nocsit_log_m / nf)))
    columns.update((name, np.broadcast_to(col, rows).copy()) for name, col in stats.items())
    return columns
