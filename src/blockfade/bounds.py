"""Dispersion statistics and closed-form finite-blocklength rate bounds.

Everything here is an exact finite sum over the fading states; no
sampling is involved. All rate quantities are in nats.
"""

import math

import numpy as np

from .errors import DomainError, InvalidParameterError
from .fading import ChannelSpec
from .specfun import std_normal_inv_cdf
from .waterfill import _mean_and_var, link_moments, water_fill

__all__ = ["sweep_dispersion_stats", "bound_columns"]

# The columns of sweep_dispersion_stats, which bound_columns reads.
_STAT_FIELDS = ("capacity", "v_bf", "v_bf_prime", "water_level", "nocsit_capacity", "nocsit_v")
# The longest codeword length: the bounds take n as a float, and the n
# column stays an integer array, up to here.
_N_MAX = 2 ** 53
# The columns of bound_columns.
_BOUND_FIELDS = ("n", "blocks", "epsilon", "beta",
                 "log_m_lb_st", "log_m_lb_lt", "log_m_ub_st", "log_m_ub_lt",
                 "rate_lb_st", "rate_lb_lt", "rate_ub_st", "rate_ub_lt", "rate_nocsit")


def _checked_columns(stats) -> np.ndarray:
    """The stat fields of a mapping as one (fields, rows) array, checked.

    Each field holds a number or a 1-D array, all of one length. Every
    field must be finite; all but nocsit_capacity must be positive, and
    nocsit_capacity must not exceed capacity + 1e-12. The rules apply to
    each row on its own: column i of the table, and whether it passes,
    equal the one-row call on row i bit for bit.
    """
    try:
        columns = [np.atleast_1d(np.asarray(stats[name], dtype=float)) for name in _STAT_FIELDS]
    except KeyError as exc:
        raise InvalidParameterError(f"dispersion stats lack the field {exc}") from None
    for name, column in zip(_STAT_FIELDS, columns):
        if column.shape != (len(columns[0]),):
            raise InvalidParameterError(f"{name} must be a number or a 1-D array as long as "
                                        f"capacity ({len(columns[0])}), got shape {column.shape}")
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


def sweep_dispersion_stats(spec: ChannelSpec, budgets) -> dict[str, np.ndarray]:
    """Every bound ingredient for each budget of a 1-D sequence, in one array pass.

    Returns one float array per field: capacity, v_bf, v_bf_prime and
    water_level at the water-filling allocation, and nocsit_capacity and
    nocsit_v, the constant-power baseline (the same expressions as
    capacity and v_bf with the received power gain^2 * budget in every
    state). v_bf = E[V] + n_c*Var C + Var L / 2, and v_bf_prime = E[V] +
    Var(n_c*C + budget/(2*level) - L/2), whose constant middle term does
    not move the variance but is kept as part of the defining expression.
    Row i equals the one-row call sweep_dispersion_stats(spec,
    [budgets[i]]) bit for bit, whatever the other budgets.
    """
    budgets = np.asarray(budgets, dtype=float)
    levels, powers = water_fill(spec, budgets)
    gains = np.asarray(spec.fading.gains, dtype=float)
    rows = len(budgets)
    # The water-filling rows, then the constant-power rows (the budget in
    # every state), in one kernel call: np.sum reduces each row on its own.
    const = np.broadcast_to(budgets[:, None], powers.shape)
    c_vals, l_vals, cap, var_c, var_l, mean_v = link_moments(
        spec, gains * gains * np.concatenate((powers, const)))
    v_bf = mean_v + spec.n_c * var_c + 0.5 * var_l
    composite = (spec.n_c * c_vals[:rows] + (budgets / (2.0 * levels))[:, None]
                 - 0.5 * l_vals[:rows])
    _, var_comp = _mean_and_var(composite, np.asarray(spec.fading.probs, dtype=float))
    columns = dict(zip(_STAT_FIELDS, (cap[:rows], v_bf[:rows], mean_v[:rows] + var_comp,
                                      levels, cap[rows:], v_bf[rows:])))
    _checked_columns(columns)
    return columns


def bound_columns(stats, n, n_c: int, num_states: int, epsilon: float,
                  beta: float = 0.01) -> dict[str, np.ndarray]:
    """The normal-approximation bounds and the constant-power baseline, per row.

    stats maps each field of sweep_dispersion_stats to a number or a 1-D
    array (the sweep's columns, or one row of them) and is checked as the
    sweep checks its own; n is a 1-D sequence of codeword lengths, each
    blocks*n_c for an integer number of blocks >= 1 and at most 2^53
    (the bounds take n as a float, exact only up to there). Either may have
    length 1 and is then used for every row. epsilon must lie strictly
    in (0, 1/2). Returns one array per field: n and blocks (integers),
    epsilon, beta, the four log-codebook sizes log_m_{lb,ub}_{st,lt} and
    the rates (each log_m over n), plus rate_nocsit. The residual terms
    of order n^beta and smaller are excluded; log-codebook sizes may be
    negative at small n and are reported as computed. Row i equals the
    one-row call on stats row i and n[i] bit for bit.
    """
    n = list(n)
    if not isinstance(n_c, int) or n_c < 1 or not n:
        raise InvalidParameterError(
            f"need at least one n and an integer n_c >= 1, got {len(n)} n and n_c={n_c!r}")
    for v in n:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < n_c or v % n_c:
            raise InvalidParameterError(f"codeword length {v!r} is not a positive integer "
                                        f"multiple of the block length {n_c}")
        if v > _N_MAX:
            raise InvalidParameterError(f"codeword length {v!r} exceeds 2^53 = {_N_MAX}, the "
                                        "largest integer a float holds exactly")
    cap, v_bf, v_bf_prime, level, nocsit_cap, nocsit_v = _checked_columns(stats)
    if not len(cap) or (len(cap) != len(n) and 1 not in (len(cap), len(n))):
        raise InvalidParameterError(
            f"stats and n need equal lengths or length 1, got {len(cap)} and {len(n)}")
    if num_states < 1:
        raise InvalidParameterError(f"num_states must be >= 1, got {num_states!r}")
    if not (0.0 < epsilon < 0.5):
        raise DomainError(f"error probability must lie strictly in (0, 1/2), got {epsilon!r}")
    if not (0.0 < beta < 1.0):
        raise InvalidParameterError(f"beta must lie strictly in (0, 1), got {beta!r}")

    rows = max(len(cap), len(n))
    quantile = std_normal_inv_cdf(epsilon)
    ints = np.broadcast_to(np.array(n), rows)
    nf = np.array(n, dtype=float)
    # math.log and float ** are taken per n: NumPy's SIMD log and power can
    # differ from them in the last bit, and the outputs are pinned to them.
    log_n = np.array([math.log(v) for v in n])
    backoff = np.array([float(v) ** ((1.0 - beta) / 2.0) for v in n])

    lb_lt = nf * cap + np.sqrt(nf * v_bf) * quantile + 0.5 * log_n - backoff
    lb_st = lb_lt - np.sqrt(nf / 2.0)
    ub_st = nf * cap + np.sqrt(nf * v_bf_prime) * quantile + 0.5 * num_states * log_n
    ub_lt = ub_st + np.sqrt(nf) / (2.0 * level)
    nocsit_log_m = nf * nocsit_cap + np.sqrt(nf * nocsit_v) * quantile + 0.5 * log_n - backoff

    log_m = (lb_st, lb_lt, ub_st, ub_lt)
    columns = (ints.copy(), ints // n_c, np.full(rows, epsilon), np.full(rows, beta),
               *log_m, *(x / nf for x in log_m), nocsit_log_m / nf)
    return dict(zip(_BOUND_FIELDS, columns))
