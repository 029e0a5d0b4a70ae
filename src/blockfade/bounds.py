"""Dispersion statistics and closed-form finite-blocklength rate bounds.

Everything here is an exact finite sum over the fading states; no
sampling is involved. All rate quantities are in nats.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, InvalidParameterError
from .fading import ChannelSpec
from .specfun import std_normal_inv_cdf
from .waterfill import PowerAllocation, link_terms, water_fill

__all__ = [
    "DispersionStats",
    "BoundPoint",
    "dispersion_v_bf",
    "dispersion_v_bf_prime",
    "nocsit_stats",
    "dispersion_stats",
    "sweep_dispersion_stats",
    "bound_columns",
    "bound_point",
]


def _mean_and_var(values: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Two-pass centered form along the state (last) axis; exact finite sums.
    # np.sum reduces each row alone, so a row's result does not depend on
    # how many rows are stacked (a BLAS matrix-vector product can).
    mean = np.sum(values * probs, axis=-1)
    centered = values - mean[..., None]
    return mean, np.sum(centered * centered * probs, axis=-1)


def _link_moments(spec: ChannelSpec, g2: np.ndarray):
    # Per row of received powers g2 (rows x states): the link terms C and L,
    # the capacity E[C], E[V] and V_bf = E[V] + n_c*Var C + Var L / 2.
    probs = np.asarray(spec.fading.probs, dtype=float)
    c_vals, l_vals, v_vals = link_terms(g2, spec.noise_var)
    cap, var_c = _mean_and_var(c_vals, probs)
    _, var_l = _mean_and_var(l_vals, probs)
    mean_v = np.sum(v_vals * probs, axis=-1)
    return c_vals, l_vals, cap, mean_v, mean_v + spec.n_c * var_c + 0.5 * var_l


def _v_bf_prime_rows(spec: ChannelSpec, c_vals: np.ndarray, l_vals: np.ndarray,
                     mean_v: np.ndarray, budgets: np.ndarray, levels: np.ndarray) -> np.ndarray:
    # E[V] + Var(n_c*C + budget/(2*level) - L/2) per row, from _link_moments.
    probs = np.asarray(spec.fading.probs, dtype=float)
    composite = (spec.n_c * c_vals
                 + (budgets / (2.0 * levels))[:, None]
                 - 0.5 * l_vals)
    _, var_comp = _mean_and_var(composite, probs)
    return mean_v + var_comp


def dispersion_v_bf(spec: ChannelSpec, alloc: PowerAllocation) -> float:
    """Dispersion of the water-filling link over the fading blocks.

    Mean per-use dispersion plus n_c times the variance of the per-use
    rate plus half the variance of the received-power fraction.
    """
    g2 = alloc.gain_power(spec.fading.gains)[None, :]
    return float(_link_moments(spec, g2)[4][0])


def dispersion_v_bf_prime(spec: ChannelSpec, alloc: PowerAllocation) -> float:
    """Dispersion constant for the converse-side bounds.

    Mean per-use dispersion plus the variance of
    n_c*C(G) + budget/(2*level) - L(G)/2; the constant middle term does
    not move the variance but is kept as part of the defining expression.
    """
    g2 = alloc.gain_power(spec.fading.gains)[None, :]
    c_vals, l_vals, _, mean_v, _ = _link_moments(spec, g2)
    return float(_v_bf_prime_rows(spec, c_vals, l_vals, mean_v, np.array([alloc.budget]),
                                  np.array([alloc.water_level]))[0])


def _nocsit_rows(spec: ChannelSpec, budgets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gains = np.asarray(spec.fading.gains, dtype=float)
    _, _, cap, _, v = _link_moments(spec, gains * gains * budgets[:, None])
    return cap, v


def nocsit_stats(spec: ChannelSpec, budget: float) -> tuple[float, float]:
    """Capacity and dispersion when the transmitter sends constant power.

    Same expressions as the water-filling case with the effective
    received power replaced by gain^2 * budget in every state.
    """
    if not (budget > 0.0) or not math.isfinite(budget):
        raise InvalidParameterError(f"power budget must be positive and finite, got {budget!r}")
    cap, v = _nocsit_rows(spec, np.array([float(budget)]))
    return float(cap[0]), float(v[0])


@dataclass(frozen=True)
class DispersionStats:
    """Capacity, dispersions and water level for one channel and budget."""

    capacity: float
    v_bf: float
    v_bf_prime: float
    water_level: float
    nocsit_capacity: float
    nocsit_v: float

    def __post_init__(self):
        for name in ("capacity", "v_bf", "v_bf_prime", "water_level", "nocsit_v"):
            value = getattr(self, name)
            if not (value > 0.0) or not math.isfinite(value):
                raise InvalidParameterError(f"{name} must be positive and finite, got {value!r}")
        if self.nocsit_capacity > self.capacity + 1e-12:
            raise InvalidParameterError(
                "constant-power capacity cannot exceed the water-filling capacity "
                f"({self.nocsit_capacity!r} > {self.capacity!r})")


def dispersion_stats(spec: ChannelSpec, budget: float) -> DispersionStats:
    """Solve the allocation and collect every bound ingredient at once."""
    return sweep_dispersion_stats(spec, [budget])[0]


def sweep_dispersion_stats(spec: ChannelSpec, budgets) -> list[DispersionStats]:
    """dispersion_stats for every budget of a 1-D sequence, in one array pass.

    Row i equals dispersion_stats(spec, budgets[i]) bit for bit.
    """
    budgets = np.asarray(budgets, dtype=float)
    levels, powers = water_fill(spec, budgets)
    gains = np.asarray(spec.fading.gains, dtype=float)
    c_vals, l_vals, cap, mean_v, v_bf = _link_moments(spec, gains * gains * powers)
    v_bf_prime = _v_bf_prime_rows(spec, c_vals, l_vals, mean_v, budgets, levels)
    nocsit_cap, nocsit_v = _nocsit_rows(spec, budgets)
    columns = (cap, v_bf, v_bf_prime, levels, nocsit_cap, nocsit_v)  # field order
    return [DispersionStats(*row) for row in zip(*(col.tolist() for col in columns))]


@dataclass(frozen=True)
class BoundPoint:
    """The four rate bounds plus the constant-power baseline at one (n, eps)."""

    n: int
    blocks: int
    epsilon: float
    beta: float
    log_m_lb_st: float
    log_m_lb_lt: float
    log_m_ub_st: float
    log_m_ub_lt: float
    rate_lb_st: float
    rate_lb_lt: float
    rate_ub_st: float
    rate_ub_lt: float
    rate_nocsit: float


def bound_columns(stats, n, n_c: int, num_states: int, epsilon: float,
                  beta: float = 0.01) -> dict[str, np.ndarray]:
    """bound_point for many rows at once, one array per BoundPoint field.

    stats is a sequence of DispersionStats and n a 1-D sequence of
    integers; either may have length 1 and is then used for every row.
    Row i equals bound_point(stats[i], n[i], ...) bit for bit.
    """
    n = list(n)
    if not isinstance(n_c, int) or n_c < 1 or not n:
        raise InvalidParameterError(
            f"need at least one n and an integer n_c >= 1, got {len(n)} n and n_c={n_c!r}")
    for v in n:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < n_c or v % n_c:
            raise InvalidParameterError(f"codeword length {v!r} is not a positive integer "
                                        f"multiple of the block length {n_c}")
    if not stats or (len(stats) != len(n) and 1 not in (len(stats), len(n))):
        raise InvalidParameterError(
            f"stats and n need equal lengths or length 1, got {len(stats)} and {len(n)}")
    if num_states < 1:
        raise InvalidParameterError(f"num_states must be >= 1, got {num_states!r}")
    if not (0.0 < epsilon < 0.5):
        raise DomainError(f"error probability must lie strictly in (0, 1/2), got {epsilon!r}")
    if not (0.0 < beta < 1.0):
        raise InvalidParameterError(f"beta must lie strictly in (0, 1), got {beta!r}")

    rows = max(len(stats), len(n))
    cap, v_bf, v_bf_prime, level, nocsit_cap, nocsit_v = np.array(
        [(s.capacity, s.v_bf, s.v_bf_prime, s.water_level, s.nocsit_capacity, s.nocsit_v)
         for s in stats]).T
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
    return dict(zip((f.name for f in fields(BoundPoint)), columns))


def bound_point(stats: DispersionStats, n: int, n_c: int, num_states: int,
                epsilon: float, beta: float = 0.01) -> BoundPoint:
    """Evaluate the normal-approximation bounds at codeword length n.

    n must be blocks*n_c for an integer number of blocks >= 1; epsilon
    must lie strictly in (0, 1/2). The residual terms of order n^beta
    and smaller are excluded; log-codebook sizes may be negative at
    small n and are reported as computed.
    """
    columns = bound_columns([stats], [n], n_c, num_states, epsilon, beta)
    return BoundPoint(*(col.tolist()[0] for col in columns.values()))
