"""Monte Carlo checks for the power controller and the information density.

Both simulations draw their randomness from counter-based substreams: a
Philox generator keyed by (seed, purpose) whose 256-bit counter starts at
index * 2^192. The density simulation takes one substream per trial. The
controller needs only each trial's fading-state counts, which are
Multinomial(blocks, probs), so it takes one substream per chunk of 4096
trials and draws the chunk's counts in one call; the chunk size is part
of the determinism contract. Either way trial t sees the same draws no
matter how many trials run, in what order, or on how many workers, and
aggregation is a plain order-independent reduction.

A density trial draws one uniform per block, then the block's n_c
normals. Each uniform's fading state comes from an exact guide table
(indexed search): a power-of-two grid of cells on [0, 1) gives most
keys their state in one lookup, and only keys in a cell that a
cumulative-probability edge splits go to searchsorted, so the states
equal searchsorted's bit for bit. The trials share one set of buffers.

Each simulation returns its own section of the ``verify`` report, a dict
of plain floats, ints and bools: the measured values, the echoed block
and trial counts, each check's threshold or tolerance, and its verdict.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .fading import _INT_MAX, ChannelSpec
from .specfun import std_normal_cdf
from .waterfill import link_moments, link_terms, water_fill

__all__ = ["SimConfig", "simulate_st_controller", "simulate_information_density"]

_MASK64 = (1 << 64) - 1
_CONTROLLER_STREAM = 1
_DENSITY_STREAM = 11
_MIN_DENSITY_TRIALS = 100
# The density checks' fixed tolerances: the variance's relative error and
# the KS distance. They do not widen with fewer trials.
_VAR_REL_TOLERANCE = 0.02
_KS_THRESHOLD = 0.02
# Trials per controller substream; changing it changes every result.
_CONTROLLER_CHUNK = 4096
# Guide-table cells per fading state, and the most cells a table may have.
# Neither moves a result: the lookup equals searchsorted for any cell count.
_GUIDE_CELLS_PER_STATE = 4
_GUIDE_MAX_CELLS = 1 << 14


@dataclass(frozen=True)
class SimConfig:
    """Channel, budget and sampling plan for one simulation run."""

    spec: ChannelSpec
    budget: float
    blocks: int
    trials: int
    seed: int

    def __post_init__(self):
        if not (self.budget > 0.0) or not math.isfinite(self.budget):
            raise InvalidParameterError(f"budget must be positive and finite, got {self.budget!r}")
        if not isinstance(self.blocks, int) or self.blocks < 1:
            raise InvalidParameterError(f"blocks must be an integer >= 1, got {self.blocks!r}")
        if not isinstance(self.trials, int) or self.trials < 1:
            raise InvalidParameterError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed <= _MASK64:
            raise InvalidParameterError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")


def _delta_b(blocks: int, alpha: float, water_level: float) -> float:
    """Budget back-off water_level * sqrt(2 / blocks^(1-alpha))."""
    return water_level * math.sqrt(2.0 / float(blocks) ** (1.0 - alpha))


def _min_blocks_for_backoff(budget: float, alpha: float, water_level: float) -> int:
    """Smallest block count whose back-off _delta_b stays below the budget.

    _delta_b falls as blocks grows, so this bisects [1, 2^53] on it.
    Raises InvalidParameterError when the count exceeds 2^53, the CLI's
    cap on block counts: past it a float no longer holds every integer.
    """
    if _delta_b(_INT_MAX, alpha, water_level) >= budget:
        raise InvalidParameterError(
            f"the back-off stays at or above the budget {budget:.6g} at alpha={alpha:g} "
            f"for every block count up to 2^53, the largest supported")
    below, blocks = 0, _INT_MAX  # _delta_b(blocks) < budget; no count <= below qualifies
    while blocks - below > 1:
        mid = (below + blocks) // 2
        if _delta_b(mid, alpha, water_level) < budget:
            blocks = mid
        else:
            below = mid
    return blocks


def _substream(seed: int, stream: int, index: int) -> np.random.Generator:
    # 128-bit Philox key (stream, seed); SimConfig keeps the seed below 2^64.
    # The index in the top counter word gives every substream 2^192 draws.
    return np.random.Generator(np.random.Philox(key=(stream << 64) | seed, counter=index << 192))


def _controller_spends(cfg: SimConfig, powers: np.ndarray):
    """Yield each chunk's per-trial total spends, chunk by chunk.

    Chunk c holds trials c*4096 .. c*4096+4095 and draws their state
    counts from its own Philox substream. The row sums reduce each trial
    on its own, so a trial's spend does not depend on the chunk's fill.
    """
    probs = np.asarray(cfg.spec.fading.probs, dtype=float)
    for chunk, start in enumerate(range(0, cfg.trials, _CONTROLLER_CHUNK)):
        rng = _substream(cfg.seed, _CONTROLLER_STREAM, chunk)
        size = min(_CONTROLLER_CHUNK, cfg.trials - start)
        counts = rng.multinomial(cfg.blocks, probs, size=size)
        yield np.sum(counts * powers, axis=-1)


def simulate_st_controller(cfg: SimConfig, *, alpha: float) -> dict:
    """Sample the backed-off power controller and check its violation rate.

    alpha, the back-off exponent, must lie strictly in (0, 1); it is
    checked before any solve. Per trial, a fading sequence of length
    ``blocks`` is drawn and the controller allocates water-filling power
    against the reduced budget (budget - delta_b). With unit-energy
    reference symbols the running energy constraint can only be breached
    at the full sum, which depends on the sequence only through its state
    counts k ~ Multinomial(blocks, probs): the trial violates iff
    k . powers > blocks * budget.

    Returns verify's controller section: the violation share
    empirical_prob; the Hoeffding bound exp(-blocks*delta_b^2 /
    (2*level^2)) at the full water level, which with this back-off
    collapses to exp(-blocks^alpha); delta_b; the backed-off level
    lambda_b; blocks and trials; the Wald slack 3*sqrt(p(1-p)/trials);
    the threshold, bound plus slack; and pass, empirical_prob <= threshold.
    """
    if not (0.0 < alpha < 1.0):
        raise InvalidParameterError(f"alpha must lie strictly in (0, 1), got {alpha!r}")
    full_level = float(water_fill(cfg.spec, [cfg.budget])[0][0])
    backoff = _delta_b(cfg.blocks, alpha, full_level)
    if cfg.budget <= backoff:
        needed = _min_blocks_for_backoff(cfg.budget, alpha, full_level)
        raise InvalidParameterError(
            f"back-off {backoff:.6g} meets or exceeds the budget {cfg.budget:.6g}; "
            f"use at least {needed} blocks at alpha={alpha:g}")

    levels, powers = water_fill(cfg.spec, [cfg.budget - backoff])
    cap_total = cfg.blocks * cfg.budget
    violations = sum(int(np.count_nonzero(spends > cap_total))
                     for spends in _controller_spends(cfg, powers[0]))

    p_hat = violations / cfg.trials
    bound = math.exp(-cfg.blocks * backoff * backoff / (2.0 * full_level * full_level))
    slack = 3.0 * math.sqrt(p_hat * (1.0 - p_hat) / cfg.trials)
    threshold = bound + slack
    return {"empirical_prob": p_hat, "hoeffding_bound": bound, "delta_b": backoff,
            "lambda_b": float(levels[0]), "blocks": cfg.blocks, "trials": cfg.trials,
            "binomial_slack": slack, "threshold": threshold, "pass": p_hat <= threshold}


def _density_coefficients(spec: ChannelSpec, x: np.ndarray):
    """Per-state coefficients of one block's log-likelihood increment.

    In state i (received power x_i) with block noise z (n_c uses) the
    increment is fixed_i + lin_i*sum(z) - quad_i*sum(z^2), where
    fixed = n_c*c + n_c*l/2, lin = sqrt(x)/(noise_var + x) and
    quad = l/(2*noise_var), with c and l from link_terms.
    """
    s2 = spec.noise_var
    c, l, _ = link_terms(x, s2)
    return spec.n_c * c + spec.n_c * l / 2.0, np.sqrt(x) / (s2 + x), l / (2.0 * s2)


def _state_guide(cum: np.ndarray) -> tuple[float, np.ndarray]:
    """Guide table that maps a uniform u in [0, 1) to its fading state.

    cum holds the cumulative probabilities, the last one 1. [0, 1) is cut
    into a power-of-two number of equal cells, about four per state, so
    int(u * cells) is exact. table[k] is the state searchsorted(cum, u,
    side="right") gives every u in cell k, or len(cum) when an edge lies
    strictly inside the cell: only keys there need searchsorted.
    """
    cells = min(1 << (_GUIDE_CELLS_PER_STATE * len(cum) - 1).bit_length(), _GUIDE_MAX_CELLS)
    corners = np.arange(cells + 1) / cells
    table = np.searchsorted(cum, corners[:-1], side="right")
    table[np.searchsorted(cum, corners[1:], side="left") != table] = len(cum)
    return float(cells), table


def _lookup_states(u: np.ndarray, cum: np.ndarray, cells: float, table: np.ndarray,
                   states: np.ndarray) -> None:
    """Write searchsorted(cum, u, side="right") into states, by the guide table."""
    # The cast truncates u * cells >= 0, which is the floor. Mode "clip"
    # spares take the copy of out= its default mode makes; every index is
    # in range.
    np.multiply(u, cells, out=states, casting="unsafe")
    np.take(table, states, out=states, mode="clip")
    hit = np.flatnonzero(states == len(cum))
    states[hit] = np.searchsorted(cum, u[hit], side="right")


def _density_totals(cfg: SimConfig, fixed: np.ndarray, lin: np.ndarray,
                    quad: np.ndarray) -> np.ndarray:
    """Each trial's log-likelihood total, from its own substream.

    Trial t draws blocks uniforms, which pick the states, then blocks*n_c
    standard normals, scaled by the noise s.d.; its total is the pairwise
    sum of the increments fixed + lin*sum(z) - quad*sum(z^2) (see
    _density_coefficients). The buffers are allocated once and every
    trial draws into them.
    """
    n_c, blocks = cfg.spec.n_c, cfg.blocks
    cum = np.cumsum(np.asarray(cfg.spec.fading.probs, dtype=float))
    cum[-1] = 1.0  # guard the top edge against rounding
    cells, table = _state_guide(cum)
    noise_std = math.sqrt(cfg.spec.noise_var)
    u, work, term = (np.empty(blocks) for _ in range(3))
    noise = np.empty((blocks, n_c))
    # With one use per block, sum(z) is z itself and sum(z^2) is z*z.
    lin_part = noise.reshape(blocks) if n_c == 1 else np.empty(blocks)
    quad_part = u  # u is spent once the states are known
    states = np.empty(blocks, dtype=np.intp)
    totals = np.empty(cfg.trials)
    for trial in range(cfg.trials):
        rng = _substream(cfg.seed, _DENSITY_STREAM, trial)
        rng.random(out=u)
        rng.standard_normal(out=noise)
        _lookup_states(u, cum, cells, table, states)
        # normal(0, s) returns 0 + s*z, which differs from s*z only in the
        # sign of a zero; no total can tell them apart
        np.multiply(noise, noise_std, out=noise)
        if n_c == 1:
            np.multiply(lin_part, lin_part, out=quad_part)
        else:
            noise.sum(axis=1, out=lin_part)
            np.einsum("ij,ij->i", noise, noise, out=quad_part)
        np.take(fixed, states, out=work, mode="clip")
        np.take(lin, states, out=term, mode="clip")
        term *= lin_part
        work += term
        np.take(quad, states, out=term, mode="clip")
        term *= quad_part
        work -= term
        totals[trial] = float(work.sum())
    return totals


def _ks_distance(sorted_sample: np.ndarray) -> float:
    n = len(sorted_sample)
    cdf = np.array([std_normal_cdf(t) for t in sorted_sample])
    steps = np.arange(1, n + 1) / n
    d_plus = float(np.max(steps - cdf))
    d_minus = float(np.max(cdf - (steps - 1.0 / n)))
    return max(d_plus, d_minus, 0.0)


def check_density_config(cfg: SimConfig) -> None:
    """Reject a config the density simulation cannot run: fewer than 100 trials."""
    if cfg.trials < _MIN_DENSITY_TRIALS:
        raise InvalidParameterError(
            f"density simulation needs at least {_MIN_DENSITY_TRIALS} trials, got {cfg.trials}")


def simulate_information_density(cfg: SimConfig) -> dict:
    """Sample the per-codeword log-likelihood sum and check its law.

    Per trial, fading states and Gaussian noise are drawn for every
    block, the block increments are accumulated, and the run compares
    the per-channel-use mean and variance of the total with the analytic
    targets, and the standardized totals with the standard normal cdf.

    The analytic variance target is the mean per-use dispersion plus n_c
    times the rate variance; the sphere-correction term that enters the
    achievability dispersion does not arise for a fixed unit-energy
    codeword, so the target is deliberately not the full bound constant.

    Returns verify's density section: the measured per-use mean and
    variance, their analytic targets and the Kolmogorov-Smirnov distance;
    blocks and trials; each check's tolerance and pass flag (the mean
    within mean_tolerance = 3*sqrt(analytic_var/(trials*n)) of its
    target, n = blocks*n_c; the variance's relative error at most
    var_rel_tolerance; the KS distance at most ks_threshold); and pass,
    all three.
    """
    check_density_config(cfg)
    spec = cfg.spec
    n_c = spec.n_c
    gains = np.asarray(spec.fading.gains, dtype=float)
    x = gains * gains * water_fill(spec, [cfg.budget])[1][0]
    fixed, lin, quad = _density_coefficients(spec, x)
    _, _, mean_c, var_c, _, mean_v = link_moments(spec, x[None, :])
    analytic_mean = float(mean_c[0])
    analytic_var = float(mean_v[0] + n_c * var_c[0])

    totals = _density_totals(cfg, fixed, lin, quad)
    n = cfg.blocks * n_c
    standardized = np.sort((totals - n * analytic_mean) / math.sqrt(n * analytic_var))
    mean = float(totals.mean()) / n
    var = float(totals.var(ddof=1)) / n
    ks = _ks_distance(standardized)
    mean_tolerance = 3.0 * math.sqrt(analytic_var / (cfg.trials * n))
    mean_pass = abs(mean - analytic_mean) <= mean_tolerance
    var_pass = abs(var - analytic_var) <= _VAR_REL_TOLERANCE * analytic_var
    ks_pass = ks <= _KS_THRESHOLD
    return {"empirical_mean_per_use": mean, "empirical_var_per_use": var,
            "analytic_mean": analytic_mean, "analytic_var": analytic_var, "ks_distance": ks,
            "blocks": cfg.blocks, "trials": cfg.trials,
            "mean_tolerance": mean_tolerance, "mean_pass": mean_pass,
            "var_rel_tolerance": _VAR_REL_TOLERANCE, "var_pass": var_pass,
            "ks_threshold": _KS_THRESHOLD, "ks_pass": ks_pass,
            "pass": mean_pass and var_pass and ks_pass}
