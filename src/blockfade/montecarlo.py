"""Monte Carlo checks for the power controller and the information density.

Both simulations draw from one counter-based layout: one Philox
generator per simulation, keyed by (seed, purpose), walks the trials in
fixed-size chunks, and chunk c moves it to counter c * 2^192 and draws
its trials' Multinomial(blocks, probs) fading-state counts in one call.
The controller walks chunks of 4096 trials, the density simulation
chunks of one; the sizes are part of the determinism contract. Trial t
sees the same draws however many trials run, in whatever order or on
however many workers, and aggregation is a plain reduction.

A density trial draws sufficient statistics, not channel uses (see
_density_totals): O(states) draws whatever the block count, with exactly
the law of a per-use sampler; the bytes depend on numpy's multinomial,
standard_normal and standard_gamma.

Each simulation returns its own section of the ``verify`` report, a dict
of plain floats, ints and bools: the measured values, the echoed block
and trial counts, each check's threshold or tolerance, and its verdict.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, real, whole
from .fading import _INT_MAX, ChannelSpec
from .specfun import std_normal_cdf
from .waterfill import link_moments, water_fill

__all__ = ["SimConfig", "simulate_st_controller", "simulate_information_density"]

_MASK64 = (1 << 64) - 1
_CONTROLLER_STREAM = 1
_DENSITY_STREAM = 11
# The density simulation's trial floor, and the lo of the CLI's
# mc.density.trials row.
_MIN_DENSITY_TRIALS = 100
# The density checks' fixed tolerances: the variance's relative error and
# the KS distance. They do not widen with fewer trials.
_VAR_REL_TOLERANCE = 0.02
_KS_THRESHOLD = 0.02
# Trials per chunk of each simulation; changing either changes its results.
_CONTROLLER_CHUNK = 4096
_DENSITY_CHUNK = 1


@dataclass(frozen=True)
class SimConfig:
    """Channel, float budget and int sampling plan; blocks * spec.n_c <= 2^53."""

    spec: ChannelSpec
    budget: float
    blocks: int
    trials: int
    seed: int

    def __post_init__(self):
        if not isinstance(self.spec, ChannelSpec):
            raise InvalidParameterError(f"spec must be a ChannelSpec, got {self.spec!r}")
        object.__setattr__(self, "budget", real("budget", self.budget))
        object.__setattr__(self, "blocks", whole("blocks", self.blocks, 1))
        object.__setattr__(self, "trials", whole("trials", self.trials, 1, _INT_MAX))
        object.__setattr__(self, "seed", whole("seed", self.seed, 0, _MASK64))
        if self.blocks * self.spec.n_c > _INT_MAX:
            raise InvalidParameterError(
                f"codeword length blocks * n_c = {self.blocks * self.spec.n_c} exceeds "
                f"2^53 = {_INT_MAX}, the largest integer a float holds exactly")


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


def _chunks(cfg: SimConfig, stream: int, chunk: int):
    """Yield (first trial, generator, counts) per chunk of ``chunk`` trials.

    One Philox keyed (stream, seed) serves the walk; SimConfig keeps the
    seed below 2^64. Chunk c sets its counter to c * 2^192, which also
    empties its buffer, so the chunk draws what a fresh Philox there
    would: its (size, states) Multinomial(blocks, probs) counts, then what
    the caller draws before the next chunk.
    """
    probs = np.asarray(cfg.spec.fading.probs, dtype=float)
    bit_generator = np.random.Philox(key=(stream << 64) | cfg.seed)
    rng = np.random.Generator(bit_generator)
    state = bit_generator.state
    for c, first in enumerate(range(0, cfg.trials, chunk)):
        state["state"]["counter"][3] = c
        bit_generator.state = state
        yield first, rng, rng.multinomial(cfg.blocks, probs, size=min(chunk, cfg.trials - first))


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
    alpha = real("alpha", alpha, 0.0, 1.0)
    full_level = float(water_fill(cfg.spec, [cfg.budget])[0][0])
    backoff = _delta_b(cfg.blocks, alpha, full_level)
    if cfg.budget <= backoff:
        needed = _min_blocks_for_backoff(cfg.budget, alpha, full_level)
        raise InvalidParameterError(
            f"back-off {backoff:.6g} meets or exceeds the budget {cfg.budget:.6g}; "
            f"use at least {needed} blocks at alpha={alpha:g}")

    levels, powers = water_fill(cfg.spec, [cfg.budget - backoff])
    cap_total = cfg.blocks * cfg.budget
    violations = sum(int(np.count_nonzero(np.sum(counts * powers[0], axis=-1) > cap_total))
                     for _, _, counts in _chunks(cfg, _CONTROLLER_STREAM, _CONTROLLER_CHUNK))

    p_hat = violations / cfg.trials
    bound = math.exp(-cfg.blocks * backoff * backoff / (2.0 * full_level * full_level))
    slack = 3.0 * math.sqrt(p_hat * (1.0 - p_hat) / cfg.trials)
    threshold = bound + slack
    return {"empirical_prob": p_hat, "hoeffding_bound": bound, "delta_b": backoff,
            "lambda_b": float(levels[0]), "blocks": cfg.blocks, "trials": cfg.trials,
            "binomial_slack": slack, "threshold": threshold, "pass": p_hat <= threshold}


def _density_coefficients(spec: ChannelSpec, x: np.ndarray, c: np.ndarray, l: np.ndarray):
    """Per-state coefficients of one block's log-likelihood increment.

    In state i (received power x_i) with block noise z (n_c uses) the
    increment is fixed_i + lin_i*sum(z) - quad_i*sum(z^2), where
    fixed = n_c*c + n_c*l/2, lin = sqrt(x)/(noise_var + x) and
    quad = l/(2*noise_var), with c and l the link terms of x.
    """
    s2 = spec.noise_var
    return spec.n_c * c + spec.n_c * l / 2.0, np.sqrt(x) / (s2 + x), l / (2.0 * s2)


def _density_totals(cfg: SimConfig, fixed: np.ndarray, lin: np.ndarray,
                    quad: np.ndarray) -> np.ndarray:
    """Each trial's log-likelihood total, walked one chunk of trials at a time.

    A total depends on the noise only through each state's sums S = sum(z)
    and Q = sum(z^2) over its m = k*n_c uses, k the state's block count
    (see _density_coefficients). Given k, S ~ N(0, m*s2), and by Cochran's
    theorem Q - S^2/m is s2 times a chi-square with m - 1 degrees of
    freedom, independent of S. So each chunk takes its trials' counts k
    from _chunks, then one standard normal and one standard gamma per
    trial and state, and a trial's total is sum(k*fixed + lin*S - quad*Q):
    exact in distribution, and O(chunk * states) draws and memory.
    """
    n_c, s2 = cfg.spec.n_c, cfg.spec.noise_var
    totals = np.empty(cfg.trials)
    for first, rng, k in _chunks(cfg, _DENSITY_STREAM, _DENSITY_CHUNK):
        m = k * n_c
        s = rng.standard_normal(m.shape) * np.sqrt(m * s2)
        # s2*chi2(nu) is 2*s2*gamma(nu/2): numpy's chisquare rejects the
        # nu = 0 of a state with one use or none, standard_gamma(0) is 0;
        # with no use S is 0, and max(m, 1) keeps S^2/m at 0
        q = s * s / np.maximum(m, 1) + 2.0 * s2 * rng.standard_gamma(np.maximum(m - 1, 0) / 2.0)
        totals[first:first + len(k)] = np.sum(k * fixed + lin * s - quad * q, axis=-1)
    return totals


def _ks_distance(sorted_sample: np.ndarray) -> float:
    n = len(sorted_sample)
    cdf = np.array([std_normal_cdf(t) for t in sorted_sample])
    steps = np.arange(1, n + 1) / n
    d_plus = float(np.max(steps - cdf))
    d_minus = float(np.max(cdf - (steps - 1.0 / n)))
    return max(d_plus, d_minus, 0.0)


def simulate_information_density(cfg: SimConfig) -> dict:
    """Sample the per-codeword log-likelihood sum and check its law.

    Per trial, the total of the block increments is drawn from its
    sufficient statistics (see _density_totals), and the run compares
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
    all three. Fewer than 100 trials raise InvalidParameterError.
    """
    if cfg.trials < _MIN_DENSITY_TRIALS:
        raise InvalidParameterError(
            f"density simulation needs at least {_MIN_DENSITY_TRIALS} trials, got {cfg.trials}")
    spec = cfg.spec
    n_c = spec.n_c
    gains = np.asarray(spec.fading.gains, dtype=float)
    x = gains * gains * water_fill(spec, [cfg.budget])[1][0]
    c, l, mean_c, var_c, _, mean_v = link_moments(spec, x[None, :])
    fixed, lin, quad = _density_coefficients(spec, x, c[0], l[0])
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
