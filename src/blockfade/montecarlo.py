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
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .fading import ChannelSpec
from .specfun import std_normal_cdf
from .waterfill import PowerAllocation, link_moments, link_terms, solve_waterfill

__all__ = [
    "SimConfig",
    "ViolationReport",
    "DensityStats",
    "delta_b",
    "hoeffding_violation_bound",
    "min_blocks_for_backoff",
    "density_block_moments",
    "simulate_st_controller",
    "simulate_information_density",
]

_MASK64 = (1 << 64) - 1
_CONTROLLER_STREAM = 1
_DENSITY_STREAM = 11
_MIN_DENSITY_TRIALS = 100
# Trials per controller substream; changing it changes every result.
_CONTROLLER_CHUNK = 4096


@dataclass(frozen=True)
class SimConfig:
    """Channel, budget and sampling plan for one simulation run."""

    spec: ChannelSpec
    budget: float
    blocks: int
    alpha: float
    trials: int
    seed: int

    def __post_init__(self):
        if not (self.budget > 0.0) or not math.isfinite(self.budget):
            raise InvalidParameterError(f"budget must be positive and finite, got {self.budget!r}")
        if not isinstance(self.blocks, int) or self.blocks < 1:
            raise InvalidParameterError(f"blocks must be an integer >= 1, got {self.blocks!r}")
        if not (0.0 < self.alpha < 1.0):
            raise InvalidParameterError(f"alpha must lie strictly in (0, 1), got {self.alpha!r}")
        if not isinstance(self.trials, int) or self.trials < 1:
            raise InvalidParameterError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed <= _MASK64:
            raise InvalidParameterError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")


@dataclass(frozen=True)
class ViolationReport:
    """Observed controller budget violations against the analytic bound."""

    empirical_prob: float
    hoeffding_bound: float
    delta_b: float
    lambda_b: float
    trials: int

    def __post_init__(self):
        if not (0.0 <= self.empirical_prob <= 1.0):
            raise InvalidParameterError(
                f"empirical probability must lie in [0, 1], got {self.empirical_prob!r}")


@dataclass(frozen=True)
class DensityStats:
    """Sampled information-density moments against their analytic targets."""

    empirical_mean_per_use: float
    empirical_var_per_use: float
    analytic_mean: float
    analytic_var: float
    ks_distance: float

    def __post_init__(self):
        if not (0.0 <= self.ks_distance <= 1.0):
            raise InvalidParameterError(
                f"KS distance must lie in [0, 1], got {self.ks_distance!r}")


def delta_b(blocks: int, alpha: float, water_level: float) -> float:
    """Budget back-off water_level * sqrt(2 / blocks^(1-alpha))."""
    if blocks < 1:
        raise InvalidParameterError(f"blocks must be >= 1, got {blocks!r}")
    if not (0.0 < alpha < 1.0):
        raise InvalidParameterError(f"alpha must lie strictly in (0, 1), got {alpha!r}")
    if not (water_level > 0.0):
        raise InvalidParameterError(f"water_level must be positive, got {water_level!r}")
    return water_level * math.sqrt(2.0 / float(blocks) ** (1.0 - alpha))


def hoeffding_violation_bound(blocks: int, delta: float, water_level: float) -> float:
    """Concentration bound exp(-blocks*delta^2 / (2*water_level^2)).

    With the canonical back-off from delta_b this collapses to
    exp(-blocks^alpha).
    """
    if blocks < 1 or delta < 0.0 or not (water_level > 0.0):
        raise InvalidParameterError(
            f"need blocks >= 1, delta >= 0, water_level > 0; got {blocks!r}, {delta!r}, {water_level!r}")
    return math.exp(-blocks * delta * delta / (2.0 * water_level * water_level))


def min_blocks_for_backoff(budget: float, alpha: float, water_level: float) -> int:
    """Smallest block count whose back-off delta_b stays below the budget."""
    # delta_b < budget  <=>  blocks^(1-alpha) > 2*water_level^2/budget^2
    threshold = (2.0 * water_level * water_level / (budget * budget)) ** (1.0 / (1.0 - alpha))
    blocks = max(1, int(math.floor(threshold)) + 1)
    while delta_b(blocks, alpha, water_level) >= budget:
        blocks += 1
    return blocks


def _philox_key(seed: int, stream: int) -> int:
    # 128-bit Philox key = (stream, seed); SimConfig keeps the seed below 2^64.
    return (stream << 64) | seed


def _trial_rng(seed: int, stream: int, trial: int) -> np.random.Generator:
    # The trial index in the top counter word gives every trial 2^192
    # draws of separation.
    key = _philox_key(seed, stream)
    return np.random.Generator(np.random.Philox(key=key, counter=trial << 192))


def _state_sampler(spec: ChannelSpec):
    cum = np.cumsum(np.asarray(spec.fading.probs, dtype=float))
    cum[-1] = 1.0  # guard the top edge against rounding
    return cum


def _controller_spends(cfg: SimConfig, powers: np.ndarray):
    """Yield each chunk's per-trial total spends, chunk by chunk.

    Chunk c holds trials c*4096 .. c*4096+4095 and draws their state
    counts from its own Philox substream. The row sums reduce each trial
    on its own, so a trial's spend does not depend on the chunk's fill.
    """
    probs = np.asarray(cfg.spec.fading.probs, dtype=float)
    key = _philox_key(cfg.seed, _CONTROLLER_STREAM)
    for chunk, start in enumerate(range(0, cfg.trials, _CONTROLLER_CHUNK)):
        rng = np.random.Generator(np.random.Philox(key=key, counter=chunk << 192))
        size = min(_CONTROLLER_CHUNK, cfg.trials - start)
        counts = rng.multinomial(cfg.blocks, probs, size=size)
        yield np.sum(counts * powers, axis=-1)


def simulate_st_controller(cfg: SimConfig) -> ViolationReport:
    """Sample the backed-off power controller and count budget violations.

    Per trial, a fading sequence of length ``blocks`` is drawn and the
    controller allocates water-filling power against the reduced budget
    (budget - delta_b). With unit-energy reference symbols the running
    energy constraint can only be breached at the full sum, which depends
    on the sequence only through its state counts k ~ Multinomial(blocks,
    probs): the trial violates iff k . powers > blocks * budget.
    """
    spec = cfg.spec
    full = solve_waterfill(spec, cfg.budget)
    backoff = delta_b(cfg.blocks, cfg.alpha, full.water_level)
    if cfg.budget <= backoff:
        needed = min_blocks_for_backoff(cfg.budget, cfg.alpha, full.water_level)
        raise InvalidParameterError(
            f"back-off {backoff:.6g} meets or exceeds the budget {cfg.budget:.6g}; "
            f"use at least {needed} blocks at alpha={cfg.alpha:g}")

    backed = solve_waterfill(spec, cfg.budget - backoff)
    powers = np.asarray(backed.powers, dtype=float)
    cap_total = cfg.blocks * cfg.budget
    violations = sum(int(np.count_nonzero(spends > cap_total))
                     for spends in _controller_spends(cfg, powers))

    return ViolationReport(
        empirical_prob=violations / cfg.trials,
        hoeffding_bound=hoeffding_violation_bound(cfg.blocks, backoff, full.water_level),
        delta_b=backoff,
        lambda_b=backed.water_level,
        trials=cfg.trials,
    )


def density_block_moments(spec: ChannelSpec, alloc: PowerAllocation) -> tuple[np.ndarray, np.ndarray]:
    """Per-state mean and variance of one block's log-likelihood increment.

    At the water-filling powers the mean collapses to n_c*C(g^2) (the
    power terms cancel) and the variance to n_c*V(g^2).
    """
    base, offset, lin, quad = _density_coefficients(spec, alloc)
    n_c, s2 = spec.n_c, spec.noise_var
    means = base + offset - quad * (n_c * s2)
    variances = lin * lin * (n_c * s2) + quad * quad * (2.0 * n_c * s2 * s2)
    return means, variances


def _density_coefficients(spec: ChannelSpec, alloc: PowerAllocation):
    # One block's increment given state i and noise z (length n_c):
    #   W = base_i + offset_i + lin_i * sum(z) - quad_i * sum(z^2)
    gains = np.asarray(spec.fading.gains, dtype=float)
    powers = np.asarray(alloc.powers, dtype=float)
    s2 = spec.noise_var
    n_c = spec.n_c
    g2 = gains * gains * powers
    denom = 2.0 * s2 * (s2 + g2)
    base = n_c * link_terms(g2, s2)[0]
    offset = n_c * s2 * gains * gains * powers / denom
    lin = 2.0 * gains * np.sqrt(powers) * s2 / denom
    quad = g2 / denom
    return base, offset, lin, quad


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


def simulate_information_density(cfg: SimConfig) -> DensityStats:
    """Sample the per-codeword log-likelihood sum and compare moments.

    Per trial, fading states and Gaussian noise are drawn for every
    block, the block increments are accumulated, and the run reports the
    per-channel-use mean and variance of the total next to the analytic
    targets, plus the Kolmogorov-Smirnov distance of the standardized
    totals from the standard normal cdf.

    The analytic variance target is the mean per-use dispersion plus n_c
    times the rate variance; the sphere-correction term that enters the
    achievability dispersion does not arise for a fixed unit-energy
    codeword, so the target is deliberately not the full bound constant.
    """
    check_density_config(cfg)
    spec = cfg.spec
    n_c, s2 = spec.n_c, spec.noise_var
    alloc = solve_waterfill(spec, cfg.budget)
    base, offset, lin, quad = _density_coefficients(spec, alloc)
    fixed = base + offset

    g2 = alloc.gain_power(spec.fading.gains)[None, :]
    _, _, mean_c, var_c, _, mean_v = link_moments(spec, g2)
    analytic_mean = float(mean_c[0])
    analytic_var = float(mean_v[0] + n_c * var_c[0])

    cum = _state_sampler(spec)
    noise_std = math.sqrt(s2)
    n = cfg.blocks * n_c
    totals = np.empty(cfg.trials)
    for trial in range(cfg.trials):
        rng = _trial_rng(cfg.seed, _DENSITY_STREAM, trial)
        states = np.searchsorted(cum, rng.random(cfg.blocks), side="right")
        noise = rng.normal(0.0, noise_std, size=(cfg.blocks, n_c))
        lin_part = noise.sum(axis=1)
        quad_part = np.einsum("ij,ij->i", noise, noise)
        increments = fixed[states] + lin[states] * lin_part - quad[states] * quad_part
        totals[trial] = float(increments.sum())

    standardized = np.sort((totals - n * analytic_mean) / math.sqrt(n * analytic_var))
    return DensityStats(
        empirical_mean_per_use=float(totals.mean()) / n,
        empirical_var_per_use=float(totals.var(ddof=1)) / n,
        analytic_mean=analytic_mean,
        analytic_var=analytic_var,
        ks_distance=_ks_distance(standardized),
    )
