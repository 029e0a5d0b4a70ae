"""Monte Carlo checks for the power controller and the information density.

Both simulations draw from one counter-based layout: each builds one
Philox generator, keyed by (seed, stream), and seeks it (_seeker) to
counter c * 2^192 with an empty buffer at the start of chunk c. The
controller seeks once per chunk of 4096 trials and draws their
Multinomial(blocks, probs) fading-state counts in one call; the density
simulation seeks once per trial. The chunk sizes are part of the
determinism contract: trial t sees the same draws however many trials
run, in whatever order or in however many processes.

A density trial draws sufficient statistics, not channel uses (see
_density_totals), with exactly the law of a per-use sampler; the bytes
depend on numpy's multinomial, standard_normal and standard_gamma. The
arithmetic on the draws runs once per buffer of trials, and the buffer
size changes no byte. The density trials split into contiguous ranges,
one per usable CPU, each range at least _MIN_PART_TRIALS trials; the
parent runs the first and a forked child each other (_in_parts). The
run stays in one process below that floor, on one CPU, beside other
Python threads, or where os has no fork or sched_getaffinity. A split
changes neither the layout nor a byte. The controller always runs in
one process. Each simulation returns its own section of the ``verify``
report, a dict of plain floats, ints and bools.
"""

import math
import mmap
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, real, whole
from .fading import _INT_MAX, ChannelSpec, _codeword_length
from .waterfill import link_moments, water_fill

__all__ = ["SimConfig", "simulate_st_controller", "simulate_information_density"]

_MASK64 = (1 << 64) - 1
_SQRT2 = math.sqrt(2.0)
_CONTROLLER_STREAM = 1
_DENSITY_STREAM = 11
# The density simulation's trial floor, and the lo of the CLI's
# mc.density.trials row.
_MIN_DENSITY_TRIALS = 100
# The density checks' fixed tolerances: the variance's relative error and
# the KS distance. They do not widen with fewer trials.
_VAR_REL_TOLERANCE = 0.02
_KS_THRESHOLD = 0.02
# Trials per controller chunk (a density chunk is one trial); changing it
# changes the controller's results.
_CONTROLLER_CHUNK = 4096
# Elements (trials x states) per pass of the density arithmetic, at least
# one trial; changing it changes no result.
_DENSITY_BUFFER = 4096
# Up to this many states a density trial draws its gammas one scalar call
# per state: an array-shape standard_gamma call has a fixed cost of about
# seven scalar calls.
_SCALAR_GAMMA_STATES = 8
# The fewest density trials a forked process takes: about 10 ms of draws,
# against about 1.5 ms to fork a child and reap it. Changing it changes no
# result.
_MIN_PART_TRIALS = 1000
# POSIX fixes SIGKILL at 9; the signal module is not otherwise imported.
_SIGKILL = 9


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
        _codeword_length(self.blocks * self.spec.n_c)


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


def _seeker(seed: int, stream: int):
    """(seek, rng): seek(c) moves rng's Philox, keyed (stream, seed), to
    counter c * 2^192 with an empty buffer, so rng then draws what a fresh
    Philox(key=(stream << 64) | seed, counter=c << 192) would. The state
    is plain ints in lists, the form numpy's state setter takes fastest.
    """
    bit_generator = np.random.Philox(key=(stream << 64) | seed)
    counter = [0, 0, 0, 0]
    state = {"bit_generator": "Philox", "state": {"counter": counter, "key": [seed, stream]},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def seek(c: int) -> None:
        counter[3] = c
        bit_generator.state = state

    return seek, np.random.Generator(bit_generator)


def simulate_st_controller(cfg: SimConfig, *, alpha: float) -> dict:
    """Sample the backed-off power controller and check its violation rate.

    alpha, the back-off exponent, must lie strictly in (0, 1); it is
    checked before any solve. A budget whose 2 * level^2 overflows a
    float is rejected before any draw. Per trial, a fading sequence of
    length ``blocks`` is drawn and the controller allocates water-filling power
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
    # the Hoeffding exponent divides by 2 * level^2, which must not reach inf
    if not math.isfinite(2.0 * full_level * full_level):
        raise InvalidParameterError(
            f"power budget {cfg.budget!r} is too large for the controller: 2 * level^2 "
            f"overflows a float at its water level {full_level!r}")
    backoff = _delta_b(cfg.blocks, alpha, full_level)
    if cfg.budget <= backoff:
        needed = _min_blocks_for_backoff(cfg.budget, alpha, full_level)
        raise InvalidParameterError(
            f"back-off {backoff:.6g} meets or exceeds the budget {cfg.budget:.6g}; "
            f"use at least {needed} blocks at alpha={alpha:g}")

    levels, powers = water_fill(cfg.spec, [cfg.budget - backoff])
    cap_total = cfg.blocks * cfg.budget
    seek, rng = _seeker(cfg.seed, _CONTROLLER_STREAM)
    violations = 0
    for c, first in enumerate(range(0, cfg.trials, _CONTROLLER_CHUNK)):
        seek(c)
        counts = rng.multinomial(cfg.blocks, cfg.spec.fading.probs,
                                 size=min(_CONTROLLER_CHUNK, cfg.trials - first))
        violations += int(np.count_nonzero(np.sum(counts * powers[0], axis=-1) > cap_total))

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
    quad = l/(2*noise_var), with c and l the link terms of x. They are
    formed here, not taken from link_terms: the totals check the targets
    link_terms builds, and a check must not share code with what it checks.
    """
    s2 = spec.noise_var
    c, l = 0.5 * np.log1p(x / s2), x / (s2 + x)
    return spec.n_c * c + spec.n_c * l / 2.0, np.sqrt(x) / (s2 + x), l / (2.0 * s2)


def _reap(pid: int, kill: bool = False) -> int:
    """Wait for child pid, killed first if kill: its wait status, or -1 if
    something else reaped it (as where SIGCHLD is ignored).
    """
    try:
        if kill:
            os.kill(pid, _SIGKILL)
        return os.waitpid(pid, 0)[1]
    except (ChildProcessError, ProcessLookupError):
        return -1


def _in_parts(count: int, work) -> np.ndarray:
    """work(0, count), computed in contiguous ranges, one process per range.

    work(lo, hi) returns the float results of items lo..hi-1, and its
    bytes must not depend on where a range starts or ends. There is one
    range per CPU in the process's affinity mask, as many as give each at
    least _MIN_PART_TRIALS items. work runs serially with one range, where
    os has no fork or sched_getaffinity, or beside other Python threads.
    The parent computes the first range. Each other range goes to a
    forked child, which writes it into a shared anonymous mapping and
    leaves by os._exit, so it neither flushes the stdio buffers nor runs
    the exit handlers it inherited. The kernel places the processes. The
    parent computes a range itself when its fork raises OSError or its
    child exits nonzero. Before it returns or raises, it kills and reaps
    every child left.
    """
    # a forked child would not have the parent's other Python threads
    serial = (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
              or threading.active_count() > 1)
    cpus = 1 if serial else len(os.sched_getaffinity(0))
    parts = min(cpus, count // _MIN_PART_TRIALS)
    if parts < 2:
        return work(0, count)
    edges = [count * part // parts for part in range(parts + 1)]
    out = np.frombuffer(mmap.mmap(-1, 8 * count), dtype=np.float64)
    children, left = {}, []
    try:
        for lo, hi in zip(edges[1:-1], edges[2:]):
            try:
                pid = os.fork()
            except OSError:
                left.append((lo, hi))
                continue
            if pid == 0:
                code = 1
                try:
                    out[lo:hi] = work(lo, hi)
                    code = 0
                finally:
                    os._exit(code)
            children[pid] = (lo, hi)
        out[:edges[1]] = work(0, edges[1])
        for pid, span in list(children.items()):
            if _reap(pid):
                left.append(span)
            del children[pid]
        for lo, hi in left:
            out[lo:hi] = work(lo, hi)
    finally:
        for pid in children:
            _reap(pid, kill=True)
    return out


def _density_totals(cfg: SimConfig, fixed: np.ndarray, lin: np.ndarray,
                    quad: np.ndarray) -> np.ndarray:
    """Each trial's log-likelihood total: draws per trial, arithmetic per buffer.

    A total depends on the noise only through each state's sums S = sum(z)
    and Q = sum(z^2) over its m = k*n_c uses, k the state's block count
    (see _density_coefficients). Given k, S ~ N(0, m*s2), and by Cochran's
    theorem Q - S^2/m is s2 times a chi-square with m - 1 degrees of
    freedom, independent of S. So trial t seeks to substream t, draws its
    counts k, then one standard normal and one standard gamma per state,
    and its total is sum(k*fixed + lin*S - quad*Q): exact in distribution.

    The draws stay per trial and in that order. They fill a buffer of
    _DENSITY_BUFFER // states trials (at least one, at most the range's),
    and S, Q and the totals are computed once per buffer with the same
    elementwise arithmetic and row sum as for a lone trial, so the buffer
    size changes no byte; memory is O(buffer), not O(trials * states).
    For the same reason the trials split into ranges across processes
    (_in_parts) with the same bytes as in one.
    """
    n_c, s2, blocks = cfg.spec.n_c, cfg.spec.noise_var, cfg.blocks
    probs = np.asarray(cfg.spec.fading.probs, dtype=float)
    states = len(fixed)
    scalar_gamma = states <= _SCALAR_GAMMA_STATES

    def totals_of(lo: int, hi: int) -> np.ndarray:
        rows = min(max(1, _DENSITY_BUFFER // states), hi - lo)
        k = np.empty((rows, states), dtype=np.int64)
        z, g = np.empty((rows, states)), np.empty((rows, states))
        totals = np.empty(hi - lo)
        seek, rng = _seeker(cfg.seed, _DENSITY_STREAM)
        multinomial, normal, gamma = rng.multinomial, rng.standard_normal, rng.standard_gamma
        for at in range(0, hi - lo, rows):
            size = min(rows, hi - lo - at)
            for row in range(size):
                seek(lo + at + row)
                k[row] = counts = multinomial(blocks, probs)
                normal(out=z[row])
                # s2*chi2(nu) is 2*s2*gamma(nu/2), nu = max(m - 1, 0): numpy's
                # chisquare rejects the nu = 0 of a state with one use or none,
                # standard_gamma(0) is 0
                shapes = [(c * n_c - 1) / 2.0 if c else 0.0 for c in counts.tolist()]
                g[row] = list(map(gamma, shapes)) if scalar_gamma else gamma(shapes)
            m = k[:size] * n_c
            s = z[:size] * np.sqrt(m * s2)
            # with no use S is 0, and max(m, 1) keeps S^2/m at 0
            q = s * s / np.maximum(m, 1) + 2.0 * s2 * g[:size]
            totals[at:at + size] = np.sum(k[:size] * fixed + lin * s - quad * q, axis=-1)
        return totals

    return _in_parts(cfg.trials, totals_of)


def _ks_distance(sorted_sample: np.ndarray) -> float:
    n = len(sorted_sample)
    # the standard normal cdf 0.5*erfc(-t/sqrt(2)), which keeps full
    # precision in both tails; -t/s is t/-s, and no list of n floats is built
    cdf = 0.5 * np.fromiter(map(math.erfc, sorted_sample / -_SQRT2), float, n)
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
    _, _, mean_c, var_c, _, mean_v = link_moments(spec, x[None, :])
    fixed, lin, quad = _density_coefficients(spec, x)
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
