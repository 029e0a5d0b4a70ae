"""Independent oracles the tests check the library against.

Everything here deliberately avoids the library's code paths: the
quantile oracle bisects a high-precision series cdf (mpmath), the
water-level oracle enumerates active sets in closed form instead of
bisecting, and moment accumulation uses fsum over reversed state order
with the uncentered variance formula. The four finite-blocklength bounds
and the constant-power baseline (oracle_bounds) are summed in mpmath from
those ingredients and the bisected quantile. The controller's violation
probability is summed exactly over the state counts, and its original
per-block sampler is kept here as a sampling reference. The density
simulation's original per-trial loop is kept as its bit-for-bit
reference. Two dispersions come from the literature in their published
form, not from the library's decomposition: the real AWGN dispersion
and the Polyanskiy-Verdu constant-power fading dispersion (mpmath). So
does the water-filling capacity of continuous Rayleigh fading
(Goldsmith-Varaiya, mpmath).
"""

import math
from functools import lru_cache
from itertools import accumulate

import numpy as np
from mpmath import mp

mp.dps = 40


def mp_norm_cdf(x: float) -> float:
    """Standard normal cdf via mpmath's arbitrary-precision series."""
    return float(mp.ncdf(x))


@lru_cache(maxsize=None)
def bisect_quantile(p: float, lo: float = -12.0, hi: float = 12.0) -> float:
    """Quantile by plain bisection on the mpmath cdf (cached: the bound oracles reuse a few)."""
    target = mp.mpf(p)
    a, b = mp.mpf(lo), mp.mpf(hi)
    for _ in range(120):
        mid = (a + b) / 2
        if mp.ncdf(mid) < target:
            a = mid
        else:
            b = mid
    return float((a + b) / 2)


def fsum_mean_var(values, probs) -> tuple[float, float]:
    """Uncentered mean/variance accumulated with fsum in reversed order."""
    pairs = list(zip(values, probs))[::-1]
    mean = math.fsum(v * q for v, q in pairs)
    second = math.fsum(v * v * q for v, q in pairs)
    return mean, second - mean * mean


def closed_form_water_level(gains, probs, noise_var, budget) -> float:
    """Water level by explicit active-set enumeration (no bisection).

    States are already sorted by increasing gain, so candidate active
    sets are suffixes; the level for a suffix follows from the linear
    budget equation and is accepted when consistent with the suffix.
    """
    floors = [noise_var / (g * g) for g in gains]  # decreasing in state order
    k = len(gains)
    for start in range(k):
        active_q = math.fsum(probs[start:])
        level = (budget + math.fsum(q * f for q, f in zip(probs[start:], floors[start:]))) / active_q
        inside = all(level > floors[i] for i in range(start, k))
        outside = all(level <= floors[i] for i in range(start))
        if inside and outside:
            return level
    raise AssertionError("no consistent active set found")


def oracle_link_c(x, noise_var):
    return 0.5 * math.log(1.0 + x / noise_var)


def oracle_link_l(x, noise_var):
    return 1.0 - noise_var / (noise_var + x)


def oracle_link_v(x, noise_var):
    l = oracle_link_l(x, noise_var)
    return 0.5 * l * (2.0 - l)


def _allocation_moments(gains, probs, noise_var, powers):
    """C and L per state at the received powers gain^2 * power, and the fsum moments.

    Returns (c_vals, l_vals, capacity, var_c, mean_v, var_l).
    """
    g2 = [g * g * p for g, p in zip(gains, powers)]
    c_vals = [oracle_link_c(x, noise_var) for x in g2]
    l_vals = [oracle_link_l(x, noise_var) for x in g2]
    cap, var_c = fsum_mean_var(c_vals, probs)
    mean_v, _ = fsum_mean_var([oracle_link_v(x, noise_var) for x in g2], probs)
    _, var_l = fsum_mean_var(l_vals, probs)
    return c_vals, l_vals, cap, var_c, mean_v, var_l


def oracle_dispersions_for_alloc(gains, probs, noise_var, n_c, powers, level, budget) -> dict:
    """Dispersions V_bf and V' at a given allocation, fsum/uncentered accumulation.

    V_bf = E[V] + n_c*Var C + Var L/2 and V' = E[V] + Var(n_c*C +
    budget/(2*level) - L/2). This is the oracles' one copy of both:
    oracle_channel_quantities takes V_bf and V' at the water-filling
    powers, and nocsit_v as V_bf at constant power, from here.
    """
    c_vals, l_vals, _, var_c, mean_v, var_l = _allocation_moments(gains, probs, noise_var, powers)
    composite = [n_c * c + budget / (2.0 * level) - 0.5 * l for c, l in zip(c_vals, l_vals)]
    _, var_comp = fsum_mean_var(composite, probs)
    return {
        "v_bf": mean_v + n_c * var_c + 0.5 * var_l,
        "v_bf_prime": mean_v + var_comp,
    }


def oracle_channel_quantities(gains, probs, noise_var, n_c, budget) -> dict:
    """All bound ingredients from the closed-form level and fsum moments.

    The nocsit pair is capacity and V_bf with the budget in every state.
    """
    level = closed_form_water_level(gains, probs, noise_var, budget)
    powers = [max(0.0, level - noise_var / (g * g)) for g in gains]
    const = [budget] * len(gains)
    _, _, cap, var_c, mean_v, var_l = _allocation_moments(gains, probs, noise_var, powers)
    return {
        "level": level,
        "powers": powers,
        "capacity": cap,
        **oracle_dispersions_for_alloc(gains, probs, noise_var, n_c, powers, level, budget),
        "var_c": var_c,
        "mean_v": mean_v,
        "var_l": var_l,
        "nocsit_capacity": _allocation_moments(gains, probs, noise_var, const)[2],
        "nocsit_v": oracle_dispersions_for_alloc(gains, probs, noise_var, n_c, const, level,
                                                 budget)["v_bf"],
    }


def oracle_bound_terms(gains, probs, noise_var, n_c, budget, n, epsilon, beta) -> dict:
    """Every term of the normal-approximation bounds at one budget and length n, in mpmath.

    The ingredients come from oracle_channel_quantities and the quantile
    z = Phi^-1(epsilon) = -Q^-1(epsilon) from bisect_quantile, so nothing
    here runs the library's code. Each value is an mpf:

    - capacity, dispersion: n*C and sqrt(n*V_bf)*z at water-filling;
    - converse_dispersion: sqrt(n*V')*z;
    - log_n: log(n)/2, and state_log_n: num_states*log(n)/2;
    - backoff: n^((1 - beta)/2), the achievability back-off;
    - per_codeword_cost: sqrt(n/2), the price of a per-codeword power
      constraint in the achievability bound;
    - long_term_excess: sqrt(n)/(2*level), what a long-term power
      constraint adds to the converse;
    - nocsit_capacity, nocsit_dispersion: n*C and sqrt(n*V) at constant
      power.
    """
    q = oracle_channel_quantities(gains, probs, noise_var, n_c, budget)
    n = mp.mpf(n)
    z = mp.mpf(bisect_quantile(epsilon))
    return {
        "capacity": n * q["capacity"],
        "dispersion": mp.sqrt(n * q["v_bf"]) * z,
        "converse_dispersion": mp.sqrt(n * q["v_bf_prime"]) * z,
        "log_n": mp.log(n) / 2,
        "state_log_n": len(gains) * mp.log(n) / 2,
        "backoff": n ** ((1 - mp.mpf(beta)) / 2),
        "per_codeword_cost": mp.sqrt(n / 2),
        "long_term_excess": mp.sqrt(n) / (2 * q["level"]),
        "nocsit_capacity": n * q["nocsit_capacity"],
        "nocsit_dispersion": mp.sqrt(n * q["nocsit_v"]) * z,
    }


def oracle_bounds(gains, probs, noise_var, n_c, budget, n, epsilon, beta) -> dict:
    """The bounds of bound_columns at one budget and codeword length n, in mpmath.

    The normal approximations, in the form of Polyanskiy, Poor & Verdu,
    "Channel coding rate in the finite blocklength regime", IEEE Trans. IT
    2010, that bound_columns documents, summed from the terms of
    oracle_bound_terms:

    - achievability under a long-term (average) power constraint, at
      water-filling: log_m_lb_lt = n*C + sqrt(n*V_bf)*z + log(n)/2 - backoff;
    - achievability under a per-codeword power constraint:
      log_m_lb_st = log_m_lb_lt - sqrt(n/2);
    - the per-codeword converse:
      log_m_ub_st = n*C + sqrt(n*V')*z + num_states*log(n)/2;
    - the long-term converse: log_m_ub_lt = log_m_ub_st + sqrt(n)/(2*level);
    - the constant-power baseline (no CSI at the transmitter): the
      achievability expression at constant power, as rate_nocsit.

    Returns the log_m_* fields, the rate_* fields (log_m over n) and
    rate_nocsit, as floats.
    """
    t = oracle_bound_terms(gains, probs, noise_var, n_c, budget, n, epsilon, beta)
    achievability = t["capacity"] + t["dispersion"] + t["log_n"] - t["backoff"]
    per_codeword_converse = t["capacity"] + t["converse_dispersion"] + t["state_log_n"]
    log_m = {
        "lb_st": achievability - t["per_codeword_cost"],
        "lb_lt": achievability,
        "ub_st": per_codeword_converse,
        "ub_lt": per_codeword_converse + t["long_term_excess"],
    }
    baseline = t["nocsit_capacity"] + t["nocsit_dispersion"] + t["log_n"] - t["backoff"]
    return {
        **{f"log_m_{name}": float(value) for name, value in log_m.items()},
        **{f"rate_{name}": float(value / n) for name, value in log_m.items()},
        "rate_nocsit": float(baseline / n),
    }


def awgn_dispersion(snr: float) -> float:
    """Real AWGN channel dispersion SNR(SNR+2) / (2(SNR+1)^2), in nats^2, in mpmath.

    Polyanskiy, Poor & Verdu, "Channel coding rate in the finite
    blocklength regime", IEEE Trans. IT 2010, Section IV.
    """
    snr = mp.mpf(snr)
    return float(snr * (snr + 2) / (2 * (snr + 1) ** 2))


def pv_constant_power_dispersion(gains, probs, noise_var, budget, n_c=1) -> float:
    """Dispersion of coherent fading with receiver-only CSI, at constant power, in mpmath.

    n_c * Var C(gamma) + (1 - E^2[1/(1 + gamma)]) / 2 with
    gamma = gain^2 * budget / noise_var and C = log(1 + gamma) / 2: the
    real-channel form of Polyanskiy & Verdu, "Scalar coherent fading
    channel: dispersion analysis", ISIT 2011 (n_c = 1), with the rate
    variance counted once per channel use of a block.
    """
    qs = [mp.mpf(q) for q in probs]
    gammas = [mp.mpf(g) ** 2 * mp.mpf(budget) / mp.mpf(noise_var) for g in gains]
    rates = [mp.log1p(x) / 2 for x in gammas]
    mean_c = mp.fsum(q * c for q, c in zip(qs, rates))
    var_c = mp.fsum(q * (c - mean_c) ** 2 for q, c in zip(qs, rates))
    mean_inv = mp.fsum(q / (1 + x) for q, x in zip(qs, gammas))
    return float(n_c * var_c + (1 - mean_inv ** 2) / 2)


def rayleigh_waterfill_limit(budget, scale=1.0, noise_var=1.0) -> tuple[float, float]:
    """Water level and capacity of water-filling on continuous Rayleigh fading, in mpmath.

    The amplitude is Rayleigh with the given scale, so the power gain
    g^2 is exponential with mean m = 2*scale^2. With the cutoff
    a = noise_var/level, the level solves
    level*exp(-a/m) - (noise_var/m)*E1(a/m) = budget, and the capacity
    is E1(a/m)/2 nats per use: Goldsmith & Varaiya, "Capacity of fading
    channels with channel side information", IEEE Trans. IT, 1997, for
    the real channel.
    """
    m = 2 * mp.mpf(scale) ** 2
    s2, target = mp.mpf(noise_var), mp.mpf(budget)
    level = mp.findroot(lambda lv: lv * mp.exp(-s2 / lv / m) - s2 / m * mp.e1(s2 / lv / m)
                        - target, target + s2)
    return float(level), float(mp.e1(s2 / level / m) / 2)


def waterfill_powers(gains, probs, noise_var, budget) -> list[float]:
    """Water-filling powers at the closed-form level."""
    level = closed_form_water_level(gains, probs, noise_var, budget)
    return [max(0.0, level - noise_var / (g * g)) for g in gains]


def controller_powers(gains, probs, noise_var, budget, blocks, alpha) -> list[float]:
    """Powers of the short-term controller: water-filling at the backed-off budget.

    The back-off is level * sqrt(2 / blocks^(1 - alpha)), with the level
    of the full budget.
    """
    level = closed_form_water_level(gains, probs, noise_var, budget)
    backoff = level * math.sqrt(2.0 / blocks ** (1.0 - alpha))
    return waterfill_powers(gains, probs, noise_var, budget - backoff)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for k in range(total + 1):
        for rest in _compositions(total - k, parts - 1):
            yield (k, *rest)


def exact_violation_probability(probs, powers, blocks, cap) -> float:
    """Exact chance that one controller trial spends more than cap.

    The spend depends on the fading sequence only through its state
    counts k ~ Multinomial(blocks, probs). Every count vector is
    enumerated; the probabilities (lgamma form) of those with
    k . powers > cap are added with fsum. For two states that is the
    binomial tail, blocks + 1 terms; S states need C(blocks + S - 1, S - 1)
    terms, so keep blocks small there. A spend within 1e-9 * cap of the
    cap raises ValueError: rounding, not the channel, would decide it.
    """
    log_q = [math.log(q) for q in probs]
    head = math.lgamma(blocks + 1)
    terms = []
    for counts in _compositions(blocks, len(probs)):
        spend = math.fsum(k * p for k, p in zip(counts, powers))
        if abs(spend - cap) <= 1e-9 * cap:
            raise ValueError(f"counts {counts} spend {spend!r}, a tie with the cap {cap!r}")
        if spend > cap:
            terms.append(math.exp(
                head + math.fsum(k * lq - math.lgamma(k + 1) for k, lq in zip(counts, log_q))))
    return math.fsum(terms)


def per_block_violations(probs, powers, blocks, cap, trials, seed, stream=1) -> int:
    """Violation count of the original per-block controller sampler.

    Trial t has its own Philox generator, key (stream, seed) and counter
    t * 2^192. It draws one uniform per block, maps each to a state by the
    cumulative probabilities, and counts a violation when the states'
    powers sum to more than cap.
    """
    cum = np.cumsum(np.asarray(probs, dtype=float))
    cum[-1] = 1.0
    powers = np.asarray(powers, dtype=float)
    key = (stream << 64) | (seed & ((1 << 64) - 1))
    violations = 0
    for trial in range(trials):
        rng = np.random.Generator(np.random.Philox(key=key, counter=trial << 192))
        states = np.searchsorted(cum, rng.random(blocks), side="right")
        violations += float(powers[states].sum()) > cap
    return violations


def per_trial_density_totals(fixed, lin, quad, probs, noise_var, n_c, blocks, trials, seed,
                             stream=11) -> np.ndarray:
    """Log-likelihood totals of the original per-trial density sampler.

    Trial t has its own Philox generator, key (stream, seed) and counter
    t * 2^192. It draws one uniform per block and maps each to a state by
    searchsorted on the cumulative probabilities, then draws the blocks'
    noise as normal(0, sqrt(noise_var)) of shape (blocks, n_c). Its total
    is the sum of fixed + lin*sum(z) - quad*sum(z^2) over the blocks, with
    the coefficients of each block's state.
    """
    cum = np.cumsum(np.asarray(probs, dtype=float))
    cum[-1] = 1.0
    fixed, lin, quad = (np.asarray(a, dtype=float) for a in (fixed, lin, quad))
    key = (stream << 64) | (seed & ((1 << 64) - 1))
    noise_std = math.sqrt(noise_var)
    totals = np.empty(trials)
    for trial in range(trials):
        rng = np.random.Generator(np.random.Philox(key=key, counter=trial << 192))
        states = np.searchsorted(cum, rng.random(blocks), side="right")
        noise = rng.normal(0.0, noise_std, size=(blocks, n_c))
        lin_part = noise.sum(axis=1)
        quad_part = np.einsum("ij,ij->i", noise, noise)
        increments = fixed[states] + lin[states] * lin_part - quad[states] * quad_part
        totals[trial] = float(increments.sum())
    return totals


def sufficient_statistic_density_totals(fixed, lin, quad, probs, noise_var, n_c, blocks,
                                        trials, seed, stream=11) -> np.ndarray:
    """Log-likelihood totals of the sufficient-statistic density sampler.

    Trial t has its own Philox generator, key (stream, seed) and counter
    t * 2^192. It draws the state counts k ~ Multinomial(blocks, probs),
    then one standard normal per state, then one standard gamma of shape
    max(m - 1, 0)/2 per state, m = k*n_c, each state one scalar call in
    turn. State i's noise sums are S = z*sqrt(m*noise_var) and
    Q = S^2/max(m, 1) + 2*noise_var*g, and the trial's total is the sum of
    k*fixed + lin*S - quad*Q over the states.
    """
    key = (stream << 64) | (seed & ((1 << 64) - 1))
    totals = np.empty(trials)
    for trial in range(trials):
        rng = np.random.Generator(np.random.Philox(key=key, counter=trial << 192))
        counts = [int(k) for k in rng.multinomial(blocks, probs)]
        uses = [k * n_c for k in counts]
        sums = [rng.standard_normal() * math.sqrt(m * noise_var) for m in uses]
        squares = [s * s / max(m, 1) + 2.0 * noise_var * rng.standard_gamma(max(m - 1, 0) / 2.0)
                   for s, m in zip(sums, uses)]
        terms = [k * f + l * s - q_ * q
                 for k, f, l, q_, s, q in zip(counts, fixed, lin, quad, sums, squares)]
        totals[trial] = float(np.sum(np.array(terms)))
    return totals


def binomial_acceptance_region(trials, p, false_alarm) -> tuple[int, int]:
    """Counts [lo, hi] a Binomial(trials, p) draw leaves with chance <= false_alarm.

    lo is the largest count with P(X < lo) <= false_alarm / 2 and hi the
    smallest with P(X > hi) <= false_alarm / 2. The pmf (lgamma form) is
    taken on mean +- (12 sd + 12), outside which the mass is negligible
    next to any false-alarm rate above 1e-20, and each tail is summed
    from its own end.
    """
    mean = trials * p
    reach = 12.0 * math.sqrt(trials * p * (1.0 - p)) + 12.0
    a, b = max(0, math.floor(mean - reach)), min(trials, math.ceil(mean + reach))
    log_p, log_q = math.log(p), math.log1p(-p)
    head = math.lgamma(trials + 1)
    pmf = [math.exp(head - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
                    + k * log_p + (trials - k) * log_q) for k in range(a, b + 1)]
    below = [0.0, *accumulate(pmf)]  # below[i] = P(a <= X < a + i)
    above = [0.0, *accumulate(reversed(pmf))]  # above[i] = P(X > b - i)
    lo = a + max(i for i in range(len(pmf)) if below[i] <= false_alarm / 2.0)
    hi = b - max(i for i in range(len(pmf)) if above[i] <= false_alarm / 2.0)
    return lo, hi


# Hand-solved two-state benchmark: gains {1, 2}, probs {1/2, 1/2},
# noise 1, budget 1. Both states active, so the level solves
# level - (1 + 1/4)/2 = 1.
TWO_STATE = {
    "gains": (1.0, 2.0),
    "probs": (0.5, 0.5),
    "noise_var": 1.0,
    "budget": 1.0,
    "level": 1.625,
    "powers": (0.625, 1.375),
    "capacity": 0.25 * math.log(1.625) + 0.25 * math.log(6.5),
}
