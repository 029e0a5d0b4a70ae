"""Correctness checks for each command's output, independent of the library.

Expected values come from ``tests/oracles.py`` (closed-form water level,
fsum moments) and ``statistics.NormalDist``; nothing here calls into
``blockfade``. The caller puts ``tests/`` on ``sys.path``.

Tolerances:

- Deterministic values. The solver documents a budget residual of at most
  ``RESIDUAL_REL * max(1, budget)``, which moves the water level by at most
  that residual divided by the probability of the active states. Every
  expected value is evaluated at the closed-form level and at the level
  moved that far either way; the larger change, plus ``ROUNDING_REL`` times
  the magnitude of the value's largest term, is its tolerance.
- Sampled ``verify`` fields. Acceptance regions come from each field's own
  sampling distribution at the configured trial count, with a family-wise
  false-alarm rate of ``VERIFY_FALSE_ALARM`` per command, split evenly
  (Bonferroni) over the four fields.
"""

import json
import math
import xml.etree.ElementTree as ET
from statistics import NormalDist

import oracles
from workloads import (ALLOWED_EXIT, BLOCKLENGTH_SWEEP, POWER_SWEEP, PRESET, SWEEP_DEFAULTS,
                       TWO_STATE, VERIFY_DEFAULTS)

RESIDUAL_REL = 1e-9
ROUNDING_REL = 1e-12
VERIFY_FALSE_ALARM = 1e-4
SVG_PIXEL_TOL = 0.02   # coordinates are printed to 0.01 px

CSV_COLUMNS = ("n", "B", "n_c", "power_linear", "epsilon", "capacity",
               "rate_lb_st", "rate_lb_lt", "rate_ub_st", "rate_ub_lt", "rate_nocsit",
               "log_m_lb_st", "log_m_lb_lt", "log_m_ub_st", "log_m_ub_lt")
_INT_COLUMNS = ("n", "B", "n_c")
_CHART_SERIES = ("capacity", "rate_lb_st", "rate_lb_lt", "rate_ub_st", "rate_ub_lt",
                 "rate_nocsit")
_STD = NormalDist()
_BERRY_ESSEEN = 0.4748  # Shevtsova (2011), i.i.d. summands


def preset_channel() -> tuple[list[float], list[float]]:
    """README's preset: ten gains on [0.1, 4.1], unit Rayleigh mass per cell."""
    step = (4.1 - 0.1) / 9
    gains = [0.1 + i * step for i in range(10)]
    gains[-1] = 4.1
    tail = [math.exp(-0.5 * g * g) for g in gains]
    probs = [1.0 - tail[1]] + [tail[i] - tail[i + 1] for i in range(1, 9)] + [tail[9]]
    return gains, probs


def blocklength_grid(b_min: int, b_max: int, points: int) -> list[int]:
    """Log-spaced block counts with pinned endpoints."""
    grid = [max(1, round(b_min * (b_max / b_min) ** (i / (points - 1)))) for i in range(points)]
    grid[0], grid[-1] = b_min, b_max
    return grid


class Channel:
    """Closed-form quantities of one channel at one budget, at any water level."""

    def __init__(self, gains, probs, noise_var: float, n_c: int, budget: float):
        self.gains, self.probs = list(gains), list(probs)
        self.noise_var, self.n_c, self.budget = noise_var, n_c, budget
        self.level = oracles.closed_form_water_level(self.gains, self.probs, noise_var, budget)
        floors = [noise_var / (g * g) for g in self.gains]
        active = math.fsum(q for q, f in zip(self.probs, floors) if self.level > f)
        self.level_shift = RESIDUAL_REL * max(1.0, budget) / active
        const = oracles.oracle_channel_quantities(self.gains, self.probs, noise_var, n_c, budget)
        self.nocsit_capacity, self.nocsit_v = const["nocsit_capacity"], const["nocsit_v"]

    def levels(self) -> tuple[float, float, float]:
        return self.level, self.level - self.level_shift, self.level + self.level_shift

    def powers(self, level: float) -> list[float]:
        return [max(0.0, level - self.noise_var / (g * g)) for g in self.gains]

    def at_level(self, level: float) -> dict:
        s2 = self.noise_var
        powers = self.powers(level)
        g2 = [g * g * p for g, p in zip(self.gains, powers)]
        cap, var_c = oracles.fsum_mean_var([oracles.oracle_link_c(x, s2) for x in g2], self.probs)
        mean_v, _ = oracles.fsum_mean_var([oracles.oracle_link_v(x, s2) for x in g2], self.probs)
        disp = oracles.oracle_dispersions_for_alloc(self.gains, self.probs, s2, self.n_c,
                                                    powers, level, self.budget)
        return {"level": level, "capacity": cap, "var": mean_v + self.n_c * var_c, **disp}


def _with_tolerance(evaluate, channel: Channel) -> tuple[dict, dict]:
    """Values at the closed-form level, tolerances from the shifted levels.

    ``evaluate(quantities)`` returns ``{name: (value, magnitude)}``, where
    magnitude is the size of the value's largest term.
    """
    centre, *shifted = (evaluate(channel.at_level(level)) for level in channel.levels())
    values = {k: v for k, (v, _) in centre.items()}
    tols = {k: max(abs(s[k][0] - v) for s in shifted) + ROUNDING_REL * mag
            for k, (v, mag) in centre.items()}
    return values, tols


def expected_row(channel: Channel, blocks: int, epsilon: float, beta: float) -> tuple[dict, dict]:
    """One CSV row's values and tolerances, from the bound formulas."""
    n_c = channel.n_c
    n = blocks * n_c
    z = _STD.inv_cdf(epsilon)
    log_n = math.log(n)
    backoff = float(n) ** ((1.0 - beta) / 2.0)
    states = len(channel.gains)

    def evaluate(q):
        lb_lt = n * q["capacity"] + math.sqrt(n * q["v_bf"]) * z + 0.5 * log_n - backoff
        lb_st = lb_lt - math.sqrt(n / 2.0)
        ub_st = n * q["capacity"] + math.sqrt(n * q["v_bf_prime"]) * z + 0.5 * states * log_n
        ub_lt = ub_st + math.sqrt(n) / (2.0 * q["level"])
        nocsit = (n * channel.nocsit_capacity + math.sqrt(n * channel.nocsit_v) * z
                  + 0.5 * log_n - backoff)
        mag = (n * max(q["capacity"], channel.nocsit_capacity)
               + abs(z) * math.sqrt(n * max(q["v_bf"], q["v_bf_prime"], channel.nocsit_v))
               + 0.5 * states * log_n + backoff + math.sqrt(n) * (1.0 + 0.5 / q["level"]))
        out = {"capacity": (q["capacity"], q["capacity"])}
        for name, log_m in (("lb_st", lb_st), ("lb_lt", lb_lt), ("ub_st", ub_st),
                            ("ub_lt", ub_lt)):
            out["log_m_" + name] = (log_m, mag)
            out["rate_" + name] = (log_m / n, mag / n)
        out["rate_nocsit"] = (nocsit / n, mag / n)
        return out

    values, tols = _with_tolerance(evaluate, channel)
    values.update(n=n, B=blocks, n_c=n_c, power_linear=channel.budget, epsilon=epsilon)
    tols.update(power_linear=4 * math.ulp(channel.budget), epsilon=0.0)
    return values, tols


def check_csv(path: str, rows: list[tuple[dict, dict]]) -> str | None:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    if not text.endswith("\n"):
        return "CSV does not end with a newline"
    lines = text[:-1].split("\n")
    if tuple(lines[0].split(",")) != CSV_COLUMNS:
        return f"CSV header {lines[0]!r}"
    if len(lines) - 1 != len(rows):
        return f"CSV has {len(lines) - 1} rows, expected {len(rows)}"
    for i, (line, (values, tols)) in enumerate(zip(lines[1:], rows)):
        fields = line.split(",")
        if len(fields) != len(CSV_COLUMNS):
            return f"CSV row {i} has {len(fields)} fields"
        for col, field in zip(CSV_COLUMNS, fields):
            if col in _INT_COLUMNS:
                if field != str(values[col]):
                    return f"CSV row {i} {col} = {field}, expected {values[col]}"
            elif not abs(float(field) - values[col]) <= tols[col]:
                return (f"CSV row {i} {col} = {field}, expected {values[col]!r} "
                        f"within {tols[col]:.3g}")
    return None


def _affine_fit(pairs: list[tuple[float, float]]):
    """Map from data to pixels fixed by the two extreme data values."""
    lo = min(pairs)
    hi = max(pairs)
    slope = (hi[1] - lo[1]) / (hi[0] - lo[0])
    return lambda v: lo[1] + slope * (v - lo[0])


def check_svg(path: str, rows: list[tuple[dict, dict]], log_x: bool) -> str | None:
    """Six polylines, one per rate series clamped at zero, on common axes."""
    root = ET.parse(path).getroot()
    lines = [el for el in root.iter() if el.tag.endswith("polyline")]
    if len(lines) != len(_CHART_SERIES):
        return f"SVG has {len(lines)} curves, expected {len(_CHART_SERIES)}"
    curves = [[tuple(map(float, p.split(","))) for p in el.get("points").split()] for el in lines]
    xs = [math.log10(v["n"]) if log_x else 10.0 * math.log10(v["power_linear"]) for v, _ in rows]
    series = {k: [max(0.0, v[k]) for v, _ in rows] for k in _CHART_SERIES}
    if any(len(c) != len(rows) for c in curves):
        return "SVG curve length differs from the CSV row count"
    to_px = _affine_fit([(x, px) for c in curves for x, (px, _) in zip(xs, c)])
    to_py = _affine_fit([(y, py) for c, k in zip(curves, _CHART_SERIES)
                         for y, (_, py) in zip(series[k], c)])
    unmatched = set(_CHART_SERIES)
    for curve in curves:
        if any(abs(px - to_px(x)) > SVG_PIXEL_TOL for x, (px, _) in zip(xs, curve)):
            return "SVG x coordinates do not follow the sweep axis"
        match = next((k for k in sorted(unmatched)
                      if all(abs(py - to_py(y)) <= SVG_PIXEL_TOL
                             for y, (_, py) in zip(series[k], curve))), None)
        if match is None:
            return "SVG curve matches no expected rate series"
        unmatched.discard(match)
    return None


def _binomial_upper_limit(trials: int, p: float, alpha: float) -> int:
    """Smallest k with P(Binomial(trials, p) > k) <= alpha."""
    if p <= 0.0:
        return 0
    log_p, log_q = math.log(p), math.log1p(-p)
    head = 0.0
    for k in range(trials + 1):
        head += math.exp(math.lgamma(trials + 1) - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
                         + k * log_p + (trials - k) * log_q)
        if 1.0 - head <= alpha:
            return k
    return trials


def violation_probability(channel: Channel, budget_backed: float, blocks: int) -> float:
    """Exact chance that the backed-off controller overspends, two states.

    The spend is k*P_strong + (blocks-k)*P_weak with k ~ Binomial(blocks,
    q_strong); totals within 1e-9 of the cap count as violations.
    """
    if len(channel.gains) != 2:
        raise ValueError("the exact violation probability is implemented for two states")
    level = oracles.closed_form_water_level(channel.gains, channel.probs, channel.noise_var,
                                            budget_backed)
    weak, strong = channel.powers(level)
    cap = blocks * channel.budget
    q = channel.probs[1]
    return math.fsum(
        math.exp(math.lgamma(blocks + 1) - math.lgamma(k + 1) - math.lgamma(blocks - k + 1)
                 + k * math.log(q) + (blocks - k) * math.log1p(-q))
        for k in range(blocks + 1) if k * strong + (blocks - k) * weak > cap * (1.0 - 1e-9))


def block_cumulants(channel: Channel) -> tuple[float, float, float]:
    """Central moments 2-4 of one block's log-likelihood increment.

    Given gain g, power P and x = g^2 P, one channel use with noise z
    contributes C(x) + x/(2(s2+x)) + g sqrt(P) z/(s2+x) - x z^2/(2 s2 (s2+x)),
    i.e. a + alpha*u + beta*u^2 with u standard normal, whose cumulants are
    kappa_r = 2^(r-1) (r-1)! (beta^r + r alpha^2 beta^(r-2) / 4), r >= 2.
    A block adds n_c such uses; the state is a mixture over the fading law.
    """
    s2, n_c = channel.noise_var, channel.n_c
    states = []
    for g, p in zip(channel.gains, channel.powers(channel.level)):
        x = g * g * p
        a = oracles.oracle_link_c(x, s2) + x / (2.0 * (s2 + x))
        alpha = g * math.sqrt(p) * math.sqrt(s2) / (s2 + x)
        beta = -x / (2.0 * (s2 + x))
        states.append((n_c * (a + beta),
                       n_c * (alpha ** 2 + 2 * beta ** 2),
                       n_c * (6 * alpha ** 2 * beta + 8 * beta ** 3),
                       n_c * (48 * alpha ** 2 * beta ** 2 + 48 * beta ** 4)))
    mean = math.fsum(q * k1 for q, (k1, _, _, _) in zip(channel.probs, states))
    m2, m3, m4 = [], [], []
    for q, (k1, k2, k3, k4) in zip(channel.probs, states):
        d = k1 - mean
        m2.append(q * (k2 + d * d))
        m3.append(q * (k3 + 3 * k2 * d + d ** 3))
        m4.append(q * (k4 + 4 * k3 * d + 3 * k2 * k2 + 6 * k2 * d * d + d ** 4))
    return math.fsum(m2), math.fsum(m3), math.fsum(m4)


def verify_expectations(trials_controller: int, trials_density: int) -> dict:
    """Expected report values, tolerances and sampling acceptance regions."""
    d = VERIFY_DEFAULTS
    channel = Channel(d["channel"]["gains"], d["channel"]["probs"], d["noise_var"], d["n_c"],
                      d["budget"])
    blocks_c, blocks_d = d["controller"]["blocks"], d["density"]["blocks"]
    back = math.sqrt(2.0 / blocks_c ** (1.0 - d["alpha"]))

    def evaluate(q):
        delta = q["level"] * back
        lam = oracles.closed_form_water_level(channel.gains, channel.probs, channel.noise_var,
                                              channel.budget - delta)
        hoeffding = math.exp(-blocks_c * delta * delta / (2.0 * q["level"] * q["level"]))
        return {"analytic_mean": (q["capacity"], q["capacity"]),
                "analytic_var": (q["var"], q["var"]),
                "delta_b": (delta, delta), "lambda_b": (lam, lam),
                "hoeffding_bound": (hoeffding, hoeffding)}

    values, tols = _with_tolerance(evaluate, channel)
    # lambda_b is itself a solve, at the backed-off budget.
    tols["lambda_b"] += RESIDUAL_REL * max(1.0, channel.budget - values["delta_b"]) / min(channel.probs)

    alpha_each = VERIFY_FALSE_ALARM / 4
    z = _STD.inv_cdf(1.0 - alpha_each / 2)
    n = blocks_d * channel.n_c
    c2, c3, c4 = block_cumulants(channel)
    excess = (c4 - 3.0 * c2 * c2) / (blocks_d * c2 * c2)     # kurtosis of a total, minus 3
    dof = 2.0 / (2.0 / (trials_density - 1) + excess / trials_density)
    h = 2.0 / (9.0 * dof)                                     # Wilson-Hilferty
    p_violation = violation_probability(channel, channel.budget - values["delta_b"], blocks_c)
    return {
        "values": values,
        "tols": tols,
        "mean_halfwidth": z * math.sqrt(values["analytic_var"] / (trials_density * n)),
        "var_ratio": ((1.0 - h - z * math.sqrt(h)) ** 3, (1.0 - h + z * math.sqrt(h)) ** 3),
        # DKW (Massart) for the sample, Berry-Esseen with E|W|^3 <= E[W^4]^(3/4) for normality.
        "ks_limit": (math.sqrt(math.log(2.0 / alpha_each) / (2.0 * trials_density))
                     + _BERRY_ESSEEN * c4 ** 0.75 / (c2 ** 1.5 * math.sqrt(blocks_d))),
        "p_violation": p_violation,
        "max_violations": _binomial_upper_limit(trials_controller, p_violation, alpha_each),
    }


class Checker:
    """Checks one command's exit code and outputs; caches expectations by input."""

    def __init__(self):
        self._rows = {}
        self._verify = {}

    def check(self, cmd, rc) -> str | None:
        """None when the command's result is correct, else what is wrong."""
        if rc not in ALLOWED_EXIT[cmd.kind]:
            return f"exit code {rc}"
        if cmd.kind == "verify":
            return self._check_verify(cmd, rc)
        rows = self._expected_rows(cmd)
        problem = check_csv(cmd.out, rows)
        if problem is None and cmd.svg:
            problem = check_svg(cmd.svg, rows, log_x=cmd.kind == "rate-vs-blocklength")
        return problem

    def _expected_rows(self, cmd):
        key = (cmd.kind, cmd.channel, cmd.power_db, cmd.epsilon)
        if key not in self._rows:
            s = SWEEP_DEFAULTS
            gains, probs = (preset_channel() if cmd.channel == PRESET
                            else (TWO_STATE["gains"], TWO_STATE["probs"]))
            if cmd.kind == "rate-vs-blocklength":
                channel = Channel(gains, probs, s["noise_var"], s["n_c"], 10.0 ** (cmd.power_db / 10.0))
                grid = blocklength_grid(**BLOCKLENGTH_SWEEP)
                rows = [expected_row(channel, b, cmd.epsilon, s["beta"]) for b in grid]
            else:
                p = POWER_SWEEP
                dbs = [p["p_min_db"] + (p["p_max_db"] - p["p_min_db"]) * i / (p["points"] - 1)
                       for i in range(p["points"])]
                rows = [expected_row(Channel(gains, probs, s["noise_var"], s["n_c"], 10.0 ** (db / 10.0)),
                                     p["blocks"], cmd.epsilon, s["beta"]) for db in dbs]
            self._rows[key] = rows
        return self._rows[key]

    def _check_verify(self, cmd, rc) -> str | None:
        with open(cmd.out, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        d = VERIFY_DEFAULTS
        trials_c = cmd.trials or d["controller"]["trials"]
        trials_d = cmd.trials or d["density"]["trials"]
        ctrl, dens = report["controller"], report["density"]
        echoed = {"seed": (report["seed"], cmd.mc_seed), "channel": (report["channel"], d["channel"]),
                  "n_c": (report["n_c"], d["n_c"]), "noise_var": (report["noise_var"], d["noise_var"]),
                  "budget_linear": (report["budget_linear"], d["budget"]),
                  "alpha": (report["alpha"], d["alpha"]),
                  "controller.blocks": (ctrl["blocks"], d["controller"]["blocks"]),
                  "controller.trials": (ctrl["trials"], trials_c),
                  "density.blocks": (dens["blocks"], d["density"]["blocks"]),
                  "density.trials": (dens["trials"], trials_d)}
        for name, (got, want) in echoed.items():
            if got != want:
                return f"report {name} = {got!r}, expected {want!r}"
        if (rc == 0) != (report["pass"] is True):
            return f"exit code {rc} disagrees with report pass = {report['pass']!r}"

        key = (trials_c, trials_d)
        if key not in self._verify:
            self._verify[key] = verify_expectations(trials_c, trials_d)
        exp = self._verify[key]
        fields = {"analytic_mean": dens, "analytic_var": dens, "delta_b": ctrl,
                  "lambda_b": ctrl, "hoeffding_bound": ctrl}
        for name, section in fields.items():
            if not abs(section[name] - exp["values"][name]) <= exp["tols"][name]:
                return (f"report {name} = {section[name]!r}, expected {exp['values'][name]!r} "
                        f"within {exp['tols'][name]:.3g}")

        violations = ctrl["empirical_prob"] * trials_c
        if abs(violations - round(violations)) > 1e-6 * trials_c:
            return f"controller empirical_prob {ctrl['empirical_prob']!r} is not a count / trials"
        if round(violations) > exp["max_violations"]:
            return (f"{round(violations)} controller violations, at most {exp['max_violations']} "
                    f"expected at p = {exp['p_violation']:.3g}")
        mean_err = dens["empirical_mean_per_use"] - exp["values"]["analytic_mean"]
        if not abs(mean_err) <= exp["mean_halfwidth"]:
            return f"density mean off by {mean_err:.3g}, limit {exp['mean_halfwidth']:.3g}"
        lo, hi = exp["var_ratio"]
        ratio = dens["empirical_var_per_use"] / exp["values"]["analytic_var"]
        if not lo <= ratio <= hi:
            return f"density variance ratio {ratio:.5f} outside [{lo:.5f}, {hi:.5f}]"
        if not 0.0 <= dens["ks_distance"] <= exp["ks_limit"]:
            return f"KS distance {dens['ks_distance']:.4g} above {exp['ks_limit']:.4g}"
        return None
