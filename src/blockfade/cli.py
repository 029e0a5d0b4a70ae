"""Command-line front end.

Three subcommands: ``rate-vs-blocklength`` and ``rate-vs-power`` sweep
the closed-form bounds into a CSV (plus an optional SVG chart), and
``verify`` runs the Monte Carlo checks and emits a JSON report.

Configuration comes from a single JSON file; command-line flags override
individual fields. Outputs are a pure function of the resolved
configuration, so repeated runs are byte-identical.

Exit codes: 0 success, 1 configuration error, 3 verification failure;
2 is reserved and unused.
"""

import argparse
import functools
import json
import math
import sys

from .bounds import bound_point, dispersion_stats, sweep_dispersion_stats
from .errors import DomainError, InvalidParameterError
from .fading import ChannelSpec, FadingDistribution, discretize_rayleigh
from .montecarlo import (SimConfig, check_density_config, simulate_information_density,
                         simulate_st_controller)
from .svg import render_line_chart

__all__ = ["main", "PRESET_NAME", "preset_fading"]

PRESET_NAME = "paper-rayleigh"

_CSV_COLUMNS = ("n", "B", "n_c", "power_linear", "epsilon", "capacity",
                "rate_lb_st", "rate_lb_lt", "rate_ub_st", "rate_ub_lt", "rate_nocsit",
                "log_m_lb_st", "log_m_lb_lt", "log_m_ub_st", "log_m_ub_lt")

_ALLOWED_KEYS = {"channel", "noise_var", "n_c", "power_db", "power_linear",
                 "epsilon", "beta", "blocklength_sweep", "power_sweep", "mc",
                 "out", "svg"}
_ALLOWED_BLOCK_SWEEP = {"b_min", "b_max", "points", "log_spaced"}
_ALLOWED_POWER_SWEEP = {"p_min_db", "p_max_db", "points", "blocks"}
_ALLOWED_MC = {"seed", "alpha", "controller", "density"}
_ALLOWED_MC_SIM = {"blocks", "trials"}

_KS_THRESHOLD = 0.02
_VAR_REL_TOLERANCE = 0.02


def _sweep_defaults(axis: str) -> dict:
    cfg = {
        "channel": PRESET_NAME,
        "noise_var": 1.0,
        "n_c": 1,
        "power_db": 5.0,
        "epsilon": 0.01,
        "beta": 0.01,
    }
    if axis == "blocklength":
        cfg["blocklength_sweep"] = {"b_min": 100, "b_max": 10000, "points": 40,
                                    "log_spaced": True}
    else:
        cfg["power_sweep"] = {"p_min_db": 0.0, "p_max_db": 20.0, "points": 41,
                              "blocks": 4000}
    return cfg


def _verify_defaults() -> dict:
    return {
        "channel": {"gains": [1.0, 2.0], "probs": [0.5, 0.5]},
        "noise_var": 1.0,
        "n_c": 1,
        "power_linear": 1.0,
        "mc": {
            "seed": 42,
            "alpha": 0.1,
            "controller": {"blocks": 1000, "trials": 100000},
            "density": {"blocks": 10000, "trials": 10000},
        },
    }


def preset_fading() -> FadingDistribution:
    """The built-in 10-state quantized Rayleigh profile."""
    return discretize_rayleigh(0.1, 4.1, 10, 1.0)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route that through the
    # config-error path instead (2 is reserved).
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on the first command and reused: parsing leaves it unchanged.
    parser = _Parser(prog="blockfade",
                     description="Finite-blocklength rate bounds for block-fading channels")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--channel",
                       help=f'"{PRESET_NAME}", inline JSON, or a path to a fading profile')
        p.add_argument("--power-db", type=float, dest="power_db",
                       help="average power budget in dB (10^(dB/10) linear)")
        p.add_argument("--nc", type=int, dest="n_c", help="channel uses per fading block")
        p.add_argument("--out", help="output file path")

    for name, desc in (("rate-vs-blocklength", "sweep the bounds over the codeword length"),
                       ("rate-vs-power", "sweep the bounds over the power budget")):
        p = sub.add_parser(name, help=desc, description=desc)
        add_common(p)
        p.add_argument("--epsilon", type=float, help="target error probability, in (0, 1/2)")
        p.add_argument("--beta", type=float, help="lower-bound correction exponent, in (0, 1)")
        p.add_argument("--points", type=int, help="number of sweep points")
        p.add_argument("--svg", help="also render the curves to this SVG file")

    p = sub.add_parser("verify", help="run the Monte Carlo verification suite",
                       description="run the Monte Carlo verification suite")
    add_common(p)
    p.add_argument("--seed", type=int, help="base seed for the simulations' counter-based substreams")
    p.add_argument("--trials", type=int, help="trial count for both simulations")
    p.add_argument("--alpha", type=float, help="back-off exponent, in (0, 1)")

    return parser


def _deep_merge(base: dict, override: dict) -> dict:
    merged = dict(base)
    for key, value in override.items():
        if key in merged and isinstance(merged[key], dict) and isinstance(value, dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def _check_keys(mapping: dict, allowed: set, where: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise InvalidParameterError(f"invalid config field {key!r} in {where}")


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise InvalidParameterError("config file must contain a JSON object")
    _check_keys(data, _ALLOWED_KEYS, "config")
    for key, allowed in (("blocklength_sweep", _ALLOWED_BLOCK_SWEEP),
                         ("power_sweep", _ALLOWED_POWER_SWEEP),
                         ("mc", _ALLOWED_MC)):
        if key in data:
            if not isinstance(data[key], dict):
                raise InvalidParameterError(f"invalid config field {key!r}: must be an object")
            _check_keys(data[key], allowed, key)
    if "mc" in data:
        for sim in ("controller", "density"):
            if sim in data["mc"]:
                if not isinstance(data["mc"][sim], dict):
                    raise InvalidParameterError(f"invalid config field {sim!r}: must be an object")
                _check_keys(data["mc"][sim], _ALLOWED_MC_SIM, f"mc.{sim}")
    return data


def _resolve_config(args, defaults: dict) -> dict:
    user = _load_config_file(args.config) if args.config else {}

    # A user-supplied budget form replaces the default one entirely.
    if "power_db" in user or "power_linear" in user or getattr(args, "power_db", None) is not None:
        defaults = {k: v for k, v in defaults.items() if k not in ("power_db", "power_linear")}
    cfg = _deep_merge(defaults, user)

    if getattr(args, "channel", None) is not None:
        cfg["channel"] = args.channel
    if getattr(args, "power_db", None) is not None:
        cfg.pop("power_linear", None)
        cfg["power_db"] = args.power_db
    for flag in ("n_c", "epsilon", "beta", "out", "svg"):
        value = getattr(args, flag, None)
        if value is not None:
            cfg[flag] = value
    if getattr(args, "points", None) is not None:
        for axis in ("blocklength_sweep", "power_sweep"):
            if axis in cfg:
                cfg[axis]["points"] = args.points
    mc = cfg.get("mc")
    if mc is not None:
        if getattr(args, "seed", None) is not None:
            mc["seed"] = args.seed
        if getattr(args, "alpha", None) is not None:
            mc["alpha"] = args.alpha
        if getattr(args, "trials", None) is not None:
            mc["controller"]["trials"] = args.trials
            mc["density"]["trials"] = args.trials

    if "power_db" in cfg and "power_linear" in cfg:
        raise InvalidParameterError(
            "invalid config: exactly one of power_db and power_linear may be set")
    if "blocklength_sweep" in cfg and "power_sweep" in cfg:
        raise InvalidParameterError(
            "invalid config: exactly one sweep axis may be set "
            "(found blocklength_sweep and power_sweep)")
    return cfg


def _resolve_channel(value) -> FadingDistribution:
    if isinstance(value, dict):
        return FadingDistribution.from_json_dict(value)
    if isinstance(value, str):
        if value == PRESET_NAME:
            return preset_fading()
        text = value.strip()
        if text.startswith("{"):
            return FadingDistribution.from_json_dict(json.loads(text))
        with open(value, "r", encoding="utf-8") as fh:
            return FadingDistribution.from_json_dict(json.load(fh))
    raise InvalidParameterError(
        f'invalid config field "channel": expected "{PRESET_NAME}", an object or a path, '
        f"got {value!r}")


def _resolve_budget(cfg: dict) -> float:
    if "power_db" in cfg:
        db = float(cfg["power_db"])
        return 10.0 ** (db / 10.0)
    if "power_linear" in cfg:
        return float(cfg["power_linear"])
    raise InvalidParameterError(
        'invalid config: one of "power_db" or "power_linear" is required')


def _require_int(cfg: dict, where: str, key: str, minimum: int) -> int:
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParameterError(f"invalid config field {key!r} in {where}: must be an integer")
    if value < minimum:
        raise InvalidParameterError(f"invalid config field {key!r} in {where}: must be >= {minimum}")
    return value


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.17g}"


def _write_csv(path: str, rows: list[dict]) -> None:
    lines = [",".join(_CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row[col]) for col in _CSV_COLUMNS))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _row(bp, power_linear: float, n_c: int, cap: float) -> dict:
    return {
        "n": bp.n, "B": bp.blocks, "n_c": n_c,
        "power_linear": power_linear, "epsilon": bp.epsilon, "capacity": cap,
        "rate_lb_st": bp.rate_lb_st, "rate_lb_lt": bp.rate_lb_lt,
        "rate_ub_st": bp.rate_ub_st, "rate_ub_lt": bp.rate_ub_lt,
        "rate_nocsit": bp.rate_nocsit,
        "log_m_lb_st": bp.log_m_lb_st, "log_m_lb_lt": bp.log_m_lb_lt,
        "log_m_ub_st": bp.log_m_ub_st, "log_m_ub_lt": bp.log_m_ub_lt,
    }


def _blocklength_grid(section: dict) -> list[int]:
    b_min = _require_int(section, "blocklength_sweep", "b_min", 1)
    b_max = _require_int(section, "blocklength_sweep", "b_max", 1)
    points = _require_int(section, "blocklength_sweep", "points", 1)
    if b_max < b_min:
        raise InvalidParameterError(
            'invalid config field "b_max" in blocklength_sweep: must be >= b_min')
    log_spaced = bool(section.get("log_spaced", True))
    if points == 1:
        return [b_min]
    grid = []
    for i in range(points):
        frac = i / (points - 1)
        if log_spaced:
            value = math.exp(math.log(b_min) + frac * (math.log(b_max) - math.log(b_min)))
        else:
            value = b_min + frac * (b_max - b_min)
        grid.append(max(1, int(round(value))))
    grid[0], grid[-1] = b_min, b_max  # pin the endpoints against rounding
    return grid


def _power_grid_db(section: dict) -> list[float]:
    points = _require_int(section, "power_sweep", "points", 1)
    p_min = float(section["p_min_db"])
    p_max = float(section["p_max_db"])
    if p_max < p_min:
        raise InvalidParameterError(
            'invalid config field "p_max_db" in power_sweep: must be >= p_min_db')
    if points == 1:
        return [p_min]
    return [p_min + (p_max - p_min) * i / (points - 1) for i in range(points)]


def _clamped_rate_series(rows: list[dict], xs: list[float]):
    labels = (("capacity", "capacity"),
              ("rate_lb_st", "lower bound, per-codeword power cap"),
              ("rate_lb_lt", "lower bound, average power cap"),
              ("rate_ub_st", "upper bound, per-codeword power cap"),
              ("rate_ub_lt", "upper bound, average power cap"),
              ("rate_nocsit", "no transmitter side info"))
    series = []
    for key, label in labels:
        series.append((label, xs, [max(0.0, row[key]) for row in rows]))
    return series


def _emit_outputs(cfg: dict, rows: list[dict], xs: list[float], x_label: str,
                  log_x: bool) -> None:
    out = cfg.get("out")
    if not out:
        raise InvalidParameterError('invalid config: an output path ("out" or --out) is required')
    _write_csv(out, rows)
    svg_path = cfg.get("svg")
    if svg_path:
        chart = render_line_chart(_clamped_rate_series(rows, xs),
                                  x_label=x_label, y_label="rate (nats per channel use)",
                                  log_x=log_x)
        with open(svg_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(chart)


def cmd_rate_vs_blocklength(args) -> int:
    cfg = _resolve_config(args, _sweep_defaults("blocklength"))
    fading = _resolve_channel(cfg["channel"])
    n_c = _require_int(cfg, "config", "n_c", 1)
    spec = ChannelSpec(noise_var=float(cfg["noise_var"]), n_c=n_c, fading=fading)
    budget = _resolve_budget(cfg)
    epsilon = float(cfg["epsilon"])
    beta = float(cfg["beta"])
    section = cfg["blocklength_sweep"]
    grid = _blocklength_grid(section)

    stats = dispersion_stats(spec, budget)
    rows = []
    for blocks in grid:
        bp = bound_point(stats, blocks * n_c, n_c, fading.num_states, epsilon, beta)
        rows.append(_row(bp, budget, n_c, stats.capacity))
    xs = [float(row["n"]) for row in rows]
    _emit_outputs(cfg, rows, xs, "codeword length n", bool(section.get("log_spaced", True)))
    return 0


def cmd_rate_vs_power(args) -> int:
    cfg = _resolve_config(args, _sweep_defaults("power"))
    fading = _resolve_channel(cfg["channel"])
    n_c = _require_int(cfg, "config", "n_c", 1)
    spec = ChannelSpec(noise_var=float(cfg["noise_var"]), n_c=n_c, fading=fading)
    epsilon = float(cfg["epsilon"])
    beta = float(cfg["beta"])
    section = cfg["power_sweep"]
    blocks = _require_int(section, "power_sweep", "blocks", 1)
    grid_db = _power_grid_db(section)

    budgets = [10.0 ** (db / 10.0) for db in grid_db]
    rows = []
    for budget, stats in zip(budgets, sweep_dispersion_stats(spec, budgets)):
        bp = bound_point(stats, blocks * n_c, n_c, fading.num_states, epsilon, beta)
        rows.append(_row(bp, budget, n_c, stats.capacity))
    _emit_outputs(cfg, rows, grid_db, "average power (dB)", False)
    return 0


def cmd_verify(args) -> int:
    cfg = _resolve_config(args, _verify_defaults())
    fading = _resolve_channel(cfg["channel"])
    n_c = _require_int(cfg, "config", "n_c", 1)
    spec = ChannelSpec(noise_var=float(cfg["noise_var"]), n_c=n_c, fading=fading)
    budget = _resolve_budget(cfg)
    mc = cfg["mc"]
    seed = mc.get("seed")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise InvalidParameterError('invalid config field "seed" in mc: must be an integer')
    alpha = float(mc["alpha"])

    # Build and check both configs before either simulation runs.
    controller_cfg = SimConfig(
        spec=spec, budget=budget,
        blocks=_require_int(mc["controller"], "mc.controller", "blocks", 1),
        alpha=alpha,
        trials=_require_int(mc["controller"], "mc.controller", "trials", 1),
        seed=seed)
    density_cfg = SimConfig(
        spec=spec, budget=budget,
        blocks=_require_int(mc["density"], "mc.density", "blocks", 1),
        alpha=alpha,
        trials=_require_int(mc["density"], "mc.density", "trials", 1),
        seed=seed)
    check_density_config(density_cfg)

    violation = simulate_st_controller(controller_cfg)
    p_hat = violation.empirical_prob
    slack = 3.0 * math.sqrt(p_hat * (1.0 - p_hat) / violation.trials)
    controller_threshold = violation.hoeffding_bound + slack
    controller_pass = p_hat <= controller_threshold

    density = simulate_information_density(density_cfg)
    n = density_cfg.blocks * n_c
    mean_tol = 3.0 * math.sqrt(density.analytic_var / (density_cfg.trials * n))
    mean_pass = abs(density.empirical_mean_per_use - density.analytic_mean) <= mean_tol
    var_pass = abs(density.empirical_var_per_use - density.analytic_var) \
        <= _VAR_REL_TOLERANCE * density.analytic_var
    ks_pass = density.ks_distance <= _KS_THRESHOLD

    all_pass = controller_pass and mean_pass and var_pass and ks_pass
    report = {
        "channel": fading.to_json_dict(),
        "noise_var": spec.noise_var,
        "n_c": n_c,
        "budget_linear": budget,
        "seed": seed,
        "alpha": alpha,
        "controller": {
            "blocks": controller_cfg.blocks,
            "trials": violation.trials,
            "empirical_prob": violation.empirical_prob,
            "hoeffding_bound": violation.hoeffding_bound,
            "delta_b": violation.delta_b,
            "lambda_b": violation.lambda_b,
            "binomial_slack": slack,
            "threshold": controller_threshold,
            "pass": controller_pass,
        },
        "density": {
            "blocks": density_cfg.blocks,
            "trials": density_cfg.trials,
            "empirical_mean_per_use": density.empirical_mean_per_use,
            "analytic_mean": density.analytic_mean,
            "mean_tolerance": mean_tol,
            "mean_pass": mean_pass,
            "empirical_var_per_use": density.empirical_var_per_use,
            "analytic_var": density.analytic_var,
            "var_rel_tolerance": _VAR_REL_TOLERANCE,
            "var_pass": var_pass,
            "ks_distance": density.ks_distance,
            "ks_threshold": _KS_THRESHOLD,
            "ks_pass": ks_pass,
            "pass": mean_pass and var_pass and ks_pass,
        },
        "pass": all_pass,
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    out = cfg.get("out")
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all_pass else 3


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "rate-vs-blocklength":
            return cmd_rate_vs_blocklength(args)
        if args.command == "rate-vs-power":
            return cmd_rate_vs_power(args)
        return cmd_verify(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InvalidParameterError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
