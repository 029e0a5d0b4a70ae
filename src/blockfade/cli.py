"""Command-line front end.

Three subcommands: ``rate-vs-blocklength`` and ``rate-vs-power`` sweep
the closed-form bounds into a CSV (plus an optional SVG chart), and
``verify`` runs the Monte Carlo checks and emits a JSON report.

Every config field is one row of ``_FIELDS``. A command reads the
defaults of its rows, then a single JSON file, then command-line flags,
and checks the whole result before any work starts. Outputs are a pure
function of the resolved configuration, so repeated runs are
byte-identical.

Exit codes: 0 success, 1 configuration error, 3 verification failure;
2 is reserved and unused.
"""

import argparse
import functools
import json
import math
import sys
from itertools import chain
from typing import NamedTuple

import numpy as np

from .bounds import bound_columns
from .errors import InvalidParameterError, real, whole
from .fading import _INT_MAX, ChannelSpec, FadingDistribution, discretize_rayleigh
from .montecarlo import (_MIN_DENSITY_TRIALS, SimConfig, simulate_information_density,
                         simulate_st_controller)
from .svg import render_line_chart

__all__ = ["main", "PRESET_NAME", "preset_fading"]

PRESET_NAME = "paper-rayleigh"

_CSV_COLUMNS = ("n", "B", "n_c", "power_linear", "epsilon", "capacity",
                "rate_lb_st", "rate_lb_lt", "rate_ub_st", "rate_ub_lt", "rate_nocsit",
                "log_m_lb_st", "log_m_lb_lt", "log_m_ub_st", "log_m_ub_lt")

_COMMANDS = ("rate-vs-blocklength", "rate-vs-power", "verify")
_REQUIRED = object()  # no default: the file or a flag must set the field
_UNREAD = object()    # the command does not read the field and rejects it


class _Field(NamedTuple):
    """One config field.

    path: dotted path into the JSON config. kind: a key of ``_KINDS``.
    defaults: one entry per command, in ``_COMMANDS`` order: the default,
    None (optional, no default), ``_REQUIRED`` or ``_UNREAD``.
    An "int" must lie in [lo, hi], hi defaulting to ``_INT_MAX``; a
    "number" or "db" must be finite and lie strictly between lo and hi.
    flag: the command-line flag that overrides the field, if any; help:
    what the flag sets (its help text adds the kind and bounds).
    """

    path: str
    kind: str
    defaults: tuple
    lo: float | None = None
    hi: float | None = None
    flag: str | None = None
    help: str | None = None


# Per kind: the JSON value types it accepts (the first also parses its
# flag) and how error messages describe it. Numbers follow errors.real
# and errors.whole, so a bool is never a number.
_KINDS = {
    "int": ((int,), "an integer"),
    "number": ((float, int), "a number"),
    "db": ((float, int), "a number of dB whose 10^(dB/10) is positive and finite"),
    "bool": ((bool,), "true or false"),
    "path": ((str,), "a non-empty string"),
    "channel": ((str, dict), f'"{PRESET_NAME}", a fading profile object, its JSON text or a path'),
}

_FIELDS = (
    # path, kind, defaults for (rate-vs-blocklength, rate-vs-power, verify), bounds, flag
    _Field("channel", "channel",
           (PRESET_NAME, PRESET_NAME, {"gains": [1.0, 2.0], "probs": [0.5, 0.5]}),
           flag="--channel", help="fading law"),
    _Field("noise_var", "number", (1.0, 1.0, 1.0), lo=0.0),
    _Field("n_c", "int", (1, 1, 1), lo=1, flag="--nc", help="channel uses per fading block"),
    _Field("power_db", "db", (5.0, _UNREAD, None), flag="--power-db",
           help="average power budget"),
    _Field("power_linear", "number", (None, _UNREAD, 1.0), lo=0.0),
    _Field("epsilon", "number", (0.01, 0.01, _UNREAD), lo=0.0, hi=0.5, flag="--epsilon",
           help="target error probability"),
    _Field("beta", "number", (0.01, 0.01, _UNREAD), lo=0.0, hi=1.0, flag="--beta",
           help="lower-bound correction exponent"),
    _Field("blocklength_sweep.b_min", "int", (100, _UNREAD, _UNREAD), lo=1),
    _Field("blocklength_sweep.b_max", "int", (10000, _UNREAD, _UNREAD), lo=1),
    _Field("blocklength_sweep.points", "int", (40, _UNREAD, _UNREAD), lo=1, flag="--points",
           help="number of sweep points"),
    _Field("blocklength_sweep.log_spaced", "bool", (True, _UNREAD, _UNREAD)),
    _Field("power_sweep.p_min_db", "db", (_UNREAD, 0.0, _UNREAD)),
    _Field("power_sweep.p_max_db", "db", (_UNREAD, 20.0, _UNREAD)),
    _Field("power_sweep.points", "int", (_UNREAD, 41, _UNREAD), lo=1, flag="--points",
           help="number of sweep points"),
    _Field("power_sweep.blocks", "int", (_UNREAD, 4000, _UNREAD), lo=1),
    _Field("mc.seed", "int", (_UNREAD, _UNREAD, 42), lo=0, hi=2 ** 64 - 1, flag="--seed",
           help="base seed for the simulations' counter-based substreams"),
    _Field("mc.alpha", "number", (_UNREAD, _UNREAD, 0.1), lo=0.0, hi=1.0, flag="--alpha",
           help="back-off exponent"),
    # --trials sets both trial counts; the density row comes first, so the
    # flag's help states its range, which is the stricter of the two
    _Field("mc.density.trials", "int", (_UNREAD, _UNREAD, 10000), lo=_MIN_DENSITY_TRIALS,
           flag="--trials", help="trial count for both simulations"),
    _Field("mc.controller.blocks", "int", (_UNREAD, _UNREAD, 1000), lo=1),
    _Field("mc.controller.trials", "int", (_UNREAD, _UNREAD, 100000), lo=1, flag="--trials"),
    _Field("mc.density.blocks", "int", (_UNREAD, _UNREAD, 10000), lo=1),
    _Field("out", "path", (_REQUIRED, _REQUIRED, None), flag="--out", help="output file path"),
    _Field("svg", "path", (None, None, _UNREAD), flag="--svg",
           help="also render the curves to this SVG file"),
)

# Per command: path -> (field, default) for every field the command reads.
_SCHEMAS = {command: {f.path: (f, f.defaults[i]) for f in _FIELDS if f.defaults[i] is not _UNREAD}
            for i, command in enumerate(_COMMANDS)}

# The two forms of one budget: a source that sets either replaces both.
_BUDGET_FORMS = ("power_db", "power_linear")


def preset_fading() -> FadingDistribution:
    """The built-in 10-state quantized Rayleigh profile."""
    return discretize_rayleigh(0.1, 4.1, 10, 1.0)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route that through the
    # config-error path instead (2 is reserved).
    def error(self, message):
        raise InvalidParameterError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on the first command and reused: parsing leaves it unchanged.
    parser = _Parser(prog="blockfade",
                     description="Finite-blocklength rate bounds for block-fading channels")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, desc in zip(_COMMANDS, ("sweep the bounds over the codeword length",
                                         "sweep the bounds over the power budget",
                                         "run the Monte Carlo verification suite")):
        p = sub.add_parser(command, help=desc, description=desc)
        p.add_argument("--config", help="JSON configuration file")
        declared = set()
        for field, _ in _SCHEMAS[command].values():
            if field.flag and field.flag not in declared:  # --trials sets two fields
                declared.add(field.flag)
                p.add_argument(field.flag, dest=field.flag, metavar=field.kind.upper(),
                               type=_KINDS[field.kind][0][0],
                               help=f"{field.help}: {_rule(field)}")
    return parser


def _read_config(path: str, command: str) -> dict:
    """The file's fields keyed by dotted path; reject any the command does not read."""
    with open(path, "r", encoding="utf-8") as fh:
        data = _parse_json(fh.read(), f"config file {path!r}")
    if not isinstance(data, dict):
        raise InvalidParameterError("config file must contain a JSON object")
    schema = _SCHEMAS[command]
    sections = {name[:i] for name in schema for i, char in enumerate(name) if char == "."}
    flat, todo = {}, [("", data)]
    while todo:
        prefix, obj = todo.pop()
        for key, value in obj.items():
            name = prefix + key
            if "." in key or (name not in schema and name not in sections):
                raise InvalidParameterError(
                    f"invalid config field {name!r}: {command} does not read it")
            if name not in sections:
                flat[name] = value
            elif isinstance(value, dict):
                todo.append((name + ".", value))
            else:
                raise InvalidParameterError(f"invalid config field {name!r}: must be an object")
    return flat


def _db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _rule(field: _Field) -> str:
    """What the field's row asks of a value, in words."""
    rule = _KINDS[field.kind][1]
    if field.kind == "int":
        return f"{rule} in [{field.lo}, {field.hi or _INT_MAX}]"
    if field.lo is None:
        return rule
    if field.hi is None:
        return f"{rule} > {field.lo:g}"
    return f"{rule} in ({field.lo:g}, {field.hi:g})"


def _check(field: _Field, value):
    """The field's value as the commands use it; raise if it breaks the field's row."""
    if value is _REQUIRED:
        raise InvalidParameterError(f"invalid config field {field.path!r}: required "
                                    f"(set it in the file or with {field.flag})")
    kind = field.kind
    try:
        if kind == "int":
            value = whole(field.path, value, field.lo, field.hi or _INT_MAX)
        elif kind in ("number", "db"):
            value = real(field.path, value, -math.inf if field.lo is None else field.lo,
                         math.inf if field.hi is None else field.hi)
            if kind == "db":
                real(field.path, _db_to_linear(value))
        ok = isinstance(value, _KINDS[kind][0]) and (kind != "path" or value != "")
    except (InvalidParameterError, OverflowError):  # OverflowError: 10^(dB/10) past the range
        ok = False
    if not ok:
        raise InvalidParameterError(f"invalid config field {field.path!r}: "
                                    f"must be {_rule(field)}, got {value!r}")
    return value


def _resolve(args) -> dict:
    """The checked config of ``args.command``, keyed by field path.

    Merges the defaults, the ``--config`` file and the flags; rejects any
    field the command does not read; type- and range-checks every field;
    then adds the channel ("spec") and, where the command reads one, the
    linear budget ("budget"). Runs no solver and no simulation.
    """
    schema = _SCHEMAS[args.command]
    flags = vars(args)
    cfg = {name: default for name, (_, default) in schema.items() if default is not None}
    for source in (_read_config(args.config, args.command) if args.config else {},
                   {name: flags[f.flag] for name, (f, _) in schema.items()
                    if flags.get(f.flag) is not None}):
        if any(form in source for form in _BUDGET_FORMS):
            cfg = {name: value for name, value in cfg.items() if name not in _BUDGET_FORMS}
        cfg.update(source)
    cfg = {name: _check(schema[name][0], value) for name, value in cfg.items()}
    if all(form in cfg for form in _BUDGET_FORMS):
        raise InvalidParameterError(
            "invalid config: exactly one of power_db and power_linear may be set")

    cfg["spec"] = ChannelSpec(noise_var=cfg["noise_var"], n_c=cfg["n_c"],
                              fading=_resolve_channel(cfg["channel"]))
    if "power_db" in cfg:
        cfg["budget"] = _db_to_linear(cfg["power_db"])
    elif "power_linear" in cfg:
        cfg["budget"] = cfg["power_linear"]
    return cfg


def _resolve_channel(value) -> FadingDistribution:
    if isinstance(value, dict):
        return FadingDistribution.from_json_dict(value)
    if value == PRESET_NAME:
        return preset_fading()
    text, source = value.strip(), "channel"
    if not text.startswith("{"):
        with open(value, "r", encoding="utf-8") as fh:
            text, source = fh.read(), f"channel file {value!r}"
    return FadingDistribution.from_json_dict(_parse_json(text, source))


def _parse_json(text: str, source: str):
    try:
        return json.loads(text)
    except RecursionError:  # json's decoder recurses once per nesting level
        raise InvalidParameterError(f"{source} is nested too deeply to parse") from None


def _blocklength_grid(cfg: dict) -> list[int]:
    b_min, b_max = cfg["blocklength_sweep.b_min"], cfg["blocklength_sweep.b_max"]
    points, log_spaced = cfg["blocklength_sweep.points"], cfg["blocklength_sweep.log_spaced"]
    if b_max < b_min:
        raise InvalidParameterError(
            "invalid config field 'blocklength_sweep.b_max': must be >= b_min")
    if points == 1:
        return [b_min]
    grid = []
    for i in range(points):
        frac = i / (points - 1)
        if log_spaced:
            value = math.exp(math.log(b_min) + frac * (math.log(b_max) - math.log(b_min)))
        else:
            value = b_min + frac * (b_max - b_min)
        grid.append(int(round(value)))
    grid[0], grid[-1] = b_min, b_max  # pin the endpoints against rounding
    return grid


def _power_grid_db(cfg: dict) -> list[float]:
    points = cfg["power_sweep.points"]
    p_min, p_max = cfg["power_sweep.p_min_db"], cfg["power_sweep.p_max_db"]
    if p_max < p_min:
        raise InvalidParameterError(
            "invalid config field 'power_sweep.p_max_db': must be >= p_min_db")
    if points == 1:
        return [p_min]
    return [p_min + (p_max - p_min) * i / (points - 1) for i in range(points)]


_SERIES = (("capacity", "capacity"),
           ("rate_lb_st", "lower bound, per-codeword power cap"),
           ("rate_lb_lt", "lower bound, average power cap"),
           ("rate_ub_st", "upper bound, per-codeword power cap"),
           ("rate_ub_lt", "upper bound, average power cap"),
           ("rate_nocsit", "no transmitter side info"))


def _clamped_rate_series(columns: dict, xs: list[float]):
    return [(label, xs, np.maximum(columns[key], 0.0).tolist()) for key, label in _SERIES]


def _write_sweep(cfg: dict, budgets: list[float], n: list[int], xs: list[float],
                 x_label: str, log_x: bool) -> None:
    """Write the bounds of every row to the CSV and the optional SVG; see bound_columns."""
    columns = bound_columns(cfg["spec"], budgets, n, cfg["epsilon"], cfg["beta"])
    rows = len(columns["n"])
    columns.update(B=columns["blocks"], n_c=np.full(rows, cfg["n_c"]),
                   power_linear=np.broadcast_to(budgets, rows))
    table = [columns[name] for name in _CSV_COLUMNS]
    # One row template from the column dtypes, applied to the whole table at
    # once: %d prints an int as str does, %.17g a float as format(v, ".17g").
    row = ",".join("%d" if column.dtype.kind in "iu" else "%.17g" for column in table) + "\n"
    values = tuple(chain.from_iterable(zip(*(column.tolist() for column in table))))
    with open(cfg["out"], "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_CSV_COLUMNS) + "\n" + row * rows % values)
    if cfg.get("svg"):
        chart = render_line_chart(_clamped_rate_series(columns, xs), x_label=x_label,
                                  y_label="rate (nats per channel use)", log_x=log_x)
        with open(cfg["svg"], "w", encoding="utf-8", newline="") as fh:
            fh.write(chart)


def cmd_rate_vs_blocklength(cfg: dict) -> int:
    n = [blocks * cfg["n_c"] for blocks in _blocklength_grid(cfg)]
    _write_sweep(cfg, [cfg["budget"]], n, [float(v) for v in n], "codeword length n",
                 cfg["blocklength_sweep.log_spaced"])
    return 0


def cmd_rate_vs_power(cfg: dict) -> int:
    grid_db = _power_grid_db(cfg)
    budgets = [_db_to_linear(db) for db in grid_db]
    _write_sweep(cfg, budgets, [cfg["power_sweep.blocks"] * cfg["n_c"]], grid_db,
                 "average power (dB)", False)
    return 0


def cmd_verify(cfg: dict) -> int:
    spec, budget = cfg["spec"], cfg["budget"]
    seed, alpha = cfg["mc.seed"], cfg["mc.alpha"]

    # Build and check both configs before either simulation runs.
    controller_cfg = SimConfig(spec=spec, budget=budget, blocks=cfg["mc.controller.blocks"],
                               trials=cfg["mc.controller.trials"], seed=seed)
    density_cfg = SimConfig(spec=spec, budget=budget, blocks=cfg["mc.density.blocks"],
                            trials=cfg["mc.density.trials"], seed=seed)

    controller = simulate_st_controller(controller_cfg, alpha=alpha)
    density = simulate_information_density(density_cfg)
    all_pass = controller["pass"] and density["pass"]
    report = {
        "channel": spec.fading.to_json_dict(),
        "noise_var": spec.noise_var,
        "n_c": spec.n_c,
        "budget_linear": budget,
        "seed": seed,
        "alpha": alpha,
        "controller": controller,
        "density": density,
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


_RUN = dict(zip(_COMMANDS, (cmd_rate_vs_blocklength, cmd_rate_vs_power, cmd_verify)))


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _RUN[args.command](_resolve(args))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
