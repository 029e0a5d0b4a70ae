"""One workload process: a closed loop of ``blockfade.cli.main`` calls.

One client issues each command after the previous one returns. Only the
``main(argv)`` call is timed; output checks, clean-up and the calibration
loop run between commands. ``run.py`` starts this script with the BLAS and
OpenMP thread counts pinned to 1 and reads the result file it writes.
"""

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

import numpy as np

from tracing import BOUNDARIES, Tracer
from workloads import VERIFY_DEFAULTS, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CALIBRATION_EVERY_S = 0.25
CALIBRATION_SHARE = 0.05
_CAL_FLOORS = np.linspace(0.1, 4.1, 10)
_CAL_PROBS = np.full(10, 0.1)


def calibrate_ms() -> float:
    """Time a fixed loop, half pure Python and half small NumPy operations.

    The machine this benchmark was tuned on drifts between fast and slow
    phases (up to 1.75x) over seconds to minutes, so a run's command times
    are also reported relative to the mean of these samples (``cmd_cost``).
    The NumPy half makes the loop slow down like the water-filling
    bisection does.
    """
    start = perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i % 7
    for i in range(1_000):
        acc += float(_CAL_PROBS @ np.maximum(0.0, i * 1e-3 - _CAL_FLOORS))
    return (perf_counter() - start) * 1e3


class Tally:
    """Outcomes of the commands of one run."""

    def __init__(self):
        self.seconds = []
        self.attempted = self.failed = self.verdicts = self.verify = 0
        self.rows = self.blocks = self.trials_controller = self.trials_density = 0
        self.bytes = 0
        self.problems = []

    def add(self, cmd, rc, seconds, problem, nbytes, rows):
        self.seconds.append(seconds)
        self.attempted += 1
        self.bytes += nbytes
        self.rows += rows
        if cmd.kind == "verify":
            d = VERIFY_DEFAULTS
            self.verify += 1
            self.verdicts += rc == 3
            trials_c = cmd.trials or d["controller"]["trials"]
            trials_d = cmd.trials or d["density"]["trials"]
            self.trials_controller += trials_c
            self.trials_density += trials_d
            self.blocks += trials_c * d["controller"]["blocks"] + trials_d * d["density"]["blocks"]
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{' '.join(cmd.argv)}: {problem}")


def run_checked(cli, cmd, checker):
    """Run one command; return (exit code, seconds, problem or None, bytes, rows)."""
    outputs = [p for p in (cmd.out, cmd.svg) if p]
    for path in outputs:
        if os.path.exists(path):
            os.remove(path)
    start = perf_counter()
    try:
        rc = cli.main(list(cmd.argv))
    except Exception as exc:  # a crash is a failed command, not a failed run
        return None, perf_counter() - start, f"raised {type(exc).__name__}: {exc}", 0, 0
    seconds = perf_counter() - start
    try:
        problem = checker.check(cmd, rc)
    except Exception as exc:  # unreadable or malformed output
        problem = f"output check raised {type(exc).__name__}: {exc}"
    nbytes = sum(os.path.getsize(p) for p in outputs if os.path.exists(p))
    rows = 0
    if cmd.kind != "verify" and problem is None:
        with open(cmd.out, "r", encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
    return rc, seconds, problem, nbytes, rows


def calibrate_since(last_end: float, samples: list) -> float:
    """Sample the calibration loop for CALIBRATION_SHARE of the time since ``last_end``.

    At least one sample; after a 10 s command that is a 0.5 s burst, which
    follows the machine's speed far better than one 10 ms sample.
    """
    start = perf_counter()
    budget = CALIBRATION_SHARE * (start - last_end)
    samples.append(calibrate_ms())
    while perf_counter() - start < budget:
        samples.append(calibrate_ms())
    return perf_counter()


def measure(cli, commands, checker, seconds, tracer=None):
    """Closed loop for ``seconds`` of wall time (at least one command).

    The calibration loop runs between commands once CALIBRATION_EVERY_S has
    passed since it last ran, and once more at the end, so every command is
    bracketed by samples. Untraced, returns (tally, None, calibration
    times). Traced, each command runs twice, once plain and once traced, in
    alternating order, and the second tally holds the traced runs.
    """
    plain, traced, calib = Tally(), Tally(), []
    start = perf_counter()
    last_calib = calibrate_since(start, calib)
    pair = 0
    while plain.attempted == 0 or perf_counter() - start < seconds:
        if perf_counter() - last_calib >= CALIBRATION_EVERY_S:
            last_calib = calibrate_since(last_calib, calib)
        cmd = next(commands)
        if tracer is None:
            plain.add(cmd, *run_checked(cli, cmd, checker))
            continue
        for traced_turn in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced_turn:
                tracer.command_id = pair
                tracer.install()
                try:
                    traced.add(cmd, *run_checked(cli, cmd, checker))
                finally:
                    tracer.uninstall()
            else:
                plain.add(cmd, *run_checked(cli, cmd, checker))
        pair += 1
    calibrate_since(last_calib, calib)
    return plain, (traced if tracer is not None else None), calib


def _env_record() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def _ratio(num, den):
    return num / den if den else 0.0


def end_to_end(tally: Tally, calib: list) -> dict:
    times = tally.seconds
    total = sum(times)
    calib_ms = statistics.fmean(calib)
    out = {
        "cmd_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "cmd_ms_mean": (total / len(times) * 1e3, "ms"),
        "cmd_cost": (total / len(times) * 1e3 / calib_ms, "calib"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fail_frac": (_ratio(tally.failed, tally.attempted), "ratio"),
        "env.calib_ms": (calib_ms, "ms"),
    }
    if len(times) >= 2:
        p90 = statistics.quantiles(times, n=10)[8]
        if sum(t > p90 for t in times) >= 10:   # a tail needs ten samples beyond it
            out["cmd_ms_p90"] = (p90 * 1e3, "ms")
    if tally.rows:
        out["rows_per_s"] = (tally.rows / total, "rows/s")
    if tally.blocks:
        out["blocks_per_s"] = (tally.blocks / total, "blocks/s")
    return out


def per_layer(plain: Tally, traced: Tally, tracer, calib: list) -> dict:
    """Per traced command: span counts and times, and the derived ratios."""
    commands = traced.attempted
    layers = tracer.summarize()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}   # also stands in for absent boundaries
    out = {}
    for boundary in BOUNDARIES:
        s = layers.get(boundary, empty)
        out[boundary + ".calls"] = (s["calls"] / commands, "calls/cmd")
        out[boundary + ".total_s"] = (s["total_s"] / commands, "s/cmd")
        out[boundary + ".self_s"] = (s["self_s"] / commands, "s/cmd")
    solve = layers.get("waterfill.solve_waterfill", empty)
    bound = layers.get("bounds.bound_point", empty)
    ctrl = layers.get("montecarlo.simulate_st_controller", empty)
    dens = layers.get("montecarlo.simulate_information_density", empty)
    out.update({
        "waterfill.solve_waterfill.us_per_call": (_ratio(solve["total_s"], solve["calls"]) * 1e6, "us"),
        "waterfill.solves_per_row": (_ratio(solve["calls"], traced.rows), "ratio"),
        "bounds.bound_point.us_per_call": (_ratio(bound["total_s"], bound["calls"]) * 1e6, "us"),
        "montecarlo.simulate_st_controller.us_per_trial":
            (_ratio(ctrl["total_s"], traced.trials_controller) * 1e6, "us"),
        "montecarlo.simulate_information_density.us_per_trial":
            (_ratio(dens["total_s"], traced.trials_density) * 1e6, "us"),
        "montecarlo.verdict_fail_frac":
            (_ratio(plain.verdicts + traced.verdicts, plain.verify + traced.verify), "ratio"),
        "cli.bytes_written": (_ratio(plain.bytes + traced.bytes, plain.attempted + commands), "B/cmd"),
        "trace.overhead_s": ((sum(traced.seconds) - sum(plain.seconds)) / commands, "s/cmd"),
        "env.calib_ms": (statistics.fmean(calib), "ms"),
    })
    # Every span lies inside a cli.main span, so the self times add up to it.
    root = layers.get("cli.main", empty)["total_s"]
    out["trace.self_sum_residual_s"] = (
        (sum(s["self_s"] for s in layers.values()) - root) / commands, "s/cmd")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="write the traced spans to this CSV file")
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import blockfade.cli as cli
    from checks import Checker

    library = os.path.realpath(cli.__file__)
    if not library.startswith(os.path.realpath(os.path.join(ROOT, "src")) + os.sep):
        raise SystemExit(f"blockfade was imported from {library}, not from this checkout")

    workload = Workload(args.workload, args.seed, args.workdir)
    checker = Checker()
    for cmd in workload.warmup():
        run_checked(cli, cmd, checker)
    tracer = Tracer() if args.trace else None
    plain, traced, calib = measure(cli, workload.commands(), checker, args.seconds, tracer)

    if tracer is None:
        tally, metrics = plain, end_to_end(plain, calib)
    else:
        tally, metrics = traced, per_layer(plain, traced, tracer, calib)
        if args.spans:
            tracer.write(args.spans)
    result = {
        "attempted": plain.attempted + (traced.attempted if traced else 0),
        "failed": plain.failed + (traced.failed if traced else 0),
        "problems": plain.problems + (traced.problems if traced else []),
        "commands": tally.attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "absent": tracer.absent if tracer else [],
        "env": _env_record(),
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
