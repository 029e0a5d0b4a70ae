"""Benchmark of the blockfade command line, run from the root of a checkout.

    python3 perfbench/run.py --workload sweep-power --seed 1 --seconds 20 --trace 0

Workloads (one per run, each in its own single-threaded process):

- ``sweep-length``: ``rate-vs-blocklength --svg`` on the preset or the
  two-state channel, seeded power and target error, 40 points. Time goes
  to argument parsing, CSV and SVG writing and 40 ``bound_point`` calls.
- ``sweep-power``: ``rate-vs-power`` on the preset, seeded target error,
  41 water-filling solves per command.
- ``verify-default``: ``verify`` at the documented defaults with a seeded
  ``--seed``; nearly all the time goes to the two simulations.

Each run first times fresh interpreters importing ``blockfade.cli``
(``setup_s``), then runs the workload as a closed loop with one client for
``--seconds``. Every command's exit code and outputs are checked (see
``checks.py``) outside the timed region. ``--trace 1`` instead wraps the
library's module boundaries (see ``tracing.py``) and reports per-layer
metrics. The last line of standard output is one JSON object with the
metrics ``BENCHMARK.json`` names for the chosen mode; the lines before it
give every metric with its unit and the environment. ``--workload all``
runs the three workloads one after the other.

Gated end-to-end metrics: ``cmd_cost`` is the mean command time divided by
the mean time of the calibration loop run between commands
(``worker.calibrate_ms``), because the machine's speed drifts (see
``BASELINE.md``); ``setup_s`` is the median import time above;
``peak_rss_mb`` is the workload process's ``ru_maxrss``. Raw command times
(``cmd_ms_p50``, ``cmd_ms_p90``, ``cmd_ms_mean``), ``rows_per_s`` or
``blocks_per_s``, and ``fail_frac`` are printed but not gated.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep-length", "sweep-power", "verify-default")
SETUP_STARTS = 7
SETUP_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 160
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.update({name: "1" for name in PINNED_THREADS})
    return env


def measure_setup(env: dict) -> list[float]:
    """Wall time of fresh interpreters importing the CLI, after one unmeasured start.

    ``Popen.wait`` with a timeout polls in steps of up to 50 ms, so the wait
    blocks and a timer enforces the limit instead.
    """
    argv = [sys.executable, "-c", "import blockfade.cli"]
    times = []
    for i in range(SETUP_STARTS + 1):
        start = perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT)
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            rc = proc.wait()
        finally:
            watchdog.cancel()
        if rc != 0:
            raise SystemExit(f"importing blockfade.cli failed with exit code {rc}")
        if i:
            times.append(perf_counter() - start)
    return times


def source_record() -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "blockfade")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0]}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    env = _environment()
    setup = measure_setup(env)
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=work_root)
    try:
        result_path = os.path.join(workdir, "result.json")
        argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                "--workdir", workdir, "--result", result_path]
        if trace:
            argv += ["--spans", os.path.join(work_root, f"spans-{name}.csv")]
        subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S)
        with open(result_path, "r", encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    result["setup_runs"] = len(setup)
    return result


def report(name: str, seed: int, seconds: float, trace: int, spec: dict, result: dict) -> list[str]:
    """Readable lines for every metric, then the JSON result line."""
    env = {**source_record(), **result["env"]}
    lines = [f"workload {name}  seed {seed}  seconds {seconds:g}  trace {trace}",
             "env " + "  ".join(f"{k} {v}" for k, v in env.items())]
    counts = {"setup_s": f"median of {result['setup_runs']} interpreter starts",
              "cmd_ms_p50": f"n={result['commands']}", "cmd_ms_p90": f"n={result['commands']}",
              "fail_frac": f"{result['failed']}/{result['attempted']} commands"}
    for key, m in result["metrics"].items():
        lines.append(f"{key:<58} {m['value']:>16.6g} {m['unit']:<10} {counts.get(key, '')}")
    if result["absent"]:
        lines.append("absent boundaries: " + ", ".join(result["absent"]))
    for problem in result["problems"]:
        lines.append("failed: " + problem)
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        raise SystemExit(f"metrics not measured on {name}: {', '.join(missing)}")
    final = {"correct": result["failed"] == 0, "attempted": result["attempted"],
             "failed": result["failed"],
             "metrics": {m["name"]: {"value": result["metrics"][m["name"]]["value"],
                                     "unit": m["unit"]} for m in wanted}}
    lines.append(json.dumps(final))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="blockfade CLI benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = (os.path.join(ROOT, "BENCHMARK.json"), os.path.join(ROOT, "src", "blockfade", "cli.py"),
              os.path.join(ROOT, "tests", "oracles.py"))
    for path in needed:
        if not os.path.isfile(path):
            print(f"error: {os.path.relpath(path, ROOT)} not found; run from a blockfade checkout",
                  file=sys.stderr)
            return 2
    with open(needed[0], "r", encoding="utf-8") as fh:
        spec = json.load(fh)

    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        result = run_workload(name, args.seed, args.seconds, args.trace)
        print("\n".join(report(name, args.seed, args.seconds, args.trace, spec, result)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
