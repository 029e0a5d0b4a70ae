"""Tests of the benchmark itself: planted wrong outputs must count as failed.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import json
import os
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import blockfade.cli as cli  # noqa: E402
import tracing  # noqa: E402
from checks import Checker  # noqa: E402
from worker import Tally, end_to_end, measure, per_layer, run_checked  # noqa: E402
from workloads import Workload  # noqa: E402


def _first(workload, count=1):
    stream = workload.commands()
    return [next(stream) for _ in range(count)]


def _loop(fake_main, commands):
    """Run and tally ``commands`` as the measuring loop does."""
    tally, checker, fake = Tally(), Checker(), SimpleNamespace(main=fake_main)
    for cmd in commands:
        tally.add(cmd, *run_checked(fake, cmd, checker))
    return tally, end_to_end(tally, [1.0])


def _perturbed(edit):
    """A ``main`` that runs the real command and then edits its output file."""
    def fake(argv):
        rc = cli.main(argv)
        out = argv[argv.index("--out") + 1]
        with open(out, "r", encoding="utf-8") as fh:
            text = fh.read()
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(edit(text))
        return rc
    return fake


def _scale_csv_field(text, column, factor):
    lines = text.split("\n")
    col = lines[0].split(",").index(column)
    fields = lines[5].split(",")
    fields[col] = repr(float(fields[col]) * factor)
    lines[5] = ",".join(fields)
    return "\n".join(lines)


@pytest.mark.parametrize("name", ["sweep-length", "sweep-power"])
def test_sweep_outputs_pass(tmp_path, name):
    tally, metrics = _loop(cli.main, _first(Workload(name, 7, str(tmp_path)), 6))
    assert tally.attempted == 6 and tally.failed == 0, tally.problems
    assert metrics["fail_frac"][0] == 0.0


@pytest.mark.parametrize("name", ["sweep-length", "sweep-power"])
@pytest.mark.parametrize("column", ["rate_lb_st", "rate_ub_lt", "capacity"])
def test_rate_off_by_one_part_per_million_is_counted(tmp_path, name, column):
    fake = _perturbed(lambda text: _scale_csv_field(text, column, 1.0 + 1e-6))
    tally, metrics = _loop(fake, _first(Workload(name, 7, str(tmp_path)), 3))
    assert tally.failed == tally.attempted == 3
    assert metrics["fail_frac"][0] == 1.0


def test_svg_curve_moved_is_counted(tmp_path):
    def fake(argv):
        rc = cli.main(argv)
        svg = argv[argv.index("--svg") + 1]
        with open(svg, "r", encoding="utf-8") as fh:
            text = fh.read()
        head, sep, tail = text.partition('<polyline points="')
        x, rest = tail.split(",", 1)
        y, rest = rest.split(" ", 1)
        with open(svg, "w", encoding="utf-8") as fh:
            fh.write(f"{head}{sep}{x},{float(y) + 0.5:.2f} {rest}")
        return rc
    tally, _ = _loop(fake, _first(Workload("sweep-length", 3, str(tmp_path)), 2))
    assert tally.failed == tally.attempted == 2


def test_crash_and_bad_exit_code_are_counted(tmp_path):
    cmds = _first(Workload("sweep-power", 1, str(tmp_path)))

    def crash(argv):
        raise RuntimeError("planted")

    assert _loop(crash, cmds)[0].failed == 1
    assert _loop(lambda argv: 1, cmds)[0].failed == 1


def _small_verify(tmp_path, seeds):
    workload = Workload("verify-default", 0, str(tmp_path))
    return [workload._verify(seed, trials=100) for seed in seeds]


def test_verify_verdict_is_not_a_failure(tmp_path):
    # At 100 trials the report's 2% variance tolerance fails most seeds (exit 3);
    # the outputs are still correct, so the commands pass and count as verdicts.
    tally, _ = _loop(cli.main, _small_verify(tmp_path, range(6)))
    assert tally.failed == 0, tally.problems
    assert tally.verdicts >= 1


@pytest.mark.parametrize("section,field,factor", [
    ("density", "analytic_var", 1.01),
    ("density", "analytic_mean", 1.0 + 1e-6),
    ("controller", "lambda_b", 1.0 + 1e-6),
    ("density", "empirical_var_per_use", 3.0),
])
def test_verify_wrong_field_is_counted(tmp_path, section, field, factor):
    def edit(text):
        report = json.loads(text)
        report[section][field] *= factor
        return json.dumps(report)
    tally, metrics = _loop(_perturbed(edit), _small_verify(tmp_path, [5]))
    assert tally.failed == tally.attempted == 1, tally.problems
    assert metrics["fail_frac"][0] == 1.0


def test_traced_self_times_add_up_and_names_match_benchmark(tmp_path, monkeypatch):
    monkeypatch.setattr(tracing, "BOUNDARIES", tracing.BOUNDARIES + ("svg.no_such_function",))
    tracer = tracing.Tracer()
    assert tracer.absent == ["svg.no_such_function"]
    cmds = _first(Workload("sweep-length", 2, str(tmp_path)), 2)
    plain, traced, calib = measure(cli, iter(cmds), Checker(), seconds=0.0, tracer=tracer)
    assert traced.attempted == plain.attempted == 1 and traced.failed == 0
    assert cli.main is not None and not hasattr(cli.main, "__wrapped__")  # uninstalled

    layers = tracer.summarize()
    assert sum(s["self_s"] for s in layers.values()) == pytest.approx(
        layers["cli.main"]["total_s"], rel=1e-9)
    assert layers["bounds.bound_point"]["calls"] == 40

    metrics = per_layer(plain, traced, tracer, calib)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    for m in spec["per_layer"]:
        assert metrics[m["name"]][1] == m["unit"], m["name"]
    e2e = end_to_end(plain, calib)
    for m in spec["end_to_end"]:
        assert m["name"] == "setup_s" or e2e[m["name"]][1] == m["unit"], m["name"]
