"""The package's public names, and the oracles' independence from the library."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import blockfade
from blockfade import (ChannelSpec, FadingDistribution, InvalidParameterError, SimConfig,
                       bound_columns, bounds, discretize_rayleigh, fading, make_distribution,
                       montecarlo, simulate_st_controller, sweep_dispersion_stats, water_fill,
                       waterfill)

ERROR_CLASSES = {"InvalidParameterError"}

# Adding or dropping a public name takes a deliberate edit here.
EXPORTS = [
    "ChannelSpec",
    "FadingDistribution",
    "InvalidParameterError",
    "SimConfig",
    "bound_columns",
    "discretize_rayleigh",
    "link_terms",
    "make_distribution",
    "simulate_information_density",
    "simulate_st_controller",
    "sweep_dispersion_stats",
    "water_fill",
]


def test_exports_are_pinned():
    assert sorted(blockfade.__all__) == EXPORTS


def test_star_import_binds_every_export():
    namespace = {}
    exec("from blockfade import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(blockfade.__all__)


def test_exports_are_the_submodules_exports():
    # a name deleted from a module cannot stay listed by the package, nor
    # the other way round
    names = [name for module in (bounds, fading, montecarlo, waterfill)
             for name in module.__all__]
    assert len(set(names)) == len(names)
    assert len(set(blockfade.__all__)) == len(blockfade.__all__)
    assert set(blockfade.__all__) == set(names) | ERROR_CLASSES


def test_every_raise_is_one_error_type():
    # a caller catches one class for every rejected input. The scan reads
    # every module but sees explicit raises only; the implicit TypeError
    # and OverflowError of a bad scalar are covered by
    # test_bad_scalar_in_any_slot_raises_the_one_error_type, and the
    # TypeError and AttributeError of a bad sequence or value type by
    # test_bad_sequence_in_any_slot_raises_the_one_error_type and
    # test_value_type_fields_take_only_their_type.
    package = Path(blockfade.__file__).parent
    raised = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = "a bare raise" if exc is None else ast.unparse(exc)
                raised.setdefault(name, []).append(f"{path.name}:{node.lineno}")
    assert "InvalidParameterError" in raised, "no raise found; the scan is broken"
    assert set(raised) == {"InvalidParameterError"}, raised


def test_oracles_import_nothing_from_the_library():
    # the oracles must not share the library's code paths
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported, "no imports found; the scan is broken"
    assert [m for m in imported if m.split(".")[0] in ("blockfade", "")] == []


def _spec():
    return ChannelSpec(noise_var=1.0, n_c=1, fading=make_distribution([1.0, 2.0], [0.5, 0.5]))


def _sim(**kwargs):
    plan = dict(spec=_spec(), budget=1.0, blocks=10, trials=10, seed=1)
    plan.update(kwargs)
    return SimConfig(**plan)


# Each public entry point with the value v in one scalar slot, the others valid.
SCALAR_SLOTS = {
    "ChannelSpec.noise_var": lambda v: ChannelSpec(noise_var=v, n_c=1, fading=_spec().fading),
    "ChannelSpec.n_c": lambda v: ChannelSpec(noise_var=1.0, n_c=v, fading=_spec().fading),
    "SimConfig.budget": lambda v: _sim(budget=v),
    "SimConfig.blocks": lambda v: _sim(blocks=v),
    "SimConfig.trials": lambda v: _sim(trials=v),
    "SimConfig.seed": lambda v: _sim(seed=v),
    "FadingDistribution.gains": lambda v: FadingDistribution(gains=(v,), probs=(1.0,)),
    "FadingDistribution.probs": lambda v: FadingDistribution(gains=(1.0,), probs=(v,)),
    "make_distribution.gains": lambda v: make_distribution([v], [1.0]),
    "make_distribution.probs": lambda v: make_distribution([1.0], [v]),
    "discretize_rayleigh.eta_lo": lambda v: discretize_rayleigh(v, 4.1, 10),
    "discretize_rayleigh.eta_hi": lambda v: discretize_rayleigh(0.1, v, 10),
    "discretize_rayleigh.count": lambda v: discretize_rayleigh(0.1, 4.1, v),
    "discretize_rayleigh.scale": lambda v: discretize_rayleigh(0.1, 4.1, 10, v),
    "simulate_st_controller.alpha": lambda v: simulate_st_controller(_sim(), alpha=v),
    "water_fill.budgets": lambda v: water_fill(_spec(), [v]),
    "sweep_dispersion_stats.budgets": lambda v: sweep_dispersion_stats(_spec(), [v]),
    "bound_columns.budgets": lambda v: bound_columns(_spec(), [v], [100], 0.01),
    "bound_columns.epsilon": lambda v: bound_columns(_spec(), [1.0], [100], v),
    "bound_columns.beta": lambda v: bound_columns(_spec(), [1.0], [100], 0.01, beta=v),
}


@pytest.mark.parametrize("value", [True, "1", 10 ** 400, math.nan, math.inf],
                         ids=["bool", "str", "int-past-float", "nan", "inf"])
@pytest.mark.parametrize("slot", SCALAR_SLOTS)
def test_bad_scalar_in_any_slot_raises_the_one_error_type(slot, value):
    # a bool or a string is never a number, and an integer past the float
    # range is out of range: no TypeError, no OverflowError, nothing accepted
    with pytest.raises(InvalidParameterError):
        SCALAR_SLOTS[slot](value)


def test_value_types_store_float_tuples_and_floats():
    for dist in (FadingDistribution(gains=[1, 2.0], probs=[0.5, 0.5]),
                 make_distribution([1, 2.0], [0.5, 0.5]), discretize_rayleigh(1, 3, 2)):
        for values in (dist.gains, dist.probs):
            assert type(values) is tuple and {type(v) for v in values} == {float}
        hash(ChannelSpec(noise_var=1.0, n_c=1, fading=dist))
    spec = ChannelSpec(noise_var=2, n_c=1, fading=make_distribution([1.0], [1.0]))
    assert type(spec.noise_var) is float and spec.noise_var == 2.0
    budget = SimConfig(spec=spec, budget=1, blocks=1, trials=1, seed=0).budget
    assert type(budget) is float and budget == 1.0


# Each sequence slot with the value v, the others valid, and a range of
# valid entries for it.
SEQUENCE_SLOTS = {
    "FadingDistribution.gains": (lambda v: FadingDistribution(gains=v, probs=(1.0,)), range(1, 2)),
    "FadingDistribution.probs": (lambda v: FadingDistribution(gains=(1.0,), probs=v), range(1, 2)),
    "make_distribution.gains": (lambda v: make_distribution(v, [1.0]), range(1, 2)),
    "make_distribution.probs": (lambda v: make_distribution([1.0], v), range(1, 2)),
    "water_fill.budgets": (lambda v: water_fill(_spec(), v), range(1, 4)),
    "sweep_dispersion_stats.budgets": (lambda v: sweep_dispersion_stats(_spec(), v), range(1, 4)),
    "bound_columns.budgets": (lambda v: bound_columns(_spec(), v, [100], 0.01), range(1, 4)),
    "bound_columns.n": (lambda v: bound_columns(_spec(), [1.0], v, 0.01), range(100, 400, 100)),
}


@pytest.mark.parametrize("make", [lambda: 1.0, lambda: "12", lambda: {1.0: 1.0}, lambda: {1.0},
                                  lambda: (v for v in [1.0]), lambda: [[1.0]]],
                         ids=["scalar", "str", "dict", "set", "generator", "nested"])
@pytest.mark.parametrize("slot", SEQUENCE_SLOTS)
def test_bad_sequence_in_any_slot_raises_the_one_error_type(slot, make):
    # only a list, tuple, range or 1-D array is a sequence: no TypeError,
    # and no dict's keys or set read as entries
    with pytest.raises(InvalidParameterError):
        SEQUENCE_SLOTS[slot][0](make())


@pytest.mark.parametrize("form", [list, tuple, np.array, lambda r: r],
                         ids=["list", "tuple", "array", "range"])
@pytest.mark.parametrize("slot", SEQUENCE_SLOTS)
def test_list_tuple_range_and_array_are_sequences(slot, form):
    call, valid = SEQUENCE_SLOTS[slot]
    assert repr(call(form(valid))) == repr(call(list(valid)))


def test_two_d_array_is_not_a_sequence():
    for call, valid in SEQUENCE_SLOTS.values():
        with pytest.raises(InvalidParameterError, match="1-D array"):
            call(np.array([list(valid)]))


def test_value_type_fields_take_only_their_type():
    fading = _spec().fading
    for bad in ({"gains": [1.0], "probs": [1.0]}, None):
        with pytest.raises(InvalidParameterError, match="fading must be a FadingDistribution"):
            ChannelSpec(noise_var=1.0, n_c=1, fading=bad)
    for bad in (None, fading):
        with pytest.raises(InvalidParameterError, match="spec must be a ChannelSpec"):
            _sim(spec=bad)


@pytest.mark.parametrize("slot", SCALAR_SLOTS)
def test_numpy_bool_is_not_a_number(slot):
    with pytest.raises(InvalidParameterError):
        SCALAR_SLOTS[slot](np.True_)


def test_numpy_scalars_are_numbers():
    spec = _spec()
    for got, want in ((water_fill(spec, [np.int64(1), np.float32(2.5)]), water_fill(spec, [1, 2.5])),
                      (bound_columns(spec, [np.float64(1.0)], [np.int64(100)], np.float32(0.25),
                                     beta=np.float16(0.5)),
                       bound_columns(spec, [1.0], [100], float(np.float32(0.25)), beta=0.5))):
        assert repr(got) == repr(want)
    assert ChannelSpec(noise_var=np.float32(2.0), n_c=np.int64(3), fading=spec.fading) == \
        ChannelSpec(noise_var=2.0, n_c=3, fading=spec.fading)
    assert discretize_rayleigh(np.float64(0.5), np.float32(4.0), np.int8(5), np.int64(2)) == \
        discretize_rayleigh(0.5, 4.0, 5, 2.0)
    cfg = _sim(budget=np.float32(1.0), blocks=np.int64(2000), trials=np.int32(50),
               seed=np.uint64(2 ** 64 - 1))
    assert cfg == _sim(blocks=2000, trials=50, seed=2 ** 64 - 1)
    assert {type(v) for v in (cfg.blocks, cfg.trials, cfg.seed)} == {int}
    assert simulate_st_controller(cfg, alpha=0.5) == simulate_st_controller(
        _sim(blocks=2000, trials=50, seed=2 ** 64 - 1), alpha=0.5)
