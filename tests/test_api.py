"""The package's public names, and the oracles' independence from the library."""

import ast
from pathlib import Path

import blockfade
from blockfade import bounds, fading, montecarlo, specfun, waterfill

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
    # the other way round; specfun's two functions serve bounds and
    # montecarlo and are imported from blockfade.specfun, not the package
    names = [name for module in (bounds, fading, montecarlo, waterfill)
             for name in module.__all__]
    assert not set(specfun.__all__) & set(blockfade.__all__)
    assert len(set(names)) == len(names)
    assert len(set(blockfade.__all__)) == len(blockfade.__all__)
    assert set(blockfade.__all__) == set(names) | ERROR_CLASSES


def test_every_raise_is_one_error_type():
    # a caller catches one class for every rejected input; svg.py is left
    # out: its renderer is not exported, and the CLI hands it only finite,
    # clamped series
    package = Path(blockfade.__file__).parent
    raised = {}
    for path in sorted(package.glob("*.py")):
        if path.name != "svg.py":
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
