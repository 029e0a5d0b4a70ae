"""The package's public names, and the oracles' independence from the library."""

import ast
from pathlib import Path

import blockfade
from blockfade import bounds, fading, montecarlo, specfun, waterfill

ERROR_CLASSES = {"BlockfadeError", "DomainError", "InvalidParameterError"}


def test_star_import_binds_every_export():
    namespace = {}
    exec("from blockfade import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(blockfade.__all__)


def test_exports_are_the_submodules_exports():
    # a name deleted from a module cannot stay listed by the package, nor
    # the other way round
    names = [name for module in (bounds, fading, montecarlo, specfun, waterfill)
             for name in module.__all__]
    assert len(set(names)) == len(names)
    assert len(set(blockfade.__all__)) == len(blockfade.__all__)
    assert set(blockfade.__all__) == set(names) | ERROR_CLASSES


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
