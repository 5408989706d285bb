"""Every exported name resolves: each module's ``__all__`` and the package's
own re-exports, so a deleted function cannot linger in either list.  Importing
the package or its CLI loads no scipy module: ``scipy.special`` took longer
to import than any compute layer of a short CLI run."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import rwre

MODULES = sorted(f"rwre.{m.name}" for m in pkgutil.iter_modules(rwre.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_package_imports_resolve():
    tree = ast.parse(Path(rwre.__file__).read_text())
    imported = [
        (node.module, alias.asname or alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(f"rwre.{module}"), name), (module, name)
        assert hasattr(rwre, name), name


@pytest.mark.parametrize("module", ["rwre", "rwre.cli"])
def test_import_loads_no_scipy(run_fresh, module):
    loaded = run_fresh(f"import sys, {module}\n"
                       "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert loaded.strip() == "[]", loaded
