"""Every name a module exports resolves, so a deletion cannot leave a
stale entry in `__all__` behind, and has one home; every name a module
imports is used, so a deletion cannot leave a stale import behind; no
module the CLI imports, directly or not, imports the dense model, and the
CLI itself imports no numerics."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import circlewalk

MODULES = ["circlewalk"] + [f"circlewalk.{m.name}"
                            for m in pkgutil.iter_modules(circlewalk.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", [m for m in MODULES if m != "circlewalk"])
def test_submodules_export_only_their_own_definitions(name):
    # one home per public name: a submodule re-exports no function or class
    # of another module; the package `__init__` re-exports on purpose
    module = importlib.import_module(name)
    objs = [getattr(module, n) for n in getattr(module, "__all__", ())]
    foreign = [obj.__name__ for obj in objs
               if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ != name]
    assert not foreign, f"{name}.__all__ re-exports {foreign}"


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    # read somewhere in the module (annotations count) or exported by it
    module = importlib.import_module(name)
    tree = ast.parse(inspect.getsource(module))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - used - set(getattr(module, "__all__", ())))
    assert not unused, f"{name} imports unused names: {unused}"


def _package_imports(name):
    """The package modules that module `name` imports, relative or absolute."""
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["circlewalk" if node.level else "", node.module]))
            imported.add(base)
            imported.update(f"{base}.{a.name}" for a in node.names)
    return imported & set(MODULES)


def _cli_closure():
    """`circlewalk.cli` and every package module it imports, transitively;
    importing a submodule runs the package `__init__` first."""
    seen, todo = set(), ["circlewalk", "circlewalk.cli"]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(_package_imports(name))
    return sorted(seen)


@pytest.mark.parametrize("name", _cli_closure())
def test_cli_path_does_not_import_the_dense_model(name):
    # the CLI saves and evaluates the factored parameters; the dense model
    # is the test oracle, and no module a CLI run imports imports it
    assert "circlewalk.model" not in _package_imports(name), f"{name} imports circlewalk.model"


def test_cli_closure_is_every_module_but_the_dense_model():
    # the walk above reaches the whole runtime, and an interpreter that
    # imports the CLI has not loaded the oracle
    assert set(_cli_closure()) == set(MODULES) - {"circlewalk.model"}
    src = str(Path(circlewalk.__file__).parents[1])
    code = "import sys, circlewalk.cli; assert 'circlewalk.model' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


def test_the_cli_holds_no_numerics():
    # the CLI parses arguments and writes what the modules return: it
    # imports neither numpy nor the matrix algebra nor the positions
    tree = ast.parse(inspect.getsource(importlib.import_module("circlewalk.cli")))
    roots = {a.name.partition(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
             for a in node.names}
    roots |= {node.module.partition(".")[0] for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module and not node.level}
    assert "numpy" not in roots
    assert not _package_imports("circlewalk.cli") & {"circlewalk.markov", "circlewalk.posembed"}
