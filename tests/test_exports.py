"""Every name a module exports resolves, so a deletion cannot leave a
stale entry in `__all__` behind, and has one home; every name a module
imports is used, so a deletion cannot leave a stale import behind; the
CLI's modules do not import the dense model."""

import ast
import importlib
import inspect
import pkgutil

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


@pytest.mark.parametrize("name", ["circlewalk.artifacts", "circlewalk.cli"])
def test_cli_path_does_not_import_the_dense_model(name):
    # the CLI saves and evaluates the factored parameters; the dense model
    # is the test oracle and stays off the CLI's own imports
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["circlewalk" if node.level else "", node.module]))
            imported.add(base)
            imported.update(f"{base}.{a.name}" for a in node.names)
    assert "circlewalk.model" not in imported, f"{name} imports circlewalk.model"
