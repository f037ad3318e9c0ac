"""Every name a module exports resolves, so a deletion cannot leave a
stale entry in `__all__` behind."""

import importlib
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
