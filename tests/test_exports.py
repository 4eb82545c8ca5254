"""Every name a module exports resolves, so `import *` from the package or any
of its modules never fails on a stale entry of __all__."""

import importlib
import pkgutil

import pytest

import graphcompose

MODULES = ["graphcompose"] + [
    f"graphcompose.{info.name}" for info in pkgutil.iter_modules(graphcompose.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists names it does not define: {missing}"
