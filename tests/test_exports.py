"""Every name a module exports resolves, so `import *` from the package or any
of its modules never fails on a stale entry of __all__; and no function is
defined in two modules."""

import ast
import importlib
import pkgutil
from collections import defaultdict
from pathlib import Path

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


def test_no_two_modules_define_the_same_function():
    """Each rule lives in one module: no top-level function name repeats
    across the package's modules."""
    homes = defaultdict(list)
    for path in sorted(Path(graphcompose.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                homes[node.name].append(path.name)
    repeated = {name: files for name, files in homes.items() if len(files) > 1}
    assert not repeated, f"functions defined in more than one module: {repeated}"
