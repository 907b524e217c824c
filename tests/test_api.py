import ast
import importlib
import inspect
import pkgutil

import pytest

import snaflow

MODULES = sorted(m.name for m in pkgutil.iter_modules(snaflow.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"snaflow.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"snaflow.{name}.__all__ names {missing}"


def test_every_package_import_resolves():
    tree = ast.parse(inspect.getsource(snaflow))
    names = [(node.module, alias.name) for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names
    missing = [(mod, n) for mod, n in names
               if not hasattr(importlib.import_module(f"snaflow.{mod}"), n)
               or not hasattr(snaflow, n)]
    assert not missing
