"""Every exported name resolves: no ``__all__`` entry and no package-level
import names a function that is gone."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import twistrank

MODULES = sorted(m.name for m in pkgutil.iter_modules(twistrank.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"twistrank.{name}")
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported)), name
    assert [n for n in exported if not hasattr(mod, n)] == []


def test_package_imports_resolve():
    tree = ast.parse(inspect.getsource(twistrank))
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"twistrank.{module}")
        assert getattr(twistrank, name) is getattr(source, name), (module, name)
        assert name in getattr(source, "__all__", [name]), (module, name)
