"""Public names: every ``__all__`` entry exists, and the package root
re-exports only names its modules declare public."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import transferopt

_MODULES = sorted(m.name for m in pkgutil.iter_modules(transferopt.__path__)
                  if m.name != "__main__")


@pytest.mark.parametrize("name", _MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"transferopt.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _root_reexports():
    tree = ast.parse(Path(transferopt.__file__).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                yield node.module, alias.name


def test_root_reexports_are_declared_public():
    pairs = list(_root_reexports())
    assert pairs
    undeclared = []
    for module_name, name in pairs:
        module = importlib.import_module(f"transferopt.{module_name}")
        if name not in getattr(module, "__all__", ()):
            undeclared.append(f"{module_name}.{name}")
        assert getattr(transferopt, name) is getattr(module, name)
    assert undeclared == []
