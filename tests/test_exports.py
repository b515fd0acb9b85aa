"""Every exported name resolves: module __all__ lists and the top-level package."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sheetlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(sheetlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"sheetlab.{name}")
    missing = [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)]
    assert missing == []


def test_top_level_exports_resolve():
    # each name the package re-exports is public in the module it comes from
    tree = ast.parse(Path(sheetlab.__file__).read_text())
    stale = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            mod = importlib.import_module(f"sheetlab.{node.module}")
            for alias in node.names:
                if not hasattr(sheetlab, alias.name) or alias.name not in mod.__all__:
                    stale.append(f"{node.module}.{alias.name}")
    assert stale == []
