"""Every exported name resolves: module __all__ lists and the top-level package.
Only kernels.check_budget reads the memory budget."""

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


def _budget_readers(tree, module):
    """(module, enclosing function or None) for each name of DEFAULT_MAX_CELLS in tree."""
    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        named = (
            (isinstance(node, ast.Name) and node.id == "DEFAULT_MAX_CELLS")
            or (isinstance(node, ast.Attribute) and node.attr == "DEFAULT_MAX_CELLS")
            or (isinstance(node, ast.alias) and node.name == "DEFAULT_MAX_CELLS")
        )
        if named:
            sites.append((module, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return sites


def test_only_check_budget_reads_the_budget():
    # besides check_budget, only the definition in kernels; an import of the
    # name would bind its value once and miss a later rebinding
    sites = []
    for path in sorted(Path(sheetlab.__file__).parent.glob("*.py")):
        sites += _budget_readers(ast.parse(path.read_text()), path.stem)
    assert ("kernels", "check_budget") in sites
    assert [s for s in sites if s != ("kernels", "check_budget")] == [("kernels", None)]
