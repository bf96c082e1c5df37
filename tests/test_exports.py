"""Every public name of the package resolves."""

import ast
import importlib
import os

import pytest

import blochdd

MODULES = ["bloch", "sequences", "ensemble", "tomography", "hamiltonian", "analysis"]


def top_level_imports() -> dict:
    """``{submodule: names}`` that ``blochdd/__init__.py`` imports from each."""
    with open(os.path.join(os.path.dirname(blochdd.__file__), "__init__.py")) as fh:
        tree = ast.parse(fh.read())
    imports: dict = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imports.setdefault(node.module, []).extend(a.name for a in node.names)
    return imports


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(f"blochdd.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)
    imports = top_level_imports()
    assert set(imports) == set(MODULES)
    # each top-level name is an export of its submodule, and the same object
    assert [n for n in imports[name] if n not in module.__all__] == []
    assert [n for n in imports[name] if getattr(blochdd, n) is not getattr(module, n)] == []
