"""No stale export, no unused import (``ruff`` is not installed where this repo grows)."""

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import repro

MODULES = sorted(m.name for m in pkgutil.walk_packages(repro.__path__, "repro."))


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve_and_imports_are_used(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which the module does not define"
    path = pathlib.Path(module.__file__)
    if path.name == "__init__.py":  # a package façade imports in order to re-export
        return
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    } - {"annotations"}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):  # a quoted annotation ("Optional[Foo]") or ``__all__`` entry: a string without blanks
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and not re.search(r"\s", node.value):
            used.update(re.findall(r"\w+", node.value))
    unused = sorted(imported - used)
    assert not unused, f"{name} imports {unused} and never uses them"
