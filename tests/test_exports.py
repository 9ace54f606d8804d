"""Every layer module declares its public surface in ``__all__``: each
name there exists, and every public module-level function is listed.
Code that wraps or re-exports a layer's functions by name relies on both.
No module imports a name it neither uses nor re-exports."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

LAYERS = ("matcore", "transforms", "drazin", "kernels", "generators", "suites", "cli")
PACKAGE = Path(importlib.import_module("opcheck").__file__).parent


@pytest.mark.parametrize("name", ("opcheck",) + tuple(f"opcheck.{m}" for m in LAYERS))
def test_all_names_exist(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} has no __all__"
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("layer", LAYERS)
def test_public_functions_are_exported(layer):
    module = importlib.import_module(f"opcheck.{layer}")
    public = {
        n
        for n, v in vars(module).items()
        if not n.startswith("_") and inspect.isfunction(v) and v.__module__ == module.__name__
    }
    assert public <= set(module.__all__), sorted(public - set(module.__all__))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    exported = {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    unused = sorted(imported - read - exported)
    assert not unused, unused
