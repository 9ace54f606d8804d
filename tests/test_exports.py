"""Every layer module declares its public surface in ``__all__``: each
name there exists, and every public module-level function is listed.
Code that wraps or re-exports a layer's functions by name relies on both."""

import importlib
import inspect

import pytest

LAYERS = ("matcore", "transforms", "drazin", "kernels", "generators", "suites", "cli")


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
