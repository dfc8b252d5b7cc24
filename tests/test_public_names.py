"""Every exported name resolves, so a removed function leaves no stale export."""

import importlib
import pkgutil

import pytest

import gedecomp

MODULES = ["gedecomp"] + [f"gedecomp.{m.name}" for m in pkgutil.iter_modules(gedecomp.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
