"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import clp

MODULES = ["clp"] + [f"clp.{m.name}" for m in pkgutil.iter_modules(clp.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate export"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
