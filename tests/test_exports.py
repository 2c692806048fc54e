from __future__ import annotations

import importlib
import pkgutil

import pytest

import graphlets

MODULES = ["graphlets"] + [
    f"graphlets.{info.name}" for info in pkgutil.iter_modules(graphlets.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []
