"""Every name a module of the package exports in ``__all__`` exists."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import areapoly

MODULES = ["areapoly", *(f"areapoly.{m.name}" for m in pkgutil.iter_modules(areapoly.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
