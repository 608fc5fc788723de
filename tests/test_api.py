"""The public names: every entry of ``stockcast.__all__`` and of each
submodule's ``__all__`` is an attribute of its module, listed once."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import stockcast

MODULES = ["stockcast"] + [f"stockcast.{info.name}" for info in pkgutil.iter_modules(stockcast.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
