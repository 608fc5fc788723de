"""The public names: every entry of ``stockcast.__all__`` and of each
submodule's ``__all__`` is an attribute of its module, listed once; and
what importing the package loads."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import stockcast

MODULES = ["stockcast"] + [f"stockcast.{info.name}" for info in pkgutil.iter_modules(stockcast.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_import_leaves_the_process_pool_unloaded():
    # multiprocessing costs every command tens of milliseconds, and only evaluate --jobs above 1 needs it
    code = "import sys, stockcast, stockcast.cli; print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
    env = {**os.environ, "PYTHONPATH": str(Path(stockcast.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"
