"""The README's Python examples and CLI lines run as written, and its
backticked references to module attributes resolve, so a public name,
option or function the README still uses but the package has dropped
fails here."""

from __future__ import annotations

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import stockcast
from stockcast.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)
# the lines of the first block under "## CLI", continuation lines joined
CLI_LINES = re.search(r"^## CLI\n\n```\n(.*?)^```", TEXT, flags=re.M | re.S)[1].replace("\\\n", "").splitlines()
MODULES = {info.name for info in pkgutil.iter_modules(stockcast.__path__)}
# the leading dotted name of each inline code span outside the fenced blocks,
# kept when it starts at a module of the package, as `engine._curve` or
# `stockcast.verify`
SPANS = re.findall(r"`([^`]+)`", re.sub(r"^```.*?^```", "", TEXT, flags=re.M | re.S))
NAMES = [re.match(r"[\w.]*", span)[0].removeprefix("stockcast.").split(".") for span in SPANS]
REFERENCES = sorted({".".join(parts) for parts in NAMES if parts[0] in MODULES})


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {})


def test_cli_block_runs(ref_sales_file, monkeypatch):
    # ref_sales_file is the sales.jsonl the block reads; evaluate writes report/ beside it
    monkeypatch.chdir(ref_sales_file.parent)
    assert CLI_LINES
    for line in CLI_LINES:
        program, *argv = shlex.split(line)
        assert program == "stockcast"
        assert main(argv) == EXIT_OK, line


def test_readme_has_module_references():
    assert REFERENCES


@pytest.mark.parametrize("reference", REFERENCES)
def test_module_reference_resolves(reference):
    module, *attributes = reference.split(".")
    target = importlib.import_module(f"stockcast.{module}")
    for attribute in attributes:
        target = getattr(target, attribute)
