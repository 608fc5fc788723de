"""The README's Python examples and CLI lines run as written, so a public
name or option the README still uses but the package has dropped fails
here."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from stockcast.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)
# the lines of the first block under "## CLI", continuation lines joined
CLI_LINES = re.search(r"^## CLI\n\n```\n(.*?)^```", TEXT, flags=re.M | re.S)[1].replace("\\\n", "").splitlines()


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
