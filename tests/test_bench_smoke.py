"""One round of the benchmark on a seed of its own: every record of the
kernel-bound workloads agrees with the benchmark's scipy oracle, and the
data-path workload ingests its CSV file and re-reads its records.csv
(``report_ok``) at full size."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


@pytest.mark.parametrize("workload", ["meli-mix", "heavy-sellers", "long-tail-uniform"])
def test_one_round_is_correct(workload):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "2", "--seconds", "0"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0
    assert result["attempted"] > 0
