"""Byte-level golden outputs of ``evaluate`` + ``export_report``: every
exported file keeps its sha256, and the process pool writes the same
bytes as one process."""

from __future__ import annotations

import hashlib
from datetime import date

import numpy as np
import pytest

from conftest import sku_rows, write_jsonl
from stockcast.harness import MODEL_TAGS, Window, evaluate, export_report, ingest, summarize

FEB = Window.parse("2021-02")
MAR = Window.parse("2021-03")
# five days past the horizon: the last sales of a SKU are beyond_horizon
LONG = Window.parse("2021-03-01..2021-04-04")


def _mixed_file(path):
    """Several SKUs that reach every status and skip reason under ddof 1."""
    rng = np.random.default_rng(11)
    rows = []
    for sku in (1, 2, 3, "007", "a,b"):
        rows += sku_rows(sku, date(2021, 2, 1), rng.poisson(1.2, size=28).tolist())
        rows += sku_rows(sku, date(2021, 3, 1), rng.poisson(1.2, size=35).tolist())
    rows += sku_rows(4, date(2021, 2, 1), [0] * 28) + sku_rows(4, date(2021, 3, 1), [1, 0, 2] + [0] * 31 + [1])
    rows += sku_rows(5, date(2021, 2, 1), [1] * 28) + sku_rows(5, date(2021, 3, 1), [40, 3])
    rows += sku_rows(6, date(2021, 2, 1), [3]) + sku_rows(6, date(2021, 3, 1), [0, 2, 1])
    write_jsonl(path, rows)
    return path


CASES = {
    "ref": dict(test_window=MAR, moment_ddof=0),
    "mixed": dict(test_window=LONG, moment_ddof=1),
}

GOLDEN = {
    ("mixed", None): {
        "histogram_bnbp.csv": "0c1a14c01cd88a4f1957a9866bc1f97a30677c2de6a650c80cc237151fb911fc",
        "histogram_nfq.csv": "45acfc2a2ab436939e49734e915175560efecd3f1ed555c11c9f72016817c859",
        "histogram_poisson.csv": "85ba767695cacd2a79a999af40158b66f42b03850105e079052bde488dcba380",
        "histogram_uniform.csv": "34377468bb859616cf10d7d4f6f882fdf2f26919ea1a1c034f00560b45853fb1",
        "records.csv": "81702faf32b5c61f75b77f833673562c23c1c6341eb338d0a4dc0fd02b06d8b4",
        "strata_bnbp.csv": "4567822bbd23d565de011311112e0adc7fef32997cb7f9f2324bc47161945fe1",
        "strata_nfq.csv": "5a73bb95281fb3e8b62857a1c7b0c7805027f912a48ce09c054de1e6e1b827ad",
        "strata_poisson.csv": "de7b74af3304658fa839ba5fd01db3002eb696d5eb3a6ba1d50d1913f9f28014",
        "strata_uniform.csv": "b218ddc09fd64f6a3d7242734aa72127ad7c1679de8c7b16872c578042716f06",
        "summary.json": "32115372b38065c41dde85b84babc334b05c92c5d5822543893ec6b64801d03d",
    },
    ("mixed", 0.5): {
        "histogram_bnbp.csv": "822e26782b6f46a9ce6e27bc3adbc21a4996b7588ecd5e6f674785c1733a40cc",
        "histogram_nfq.csv": "7bf0984c7c303df3898f3fa58286469d4032a296d2708d8de1a5b9a8c0f9dfa3",
        "histogram_poisson.csv": "4ed21c12ee7cb76f41aea13023af443d2d1f4a4c15c8241046b7b6661d22f77e",
        "histogram_uniform.csv": "34377468bb859616cf10d7d4f6f882fdf2f26919ea1a1c034f00560b45853fb1",
        "records.csv": "72eef3efec60e1586eb41c9758a2b144c895e747158072fb004e9523b37a1cb4",
        "strata_bnbp.csv": "2c3504b0f354b8c297c11c6d405c0923d4f30197d94710fd86665856acd6fc0c",
        "strata_nfq.csv": "e18b75fbcc4905f058ce9bd126891e65ac3e7d851799476116f7edae239e9e07",
        "strata_poisson.csv": "55d9afd65e9a9bfbc80fad9689740f5e066ce19e5fe28bb89b4f69c98cea8e31",
        "strata_uniform.csv": "b218ddc09fd64f6a3d7242734aa72127ad7c1679de8c7b16872c578042716f06",
        "summary.json": "abccd54ac3084cc671c000fd9ce296b19d0585e1c46bd9c4da619b4de405b3a2",
    },
    ("ref", None): {
        "histogram_bnbp.csv": "4e4feebffa1bd5e5a4df98750a3ecfc8b3953aca213e747345c0976d869f7e8a",
        "histogram_nfq.csv": "4e4feebffa1bd5e5a4df98750a3ecfc8b3953aca213e747345c0976d869f7e8a",
        "histogram_poisson.csv": "4e4feebffa1bd5e5a4df98750a3ecfc8b3953aca213e747345c0976d869f7e8a",
        "histogram_uniform.csv": "f7497bf2c50c4da250b8e75f0a78ba28e252c59f788a0dc0dd31c8081c56b256",
        "records.csv": "71bd8535edf31b5d878edcbe642b3c0dda545ea15e9e9acdb03f6cb6822b28a3",
        "strata_bnbp.csv": "5dab530ba1cd2b24f399f2fc32fcae9b915e7db6bbebe412cf9efe6645075303",
        "strata_nfq.csv": "cb64bcc19c7ed9212e05690fd34d7aa2f73ea082895478be44855fdd63655585",
        "strata_poisson.csv": "83ea145263aaed55afabcc8e4de989bb07b44e14dbcf7967af04cfd7e9d850c5",
        "strata_uniform.csv": "00f1118f17880c885a88ae859e1add06af4db29b409831cfd88e7c04cfdb4448",
        "summary.json": "6e6d75dbc5843998cd029233138db9645ce7c5a31ce9fb2cb75205ed207dc156",
    },
    ("ref", 0.5): {
        "histogram_bnbp.csv": "9a7631862d6c5b5266da254eb1b6f83d9a1eca2e00b1bd9ff6f0b72cbc60548a",
        "histogram_nfq.csv": "9a7631862d6c5b5266da254eb1b6f83d9a1eca2e00b1bd9ff6f0b72cbc60548a",
        "histogram_poisson.csv": "9a7631862d6c5b5266da254eb1b6f83d9a1eca2e00b1bd9ff6f0b72cbc60548a",
        "histogram_uniform.csv": "f7497bf2c50c4da250b8e75f0a78ba28e252c59f788a0dc0dd31c8081c56b256",
        "records.csv": "4373d83cecc645c64af18d74a19b497c782e8f284046e855544f389ad603c401",
        "strata_bnbp.csv": "6dd92c0646356120cdf1c6740b16a0a858e3a22c7b2c26cd9b374eff164c18ae",
        "strata_nfq.csv": "acdbb3f704cf10b389fe8311da5b7e87c260b5f6ca4ed3c73516ea474cf238c6",
        "strata_poisson.csv": "167c1eed8fa74abbcbf5e76192a1566004909822ccc9cf2d5393fa407202152c",
        "strata_uniform.csv": "00f1118f17880c885a88ae859e1add06af4db29b409831cfd88e7c04cfdb4448",
        "summary.json": "02b7261f5d8f0c64c0de6371370cec16995ffc57cf54d6caad450a73d621bf9c",
    },
}


def _run(path, out_dir, case: str, threshold, jobs: int) -> dict:
    records = evaluate(
        ingest(path),
        train_window=FEB,
        models=MODEL_TAGS,
        exclusion_threshold=threshold,
        jobs=jobs,
        **CASES[case],
    )
    export_report(summarize(records, exclusion_threshold=threshold), records, out_dir)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("threshold", [None, 0.5], ids=["unfiltered", "filtered"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_exports_keep_their_bytes(case, threshold, ref_sales_file, tmp_path):
    path = ref_sales_file if case == "ref" else _mixed_file(tmp_path / "mixed.jsonl")
    digests = _run(path, tmp_path / "one", case, threshold, jobs=1)
    assert digests == GOLDEN[(case, threshold)]
    assert _run(path, tmp_path / "two", case, threshold, jobs=2) == digests
