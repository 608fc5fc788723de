"""Byte-level golden outputs of ``evaluate`` + ``export_report``: every
exported file keeps its sha256, and the process pool writes the same
bytes as one process."""

from __future__ import annotations

import dataclasses
import hashlib
from datetime import date

import numpy as np
import pytest

from conftest import sku_rows, write_jsonl
from stockcast import closed_form, engine, harness
from stockcast.harness import MODEL_TAGS, Window, evaluate, export_report, ingest, read_records, summarize

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


def _blocks_file(path):
    """SKUs whose fits fall into several kernel blocks per tag, and one
    selling about 40 a day, whose support puts it in a tail block of its
    own."""
    rng = np.random.default_rng(5)
    rows = []
    for sku, rate in enumerate((0.3, 0.6, 1.0, 1.5, 2.5, 4.0, 6.0, 9.0), start=1):
        rows += sku_rows(sku, date(2021, 2, 1), rng.negative_binomial(2, 2 / (2 + rate), size=28).tolist())
        rows += sku_rows(sku, date(2021, 3, 1), rng.poisson(rate, size=31).tolist())
    # binomial and deterministic bnbp fits
    rows += sku_rows(9, date(2021, 2, 1), rng.binomial(6, 0.5, size=28).tolist())
    rows += sku_rows(9, date(2021, 3, 1), rng.binomial(6, 0.5, size=31).tolist())
    rows += sku_rows(10, date(2021, 2, 1), [2] * 28) + sku_rows(10, date(2021, 3, 1), [2, 3, 1] * 10)
    rows += sku_rows("wide", date(2021, 2, 1), rng.poisson(40, size=28).tolist())
    rows += sku_rows("wide", date(2021, 3, 1), rng.poisson(40, size=31).tolist())
    write_jsonl(path, rows)
    return path


CASES = {
    "ref": dict(test_window=MAR, moment_ddof=0),
    "mixed": dict(test_window=LONG, moment_ddof=1),
    "blocks": dict(test_window=MAR, moment_ddof=0),
}
FILES = {"mixed": _mixed_file, "blocks": _blocks_file}

GOLDEN = {
    ("blocks", None): {
        "histogram_bnbp.csv": "b8e25439601f68463429877c24f04deb9a87ae4f2b4f7d3f723018438a039408",
        "histogram_nfq.csv": "25df255aec35ac2e92ac05908f3d3b28a8546796a87a1eeff116e2b22b4a5066",
        "histogram_poisson.csv": "e5505ec31b5098b8a12c8d3f94158b8558cbf293951212458606c0c019065619",
        "histogram_uniform.csv": "78e2816dac7bef8ae0b1a276172d21e1443660b0c4fb14e29d0d43b8a66efdcb",
        "records.csv": "56fa50a139855ffd7a2a25fd122577127d0ff9a423dc7a48a2692ab2a5860972",
        "strata_bnbp.csv": "d8a0b1d8624fb0c4eb2aef8709691c1d090b1a696b25d713cca739e82bc8ced4",
        "strata_nfq.csv": "c1693ca5cdb8dac7a11fb484b9118498e929d55820e899a3bea975b365820414",
        "strata_poisson.csv": "55145aad627f86af655743d98ddc952a75b00db9951950be435442b011e1f87f",
        "strata_uniform.csv": "be2286a0850c0360498878a1978b1d72534c66f2b3ad2fca0ba297d41f97d097",
        "summary.json": "91c5414f05b27ce235d2e5b24d8f5626fa56066b3e99bc81a61d1b4adebec3c0",
    },
    ("blocks", 0.5): {
        "histogram_bnbp.csv": "3098427493f5af2b8ddeca862902875b77795aa56417580993d86dc11e0bb5e4",
        "histogram_nfq.csv": "3b6576918ddad7ea29318b92aa5d76366533eb93ebf7e2ea988a0370fa0b2dc0",
        "histogram_poisson.csv": "007f89ea80341c37e3f906eeabad37bfe108eed8b7868e624f83a7572d46a015",
        "histogram_uniform.csv": "78e2816dac7bef8ae0b1a276172d21e1443660b0c4fb14e29d0d43b8a66efdcb",
        "records.csv": "daeac684a620f6b209f63b356ed3e3c099006316154a8967544b60752b14b533",
        "strata_bnbp.csv": "09645b3e04edebf54451f365f245e277540125b3b0993f66dbf7581b08b2325a",
        "strata_nfq.csv": "a686747b1eeba6583a73e7cbe0cb56420a252d3e2ee041092f5894a18a50a79e",
        "strata_poisson.csv": "3659a64b68c7c5deb92b1ff344c01a0e39ea6fe05f905d53b83a9cfd58a714f3",
        "strata_uniform.csv": "be2286a0850c0360498878a1978b1d72534c66f2b3ad2fca0ba297d41f97d097",
        "summary.json": "355372f2a316cbfd2e762d849ca79480a75b2cfcbd2d1eaca2de419fbdb3162f",
    },
    ("mixed", None): {
        "histogram_bnbp.csv": "0c1a14c01cd88a4f1957a9866bc1f97a30677c2de6a650c80cc237151fb911fc",
        "histogram_nfq.csv": "45acfc2a2ab436939e49734e915175560efecd3f1ed555c11c9f72016817c859",
        "histogram_poisson.csv": "85ba767695cacd2a79a999af40158b66f42b03850105e079052bde488dcba380",
        "histogram_uniform.csv": "34377468bb859616cf10d7d4f6f882fdf2f26919ea1a1c034f00560b45853fb1",
        "records.csv": "469dcff575b5b59b7da497e68c2293606301946bdf4524d9f785afae00d073ac",
        "strata_bnbp.csv": "4567822bbd23d565de011311112e0adc7fef32997cb7f9f2324bc47161945fe1",
        "strata_nfq.csv": "7ce0c757538df79cdc05c2aa10033e75f55a9be0de3f6dc14e0aadb41b56b05a",
        "strata_poisson.csv": "de7b74af3304658fa839ba5fd01db3002eb696d5eb3a6ba1d50d1913f9f28014",
        "strata_uniform.csv": "b218ddc09fd64f6a3d7242734aa72127ad7c1679de8c7b16872c578042716f06",
        "summary.json": "b6a976f5c949030ca089db6cc0e7eae6e0147f97ccd29fbe557eceae50bc5d4d",
    },
    ("mixed", 0.5): {
        "histogram_bnbp.csv": "822e26782b6f46a9ce6e27bc3adbc21a4996b7588ecd5e6f674785c1733a40cc",
        "histogram_nfq.csv": "7bf0984c7c303df3898f3fa58286469d4032a296d2708d8de1a5b9a8c0f9dfa3",
        "histogram_poisson.csv": "4ed21c12ee7cb76f41aea13023af443d2d1f4a4c15c8241046b7b6661d22f77e",
        "histogram_uniform.csv": "34377468bb859616cf10d7d4f6f882fdf2f26919ea1a1c034f00560b45853fb1",
        "records.csv": "26019d832ffbc04799c2180b6529622669dda7d5efa2ef55032d30ea3f0a87a6",
        "strata_bnbp.csv": "2c3504b0f354b8c297c11c6d405c0923d4f30197d94710fd86665856acd6fc0c",
        "strata_nfq.csv": "f243d77ccf2ef08e82070c423e7c9f34156c1782626a2ffcd0d93b53646751cf",
        "strata_poisson.csv": "55d9afd65e9a9bfbc80fad9689740f5e066ce19e5fe28bb89b4f69c98cea8e31",
        "strata_uniform.csv": "b218ddc09fd64f6a3d7242734aa72127ad7c1679de8c7b16872c578042716f06",
        "summary.json": "eea8c61632b5c8a8819a725c26abefbfa211a154874caa51d2a9fe195800c241",
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


def _evaluate(path, case: str, threshold, jobs: int = 1) -> harness.RecordTable:
    return evaluate(
        ingest(path), train_window=FEB, models=MODEL_TAGS, exclusion_threshold=threshold, jobs=jobs, **CASES[case]
    )


def _run(path, out_dir, case: str, threshold, jobs: int) -> dict:
    records = _evaluate(path, case, threshold, jobs)
    export_report(summarize(records, exclusion_threshold=threshold), records, out_dir)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("threshold", [None, 0.5], ids=["unfiltered", "filtered"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_exports_keep_their_bytes(case, threshold, ref_sales_file, tmp_path):
    path = ref_sales_file if case == "ref" else FILES[case](tmp_path / f"{case}.jsonl")
    digests = _run(path, tmp_path / "one", case, threshold, jobs=1)
    assert digests == GOLDEN[(case, threshold)]
    assert _run(path, tmp_path / "two", case, threshold, jobs=2) == digests


@pytest.mark.parametrize("threshold", [None, 0.5], ids=["unfiltered", "filtered"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_records_read_back_as_evaluated(case, threshold, ref_sales_file, tmp_path):
    path = ref_sales_file if case == "ref" else FILES[case](tmp_path / f"{case}.jsonl")
    records = _evaluate(path, case, threshold)
    export_report(summarize(records, exclusion_threshold=threshold), records, tmp_path / "out")
    # records.csv holds no p0_at_d, and each SKU as its text
    expected = [dataclasses.replace(r, sku=str(r.sku), p0_at_d=None) for r in records]
    assert read_records(tmp_path / "out" / "records.csv") == expected


def test_mixed_case_reaches_every_status_and_skip_reason(tmp_path):
    records = _evaluate(_mixed_file(tmp_path / "mixed.jsonl"), "mixed", 0.5)
    assert {r.status for r in records} == {"scored", "excluded", "skipped"}
    assert {r.reason for r in records} == {None, *harness._REASONS}


def test_blocks_case_spans_several_blocks(tmp_path, monkeypatch):
    path = _blocks_file(tmp_path / "blocks.jsonl")
    sizes = {}
    for owner, name in ((engine, "stockout_rows_block"), (harness, "stockout_tail_block")):

        def counted(models, level_lists, horizon, name=name, kernel=getattr(owner, name)):
            # the nfq blocks pass through the tail kernel to the sweep, and count there alone
            if name == "stockout_rows_block" or models[0].kind != "frequentist":
                sizes.setdefault(name, []).append((len(models), max(max(levels) for levels in level_lists)))
            return kernel(models, level_lists, horizon)

        monkeypatch.setattr(owner, name, counted)
    default = _run(path, tmp_path / "default", "blocks", None, jobs=1)
    # at the default caps every nfq SKU fits in one block, and so do the
    # parametric SKUs of each family: binomial, deterministic, negative
    # binomial (bnbp), then poisson
    assert len(sizes.pop("stockout_rows_block")) == 1
    assert [n for n, _ in sizes.pop("stockout_tail_block")] == [1, 1, 9, 11]
    # at two SKUs' rows per block the others share blocks, and the SKU selling
    # about 40 a day, the widest, sorts last, alone in its block under poisson
    # and bnbp; no byte moves
    monkeypatch.setattr(closed_form, "_MAX_ROWS", 2 * 31)
    assert _run(path, tmp_path / "rows", "blocks", None, jobs=1) == default
    tails = sizes.pop("stockout_tail_block")
    assert sum(n > 1 for n, _ in tails) >= 4
    assert [n for n, top in tails if top > 1000] == [1, 1]
    # a cap of 2^8 cells cuts the nfq SKUs into several blocks of several SKUs,
    # and the tail kernel's grids into chunks of rows; no byte moves
    sizes.clear()
    chunks = []

    def weights(family, params, days, widths, width, kernel=closed_form._weights):
        chunks.append((days.size, width))
        return kernel(family, params, days, widths, width)

    monkeypatch.setattr(closed_form, "_weights", weights)
    monkeypatch.setattr(closed_form, "_MAX_CELLS", 1 << 8)
    assert _run(path, tmp_path / "cut", "blocks", None, jobs=1) == default
    assert sum(n > 1 for n, _ in sizes["stockout_rows_block"]) >= 2
    assert len(chunks) > len(sizes["stockout_tail_block"])
    assert all(rows == 1 or rows * width <= 1 << 8 for rows, width in chunks)
