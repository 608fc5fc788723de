"""Byte-level golden outputs of ``evaluate`` + ``export_report``: every
exported file keeps its sha256, and the process pool writes the same
bytes as one process."""

from __future__ import annotations

import hashlib
from datetime import date

import numpy as np
import pytest

from conftest import sku_rows, write_jsonl
from stockcast import harness
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


def _blocks_file(path):
    """SKUs whose fits fall into several kernel blocks per tag, and one
    selling about 40 a day, whose support puts it in a block of its own."""
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
        "records.csv": "8ddb893f90cae07ae0e0de1bd2485c658460b2cb1a86bda9f97956da73afbc65",
        "strata_bnbp.csv": "f4b262a081389dd173914e8edd15353831c6b2da45c60d7b6518b6ab9df017fb",
        "strata_nfq.csv": "8fea0a552ca39d0ee7337f9a05444346a395f9ee704b535b9c3f0a68e5ccd40f",
        "strata_poisson.csv": "55145aad627f86af655743d98ddc952a75b00db9951950be435442b011e1f87f",
        "strata_uniform.csv": "be2286a0850c0360498878a1978b1d72534c66f2b3ad2fca0ba297d41f97d097",
        "summary.json": "32c6d22e02435b18bcc7a5f1b4cff28ab261cac90fe51cd61e36d081d80077e4",
    },
    ("blocks", 0.5): {
        "histogram_bnbp.csv": "3098427493f5af2b8ddeca862902875b77795aa56417580993d86dc11e0bb5e4",
        "histogram_nfq.csv": "3b6576918ddad7ea29318b92aa5d76366533eb93ebf7e2ea988a0370fa0b2dc0",
        "histogram_poisson.csv": "007f89ea80341c37e3f906eeabad37bfe108eed8b7868e624f83a7572d46a015",
        "histogram_uniform.csv": "78e2816dac7bef8ae0b1a276172d21e1443660b0c4fb14e29d0d43b8a66efdcb",
        "records.csv": "fbd365acb1481f4408469bbc4a40345b1a7433ce0bb6049ce7e32f240ab2fcf9",
        "strata_bnbp.csv": "b93607d2f55eccd160002841f0fc0c51b1f90181fff8318d95248027d3a23db2",
        "strata_nfq.csv": "0709e3305c160294cfe70aa0607cc845da1e235188fd98507a84d06048f42283",
        "strata_poisson.csv": "3659a64b68c7c5deb92b1ff344c01a0e39ea6fe05f905d53b83a9cfd58a714f3",
        "strata_uniform.csv": "be2286a0850c0360498878a1978b1d72534c66f2b3ad2fca0ba297d41f97d097",
        "summary.json": "30721b598fa6237f9916078a59fa2fd04e8e29fb3967e1338c03d2892dfda1f3",
    },
    ("mixed", None): {
        "histogram_bnbp.csv": "0c1a14c01cd88a4f1957a9866bc1f97a30677c2de6a650c80cc237151fb911fc",
        "histogram_nfq.csv": "45acfc2a2ab436939e49734e915175560efecd3f1ed555c11c9f72016817c859",
        "histogram_poisson.csv": "85ba767695cacd2a79a999af40158b66f42b03850105e079052bde488dcba380",
        "histogram_uniform.csv": "34377468bb859616cf10d7d4f6f882fdf2f26919ea1a1c034f00560b45853fb1",
        "records.csv": "62bb515d9fa5e698611e53618b1303b3e747a28b3a5c9eb98c3437899b4de578",
        "strata_bnbp.csv": "4567822bbd23d565de011311112e0adc7fef32997cb7f9f2324bc47161945fe1",
        "strata_nfq.csv": "c901cd3d8b820b1be0046aae0f3fca2d670a9a4940e7ea3394c1feaf14198072",
        "strata_poisson.csv": "de7b74af3304658fa839ba5fd01db3002eb696d5eb3a6ba1d50d1913f9f28014",
        "strata_uniform.csv": "b218ddc09fd64f6a3d7242734aa72127ad7c1679de8c7b16872c578042716f06",
        "summary.json": "c03b1a16d708e0001b313a4caa0adcc4c2652d2156bd898305c59b9c5b2e1586",
    },
    ("mixed", 0.5): {
        "histogram_bnbp.csv": "822e26782b6f46a9ce6e27bc3adbc21a4996b7588ecd5e6f674785c1733a40cc",
        "histogram_nfq.csv": "7bf0984c7c303df3898f3fa58286469d4032a296d2708d8de1a5b9a8c0f9dfa3",
        "histogram_poisson.csv": "4ed21c12ee7cb76f41aea13023af443d2d1f4a4c15c8241046b7b6661d22f77e",
        "histogram_uniform.csv": "34377468bb859616cf10d7d4f6f882fdf2f26919ea1a1c034f00560b45853fb1",
        "records.csv": "586ad6bfbc0dda10e9c8d4d451b1c1242c7ee0a2af41e4af370c79eb256cbfb6",
        "strata_bnbp.csv": "2c3504b0f354b8c297c11c6d405c0923d4f30197d94710fd86665856acd6fc0c",
        "strata_nfq.csv": "b374c3a2968c5e2add9b4e6d955ed2ae8672abb1601539b6dc9f4b0d07045045",
        "strata_poisson.csv": "55d9afd65e9a9bfbc80fad9689740f5e066ce19e5fe28bb89b4f69c98cea8e31",
        "strata_uniform.csv": "b218ddc09fd64f6a3d7242734aa72127ad7c1679de8c7b16872c578042716f06",
        "summary.json": "bb478b776e2b02fe85525b9c29c2f196c824da8eaa7ea2f9309990aa641f61ee",
    },
    ("ref", None): {
        "histogram_bnbp.csv": "4e4feebffa1bd5e5a4df98750a3ecfc8b3953aca213e747345c0976d869f7e8a",
        "histogram_nfq.csv": "4e4feebffa1bd5e5a4df98750a3ecfc8b3953aca213e747345c0976d869f7e8a",
        "histogram_poisson.csv": "4e4feebffa1bd5e5a4df98750a3ecfc8b3953aca213e747345c0976d869f7e8a",
        "histogram_uniform.csv": "f7497bf2c50c4da250b8e75f0a78ba28e252c59f788a0dc0dd31c8081c56b256",
        "records.csv": "8472b53ac51b343a583562b124731f96bb30ff41a6fe31a791a89ea79d36473b",
        "strata_bnbp.csv": "5dab530ba1cd2b24f399f2fc32fcae9b915e7db6bbebe412cf9efe6645075303",
        "strata_nfq.csv": "10d879c97026be7c305ae9ea54ed63e0275776edbe91932cf0fe2a9cb3eca5d5",
        "strata_poisson.csv": "83ea145263aaed55afabcc8e4de989bb07b44e14dbcf7967af04cfd7e9d850c5",
        "strata_uniform.csv": "00f1118f17880c885a88ae859e1add06af4db29b409831cfd88e7c04cfdb4448",
        "summary.json": "695236568434d4ad65d1fa80062c9ea10158bf687d1b424a591034a7bc984d1b",
    },
    ("ref", 0.5): {
        "histogram_bnbp.csv": "9a7631862d6c5b5266da254eb1b6f83d9a1eca2e00b1bd9ff6f0b72cbc60548a",
        "histogram_nfq.csv": "9a7631862d6c5b5266da254eb1b6f83d9a1eca2e00b1bd9ff6f0b72cbc60548a",
        "histogram_poisson.csv": "9a7631862d6c5b5266da254eb1b6f83d9a1eca2e00b1bd9ff6f0b72cbc60548a",
        "histogram_uniform.csv": "f7497bf2c50c4da250b8e75f0a78ba28e252c59f788a0dc0dd31c8081c56b256",
        "records.csv": "29c323a1f17347c4224fa1fddd9102ee608e41b56bc6805fa9a026ce97e036cf",
        "strata_bnbp.csv": "6dd92c0646356120cdf1c6740b16a0a858e3a22c7b2c26cd9b374eff164c18ae",
        "strata_nfq.csv": "56992e36b273717bc5d30fdd77efe0a094267cae902c1e3d4145e3f725759250",
        "strata_poisson.csv": "167c1eed8fa74abbcbf5e76192a1566004909822ccc9cf2d5393fa407202152c",
        "strata_uniform.csv": "00f1118f17880c885a88ae859e1add06af4db29b409831cfd88e7c04cfdb4448",
        "summary.json": "fd4c591375c845ec6012e1ed3c3ca6e93d9ccb66f7e3e0c48e38809cdf68928f",
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
    path = ref_sales_file if case == "ref" else FILES[case](tmp_path / f"{case}.jsonl")
    digests = _run(path, tmp_path / "one", case, threshold, jobs=1)
    assert digests == GOLDEN[(case, threshold)]
    assert _run(path, tmp_path / "two", case, threshold, jobs=2) == digests


def test_blocks_case_spans_several_blocks(tmp_path, monkeypatch):
    sizes = {}
    for name in ("stockout_rows_block", "stockout_tail_block"):

        def counted(models, level_lists, horizon, name=name, kernel=getattr(harness, name)):
            sizes.setdefault(name, []).append((len(models), max(max(levels) for levels in level_lists)))
            return kernel(models, level_lists, horizon)

        monkeypatch.setattr(harness, name, counted)
    evaluate(ingest(_blocks_file(tmp_path / "blocks.jsonl")), train_window=FEB, models=MODEL_TAGS, **CASES["blocks"])
    # the SKU selling about 40 a day stocks over a thousand units, alone in its
    # block under nfq, poisson and bnbp; the others share blocks
    for name, tags in (("stockout_rows_block", 1), ("stockout_tail_block", 2)):
        assert sum(n > 1 for n, _ in sizes[name]) >= 2 * tags
        assert [n for n, top in sizes[name] if top > 1000] == [1] * tags
