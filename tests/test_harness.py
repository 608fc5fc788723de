"""Ingestion, augmentation, batch evaluation, summaries, and export."""

from __future__ import annotations

import csv
import dataclasses
import json
from datetime import date

import numpy as np
import pytest

from conftest import PAIRS_538100, series_from, sku_rows, write_jsonl
from stockcast.harness import (
    EvaluationRecord,
    IngestError,
    SalesDataset,
    Window,
    augment,
    evaluate,
    export_report,
    ingest,
    read_records,
    render_summary,
    summarize,
)

FEB = Window.parse("2021-02")
MAR = Window.parse("2021-03")


class TestWindow:
    def test_month_shorthand(self):
        assert FEB.start == date(2021, 2, 1)
        assert FEB.end == date(2021, 2, 28)
        assert FEB.n_days == 28

    def test_explicit_range(self):
        window = Window.parse("2021-03-05..2021-03-09")
        assert window.n_days == 5
        assert window.day_index(date(2021, 3, 7)) == 3

    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError):
            Window.parse("2021-03-09..2021-03-05")


class TestIngest:
    def test_three_row_file(self, tmp_path):
        path = tmp_path / "tiny.jsonl"
        write_jsonl(path, sku_rows(7, date(2021, 2, 1), [0, 2, 1]))
        dataset = ingest(path)
        series = dataset.series(7, FEB)
        assert series.n_days == 3
        assert series.quantities == [0, 2, 1]

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "tiny.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["sku", "date", "sold_quantity"])
            writer.writerow([7, "2021-02-01", 0])
            writer.writerow([7, "2021-02-03", 2])
        dataset = ingest(path)
        series = dataset.series(7, FEB)
        assert series.quantities == [0, 2]
        # the gap on 2021-02-02 is an absent day, not a zero-sales day
        assert series.n_days == 2

    def test_single_month_sku_is_not_evaluable(self, tmp_path):
        path = tmp_path / "feb_only.jsonl"
        write_jsonl(path, sku_rows(9, date(2021, 2, 1), [1, 0, 2]))
        dataset = ingest(path)
        assert dataset.series(9, FEB) is not None
        assert dataset.series(9, MAR) is None
        assert evaluate(dataset, train_window=FEB, test_window=MAR) == []

    def test_duplicate_day_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        rows = sku_rows(7, date(2021, 2, 1), [0, 2])
        rows.append(rows[-1])
        write_jsonl(path, rows)
        with pytest.raises(IngestError, match="duplicate"):
            ingest(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        with open(path, "w") as handle:
            handle.write(json.dumps({"sku": 1, "date": "2021-02-01", "sold_quantity": 1}) + "\n")
            handle.write("{not json}\n")
        with pytest.raises(IngestError, match="line 2"):
            ingest(path)

    def test_missing_field_reports_line(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        with open(path, "w") as handle:
            handle.write(json.dumps({"sku": 1, "date": "2021-02-01"}) + "\n")
        with pytest.raises(IngestError, match="line 1"):
            ingest(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError):
            ingest(tmp_path / "nope.jsonl")


class TestAugment:
    def test_reference_sku_pairs(self, mar_series):
        assert augment(mar_series, MAR) == PAIRS_538100

    def test_single_sale(self):
        series = series_from([0, 0, 0, 0, 2], start=date(2021, 3, 1))
        assert augment(series, MAR) == [(2, 5)]

    def test_all_zero_series(self):
        series = series_from([0, 0, 0], start=date(2021, 3, 1))
        assert augment(series, MAR) == []

    def test_idempotent_and_strictly_increasing(self, mar_series):
        first = augment(mar_series, MAR)
        second = augment(mar_series, MAR)
        assert first == second
        ms = [m for m, _ in first]
        assert all(b > a for a, b in zip(ms, ms[1:]))
        us = [u for _, u in first]
        assert all(b > a for a, b in zip(us, us[1:]))

    def test_default_day_of_month(self, mar_series):
        assert augment(mar_series) == PAIRS_538100


def _dataset(tmp_path, rows):
    path = tmp_path / "sales.jsonl"
    write_jsonl(path, rows)
    return ingest(path)


def perfect_sku_rows(sku=1):
    """Constant one-a-day sales: the empirical forecast is a unit step at
    the true stockout day, so every record scores zero."""
    return sku_rows(sku, date(2021, 2, 1), [1] * 28) + sku_rows(sku, date(2021, 3, 1), [1] * 31)


class TestEvaluate:
    def test_perfect_forecast_scores_zero(self, tmp_path):
        dataset = _dataset(tmp_path, perfect_sku_rows())
        records = evaluate(dataset, train_window=FEB, test_window=MAR, models=("nfq",))
        assert len(records) == 31
        assert all(r.status == "scored" for r in records)
        assert all(r.rps == 0.0 for r in records)

    def test_reference_sku_all_models_scored(self, ref_sales_file):
        dataset = ingest(ref_sales_file)
        records = evaluate(
            dataset, train_window=FEB, test_window=MAR, models=("nfq", "poisson", "bnbp")
        )
        assert len(records) == 3 * len(PAIRS_538100)
        assert {r.status for r in records} == {"scored"}
        bnbp = [r for r in records if r.model == "bnbp"]
        assert {r.branch for r in bnbp} == {"binomial"}

    def test_ddof_switch_changes_branch(self, ref_sales_file):
        dataset = ingest(ref_sales_file)
        records = evaluate(
            dataset, train_window=FEB, test_window=MAR, models=("bnbp",), moment_ddof=1
        )
        assert {r.branch for r in records} == {"negative_binomial"}

    def test_zero_training_sales_skipped(self, tmp_path):
        rows = sku_rows(3, date(2021, 2, 1), [0] * 28) + sku_rows(3, date(2021, 3, 1), [1, 0, 2])
        dataset = _dataset(tmp_path, rows)
        records = evaluate(
            dataset, train_window=FEB, test_window=MAR, models=("nfq", "poisson", "bnbp")
        )
        assert len(records) == 6
        assert {r.status for r in records} == {"skipped"}
        assert {r.reason for r in records} == {"zero_train_sales"}

    def test_normalization_undefined_skip(self, tmp_path):
        # NFQ caps daily demand at 1; stock 40 cannot clear in 31 days
        rows = sku_rows(4, date(2021, 2, 1), [1] * 28) + sku_rows(
            4, date(2021, 3, 1), [40] + [0] * 30
        )
        dataset = _dataset(tmp_path, rows)
        records = evaluate(dataset, train_window=FEB, test_window=MAR, models=("nfq",))
        assert len(records) == 1
        assert records[0].status == "skipped"
        assert records[0].reason == "normalization_undefined"

    def test_exclusion_marking(self, tmp_path):
        # slow seller, large hypothetical stock: stockout within the month
        # keeps probability below one half
        rows = sku_rows(5, date(2021, 2, 1), [1, 0, 0, 0] * 7) + sku_rows(
            5, date(2021, 3, 1), [9] + [0] * 30
        )
        dataset = _dataset(tmp_path, rows)
        unfiltered = evaluate(dataset, train_window=FEB, test_window=MAR, models=("nfq",))
        assert unfiltered[0].status == "scored"
        assert unfiltered[0].p0_at_d < 0.5
        filtered = evaluate(
            dataset, train_window=FEB, test_window=MAR, models=("nfq",), exclusion_threshold=0.5
        )
        assert filtered[0].status == "excluded"
        assert filtered[0].rps == unfiltered[0].rps

    def test_threshold_zero_identical_to_off(self, ref_sales_file):
        dataset = ingest(ref_sales_file)
        base = evaluate(dataset, train_window=FEB, test_window=MAR, models=("nfq", "bnbp"))
        zeroed = evaluate(
            dataset,
            train_window=FEB,
            test_window=MAR,
            models=("nfq", "bnbp"),
            exclusion_threshold=0.0,
        )
        assert base == zeroed

    def test_every_pair_lands_in_one_bucket(self, tmp_path):
        rows = (
            perfect_sku_rows(1)
            + sku_rows(3, date(2021, 2, 1), [0] * 28)
            + sku_rows(3, date(2021, 3, 1), [1, 0, 2])
            + sku_rows(5, date(2021, 2, 1), [1, 0, 0, 0] * 7)
            + sku_rows(5, date(2021, 3, 1), [9] + [0] * 30)
        )
        dataset = _dataset(tmp_path, rows)
        records = evaluate(
            dataset,
            train_window=FEB,
            test_window=MAR,
            models=("nfq", "poisson", "bnbp"),
            exclusion_threshold=0.5,
        )
        n_pairs = 31 + 2 + 1
        assert len(records) == 3 * n_pairs
        by_status = {}
        for record in records:
            by_status[record.status] = by_status.get(record.status, 0) + 1
        assert sum(by_status.values()) == len(records)
        seen = {(r.sku, r.m, r.u, r.model) for r in records}
        assert len(seen) == len(records)

    def test_rps_bounded_by_horizon(self, ref_sales_file):
        dataset = ingest(ref_sales_file)
        records = evaluate(
            dataset, train_window=FEB, test_window=MAR, models=("nfq", "poisson", "bnbp", "uniform")
        )
        assert all(r.rps <= 31.0 for r in records if r.rps is not None)

    def test_parallel_matches_sequential(self, tmp_path):
        rows = []
        rng = np.random.default_rng(7)
        for sku in range(1, 13):
            feb = rng.poisson(0.8, size=28).tolist()
            mar = rng.poisson(0.8, size=31).tolist()
            rows += sku_rows(sku, date(2021, 2, 1), feb) + sku_rows(sku, date(2021, 3, 1), mar)
        dataset = _dataset(tmp_path, rows)
        kwargs = dict(
            train_window=FEB, test_window=MAR, models=("nfq", "poisson", "bnbp"),
            exclusion_threshold=0.5,
        )
        sequential = evaluate(dataset, jobs=1, **kwargs)
        parallel = evaluate(dataset, jobs=3, **kwargs)
        assert sequential == parallel

    def test_uniform_control_mean_near_baseline(self, tmp_path):
        # one uniformly placed sale day per SKU: scores concentrate on the
        # analytic one-sixth-of-horizon baseline
        rng = np.random.default_rng(2021)
        rows = []
        n_skus = 2000
        for sku in range(n_skus):
            day = int(rng.integers(1, 32))
            mar = [0] * 31
            mar[day - 1] = 1
            rows += sku_rows(sku, date(2021, 2, 1), [1, 0]) + sku_rows(
                sku, date(2021, 3, 1), mar
            )
        dataset = _dataset(tmp_path, rows)
        records = evaluate(dataset, train_window=FEB, test_window=MAR, models=("uniform",))
        scores = np.array([r.rps for r in records])
        assert len(scores) == n_skus
        assert abs(scores.mean() - 31 / 6) <= 0.15

    def test_unknown_model_rejected(self, ref_sales_file):
        dataset = ingest(ref_sales_file)
        with pytest.raises(ValueError):
            evaluate(dataset, train_window=FEB, test_window=MAR, models=("arima",))

    def test_sale_beyond_horizon_skipped(self, tmp_path):
        # a 35-day test window with a sale on day 34 cannot be scored
        # against a 31-day forecast
        long_window = Window.parse("2021-03-01..2021-04-04")
        late_sale = [2] + [0] * 32 + [1]
        rows = (
            sku_rows(6, date(2021, 2, 1), [1, 1])
            + sku_rows(6, date(2021, 3, 1), late_sale)
            + sku_rows(8, date(2021, 2, 1), [0, 0])
            + sku_rows(8, date(2021, 3, 1), late_sale)
        )
        dataset = _dataset(tmp_path, rows)
        records = evaluate(
            dataset,
            train_window=FEB,
            test_window=long_window,
            models=("nfq", "poisson", "bnbp", "uniform"),
        )
        by_u = {(r.sku, r.model, r.u): r for r in records}
        assert by_u[(6, "nfq", 1)].status == "scored"
        assert by_u[(6, "nfq", 34)].status == "skipped"
        assert by_u[(6, "nfq", 34)].reason == "beyond_horizon"
        assert by_u[(6, "uniform", 34)].reason == "beyond_horizon"
        # a reason that covers the whole tag comes before the per-pair one
        for tag in ("nfq", "poisson", "bnbp"):
            assert by_u[(8, tag, 1)].reason == "zero_train_sales"
            assert by_u[(8, tag, 34)].reason == "zero_train_sales"
        assert by_u[(8, "uniform", 1)].status == "scored"
        assert by_u[(8, "uniform", 34)].reason == "beyond_horizon"

    def test_each_window_scanned_once_per_sku(self, tmp_path, monkeypatch):
        rows = (
            perfect_sku_rows(1)
            + sku_rows(2, date(2021, 2, 1), [1, 0, 2])
            + sku_rows(3, date(2021, 3, 1), [0, 1])
        )
        dataset = _dataset(tmp_path, rows)
        calls = []
        series = SalesDataset.series

        def counted(self, sku, window):
            calls.append(sku)
            return series(self, sku, window)

        monkeypatch.setattr(SalesDataset, "series", counted)
        records = evaluate(dataset, train_window=FEB, test_window=MAR, models=("nfq", "uniform"))
        assert {r.sku for r in records} == {1}
        assert all(calls.count(sku) <= 2 for sku in dataset.skus)


class TestSummarize:
    def test_all_zero_scores(self):
        records = [
            EvaluationRecord(1, m, m, "nfq", None, 0.0, 5, 1.0, "scored") for m in range(1, 6)
        ]
        report = summarize(records)
        assert report.models["nfq"].mean == 0.0
        assert report.models["nfq"].median == 0.0

    def test_quartiles_linear_interpolation(self):
        records = [
            EvaluationRecord(sku, 1, 1, "nfq", None, float(v), 2, 1.0, "scored")
            for sku, v in enumerate([1.0, 2.0, 3.0, 4.0])
        ]
        stats = summarize(records).models["nfq"]
        assert stats.mean == 2.5
        assert stats.median == 2.5
        assert stats.q1 == 1.75
        assert stats.q3 == 3.25

    def test_strata_counts_reconcile(self, ref_sales_file):
        dataset = ingest(ref_sales_file)
        records = evaluate(dataset, train_window=FEB, test_window=MAR, models=("nfq", "bnbp"))
        report = summarize(records)
        for tag, stats in report.models.items():
            assert stats.n_evals == sum(s.n_evals for s in report.strata[tag])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_render_mentions_references(self, ref_sales_file):
        dataset = ingest(ref_sales_file)
        records = evaluate(dataset, train_window=FEB, test_window=MAR, models=("nfq",))
        text = render_summary(summarize(records))
        assert "5.17" in text
        assert "3.71" in text


class TestExport:
    def _records(self, n=10):
        return [
            EvaluationRecord(sku, sku + 1, sku + 1, "nfq", None, float(sku % 4), 3, 1.0, "scored")
            for sku in range(n)
        ]

    def test_empty_rejected_before_writing(self, tmp_path):
        report = summarize(self._records())
        out = tmp_path / "out"
        with pytest.raises(ValueError):
            export_report(report, [], out)
        assert not out.exists()

    def test_single_model_writes_four_files(self, tmp_path):
        records = self._records(10)
        report = summarize(records)
        paths = export_report(report, records, tmp_path / "out")
        names = sorted(p.name for p in paths)
        assert names == ["histogram.csv", "records.csv", "strata.csv", "summary.json"]
        with open(tmp_path / "out" / "records.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == [
            "sku", "m", "u", "model", "branch", "rps", "train_days_with_sales", "status", "reason"
        ]
        assert len(rows) == 11
        with open(tmp_path / "out" / "summary.json") as handle:
            payload = json.load(handle)
        assert payload["models"]["nfq"]["n_evals"] == 10
        assert payload["benchmark_rps"] == 3.71

    def test_records_round_trip(self, tmp_path):
        records = self._records(4) + [
            EvaluationRecord("007", 2, 34, "nfq", None, None, 0, None, "skipped", "beyond_horizon"),
            EvaluationRecord(9, 3, 5, "bnbp", "binomial", None, 2, None, "skipped", "estimation_degenerate"),
        ]
        export_report(summarize(records), records, tmp_path / "out")
        back = read_records(tmp_path / "out" / "records.csv")
        # the table holds no p0_at_d
        assert back == [dataclasses.replace(r, sku=str(r.sku), p0_at_d=None) for r in records]

    def test_records_without_reason_column_load(self, tmp_path):
        path = tmp_path / "records.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["sku", "m", "u", "model", "branch", "rps", "train_days_with_sales", "status"])
            writer.writerow([7, 1, 1, "nfq", "", "0.5", 3, "scored"])
            writer.writerow([7, 2, 34, "nfq", "", "", 3, "skipped"])
        scored, skipped = read_records(path)
        assert (scored.rps, scored.reason) == (0.5, None)
        assert skipped.reason == "unrecorded"

    def test_histogram_covers_score_range(self, tmp_path):
        records = self._records(10)
        report = summarize(records)
        export_report(report, records, tmp_path / "out")
        with open(tmp_path / "out" / "histogram.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert float(rows[0]["bin_lo"]) == 0.0
        assert float(rows[-1]["bin_hi"]) == 31.0
        assert sum(int(r["count"]) for r in rows) == 10

    def test_multi_model_files_are_suffixed(self, ref_sales_file, tmp_path):
        dataset = ingest(ref_sales_file)
        records = evaluate(dataset, train_window=FEB, test_window=MAR, models=("nfq", "bnbp"))
        report = summarize(records)
        paths = export_report(report, records, tmp_path / "out")
        names = {p.name for p in paths}
        assert "histogram_nfq.csv" in names
        assert "strata_bnbp.csv" in names
