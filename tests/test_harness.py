"""Ingestion, augmentation, batch evaluation, summaries, and export."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import random
import tempfile
import tracemalloc
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sps

from conftest import (
    FEB_538100,
    MAR_538100,
    PAIRS_538100,
    augment,
    dated,
    empirical,
    record_table,
    sku_rows,
    write_jsonl,
)
from stockcast import engine, harness
from stockcast.closed_form import closed_form_curve
from stockcast.demand import PoissonDemand, fit_columns
from stockcast.engine import solve_recursive, stockout_rows_block
from stockcast.harness import (
    EvaluationRecord,
    IngestError,
    SalesDataset,
    Window,
    evaluate,
    export_report,
    ingest,
    parse_sku,
    read_records,
    render_summary,
    summarize,
)
from stockcast.metrics import OutcomeStep, normalize_curve, rps_discrete, uniform_forecast
from stockcast.special import ConvergenceError

FEB = Window.parse("2021-02")
MAR = Window.parse("2021-03")
GOOD_ROW = '{"sku": 1, "date": "2021-02-01", "sold_quantity": 1}'


class TestWindow:
    def test_month_shorthand(self):
        assert FEB.start == date(2021, 2, 1)
        assert FEB.end == date(2021, 2, 28)

    @pytest.mark.parametrize(
        ("text", "start", "end"),
        [
            ("2021-03-05..2021-03-09", date(2021, 3, 5), date(2021, 3, 9)),
            (" 2021-03-05..2021-03-05 ", date(2021, 3, 5), date(2021, 3, 5)),
            ("2020-02", date(2020, 2, 1), date(2020, 2, 29)),
            ("2021-12", date(2021, 12, 1), date(2021, 12, 31)),
        ],
    )
    def test_explicit_range(self, text, start, end):
        window = Window.parse(text)
        assert (window.start, window.end) == (start, end)

    @pytest.mark.parametrize(
        "text",
        # basic and week forms that only some Python versions read, then neither form at all
        ["20210201..20210214", "2021-02-01..2021-W08-1", "2021-02-01", "2021", "feb", "2021-13", "2021-2",
         "2021-02-30..2021-03-01", "2021-02..2021-03", ""],
    )
    def test_bad_window_is_one_named_error(self, text):
        with pytest.raises(ValueError) as caught:
            Window.parse(text)
        assert str(caught.value) == f"bad window {text!r}: expected a month YYYY-MM or a range YYYY-MM-DD..YYYY-MM-DD"

    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError):
            Window.parse("2021-03-09..2021-03-05")


class TestIngest:
    def test_three_row_file(self, tmp_path):
        path = tmp_path / "tiny.jsonl"
        write_jsonl(path, sku_rows(7, date(2021, 2, 1), [0, 2, 1]))
        dataset = ingest(path)
        assert dataset.quantities(7, FEB).tolist() == [0, 2, 1]
        # a caller's write reaches no later read of the dataset
        dataset.quantities(7, FEB)[:] = 9
        assert dataset.quantities(7, FEB).tolist() == [0, 2, 1]

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "tiny.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["sku", "date", "sold_quantity"])
            writer.writerow([7, "2021-02-01", 0])
            writer.writerow([7, "2021-02-03", 2])
        dataset = ingest(path)
        # the gap on 2021-02-02 is an absent day, not a zero-sales day
        assert dataset.quantities(7, FEB).tolist() == [0, 2]

    def test_single_month_sku_is_not_evaluable(self, tmp_path):
        path = tmp_path / "feb_only.jsonl"
        write_jsonl(path, sku_rows(9, date(2021, 2, 1), [1, 0, 2]))
        dataset = ingest(path)
        assert dataset.quantities(9, FEB) is not None
        assert dataset.quantities(9, MAR) is None
        assert evaluate(dataset, train_window=FEB, test_window=MAR) == []

    def test_duplicate_day_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        rows = sku_rows(7, date(2021, 2, 1), [0, 2])
        rows.append(rows[-1])
        write_jsonl(path, rows)
        with pytest.raises(IngestError, match="duplicate"):
            ingest(path)

    def test_a_sorted_file_is_read_as_its_shuffled_copy(self, tmp_path, monkeypatch):
        # SKU codes rank the identities in str order: "11" < "3" < "a"
        rows = [row for sku in (11, 3, "a") for row in sku_rows(sku, date(2021, 2, 1), [1, 0, 4, 2])]
        sorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(len(keys[0])) or lexsort(keys))
        datasets = []
        for name, order in (("sorted", rows), ("shuffled", random.Random(5).sample(rows, len(rows)))):
            write_jsonl(tmp_path / f"{name}.jsonl", order)
            datasets.append(ingest(tmp_path / f"{name}.jsonl"))
        assert sorts == [len(rows)]  # the sorted file skips the sort
        in_order, shuffled = datasets
        assert in_order.skus == shuffled.skus == [11, 3, "a"]
        for column in ("_code", "_day", "_qty"):
            np.testing.assert_array_equal(getattr(in_order, column), getattr(shuffled, column))
        # the same duplicate on line 3, in order and out of it
        first, second, third = sku_rows(11, date(2021, 2, 1), [1, 2]) + sku_rows(3, date(2021, 2, 1), [5])
        for name, lines in (("sorted", [first, second, second, third]), ("shuffled", [third, second, second, first])):
            write_jsonl(tmp_path / f"{name}.jsonl", lines)
            with pytest.raises(IngestError, match="^line 3: duplicate entry for sku 11 on 2021-02-02$"):
                ingest(tmp_path / f"{name}.jsonl")

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

    @pytest.mark.parametrize("line", ["5", "null", "true", '["sku", "date", "sold_quantity"]'])
    def test_non_object_line_reports_line(self, tmp_path, line):
        path = tmp_path / "scalar.jsonl"
        with open(path, "w") as handle:
            handle.write(json.dumps({"sku": 1, "date": "2021-02-01", "sold_quantity": 1}) + "\n")
            handle.write(line + "\n")
        with pytest.raises(IngestError, match="line 2"):
            ingest(path)

    @pytest.mark.parametrize("qty", [True, False, 2.7, float("inf")])
    def test_non_integral_quantity_reports_line(self, tmp_path, qty):
        path = tmp_path / "qty.jsonl"
        rows = sku_rows(1, date(2021, 2, 1), [0])
        rows.append({"sku": 1, "date": "2021-02-02", "sold_quantity": qty})
        write_jsonl(path, rows)
        with pytest.raises(IngestError, match="line 2: bad sold_quantity"):
            ingest(path)

    @pytest.mark.parametrize(
        ("qty", "outcome"),
        [
            ("0012", 12),
            ("-1", "negative sold_quantity -1"),
            # int() takes each of these; the documented form is -?[0-9]+
            *((text, f"bad sold_quantity {text!r}") for text in ["3_000", "+3", " 3", "3 ", "\u0663", "3.0", ""]),
        ],
    )
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_a_quantity_as_text_is_ascii_digits(self, tmp_path, fmt, qty, outcome):
        path = tmp_path / f"sales.{fmt}"
        if fmt == "csv":
            path.write_text(f"sku,date,sold_quantity\n7,2021-02-01,3\n7,2021-02-02,{qty}\n")
        else:
            rows = [{"sku": 7, "date": "2021-02-01", "sold_quantity": "3"}]
            write_jsonl(path, rows + [{"sku": 7, "date": "2021-02-02", "sold_quantity": qty}])
        if isinstance(outcome, int):
            assert ingest(path).quantities(7, FEB).tolist() == [3, outcome]
            return
        with pytest.raises(IngestError) as error:
            ingest(path)
        assert str(error.value) == f"line {3 if fmt == 'csv' else 2}: {outcome}"

    def test_integral_float_quantity_loads(self, tmp_path):
        path = tmp_path / "float.jsonl"
        write_jsonl(path, [{"sku": 1, "date": "2021-02-01", "sold_quantity": 3.0}])
        assert ingest(path).quantities(1, FEB).tolist() == [3]

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError):
            ingest(tmp_path / "nope.jsonl")

    @pytest.mark.parametrize(
        "lines, error",
        [
            # csv.reader reads a blank line as no row; the line count keeps it
            (["7,2021-02-01,1", "", "7,2021-02-02,x"], "line 4: bad sold_quantity 'x'"),
            (
                ["7,2021-02-01,1", "", "7,2021-02-02,1", "7,2021-02-01,2"],
                "line 5: duplicate entry for sku 7 on 2021-02-01",
            ),
            # a quoted field over two lines ends on the line an error names
            (['"7",2021-02-01,1', '"x\ny",2021-02-01,1', "7,2021-02-02,-1"], "line 5: negative sold_quantity -1"),
        ],
    )
    def test_csv_errors_name_the_physical_line(self, tmp_path, lines, error):
        path = tmp_path / "sales.csv"
        path.write_text("\n".join(["sku,date,sold_quantity", *lines]) + "\n")
        with pytest.raises(IngestError, match=f"^{error}$"):
            ingest(path)

    def test_short_csv_row_names_missing_fields(self, tmp_path):
        path = tmp_path / "sales.csv"
        path.write_text("sku,date,sold_quantity,note\n7,2021-02-01,1,a\n7,2021-02-02\n")
        with pytest.raises(IngestError, match=r"^line 3: missing fields \['sold_quantity'\]$"):
            ingest(path)

    @pytest.mark.parametrize("day", ["20210201", "2021-W05-1", "2021-2-01", "2021-02-01T00:00"])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_dates_are_yyyy_mm_dd(self, tmp_path, fmt, day):
        path = tmp_path / f"sales.{fmt}"
        rows = [{"sku": 7, "date": "2021-02-01", "sold_quantity": 1}, {"sku": 7, "date": day, "sold_quantity": 1}]
        if fmt == "csv":
            path.write_text("sku,date,sold_quantity\n" + "".join(f"7,{r['date']},1\n" for r in rows))
        else:
            write_jsonl(path, rows)
        with pytest.raises(IngestError, match=f"^line {3 if fmt == 'csv' else 2}: bad date '{day}'$"):
            ingest(path)

    @pytest.mark.parametrize(
        "lines, error",
        [
            # each line is checked in turn; the first offending line is named
            (['{"sku": 1, "date": "2021-02-30", "sold_quantity": 1}', "{not json}"], "line 1: bad date"),
            (
                [
                    '{"sku": 1, "date": "2021-02-01", "sold_quantity": 1}',
                    '{"sku": 1, "date": "2021-02-01", "sold_quantity": 1}',
                    '{"sku": 1, "date": "2021-02-02", "sold_quantity": -1}',
                ],
                "line 2: duplicate",
            ),
            (
                ['{"sku": 1, "date": "2021-02-01", "sold_quantity": -1}', '{"sku": 1, "date": "bad", "sold_quantity": 1}'],
                "line 1: negative sold_quantity -1",
            ),
            # a JSON value int() would truncate is rejected before the date is read
            (['{"sku": 1, "date": "bad", "sold_quantity": 2.5}'], "line 1: bad sold_quantity 2.5"),
            (['{"sku": 1, "date": "bad", "sold_quantity": "x"}'], "line 1: bad date 'bad'"),
            (
                ['{"sku": 1, "date": "2021-02-01", "sold_quantity": 1}', '{"sku": 1}', '{"sku": 1, "date": "bad"}'],
                r"line 2: missing fields \['date', 'sold_quantity'\]",
            ),
            (
                ['{"sku": 1, "date": "2021-02-01", "sold_quantity": 2147483648}'],
                "line 1: sold_quantity 2147483648 exceeds 2147483647",
            ),
        ],
    )
    def test_first_offending_line_is_named(self, tmp_path, lines, error):
        path = tmp_path / "sales.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestError, match=f"^{error}"):
            ingest(path)

    @pytest.mark.parametrize(
        "lines, error",
        [
            # blank lines before the bad row count in the line it names
            (["", GOOD_ROW, "  ", "", "{not json}"], "line 5: invalid JSON"),
            (["", "", GOOD_ROW, "", "[1]"], "line 5: expected a JSON object"),
            (["", GOOD_ROW, "", '{"sku": 1, "date": "x", "sold_quantity": 1}'], "line 4: bad date 'x'"),
            (["", "", GOOD_ROW, "\t", '{"sku": 2}'], r"line 5: missing fields \['date', 'sold_quantity'\]"),
        ],
    )
    def test_jsonl_errors_count_blank_lines(self, tmp_path, lines, error):
        path = tmp_path / "sales.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestError, match=f"^{error}$"):
            ingest(path)

    def test_json_skus_keep_their_written_form(self, tmp_path):
        path = tmp_path / "sales.jsonl"
        rows = [{"sku": sku, "date": "2021-02-01", "sold_quantity": 1} for sku in (1, 1.0, True, "1", -0.0, 0.0)]
        # "1" is the canonical form of 1: the same SKU, so a duplicate
        write_jsonl(path, rows[:3] + rows[4:])
        dataset = ingest(path)
        assert dataset.skus == ["-0.0", "0.0", 1, "1.0", "True"]
        assert [dataset.quantities(sku, FEB).tolist() for sku in dataset.skus] == [[1]] * 5
        write_jsonl(path, rows)
        with pytest.raises(IngestError, match="^line 4: duplicate entry for sku 1 on 2021-02-01$"):
            ingest(path)

    def test_true_quantity_after_one_is_rejected(self, tmp_path):
        path = tmp_path / "sales.jsonl"
        rows = [{"sku": 1, "date": f"2021-02-0{d}", "sold_quantity": q} for d, q in ((1, 1), (2, 1.0), (3, True))]
        write_jsonl(path, rows)
        with pytest.raises(IngestError, match="^line 3: bad sold_quantity True$"):
            ingest(path)


def _stored(dataset) -> list:
    """The rows of a dataset as ``(sku, day, quantity)``, in stored order."""
    days = [date.fromordinal(day).isoformat() for day in dataset._day.tolist()]
    return list(zip(map(dataset._skus.__getitem__, dataset._code.tolist()), days, dataset._qty.tolist()))


# (sku, day, quantity) rows, written in SKU order 8 then 7
_JSON_ROWS = [json.dumps({"sku": s, "date": f"2021-02-0{d}", "sold_quantity": d % 3}) for s in (8, 7) for d in (1, 2, 3)]
_CSV_ROWS = [f"{s},2021-02-0{d},{d % 3}" for s in (8, 7) for d in (1, 2, 3, 4)]
_HEAD = "sku,date,sold_quantity\n"


class TestRowBound:
    """Every line end a reader accepts can end a row, so the columns,
    sized once per file from a count of line ends, hold every row."""

    # lone \r, \r\n and \n line ends, whitespace-only lines, no final newline
    JSONL = (
        _JSON_ROWS[0] + "\r  \r\n" + _JSON_ROWS[1] + "\r" + _JSON_ROWS[2] + "\n\t\r"
        + _JSON_ROWS[3] + "\r" + _JSON_ROWS[4] + "\r\n" + _JSON_ROWS[5]
    )

    @pytest.mark.parametrize(
        "text, expected",
        [
            (JSONL, [(7, "2021-02-01", 1), (7, "2021-02-02", 2), (7, "2021-02-03", 0)]
             + [(8, "2021-02-01", 1), (8, "2021-02-02", 2), (8, "2021-02-03", 0)]),
            (JSONL + '\r \r{"sku": 9}', "line 10: missing fields ['date', 'sold_quantity']"),
        ],
        ids=["rows", "error"],
    )
    def test_jsonl_lines_end_at_a_lone_carriage_return(self, tmp_path, text, expected):
        path = tmp_path / "sales.jsonl"
        path.write_bytes(text.encode())
        assert self._read(path) == expected

    EIGHT = [(s, f"2021-02-0{d}", d % 3) for s in (7, 8) for d in (1, 2, 3, 4)]

    @pytest.mark.parametrize(
        "text, expected",
        [
            # rows after the first block end at a lone \r: csv.reader reads them
            (_HEAD + "\n".join(_CSV_ROWS[:3]) + "\n" + "\r".join(_CSV_ROWS[3:]) + "\r", EIGHT),
            (
                _HEAD + "\n".join(_CSV_ROWS[:3]) + "\n" + "\r".join(_CSV_ROWS[3:6]) + "\r\r7,2021-02-09\r"
                + "\r".join(_CSV_ROWS[6:]),
                "line 9: missing fields ['sold_quantity']",
            ),
            # a quote in a later block, and a quoted field over two lines
            (
                _HEAD + "\n".join(_CSV_ROWS[:4]) + '\n"7",2021-02-01,1\n"x\ny",2021-02-01,2\n'
                + "\n".join(_CSV_ROWS[5:]) + "\n",
                EIGHT + [("x\ny", "2021-02-01", 2)],
            ),
            (
                _HEAD + "\n".join(_CSV_ROWS[:4]) + '\n"x\ny",2021-02-01,2\n7,2021-02-02,-1\n'
                + "\n".join(_CSV_ROWS[5:]) + "\n",
                "line 8: negative sold_quantity -1",
            ),
            # a short row after a blank line, in a later block, with rows after it
            (
                _HEAD + "\n".join(_CSV_ROWS[:5]) + "\n\n7,2021-02-02\n" + "\n".join(_CSV_ROWS[5:]) + "\n",
                "line 8: missing fields ['sold_quantity']",
            ),
        ],
        ids=["lone-cr", "lone-cr-short-row", "quote", "quote-error", "short-row"],
    )
    def test_csv_rows_fill_their_columns(self, tmp_path, monkeypatch, text, expected):
        path = tmp_path / "sales.csv"
        path.write_bytes(text.encode())
        monkeypatch.setattr(harness, "_BLOCK", 40)
        assert self._read(path) == expected

    @staticmethod
    def _read(path):
        try:
            return _stored(ingest(path))
        except IngestError as error:
            return str(error)


def _traced_peak(read):
    """What ``read()`` returns, and the most memory it held at once above
    what was held before, as tracemalloc counts it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        result = read()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestReaderMemory:
    """Ingest and the records re-read fill their final columns once: they
    peak at those columns plus a few blocks, whatever the row count."""

    BOUND = 5 * harness._BLOCK

    @pytest.fixture(scope="class")
    def sales_csv(self, tmp_path_factory):
        """About 200k rows: 4,000 SKUs over 50 days."""
        path = tmp_path_factory.mktemp("memory") / "sales.csv"
        days = [(date(2021, 2, 1) + timedelta(days=d)).isoformat() for d in range(50)]
        rows = (f"{sku},{day},{sku % 4}\n" for sku in range(10**6, 10**6 + 4000) for day in days)
        path.write_text(_HEAD + "".join(rows))
        return path

    def test_csv_ingest(self, sales_csv):
        dataset, peak = _traced_peak(lambda: ingest(sales_csv))
        columns = dataset._code.nbytes + dataset._day.nbytes + dataset._qty.nbytes
        assert dataset._code.size == 200_000
        assert peak <= columns + self.BOUND

    def test_jsonl_ingest(self, tmp_path):
        path = tmp_path / "sales.jsonl"
        days = [(date(2021, 2, 1) + timedelta(days=d)).isoformat() for d in range(50)]
        write_jsonl(path, [{"sku": sku, "date": day, "sold_quantity": sku % 3} for sku in range(1000) for day in days])
        dataset, peak = _traced_peak(lambda: ingest(path))
        columns = dataset._code.nbytes + dataset._day.nbytes + dataset._qty.nbytes
        assert dataset._code.size == 50_000
        assert peak <= columns + self.BOUND

    def test_records_re_read(self, sales_csv, tmp_path):
        windows = Window.parse("2021-02-01..2021-02-25"), Window.parse("2021-02-26..2021-03-21")
        records = evaluate(ingest(sales_csv), *windows, models=("uniform",))
        export_report(summarize(records), records, tmp_path / "out")
        del records
        table, peak = _traced_peak(lambda: read_records(tmp_path / "out" / "records.csv"))
        columns = sum(getattr(table, name).nbytes for name in harness._FIELDS)
        assert len(table) > 40_000
        assert peak <= columns + self.BOUND


def _with_line(path: Path, number: int, line: str) -> Path:
    """A copy of the file beside it with ``line`` inserted as line ``number``."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines.insert(number - 1, line + "\n")
    copy = path.with_name(f"{number}-{path.name}")
    copy.write_text("".join(lines), encoding="utf-8")
    return copy


def _first_error(read, path) -> str | None:
    try:
        read(path)
    except IngestError as error:
        return str(error)
    return None


class TestChunks:
    """Every reader and writer streams its rows in batches of ``_CHUNK``
    rows; batches of 2 or 3 give the columns, bytes and first error line
    of one batch."""

    # per file, (line number, inserted line, the error its reader names)
    ERRORS = {
        "jsonl": [
            (57, '{"sku": 1, "date": "2021-05-01", "sold_quantity": "x"}', "line 57: bad sold_quantity 'x'"),
            (100, "{not json}", "line 100: invalid JSON"),
        ],
        "quoted_csv": [
            (57, "1,2021-05-01,x", "line 57: bad sold_quantity 'x'"),
            (100, "1,2021-05-02", "line 100: missing fields ['sold_quantity']"),
        ],
        "plain_csv": [
            (57, "1,2021-05-01,x", "line 57: bad sold_quantity 'x'"),
            (100, "1,2021-05-02", "line 100: missing fields ['sold_quantity']"),
        ],
        "records": [
            (57, "7,x,1,nfq,,0.5,3,scored,", "line 57: bad m 'x'"),
            (80, "7,1,1,nfq,,,3,scored,", "line 80: empty rps for status 'scored'"),
            (100, "7,1,1,nfq", "line 100: missing fields ['branch', 'rps', 'train_days_with_sales', 'status', 'reason']"),
        ],
    }

    @pytest.fixture
    def files(self, tmp_path) -> dict:
        rng = np.random.default_rng(3)
        rows = []
        for sku in (1, "a,b", "007", 7):
            rows += sku_rows(sku, date(2021, 2, 1), rng.poisson(1.0, size=28).tolist())
            rows += sku_rows(sku, date(2021, 3, 1), rng.poisson(1.0, size=31).tolist())
        files = {"jsonl": tmp_path / "sales.jsonl", "quoted_csv": tmp_path / "quoted.csv", "plain_csv": tmp_path / "plain.csv"}
        lines = [json.dumps(row) for row in rows]
        files["jsonl"].write_text("\n".join([*lines[:30], "", *lines[30:]]) + "\n")
        # csv.writer quotes "a,b", so csv.reader reads that file; the other is split in blocks
        for name, kept in (("quoted_csv", rows), ("plain_csv", [row for row in rows if row["sku"] != "a,b"])):
            with open(files[name], "w", newline="") as handle:
                names = harness._REQUIRED_FIELDS
                csv.writer(handle).writerows([names, *([row[key] for key in names] for row in kept)])
        records = evaluate(ingest(files["jsonl"]), FEB, MAR, models=harness.MODEL_TAGS, exclusion_threshold=0.5)
        export_report(summarize(records), records, tmp_path / "run")
        files["records"] = tmp_path / "run" / "records.csv"
        return files

    def _outcome(self, files: dict, out: Path) -> tuple:
        datasets = [ingest(files[name]) for name in ("jsonl", "quoted_csv", "plain_csv")]
        records = evaluate(datasets[0], FEB, MAR, models=harness.MODEL_TAGS, exclusion_threshold=0.5)
        back = read_records(files["records"])
        export_report(summarize(back), back, out)
        columns = [(d.skus, d._code.tolist(), d._day.tolist(), d._qty.tolist()) for d in datasets]
        written = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        errors = {
            name: [
                _first_error(read_records if name == "records" else ingest, _with_line(files[name], at, line))
                for at, line, _ in cases
            ]
            for name, cases in self.ERRORS.items()
        }
        return columns, list(records), list(back), written, errors

    @pytest.mark.parametrize("chunk", [2, 3])
    def test_batches_change_no_column_byte_or_error_line(self, files, tmp_path, monkeypatch, chunk):
        default = self._outcome(files, tmp_path / "default")
        columns, records, back, written, errors = default
        assert errors == {name: [error for *_, error in cases] for name, cases in self.ERRORS.items()}
        # the three sales files hold the same rows, but for the plain file's quoted SKU
        assert columns[0] == columns[1] and columns[2][0] == ["007", 1, 7]
        assert back == [dataclasses.replace(r, sku=str(r.sku), p0_at_d=None) for r in records]
        assert written["records.csv"] == files["records"].read_bytes()
        assert len(records) > 100  # each file spans dozens of batches of 2 or 3 rows
        monkeypatch.setattr(harness, "_CHUNK", chunk)
        assert self._outcome(files, tmp_path / f"chunk{chunk}") == default


# SKUs written as in a sales file: "007" and "7" are two SKUs
_SKU_NAMES = st.sampled_from(["7", "007", "70", "8", "1000003", "abc"])
# day offsets from 2021-01-20: days before, inside and after both windows
_SALES = st.dictionaries(st.integers(0, 80), st.integers(0, 4), max_size=45)


class TestStore:
    @settings(max_examples=60, deadline=None)
    @given(
        history=st.dictionaries(_SKU_NAMES, _SALES, max_size=6),
        seed=st.integers(0, 2**32 - 1),
        fmt=st.sampled_from(["csv", "jsonl"]),
    )
    def test_columns_match_the_series(self, history, seed, fmt):
        """Unsorted rows, gaps, zero-sale days and SKUs in one window only:
        each SKU's quantities, training days with sales and pairs read from
        the columns equal those of the per-SKU reference path."""
        start = date(2021, 1, 20)
        rows = [(name, start + timedelta(days=o), qty) for name, sales in history.items() for o, qty in sales.items()]
        random.Random(seed).shuffle(rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"sales.{fmt}"
            if fmt == "csv":
                path.write_text("sku,date,sold_quantity\n" + "".join(f"{n},{d},{q}\n" for n, d, q in rows))
            else:
                write_jsonl(path, [{"sku": n, "date": d.isoformat(), "sold_quantity": q} for n, d, q in rows])
            dataset = ingest(path)

        assert dataset.skus == sorted({parse_sku(name) for name, sales in history.items() if sales}, key=str)
        pairs = harness._tasks(dataset, FEB, MAR)
        tasks = {dataset.skus[code]: i for i, code in enumerate(pairs.code.tolist())}
        for name, sales in history.items():
            sku = parse_sku(name)
            days = sorted((start + timedelta(days=o), q) for o, q in sales.items())
            train, test = ([(d, q) for d, q in days if w.start <= d <= w.end] for w in (FEB, MAR))
            for window, recorded in ((FEB, train), (MAR, test)):
                quantities = dataset.quantities(sku, window)
                assert (None if quantities is None else quantities.tolist()) == ([q for _, q in recorded] or None)
            expected = augment(test, MAR) if train and test else []
            if expected:
                i = tasks.pop(sku)
                first, stop = pairs.start[i], pairs.start[i] + pairs.count[i]
                assert list(zip(pairs.m[first:stop].tolist(), pairs.u[first:stop].tolist())) == expected
                assert pairs.active[i] == sum(q > 0 for _, q in train)
                assert pairs.train_days[i] == len(train)
        assert not tasks


def _test_pairs(tmp_path, test_values) -> list[tuple[int, int]]:
    """The pairs ``_tasks`` reads for one SKU with one February sale and
    the March history ``test_values``."""
    rows = sku_rows(1, date(2021, 2, 1), [1]) + sku_rows(1, date(2021, 3, 1), test_values)
    pairs = harness._tasks(_dataset(tmp_path, rows), FEB, MAR)
    return list(zip(pairs.m.tolist(), pairs.u.tolist()))


class TestAugment:
    def test_reference_sku_pairs(self, tmp_path):
        assert augment(dated(MAR_538100, date(2021, 3, 1)), MAR) == PAIRS_538100
        assert _test_pairs(tmp_path, MAR_538100) == PAIRS_538100

    def test_single_sale(self, tmp_path):
        assert _test_pairs(tmp_path, [0, 0, 0, 0, 2]) == [(2, 5)]

    def test_all_zero_series(self, tmp_path):
        assert _test_pairs(tmp_path, [0, 0, 0]) == []

    def test_strictly_increasing(self, tmp_path):
        pairs = _test_pairs(tmp_path, MAR_538100)
        ms = [m for m, _ in pairs]
        assert all(b > a for a, b in zip(ms, ms[1:]))
        us = [u for _, u in pairs]
        assert all(b > a for a, b in zip(us, us[1:]))


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
        # no training sales: every tag but uniform is skipped
        rows += sku_rows(13, date(2021, 2, 1), [0] * 5) + sku_rows(13, date(2021, 3, 1), [0, 2, 1])
        dataset = _dataset(tmp_path, rows)
        kwargs = dict(
            train_window=FEB, test_window=MAR, models=("nfq", "poisson", "bnbp", "uniform"),
            exclusion_threshold=0.5,
        )
        sequential = evaluate(dataset, jobs=1, **kwargs)
        parallel = evaluate(dataset, jobs=3, **kwargs)
        assert sequential == parallel
        assert {r.reason for r in sequential if r.sku == 13} == {"zero_train_sales", None}

    def test_the_pool_takes_no_more_workers_than_blocks_or_cores(self, tmp_path, monkeypatch):
        pools = []

        class SerialPool:
            """Records its size and chunking and maps in this process."""

            def __init__(self, max_workers):
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                tasks = list(tasks)
                pools.append((self.max_workers, len(tasks), chunksize))
                return map(fn, tasks)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        rows = []
        for sku, rate in enumerate((0.3, 1.0, 3.0, 9.0, 30.0, 90.0), start=1):
            rows += sku_rows(sku, date(2021, 2, 1), [round(rate * (1 + d % 3) / 2) for d in range(28)])
            rows += sku_rows(sku, date(2021, 3, 1), [round(rate)] * 31)
        dataset = _dataset(tmp_path, rows)
        kwargs = dict(train_window=FEB, test_window=MAR, models=("nfq", "poisson", "bnbp"))
        serial = evaluate(dataset, **kwargs)
        assert pools == []
        for cores in (2, 64, None):
            monkeypatch.setattr(harness.os, "cpu_count", lambda: cores)
            assert evaluate(dataset, jobs=10**9, **kwargs) == serial
        (two, blocks, chunksize), (every, blocks_again, _) = pools
        # one worker per core, or per block when there are fewer blocks;
        # no cores reported means one process, and so no pool
        assert blocks == blocks_again > 2
        assert (two, every) == (2, blocks)
        assert chunksize == max(1, blocks // 8)

    def test_an_integral_float_of_jobs_runs_the_pool(self, tmp_path, monkeypatch):
        # two cores, so that two blocks start a pool of two workers on any host
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        rows = []
        for sku, rate in enumerate((0.5, 2.0, 6.0, 20.0, 60.0), start=1):
            rows += sku_rows(sku, date(2021, 2, 1), [round(rate * (1 + d % 3) / 2) for d in range(28)])
            rows += sku_rows(sku, date(2021, 3, 1), [round(rate)] * 31)
        dataset = _dataset(tmp_path, rows)
        kwargs = dict(train_window=FEB, test_window=MAR, models=("nfq", "poisson"))
        assert evaluate(dataset, jobs=2.0, horizon=31.0, **kwargs) == evaluate(dataset, jobs=1, **kwargs)

    @pytest.mark.parametrize("jobs", [0, -3, 1.5])
    def test_jobs_must_be_an_integer_from_one(self, tmp_path, jobs):
        dataset = _dataset(tmp_path, sku_rows(1, date(2021, 2, 1), [1, 2]) + sku_rows(1, date(2021, 3, 1), [1]))
        with pytest.raises(ValueError, match="jobs must be an integer >= 1"):
            evaluate(dataset, FEB, MAR, jobs=jobs)

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

    def test_repeated_model_rejected(self, ref_sales_file):
        dataset = ingest(ref_sales_file)
        with pytest.raises(ValueError, match="^model tag 'poisson' is given more than once$"):
            evaluate(dataset, train_window=FEB, test_window=MAR, models=("poisson", "poisson"))

    def test_model_order_does_not_matter(self, ref_sales_file):
        dataset = ingest(ref_sales_file)
        first, second = (
            evaluate(dataset, train_window=FEB, test_window=MAR, models=models)
            for models in (("bnbp", "nfq"), ("nfq", "bnbp"))
        )
        assert first == second

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

    def test_evaluate_reads_no_series(self, tmp_path, monkeypatch):
        rows = (
            perfect_sku_rows(1)
            + sku_rows(2, date(2021, 2, 1), [1, 0, 2])
            + sku_rows(3, date(2021, 3, 1), [0, 1])
        )
        dataset = _dataset(tmp_path, rows)
        calls = []
        quantities = SalesDataset.quantities

        def counted(self, sku, window):
            calls.append(sku)
            return quantities(self, sku, window)

        monkeypatch.setattr(SalesDataset, "quantities", counted)
        records = evaluate(dataset, train_window=FEB, test_window=MAR, models=("nfq", "uniform"))
        assert {r.sku for r in records} == {1}
        assert calls == []

    @pytest.mark.parametrize("tag", ["nfq", "poisson"])
    @pytest.mark.parametrize("fails", [False, True], ids=["block", "alone"])
    def test_outcomes_hold_no_block_rows(self, tag, fails, monkeypatch):
        # a view of the (pairs x horizon) rows would keep every block alive until evaluate returns
        fits = [empirical([0, 1, 2]), empirical([3, 0])] if tag == "nfq" else [PoissonDemand(1.0), PoissonDemand(2.5)]
        task = (fits, [np.array([1, 2, 5]), np.array([4])], [np.array([3, 9, 31]), np.array([2])], 31)
        if fails:
            # the empirical fits reach the sweep through the tail kernel
            owner = engine if tag == "nfq" else harness
            name = "stockout_rows_block" if tag == "nfq" else "stockout_tail_block"
            kernel = getattr(owner, name)

            def fails_for_a_block(models, level_lists, horizon):
                if len(models) > 1:
                    raise ConvergenceError("a block fails; each SKU alone does not")
                return kernel(models, level_lists, horizon)

            monkeypatch.setattr(owner, name, fails_for_a_block)
        outcome = harness._score_block(task)
        assert [value.size for value in outcome] == [4, 4, 4]
        assert all(value.base is None for value in outcome)

    def test_one_sweep_per_nfq_block(self, tmp_path, monkeypatch):
        # SKUs 1 and 2 have small tops: one block
        rows = (
            perfect_sku_rows(1)
            + sku_rows(2, date(2021, 2, 1), [1, 0, 1])
            + sku_rows(2, date(2021, 3, 1), [0, 1, 3, 1])
            + sku_rows(3, date(2021, 2, 1), [0, 0])
            + sku_rows(3, date(2021, 3, 1), [2, 1])
        )
        dataset = _dataset(tmp_path, rows)
        swept = []
        sweep = engine.stockout_rows_block

        def counted(models, level_lists, horizon):
            swept.append([levels.tolist() for levels in level_lists])
            return sweep(models, level_lists, horizon)

        monkeypatch.setattr(engine, "stockout_rows_block", counted)
        records = evaluate(
            dataset, train_window=FEB, test_window=MAR, models=("nfq", "poisson", "bnbp", "uniform")
        )
        # both fitted SKUs share one block, by top; SKU 3 sold nothing in training
        assert swept == [[[1, 4, 5], list(range(1, 32))]]
        monkeypatch.undo()  # the reference curves below sweep unspied
        assert {r.reason for r in records if r.sku == 3 and r.model != "uniform"} == {"zero_train_sales"}
        fit = empirical([1, 0, 1])
        for record in records:
            if record.sku == 2 and record.model == "nfq":
                expected = solve_recursive(fit, record.m, 31).p0[-1]
                assert record.p0_at_d == pytest.approx(expected, rel=0, abs=1e-15)

    def test_one_tail_kernel_call_per_parametric_block(self, tmp_path, monkeypatch):
        rows = (
            perfect_sku_rows(1)
            + sku_rows(2, date(2021, 2, 1), [1, 0, 2])
            + sku_rows(2, date(2021, 3, 1), [0, 1, 3, 1])
            + sku_rows(3, date(2021, 2, 1), [0, 0])
            + sku_rows(3, date(2021, 3, 1), [2, 1])
        )
        dataset = _dataset(tmp_path, rows)
        calls = []
        kernel = harness.stockout_tail_block

        def counted(models, level_lists, horizon):
            # the nfq blocks pass through on their way to the sweep, counted by its own test
            if models[0].kind != "frequentist":
                calls.append([(model.kind, levels.tolist()) for model, levels in zip(models, level_lists)])
            return kernel(models, level_lists, horizon)

        monkeypatch.setattr(harness, "stockout_tail_block", counted)
        records = evaluate(
            dataset, train_window=FEB, test_window=MAR, models=("nfq", "poisson", "bnbp", "uniform")
        )
        # one block per family, tags in sorted order: SKU 1 sells one unit a day
        # (bnbp: deterministic), SKU 2 is binomial under bnbp; SKU 3 sold nothing in training
        assert calls == [
            [("binomial", [1, 4, 5])],
            [("deterministic", list(range(1, 32)))],
            [("poisson", list(range(1, 32))), ("poisson", [1, 4, 5])],
        ]
        fits = {tag: models[0] for tag, models in fit_columns([1, 0, 2], [3], ("poisson", "bnbp"))[0].items()}
        assert fits["poisson"] == PoissonDemand(lam=1.0)
        for record in records:
            if record.sku == 2 and record.model in fits:
                expected = closed_form_curve(fits[record.model], record.m, 31).p0[31]
                assert record.p0_at_d == pytest.approx(expected, rel=1e-14)

    def test_far_poisson_tails_are_scored_against_scipy(self, tmp_path):
        # SKU 1 sells 190 a day: at m near 4700 an incomplete gamma Q(m, k * 190)
        # needs more than 500 series terms. SKU 2 sells 20 a day and surges
        # to m = 828, where P(0, 31) = 1.1e-15 is below what 1 - Q resolves.
        rows = (
            sku_rows(1, date(2021, 2, 1), [190] * 28)
            + sku_rows(1, date(2021, 3, 1), [4570, 190, 20])
            + sku_rows(2, date(2021, 2, 1), [20] * 28)
            + sku_rows(2, date(2021, 3, 1), [0, 0, 0, 0, 828, 10])
        )
        dataset = _dataset(tmp_path, rows)
        records = evaluate(dataset, train_window=FEB, test_window=MAR, models=("poisson",))
        assert [(r.sku, r.m, r.status) for r in records] == [
            (1, 4570, "scored"),
            (1, 4760, "scored"),
            (1, 4780, "scored"),
            (2, 828, "scored"),
            (2, 838, "scored"),
        ]
        rates = {1: 190.0, 2: 20.0}
        days = np.arange(1, 32)
        for record in records:
            p0 = sps.gammainc(float(record.m), days * rates[record.sku])
            g = p0 / p0[-1]
            assert record.p0_at_d == pytest.approx(p0[-1], rel=1e-9)
            assert record.rps == pytest.approx(float(np.sum(((days >= record.u) - g) ** 2)), rel=0, abs=1e-9)
        assert records[3].p0_at_d == pytest.approx(1.1e-15, rel=0.01)

    def test_nfq_and_uniform_scores_equal_rps_discrete(self, ref_sales_file):
        dataset = ingest(ref_sales_file)
        records = evaluate(dataset, train_window=FEB, test_window=MAR, models=("nfq", "uniform"))
        fit = empirical(FEB_538100)
        levels = [m for m, _ in PAIRS_538100]
        curves = dict(zip(levels, stockout_rows_block([fit], [levels], 31)))
        assert len(records) == 2 * len(levels)
        for record in records:
            forecast = uniform_forecast(31) if record.model == "uniform" else normalize_curve(curves[record.m], 31)
            assert record.rps == rps_discrete(OutcomeStep(31, record.u), forecast)


class TestSummarize:
    def test_all_zero_scores(self, tmp_path):
        records = [
            EvaluationRecord(1, m, m, "nfq", None, 0.0, 5, 1.0, "scored") for m in range(1, 6)
        ]
        report = summarize(record_table(tmp_path / "records.csv", records))
        assert report.models["nfq"].mean == 0.0
        assert report.models["nfq"].median == 0.0

    def test_quartiles_linear_interpolation(self, tmp_path):
        records = [
            EvaluationRecord(sku, 1, 1, "nfq", None, float(v), 2, 1.0, "scored")
            for sku, v in enumerate([1.0, 2.0, 3.0, 4.0])
        ]
        stats = summarize(record_table(tmp_path / "records.csv", records)).models["nfq"]
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

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="^no evaluation records to summarize$"):
            summarize(record_table(tmp_path / "records.csv", []))

    def test_a_list_of_records_is_refused(self, ref_sales_file, tmp_path):
        records = evaluate(ingest(ref_sales_file), train_window=FEB, test_window=MAR, models=("nfq",))
        message = "^expected a RecordTable from evaluate or read_records, got list$"
        with pytest.raises(TypeError, match=message):
            summarize(list(records))
        with pytest.raises(TypeError, match=message):
            export_report(summarize(records), list(records), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("status", ["scored", "excluded"])
    def test_score_past_the_horizon_rejected(self, status, tmp_path):
        records = [
            EvaluationRecord(1, 1, 3, "nfq", None, 1.0, 2, None, "scored"),
            EvaluationRecord(1, 2, 7, "nfq", None, 2.0, 2, None, status),
            # evaluate skips a pair as beyond_horizon only past the run's horizon
            EvaluationRecord(1, 3, 9, "nfq", None, None, 2, None, "skipped", "beyond_horizon"),
        ]
        records = record_table(tmp_path / "late.csv", records)
        with pytest.raises(ValueError, match="^a record with a score has stockout day 7, past horizon 5; "):
            summarize(records, horizon=5)
        with pytest.raises(ValueError, match="^a record skipped as beyond_horizon has stockout day 9, within horizon 9; "):
            summarize(records, horizon=9)
        for horizon in (7, 8):
            assert summarize(records, horizon=horizon).models["nfq"].n_evals == 1 + (status == "scored")
        # a score is a sum of one term in [0, 1] per day, so it never passes the horizon
        records = [
            EvaluationRecord(1, 1, 3, "nfq", None, 40.0, 2, None, status),
            EvaluationRecord(1, 2, 4, "nfq", None, 0.5, 2, None, "scored"),
        ]
        records = record_table(tmp_path / "high.csv", records)
        with pytest.raises(ValueError, match=r"^a record has score 40\.0, past horizon 31; "):
            summarize(records, horizon=31)
        assert summarize(records, horizon=40).models["nfq"].n_evals == 1 + (status == "scored")

    @pytest.mark.parametrize("horizon", [31.5, 0, -3])
    def test_horizon_is_an_integer_of_at_least_one(self, horizon, tmp_path):
        records = [EvaluationRecord(1, 1, 3, "nfq", None, 1.0, 2, None, "scored")]
        records = record_table(tmp_path / "records.csv", records)
        with pytest.raises(ValueError, match=f"^horizon must be an integer >= 1, got {horizon}$"):
            summarize(records, horizon=horizon)

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
        report = summarize(record_table(tmp_path / "records.csv", self._records()))
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="^no evaluation records to export$"):
            export_report(report, record_table(tmp_path / "empty.csv", []), out)
        assert not out.exists()

    def test_single_model_writes_four_files(self, tmp_path):
        records = record_table(tmp_path / "records.csv", self._records(10))
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
        table = record_table(tmp_path / "records.csv", records)
        export_report(summarize(table), table, tmp_path / "out")
        assert (tmp_path / "out" / "records.csv").read_bytes() == (tmp_path / "records.csv").read_bytes()
        back = read_records(tmp_path / "out" / "records.csv")
        # the table holds no p0_at_d
        assert back == table == [dataclasses.replace(r, sku=str(r.sku), p0_at_d=None) for r in records]

    def test_views_hold_python_scalars(self, ref_sales_file, tmp_path):
        dataset = ingest(ref_sales_file)
        records = evaluate(dataset, train_window=FEB, test_window=MAR, models=("nfq", "uniform"))
        export_report(summarize(records), records, tmp_path / "out")
        back = read_records(tmp_path / "out" / "records.csv")
        for rec in [*records, *back, records[-1], back[0]]:
            assert type(rec.rps) is float and type(rec.m) is int and type(rec.u) is int
            assert type(rec.train_days_with_sales) is int
            assert type(rec.model) is str and type(rec.status) is str
        assert {type(rec.sku) for rec in records} == {int}
        assert {type(rec.p0_at_d) for rec in records} == {float}
        assert {rec.p0_at_d for rec in back} == {None}

    def test_table_indexes_like_its_records(self, ref_sales_file):
        dataset = ingest(ref_sales_file)
        records = evaluate(dataset, train_window=FEB, test_window=MAR, models=("nfq", "bnbp"))
        views = list(records)
        assert len(records) == len(views) == 30
        assert records[-1] == views[-1] and records[3] == views[3]
        with pytest.raises(IndexError):
            records[30]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.none(), st.integers(), st.floats(), st.text()), min_size=2, max_size=4))
    def test_fields_are_written_as_the_csv_writer_writes_them(self, values):
        buffer = io.StringIO()
        csv.writer(buffer).writerow(values)
        assert ",".join(map(harness._csv_field, values)) + "\r\n" == buffer.getvalue()

    def test_header_only_records_file_is_empty(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("sku,m,u,model,branch,rps,train_days_with_sales,status,reason\n")
        assert len(read_records(path)) == 0

    def test_short_records_row_names_its_line(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(
            "sku,m,u,model,branch,rps,train_days_with_sales,status,reason\n"
            "7,1,1,nfq,,0.5,3,scored,\n\n7,2,2,nfq\n"
        )
        with pytest.raises(ValueError, match=r"line 4: missing fields \['branch', 'rps', "):
            read_records(path)

    def test_records_without_reason_column_are_refused(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("sku,m,u,model,branch,rps,train_days_with_sales,status\n7,1,1,nfq,,0.5,3,scored\n")
        with pytest.raises(IngestError, match=r"^line 1: header missing columns \['reason'\]$"):
            read_records(path)

    def test_histogram_covers_score_range(self, tmp_path):
        records = record_table(tmp_path / "records.csv", self._records(10))
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
