"""Batch stockout-forecast evaluation over per-SKU daily sales files.

The pipeline ingests (sku, date, sold_quantity) rows, splits them into a
training and a testing window, turns each test month into hypothetical
(initial stock, stockout day) pairs, scores every pair under the selected
demand models, and aggregates the scores into summary tables.
"""

from __future__ import annotations

import calendar
import csv
import gc
import io
import json
import math
import os
import re
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import asdict, astuple, dataclass, field, fields
from datetime import date
from functools import partial
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .closed_form import stockout_tail_block, tail_blocks
from .demand import fit_columns
from .engine import _horizon
from .metrics import baseline_uniform, baseline_uniform_discrete, rps_rows

__all__ = [
    "BENCHMARK_RPS",
    "MODEL_TAGS",
    "IngestError",
    "Window",
    "SalesDataset",
    "EvaluationRecord",
    "RecordTable",
    "ModelStats",
    "StratumStats",
    "SummaryReport",
    "ingest",
    "evaluate",
    "summarize",
    "render_summary",
    "export_report",
    "parse_sku",
    "read_records",
]

# best published mean score on this forecasting task; reported as a
# reference line only, never reproduced by this pipeline
BENCHMARK_RPS = 3.71

# the fitted tags, then the uniform control
MODEL_TAGS = ("nfq", "poisson", "bnbp", "uniform")

_REQUIRED_FIELDS = ("sku", "date", "sold_quantity")

# a day, an integer and a decimal written as text, in every reader; int()
# and float() would also take a number as "+3", "3_000", " 3" or in
# another script's digits
_ISO_DAY = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_INTEGER = re.compile(r"-?[0-9]+")
_DECIMAL = re.compile(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?")

# quantities are stored as int32; sums over them are int64
_MAX_QTY = 2**31 - 1

# rows streamed per batch into the column codes, or out of them
_CHUNK = 1 << 14

# bytes of a CSV file read per block
_BLOCK = 1 << 20

# per byte count 0 .. 8, the mask of that many leading bytes of a little-endian word
_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)

# what makes csv.writer quote a field
_QUOTED = re.compile(r'[,"\r\n]')

_RECORD_COLUMNS = ("sku", "m", "u", "model", "branch", "rps", "train_days_with_sales", "status", "reason")


class IngestError(ValueError):
    """A sales file could not be parsed; carries the offending line."""


@dataclass(frozen=True)
class Window:
    """Inclusive calendar window of days."""

    start: date
    end: date

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"window end {self.end} precedes start {self.start}")

    @classmethod
    def parse(cls, text: str) -> "Window":
        """Accepts a calendar month ('2021-02') or an explicit inclusive
        range ('2021-02-01..2021-02-14'), its days read as ingest reads
        one: ``YYYY-MM-DD`` on every Python version."""
        lo, dots, hi = text.strip().partition("..")
        if not dots and _ISO_DAY.fullmatch(f"{lo}-01") and 1 <= int(lo[5:]) <= 12:
            # a month runs from its first day to its last
            lo, hi = f"{lo}-01", f"{lo}-{calendar.monthrange(int(lo[:4]), int(lo[5:]))[1]}"
        days = [_day_ordinal(lo), _day_ordinal(hi)]
        if not all(isinstance(day, int) for day in days):
            raise ValueError(f"bad window {text!r}: expected a month YYYY-MM or a range YYYY-MM-DD..YYYY-MM-DD")
        return cls(*map(date.fromordinal, days))

    def __str__(self) -> str:
        return f"{self.start.isoformat()}..{self.end.isoformat()}"


class SalesDataset:
    """All ingested rows as three int32 columns, SKU code, day ordinal and
    quantity, sorted by (SKU code, day). SKU codes rank the SKU
    identities in ``str`` order, and every SKU has a row, so each SKU's
    rows are one slice that is never empty."""

    def __init__(self, skus: tuple, code: np.ndarray, day: np.ndarray, qty: np.ndarray) -> None:
        self._skus = skus
        self._code, self._day, self._qty = code, day, qty
        # the rows of SKU code c run from _start[c] up to _start[c + 1]
        self._start = np.searchsorted(code, np.arange(len(skus) + 1, dtype=code.dtype))

    @property
    def skus(self) -> list:
        return list(self._skus)

    def _inside(self, window: Window) -> np.ndarray:
        """Whether each row's day lies inside the window."""
        return (self._day >= window.start.toordinal()) & (self._day <= window.end.toordinal())

    def _per_sku(self, rows: np.ndarray) -> np.ndarray:
        """Per SKU code, how many of its rows the row mask ``rows`` holds."""
        # reduceat would read an empty slice as its first row; none is empty
        return np.add.reduceat(rows, self._start[:-1], dtype=np.int64)

    def _rows_of(self, skus: np.ndarray) -> np.ndarray:
        """The rows of the SKU codes that the mask ``skus`` holds, as a row mask."""
        return np.repeat(skus, np.diff(self._start))

    def quantities(self, sku, window: Window) -> np.ndarray | None:
        """Units sold on each recorded day of one SKU inside the window, in
        day order (a copy), or None when the SKU has no data there."""
        code = bisect_left(self._skus, str(sku), key=str)
        if code == len(self._skus) or self._skus[code] != sku:
            return None
        start, stop = self._start[code], self._start[code + 1]
        lo, hi = start + np.searchsorted(self._day[start:stop], [window.start.toordinal(), window.end.toordinal() + 1])
        return self._qty[lo:hi].copy() if lo < hi else None


def parse_sku(raw) -> int | str:
    """SKU identity: an int only when written in canonical decimal form,
    so "007" and "7" stay two SKUs."""
    try:
        sku = int(raw)
    except (TypeError, ValueError):
        return str(raw)
    return sku if str(sku) == str(raw) else str(raw)


def _factorize(values: list) -> tuple[tuple, np.ndarray]:
    """The distinct values in ``str`` order, and the code of each value."""
    labels = tuple(sorted(dict.fromkeys(values), key=str))
    code_of = {label: code for code, label in enumerate(labels)}
    return labels, np.fromiter(map(code_of.__getitem__, values), np.int32, len(values))


@contextmanager
def _collector_paused():
    """Pauses the cyclic garbage collector, which a reader's per-row lists
    and dicts would set off again and again, and restores its prior state."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _json_key(value):
    """Dict key of a raw JSON value. A dict takes 1, 1.0 and True for one
    key, and 0.0 and -0.0 too, though each parses to its own value."""
    cls = value.__class__
    return value if cls is str or cls is int else (cls, repr(value))


def _line_bound(path) -> int:
    """A bound on the rows any reader takes from the file: one per line
    end that text mode or csv.reader sees (``\\n``, ``\\r\\n`` or a lone
    ``\\r``), and one for a last line without one."""
    lines = 1
    with open(path, "rb") as handle:
        while block := handle.read(_BLOCK):
            buf = np.frombuffer(block, np.uint8)
            lines += np.count_nonzero(buf == 10)
            if b"\r" in block:
                # a \r before a \n ends no line of its own; a \r\n cut between blocks counts twice
                lines += np.count_nonzero(buf == 13) - np.count_nonzero((buf[:-1] == 13) & (buf[1:] == 10))
    return lines


def _take(values: np.ndarray, codes: np.ndarray, out: np.ndarray) -> None:
    """Writes ``values[codes]`` to ``out``, which may be ``codes``, a chunk
    at a time: ``np.take`` copies int32 indices to intp first."""
    for lo in range(0, codes.size, _CHUNK):
        # mode="clip" writes straight into out; every code is in range
        np.take(values, codes[lo : lo + _CHUNK], out=out[lo : lo + _CHUNK], mode="clip")


class _RawColumns:
    """Columns of raw values, by default sku, date and sold_quantity, each
    an int32 column of codes over its distinct values, sized once for
    ``rows`` rows and filled in order: ``values[col][code]`` holds one raw
    form of each value, found by its ``_json_key``; a CSV text is its own
    key."""

    def __init__(self, rows: int, width: int = 3) -> None:
        self.count = 0
        self.index: tuple = tuple({} for _ in range(width))
        self.values: tuple = tuple([] for _ in range(width))
        self.columns: list = [np.empty(rows, np.int32) for _ in range(width)]

    def extend(self, rows: list, cols=(0, 1, 2)) -> None:
        """Adds fields ``cols`` of each row, one to each column."""
        added = slice(self.count, self.count + len(rows))
        for col, index, values, column in zip(cols, self.index, self.values, self.columns):
            raw = list(map(itemgetter(col), rows))
            keys = list(map(_json_key, raw))
            for key, value in dict(zip(keys, raw)).items():
                if key not in index:
                    index[key] = len(values)
                    values.append(value)
            column[added] = np.fromiter(map(index.__getitem__, keys), np.int32, len(keys))
        self.count = added.stop

    def extend_distinct(self, columns) -> None:
        """Adds rows given per column, one column at a time, as ``(texts,
        inverse)``: texts, each looked up once, and the index of each
        row's text."""
        for (texts, inverse), index, values, column in zip(columns, self.index, self.values, self.columns):
            for text in texts:
                if text not in index:
                    index[text] = len(values)
                    values.append(text)
            codes = np.fromiter(map(index.__getitem__, texts), np.int32, len(texts))
            np.take(codes, inverse, out=column[self.count : self.count + inverse.size], mode="clip")
        self.count += inverse.size

    def codes(self, col: int) -> np.ndarray:
        """The filled rows of column ``col``, a view."""
        return self.columns[col][: self.count]

    def pop(self, col: int) -> np.ndarray:
        """The filled rows of column ``col``, which the table lets go."""
        codes, self.columns[col] = self.codes(col), None
        return codes


def _read_jsonl(handle, table: _RawColumns) -> str | None:
    """Streams a JSONL file into ``table``. Returns the error that ended
    the read, at row ``table.count``."""
    rows = []
    for line in handle:
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            table.extend(rows)
            return "invalid JSON"
        if not isinstance(obj, dict):
            table.extend(rows)
            return "expected a JSON object"
        try:
            rows.append((obj["sku"], obj["date"], obj["sold_quantity"]))
        except KeyError:
            table.extend(rows)
            missing = [key for key in _REQUIRED_FIELDS if key not in obj]
            return f"missing fields {missing}"
        if len(rows) == _CHUNK:
            table.extend(rows)
            rows = []
    table.extend(rows)
    return None


def _whole_lines(handle):
    """``(offset, data)`` for each block of a binary file from where it
    stands, cut after its last newline; the partial line left over starts
    the next block."""
    offset, carry = handle.tell(), b""
    while block := handle.read(_BLOCK):
        cut = block.rfind(b"\n") + 1
        if not cut:
            carry += block
            continue
        # the block is copied once, and let go before its lines are read
        data, carry = b"".join((carry, memoryview(block)[:cut])), block[cut:]
        del block
        yield offset, data
        offset += len(data)
    if carry:
        # csv.reader reads a last line without a line end as if it had one
        yield offset, carry + b"\n"


def _plain(data: bytes) -> bool:
    """Whether csv.reader reads ``data`` as a split at commas and line
    ends: no quote, no NUL, no carriage return outside ``\\r\\n``, and
    valid UTF-8."""
    if b'"' in data or b"\0" in data or (b"\r" in data and data.count(b"\r") != data.count(b"\r\n")):
        return False
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return False
    return True


def _csv_reader(handle, offset: int):
    """A csv.reader over a binary file from byte ``offset``, a line start,
    read as text, as ``open(path, newline="", encoding="utf-8")`` reads it."""
    handle.seek(offset)
    return csv.reader(io.TextIOWrapper(handle, encoding="utf-8", newline=""))


def _words(data: bytes, at: np.ndarray) -> np.ndarray:
    """The 8 bytes of ``data`` from each of the ascending positions ``at``,
    as little-endian words, zero past the end of ``data``."""
    inside = int(np.searchsorted(at, len(data) - 7))
    words = np.ndarray(max(len(data) - 7, 0), "<u8", data, strides=(1,))[at[:inside]]
    if inside == at.size:
        return words
    tail = [int.from_bytes(data[p : p + 8], "little") for p in at[inside:].tolist()]
    return np.concatenate((words, np.array(tail, np.uint64)))


def _field(data: bytes, sep: np.ndarray, first: np.ndarray, col: int) -> tuple[list, np.ndarray]:
    """Field ``col`` of the lines of ``data`` whose first fields end at
    ``sep[first]``, as texts and the index of each line's text.

    Each field's bytes are read as little-endian words: an 8-byte word,
    zero past the field's end, then for a longer field one 4-byte word at
    a time, joined to the codes of the words before it. No field holds a
    NUL, so zero padding keeps keys apart. The last field of a line keeps
    the ``\\r`` of a ``\\r\\n`` up to its text, so one text may have two keys."""
    start = sep[first + (col - 1)] + 1
    length = sep[first + col] - start
    key = _words(data, start) & _MASKS[np.minimum(length, 8)]
    for at in range(8, int(length.max(initial=0)), 4):
        _, inverse = np.unique(key, return_inverse=True)
        tail = _words(data, start + at) & _MASKS[np.clip(length - at, 0, 4)]
        key = (inverse.astype(np.uint64) << np.uint64(32)) | tail
    distinct, inverse = np.unique(key, return_inverse=True)
    # any row of a distinct key holds its text
    row = np.empty(distinct.size, np.intp)
    row[inverse] = np.arange(inverse.size)
    spans = zip(start[row].tolist(), (start[row] + length[row]).tolist())
    return [data[a:b].decode("utf-8").removesuffix("\r") for a, b in spans], inverse


def _block_lines(data: bytes, width: int) -> tuple | None:
    """The separators of a block of whole lines and where its rows start:
    ``(sep, first, short)``, with ``sep`` its commas and newlines after
    ``sep[0] = -1`` and ``sep[first]`` the end of each non-empty line's
    first field, up to the first line with fewer than ``width`` fields,
    and that line's field count or None. Returns None for a block that
    csv.reader would read otherwise."""
    if not _plain(data):
        return None
    buf = np.frombuffer(data, np.uint8)
    # sep[k] is the k-th comma or newline after sep[0] = -1, a line end in
    # front of the block: field k runs from sep[k - 1] + 1 up to sep[k]
    mask = np.empty(buf.size + 1, bool)
    mask[0] = True
    np.equal(buf, 44, out=mask[1:])
    mask[1:] |= buf == 10
    sep = np.flatnonzero(mask)
    del mask
    # positions below 2 GiB fit int32, half the bytes of intp
    sep = sep.astype(np.int32 if buf.size < 2**31 else np.intp)
    sep -= 1
    if np.diff(sep).max() - 1 > csv.field_size_limit():
        return None  # csv.reader raises on such a field
    # line l holds fields ends[l - 1] + 1 up to ends[l]; buf[-1] is a newline
    ends = np.flatnonzero(buf[sep] == 10)
    first, n_fields = (ends[:-1] + 1).astype(sep.dtype), np.diff(ends)
    del ends
    # a blank line, one field empty or a lone \r, reads as [] in csv.reader, and as no row
    lone = np.flatnonzero(n_fields == 1)
    stop = sep[first[lone]]
    blank = lone[stop - sep[first[lone] - 1] - 1 <= (buf[stop - 1] == 13)]
    if blank.size:
        first, n_fields = np.delete(first, blank), np.delete(n_fields, blank)
    short = np.flatnonzero(n_fields < width)
    if not short.size:
        return sep, first, None
    return sep, first[: short[0]], int(n_fields[short[0]])


def _read_csv(path, names: tuple) -> tuple[_RawColumns, str | None]:
    """Streams the columns ``names`` of a CSV file into a table. Returns
    the table and the error that ended the read, at row ``table.count``.

    The file is read a block at a time. A plain block is split with
    numpy and each distinct field decoded once; from the first block
    that is not, csv.reader reads the rest of the file. A field past
    csv.reader's size limit is an error of its row."""
    with open(path, "rb") as handle:
        line = handle.readline()
        reader = None if _plain(line) else _csv_reader(handle, 0)
        head_reader = reader or csv.reader([line.decode("utf-8")])
        try:
            head = next(head_reader, [])
        except csv.Error as error:
            raise IngestError(f"line {head_reader.line_num}: {error}") from None
        # a repeated column name means its last column, as in csv.DictReader
        header = {name: col for col, name in enumerate(head)}
        missing = [key for key in names if key not in header]
        if missing:
            raise IngestError(f"line 1: header missing columns {missing}")
        cols = [header[key] for key in names]
        table = _RawColumns(_line_bound(path), len(names))
        width = max(cols) + 1
        short = stop = None  # the field count of the first row with too few; csv.reader's error
        if reader is None:
            for offset, data in _whole_lines(handle):
                lines = _block_lines(data, width)
                if lines is None:
                    reader = _csv_reader(handle, offset)
                    break
                sep, first, short = lines
                for lo in range(0, first.size, _CHUNK):
                    table.extend_distinct(_field(data, sep, first[lo : lo + _CHUNK], col) for col in cols)
                del lines, sep, first  # before the next block is split
                if short is not None:
                    break
        if reader is not None:
            rows = filter(None, reader)  # a blank line reads as []
            while stop is None:
                chunk = []
                try:
                    chunk.extend(islice(rows, _CHUNK))  # list.extend keeps the rows read before an error
                except csv.Error as error:
                    stop = str(error)  # a field past the size limit
                if not chunk:
                    break
                if min(map(len, chunk)) < width:
                    at = next(i for i, row in enumerate(chunk) if len(row) < width)
                    table.extend(chunk[:at], cols)
                    short = len(chunk[at])
                    break
                table.extend(chunk, cols)
    if short is None:
        return table, stop
    missing = [key for key, col in zip(names, cols) if col >= short]
    return table, f"missing fields {missing}"


def _jsonl_line(path, row: int) -> int:
    """Physical line of data row ``row`` (from 0) of a JSONL file."""
    with open(path, encoding="utf-8") as handle:
        return next(islice((n for n, line in enumerate(handle, start=1) if line.strip()), row, None))


def _csv_line(path, row: int) -> int:
    """Physical line of data row ``row`` (from 0) of a CSV file."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
        with suppress(csv.Error):  # a field past the size limit, on the line the reader stands at
            next(islice(filter(None, reader), row, None))
        return reader.line_num


def _day_ordinal(raw) -> int | tuple[int, str]:
    """Ordinal of a ``YYYY-MM-DD`` day, or the ``(rank, message)`` of its
    error. Python 3.11's ``date.fromisoformat`` also takes ``20210201``."""
    text = str(raw)
    if _ISO_DAY.fullmatch(text) is not None:
        try:
            return date.fromisoformat(text).toordinal()
        except ValueError:
            pass
    return 1, f"bad date {raw!r}"


def _quantity(raw) -> int | tuple[int, str]:
    """A sold quantity, or the ``(rank, message)`` of its error."""
    # int() would truncate these; an integral float such as 3.0 is fine
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        return 0, f"bad sold_quantity {raw!r}"
    if isinstance(raw, str) and _INTEGER.fullmatch(raw) is None:
        return 2, f"bad sold_quantity {raw!r}"
    try:
        qty = int(raw)
    except (TypeError, ValueError):
        return 2, f"bad sold_quantity {raw!r}"
    if qty < 0:
        return 2, f"negative sold_quantity {qty}"
    if qty > _MAX_QTY:
        return 2, f"sold_quantity {qty} exceeds {_MAX_QTY}"
    return qty


def _parsed(raw: list, codes: np.ndarray, parse, dtype) -> tuple[np.ndarray, tuple | None]:
    """The column of ``codes`` over the distinct values ``raw``, each parsed
    once into a value or the ``(rank, message)`` of its error (read as 0),
    and the ``(row, rank, message)`` of its first bad row, or None. A
    column of the codes' own dtype is written over them."""
    parsed = list(map(parse, raw))
    bad = np.array([value.__class__ is tuple for value in parsed], dtype=bool)
    error = None
    if bad.any():
        row = int(np.argmax(bad[codes]))
        error = (row, *parsed[codes[row]])
        parsed = [0 if flag else value for flag, value in zip(bad.tolist(), parsed)]
    column = codes if codes.dtype == dtype else np.empty(codes.size, dtype)
    _take(np.array(parsed, dtype), codes, column)
    return column, error


def _raise_first(errors: list, line_of) -> None:
    """Raises the ``(row, rank, message)`` of ``errors`` (None for no
    error) with the smallest row, then rank, as ``line N: message``."""
    errors = [error for error in errors if error is not None]
    if errors:
        row, _, message = min(errors)
        raise IngestError(f"line {line_of(row)}: {message}")


def _dataset(table: _RawColumns, stop: str | None, line_of) -> SalesDataset:
    """Parses and checks each distinct raw value once, over the table's
    code columns, raises the error of the first offending row, and sorts
    the rows by (SKU code, day)."""
    sku_raw, date_raw, qty_raw = table.values
    skus, sku_code = _factorize([parse_sku(raw) for raw in sku_raw])
    code = table.codes(0)
    _take(sku_code, code, code)
    # a row's checks ran in rank order: JSON-only quantity checks, date,
    # quantity, then the duplicate test against the rows before it
    day, bad_day = _parsed(date_raw, table.codes(1), _day_ordinal, np.int32)
    qty, bad_qty = _parsed(qty_raw, table.codes(2), _quantity, np.int32)
    # a file already in (code, day) order is not sorted; same[i] says
    # whether row i + 1 has the SKU of row i, then also its valid day
    same = code[1:] == code[:-1]
    order = None
    if (code[1:] < code[:-1]).any() or (same & (day[1:] < day[:-1])).any():
        order = np.lexsort((day, code))
        for column in (code, day, qty):
            column[:] = column[order]
        same = code[1:] == code[:-1]

    errors = [bad_day, bad_qty]
    # the sort is stable: the later rows of a (SKU, day) follow its first;
    # a bad day reads as 0, below every ordinal
    same &= day[1:] == day[:-1]
    same &= day[1:] > 0
    repeats = np.flatnonzero(same) + 1
    if repeats.size:
        rows = repeats if order is None else order[repeats]
        at = repeats[np.argmin(rows)]
        sku, on = skus[code[at]], date.fromordinal(int(day[at]))
        errors.append((int(rows.min()), 3, f"duplicate entry for sku {sku} on {on}"))
    if stop is not None:
        errors.append((table.count, 4, stop))
    _raise_first(errors, line_of)
    return SalesDataset(skus, code, day, qty)


def ingest(path, fmt: str | None = None) -> SalesDataset:
    """Load a JSONL or CSV sales file into a dataset.

    Each row needs sku, date (``YYYY-MM-DD``), and sold_quantity.
    Malformed rows raise with their line number; a duplicated (sku, date)
    pair is an error.
    """
    path = Path(path)
    if not path.exists():
        raise IngestError(f"no such file: {path}")
    if fmt is None:
        fmt = "csv" if path.suffix.lower() == ".csv" else "jsonl"
    if fmt not in ("jsonl", "csv"):
        raise ValueError(f"unknown input format {fmt!r}")

    with _collector_paused():
        if fmt == "jsonl":
            table = _RawColumns(_line_bound(path))
            with open(path, encoding="utf-8") as handle:
                stop = _read_jsonl(handle, table)
            line_of = partial(_jsonl_line, path)
        else:
            table, stop = _read_csv(path, _REQUIRED_FIELDS)
            line_of = partial(_csv_line, path)
    return _dataset(table, stop, line_of)


@dataclass(frozen=True)
class EvaluationRecord:
    """Score of one (sku, initial stock, stockout day, model) case: a view
    of one row of a ``RecordTable``."""

    sku: int | str
    m: int
    u: int
    model: str
    branch: str | None
    rps: float | None
    train_days_with_sales: int
    p0_at_d: float | None
    status: str  # scored | excluded | skipped
    reason: str | None = None


_FIELDS = tuple(f.name for f in fields(EvaluationRecord))

_REASONS = ("beyond_horizon", "estimation_degenerate", "normalization_undefined", "zero_train_sales")

# every label a coded field but sku can hold, sorted with None first, in
# the order of the records.csv columns; a record holds its label's code
_LABELS = {
    "model": tuple(sorted(MODEL_TAGS)),
    "branch": (None, "binomial", "deterministic", "negative_binomial", "poisson"),
    "status": ("excluded", "scored", "skipped"),
    "reason": (None, *_REASONS),
}
_CODES = {name: {label: code for code, label in enumerate(labels)} for name, labels in _LABELS.items()}
_CODED = ("sku", *_LABELS)

_EXCLUDED, _SCORED, _SKIPPED = range(3)
_OK, _BEYOND_HORIZON, _DEGENERATE, _UNDEFINED, _ZERO_TRAIN_SALES = range(5)


@dataclass(frozen=True, eq=False)
class RecordTable:
    """Evaluation records as one array per field, in record order.

    ``sku`` holds codes into ``skus``, the SKU identities in ``str``
    order; ``model``, ``branch``, ``status`` and ``reason`` hold codes
    into the fixed labels of their field. NaN stands for a missing
    ``rps`` or ``p0_at_d``. Iterating or indexing yields
    ``EvaluationRecord`` views whose fields are Python scalars.
    """

    skus: tuple
    sku: np.ndarray
    m: np.ndarray
    u: np.ndarray
    model: np.ndarray
    branch: np.ndarray
    rps: np.ndarray
    train_days_with_sales: np.ndarray
    p0_at_d: np.ndarray
    status: np.ndarray
    reason: np.ndarray

    def _labels(self, name: str) -> tuple:
        """The labels that the codes of field ``name`` index."""
        return self.skus if name == "sku" else _LABELS[name]

    def distinct(self, name: str) -> tuple[list, np.ndarray]:
        """The distinct values of field ``name``, as Python values, and the
        code of each record's value."""
        values = getattr(self, name)
        if name in _CODED:
            return list(self._labels(name)), values
        if values.dtype.kind == "f":
            # one value per bit pattern, so -0.0 keeps its sign; NaN is no value
            bits, codes = np.unique(values.view(np.int64), return_inverse=True)
            return [None if v != v else v for v in bits.view(float).tolist()], codes
        distinct, codes = np.unique(values, return_inverse=True)
        return distinct.tolist(), codes

    def column(self, name: str, rows=slice(None)) -> list:
        """Field ``name`` of the records ``rows``, as Python values."""
        values = getattr(self, name)[rows].tolist()
        if name in _CODED:
            return list(map(self._labels(name).__getitem__, values))
        if name in ("rps", "p0_at_d"):
            return [None if v != v else v for v in values]
        return values

    def counts(self, name: str, rows=slice(None)) -> dict:
        """Records per label of field ``name`` among ``rows``, leaving out
        labels with none."""
        labels = _LABELS[name]
        counts = np.bincount(getattr(self, name)[rows], minlength=len(labels)).tolist()
        return {label: n for label, n in zip(labels, counts) if n}

    def __len__(self) -> int:
        return self.m.size

    def __iter__(self):
        return map(EvaluationRecord, *map(self.column, _FIELDS))

    def __getitem__(self, index: int) -> EvaluationRecord:
        rows = [range(len(self))[index]]
        return EvaluationRecord(*(self.column(name, rows)[0] for name in _FIELDS))

    def __eq__(self, other):
        if isinstance(other, (RecordTable, list, tuple)):
            return list(self) == list(other)
        return NotImplemented


def _score_block(task) -> tuple:
    """``(p0_at_d, rps, ok)`` of the pairs of one block of SKUs under one
    fitted tag, in order: one kernel call and one scoring reduction. When
    the block fails, each SKU runs as a block of one, and only the pairs
    of a SKU that fails alone are not ok, with NaN for their values."""
    fits, levels, days, horizon = task
    try:
        rows = stockout_tail_block(fits, levels, horizon)
        # a copy, so that the outcome does not hold the block's rows alive
        return rows[:, -1].copy(), rps_rows(rows, np.concatenate(days)), np.ones(len(rows), bool)
    except ArithmeticError:
        if len(fits) == 1:
            nan = np.full(levels[0].size, np.nan)
            return nan, nan, np.zeros(nan.size, bool)
        alone = [_score_block(([fit], [lv], [u], horizon)) for fit, lv, u in zip(fits, levels, days)]
        return tuple(map(np.concatenate, zip(*alone)))


class _Pairs(NamedTuple):
    """The SKUs with training rows and test sales, in SKU order, each with
    its code, training days, training days with sales, first pair
    and number of pairs; and every pair ``(m, u)``, SKU after SKU: one per
    test day with sales, with ``m`` the SKU's test sales through that day
    and ``u`` its day number in the test window."""

    code: np.ndarray
    train_days: np.ndarray
    active: np.ndarray
    start: np.ndarray
    count: np.ndarray
    m: np.ndarray
    u: np.ndarray


def _tasks(dataset: SalesDataset, train_window: Window, test_window: Window) -> _Pairs:
    """Every evaluation pair of the dataset, from its sorted columns."""
    in_train, sold = dataset._inside(train_window), dataset._qty > 0
    train_days = dataset._per_sku(in_train)
    train_days_with_sales = dataset._per_sku(sold & in_train)
    # the sold test rows of the SKUs with training rows, SKU after SKU
    picked = sold & dataset._inside(test_window) & dataset._rows_of(train_days > 0)
    n_pairs = dataset._per_sku(picked)
    rows = np.flatnonzero(picked)
    # m cumulates each SKU's sales over its pairs
    offsets = np.cumsum(n_pairs) - n_pairs
    sales = np.cumsum(dataset._qty[rows], dtype=np.int64)
    m = sales - np.repeat(np.concatenate(([0], sales))[offsets], n_pairs)
    u = dataset._day[rows] - (test_window.start.toordinal() - 1)
    keep = np.flatnonzero(n_pairs)
    return _Pairs(keep, train_days[keep], train_days_with_sales[keep], offsets[keep], n_pairs[keep], m, u)


def _threshold(exclusion_threshold: float | None) -> None:
    if exclusion_threshold is not None and not 0.0 <= exclusion_threshold <= 1.0:
        raise ValueError(f"exclusion threshold must lie in [0, 1], got {exclusion_threshold!r}")


def evaluate(
    dataset: SalesDataset,
    train_window: Window,
    test_window: Window,
    models: tuple[str, ...] = MODEL_TAGS[:-1],
    horizon: int = 31,
    exclusion_threshold: float | None = None,
    moment_ddof: int = 0,
    jobs: int = 1,
) -> RecordTable:
    """Score every augmented (m, u) pair of every SKU with data in both
    windows, for each requested model tag.

    Per-record failures become skip reasons rather than aborting the
    batch. Output ordering is canonical (sku, m, model) regardless of
    the degree of parallelism.
    """
    for tag in models:
        if tag not in MODEL_TAGS:
            raise ValueError(f"unknown model tag {tag!r}; expected one of {MODEL_TAGS}")
        if models.count(tag) > 1:
            raise ValueError(f"model tag {tag!r} is given more than once")
    _threshold(exclusion_threshold)
    if jobs != int(jobs) or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    jobs, horizon = int(jobs), _horizon(horizon)

    pairs = _tasks(dataset, train_window, test_window)
    m, u = pairs.m, pairs.u
    trained = np.repeat(pairs.active > 0, pairs.count)
    inside = u <= horizon
    # one grid row per tag, in tag order; the pairs are in (sku, m) order,
    # so the transposed grids hold the records in (sku, m, model) order
    tags = sorted(models)
    grid = (len(tags), m.size)
    branch, reason = np.zeros(grid, np.int8), np.zeros(grid, np.int8)
    p0, rps = np.full(grid, np.nan), np.full(grid, np.nan)
    days = np.arange(1, horizon + 1)

    # the SKUs with training sales, fitted at once; uniform alone fits none
    sku = np.flatnonzero(pairs.active)
    start, count = pairs.start[sku], pairs.count[sku]
    if sku.size and tags != ["uniform"]:
        # u ascends within a SKU: its pairs within the horizon come first
        inside_before = np.concatenate(([0], np.cumsum(inside)))
        scored = inside_before[start + count] - inside_before[start]
        largest = m[start + count - 1]  # m ascends within a SKU
        fitted = np.zeros(len(dataset._skus), bool)
        fitted[pairs.code[sku]] = True
        # the training quantities of every SKU, SKU after SKU
        qty = dataset._qty[dataset._inside(train_window) & dataset._rows_of(fitted)]
        fits, _ = fit_columns(qty, pairs.train_days[sku], tags, moment_ddof, largest)
    tasks, targets = [], []
    for row, tag in enumerate(tags):
        if tag == "uniform":
            # the uniform curve is certain to stock out; its score depends on u alone
            p0[row, inside] = 1.0
            rps[row, inside] = rps_rows(np.tile(days / horizon, (horizon, 1)), days)[u[inside] - 1]
            continue
        reason[row, ~trained] = _ZERO_TRAIN_SALES
        if not sku.size:
            continue
        sku_fits = fits[tag]
        # a fit is None where its moments are degenerate; bnbp records the family it chose
        fit = np.array([model is not None for model in sku_fits])
        kinds = [model.kind if tag == "bnbp" and model is not None else None for model in sku_fits]
        branch[row, trained] = np.repeat([_CODES["branch"][kind] for kind in kinds], count)
        reason[row, trained] = np.repeat(np.where(fit, _OK, _DEGENERATE), count)
        # the SKUs with a fit and pairs within the horizon, each with the span of those pairs
        chosen = np.flatnonzero(fit & (scored > 0)).tolist()
        spans = [np.arange(start[i], start[i] + scored[i]) for i in chosen]
        chosen_fits = [sku_fits[i] for i in chosen]
        tops = [int(m[at[-1]]) for at in spans]
        for block in tail_blocks(chosen_fits, tops, horizon):
            at = [spans[i] for i in block]
            tasks.append(([chosen_fits[i] for i in block], [m[a] for a in at], [u[a] for a in at], horizon))
            targets.append((row, np.concatenate(at)))
    # fork starts every worker at once: no more than there are blocks or cores
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_score_block, tasks, chunksize=max(1, len(tasks) // (4 * workers))))
    else:
        outcomes = list(map(_score_block, tasks))
    for (row, at), (p0_at_d, scores, ok) in zip(targets, outcomes):
        p0[row, at], rps[row, at] = p0_at_d, scores
        reason[row, at[~ok]] = _DEGENERATE

    # a reason that covers the whole tag comes before the per-pair ones
    reason[(reason == _OK) & ~inside] = _BEYOND_HORIZON
    undefined = (reason == _OK) & ~(p0 > 0.0)
    reason[undefined], p0[undefined], rps[undefined] = _UNDEFINED, 0.0, np.nan
    status = np.where(reason == _OK, _SCORED, _SKIPPED).astype(np.int8)
    if exclusion_threshold is not None:
        status[(reason == _OK) & (p0 < exclusion_threshold)] = _EXCLUDED

    repeat = len(tags)
    return RecordTable(
        dataset._skus,
        sku=np.repeat(np.repeat(pairs.code, pairs.count), repeat),
        m=np.repeat(m, repeat),
        u=np.repeat(u, repeat),
        model=np.tile(np.array([_CODES["model"][tag] for tag in tags], np.int8), m.size),
        branch=branch.T.ravel(),
        rps=rps.T.ravel(),
        train_days_with_sales=np.repeat(np.repeat(pairs.active, pairs.count), repeat),
        p0_at_d=p0.T.ravel(),
        status=status.T.ravel(),
        reason=reason.T.ravel(),
    )


@dataclass(frozen=True)
class ModelStats:
    """Score summary for one model (or one BNBP branch)."""

    model: str
    n_skus: int
    n_evals: int
    mean: float
    sd: float
    min: float
    q1: float
    median: float
    q3: float
    max: float


@dataclass(frozen=True)
class StratumStats:
    """Score summary for one training-activity stratum of one model."""

    train_days: int
    n_skus: int
    n_evals: int
    min: float
    q1: float
    median: float
    mean: float
    q3: float
    max: float


@dataclass(frozen=True)
class SummaryReport:
    """Aggregated evaluation results plus reference lines.

    Quartiles use linear interpolation between order statistics.
    """

    horizon: int
    exclusion_threshold: float | None
    n_records: int
    status_counts: dict
    skip_reasons: dict
    models: dict = field(default_factory=dict)
    bnbp_branches: dict = field(default_factory=dict)
    strata: dict = field(default_factory=dict)
    baseline_mean: float = 0.0
    baseline_variance: float = 0.0
    baseline_mean_discrete: float = 0.0
    benchmark_rps: float = BENCHMARK_RPS


def _stats(scores: np.ndarray, skus: np.ndarray) -> dict:
    """Score summary of one group: a contiguous slice of the sorted score
    column, in record order, since the mean and sd depend on the order of
    summation, and the SKU codes beside it."""
    q1, median, q3 = np.quantile(scores, [0.25, 0.5, 0.75])
    return dict(
        n_skus=np.unique(skus).size,
        n_evals=scores.size,
        mean=float(scores.mean()),
        sd=float(scores.std(ddof=1)) if scores.size > 1 else 0.0,
        min=float(scores.min()),
        q1=float(q1),
        median=float(median),
        q3=float(q3),
        max=float(scores.max()),
    )


def _grouped(table: RecordTable, rows: np.ndarray, *keys: str):
    """The records ``rows`` grouped by the fields ``keys``: ``(key codes,
    stats)`` per group, in key order, from one stable sort."""
    if not rows.size:
        return
    columns = [getattr(table, name)[rows] for name in keys]
    order = np.lexsort(columns[::-1])
    columns = np.stack([column[order] for column in columns])
    starts = np.flatnonzero(np.r_[True, (columns[:, 1:] != columns[:, :-1]).any(axis=0)])
    scores, skus = table.rps[rows[order]], table.sku[rows[order]]
    for lo, hi in zip(starts.tolist(), [*starts[1:].tolist(), rows.size]):
        yield tuple(columns[:, lo].tolist()), _stats(scores[lo:hi], skus[lo:hi])


def _table(records, action: str) -> RecordTable:
    """``records``, checked as ``summarize`` and ``export_report`` take it."""
    if not isinstance(records, RecordTable):
        raise TypeError(f"expected a RecordTable from evaluate or read_records, got {type(records).__name__}")
    if not len(records):
        raise ValueError(f"no evaluation records to {action}")
    return records


def summarize(
    records: RecordTable,
    horizon: int = 31,
    exclusion_threshold: float | None = None,
) -> SummaryReport:
    """Aggregate the scored records of a ``RecordTable``, as ``evaluate``
    or ``read_records`` returns it, per model, per BNBP branch, and per
    number-of-training-days-with-sales stratum."""
    horizon = _horizon(horizon)
    _threshold(exclusion_threshold)
    table = _table(records, "summarize")
    # a score past the horizon would fall outside every histogram bin; a
    # score is a sum of one term in [0, 1] per day, so it cannot pass it either
    has_score = table.status != _SKIPPED
    late, high = table.u[has_score], table.rps[has_score]
    if late.size and late.max() > horizon:
        raise ValueError(
            f"a record with a score has stockout day {late.max()}, past horizon {horizon}; pass the run's --horizon"
        )
    if high.size and high.max() > horizon:
        raise ValueError(f"a record has score {float(high.max())!r}, past horizon {horizon}; pass the run's --horizon")
    # evaluate skips a pair as beyond_horizon only past the run's horizon
    early = table.u[table.reason == _BEYOND_HORIZON]
    if early.size and early.min() <= horizon:
        raise ValueError(
            f"a record skipped as beyond_horizon has stockout day {early.min()}, within horizon {horizon}; "
            "pass the run's --horizon"
        )

    skipped = table.status == _SKIPPED
    scored = np.flatnonzero(table.status == _SCORED)
    tags, kinds = _LABELS["model"], _LABELS["branch"]
    models = {tags[tag]: ModelStats(tags[tag], **stats) for (tag,), stats in _grouped(table, scored, "model")}
    bnbp = scored[table.model[scored] == _CODES["model"]["bnbp"]]
    bnbp_branches = {
        kinds[kind]: ModelStats(kinds[kind], **stats) for (kind,), stats in _grouped(table, bnbp, "branch")
    }
    strata: dict = {}
    for (tag, train_days), stats in _grouped(table, scored, "model", "train_days_with_sales"):
        del stats["sd"]
        strata.setdefault(tags[tag], []).append(StratumStats(train_days, **stats))

    mean, variance = baseline_uniform(horizon)
    return SummaryReport(
        horizon=horizon,
        exclusion_threshold=exclusion_threshold,
        n_records=len(table),
        status_counts=table.counts("status"),
        skip_reasons=table.counts("reason", skipped),
        models=models,
        bnbp_branches=bnbp_branches,
        strata=strata,
        baseline_mean=mean,
        baseline_variance=variance,
        baseline_mean_discrete=baseline_uniform_discrete(horizon),
    )


def render_summary(report: SummaryReport) -> str:
    """Human-readable rendering of a summary report."""
    lines = []
    lines.append("stockout forecast evaluation")
    lines.append(f"  horizon: {report.horizon} days")
    threshold = report.exclusion_threshold
    lines.append(f"  exclusion threshold: {'off' if threshold is None else threshold}")
    statuses = ", ".join(f"{k}: {v}" for k, v in sorted(report.status_counts.items()))
    lines.append(f"  records: {report.n_records} ({statuses})")
    if report.skip_reasons:
        reasons = ", ".join(f"{k}: {v}" for k, v in sorted(report.skip_reasons.items()))
        lines.append(f"  skip reasons: {reasons}")
    lines.append(
        f"  reference: uniform baseline mean {report.baseline_mean:.2f}"
        f" (variance {report.baseline_variance:.2f},"
        f" day-summed mean {report.baseline_mean_discrete:.2f}),"
        f" external benchmark {report.benchmark_rps:.2f}"
    )
    lines.append("")

    header = f"{'model':<20}{'skus':>9}{'evals':>10}{'min':>8}{'q1':>8}{'median':>8}{'mean':>8}{'q3':>8}{'max':>8}"

    def _row(stats: ModelStats) -> str:
        return (
            f"{stats.model:<20}{stats.n_skus:>9}{stats.n_evals:>10}"
            f"{stats.min:>8.2f}{stats.q1:>8.2f}{stats.median:>8.2f}"
            f"{stats.mean:>8.2f}{stats.q3:>8.2f}{stats.max:>8.2f}"
        )

    lines.append(header)
    for stats in report.models.values():
        lines.append(_row(stats))
    if report.bnbp_branches:
        lines.append("")
        lines.append("bnbp branches")
        lines.append(header.replace("model               ", "branch              "))
        for stats in report.bnbp_branches.values():
            lines.append(_row(stats))
    return "\n".join(lines) + "\n"


def export_report(report: SummaryReport, records: RecordTable, out_dir) -> list[Path]:
    """Write the machine-readable summary, the per-record score table,
    and per-model histogram / stratum tables of a ``RecordTable``, as
    ``evaluate`` or ``read_records`` returns it.

    With a single evaluated model this produces exactly four files
    (summary.json, records.csv, histogram.csv, strata.csv); with several
    models the histogram and strata files carry a model suffix.
    """
    table = _table(records, "export")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    summary_path = out_dir / "summary.json"
    payload = asdict(report)
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    written.append(summary_path)

    records_path = out_dir / "records.csv"
    with open(records_path, "w", newline="", encoding="utf-8") as handle:
        _write_records(handle, table)
    written.append(records_path)

    focal = list(report.models)
    edges = np.arange(report.horizon + 1, dtype=float)
    bounds = edges.tolist()
    scored = table.status == _SCORED
    for tag in focal:
        suffix = f"_{tag}" if len(focal) > 1 else ""
        counts, _ = np.histogram(table.rps[scored & (table.model == _CODES["model"][tag])], bins=edges)
        rows = zip(bounds, bounds[1:], counts.tolist())
        written.append(_write_rows(out_dir / f"histogram{suffix}.csv", ("bin_lo", "bin_hi", "count"), rows))
        header = ("train_days", "n", "count", "min", "q1", "median", "mean", "q3", "max")
        rows = map(astuple, report.strata.get(tag, []))
        written.append(_write_rows(out_dir / f"strata{suffix}.csv", header, rows))
    return written


def _write_rows(path: Path, header, rows) -> Path:
    """A CSV file of ``header`` and ``rows``, in the bytes csv.writer
    gives, at ``path``."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.writelines(",".join(map(_csv_field, row)) + "\r\n" for row in (header, *rows))
    return path


def _csv_field(value) -> str:
    """``value`` as csv.writer writes it in a row of several fields."""
    text = "" if value is None else str(value)
    return '"' + text.replace('"', '""') + '"' if _QUOTED.search(text) else text


def _write_records(handle, table: RecordTable) -> None:
    """The records.csv rows of ``table``, each distinct value of a field
    formatted once, written batch by batch."""
    texts, codes = [], []
    for name in _RECORD_COLUMNS:
        values, column_codes = table.distinct(name)
        texts.append(list(map(_csv_field, values)))
        codes.append(column_codes)
    handle.write(",".join(_RECORD_COLUMNS) + "\r\n")
    for lo in range(0, len(table), _CHUNK):
        fields = [list(map(text.__getitem__, code[lo : lo + _CHUNK].tolist())) for text, code in zip(texts, codes)]
        handle.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")


def read_records(path) -> RecordTable:
    """Records from a records.csv written by ``export_report``, with each
    SKU as written, read in one pass into codes over each column's
    distinct texts, each parsed once. An unknown label, a bad number, or
    a record whose score, reason or branch does not fit its status and
    model is an error naming its line. The file holds no ``p0_at_d``."""
    with _collector_paused():
        table, stop = _read_csv(path, _RECORD_COLUMNS)
    skus, sku_codes = _factorize(table.values[0])
    sku = table.pop(0)
    _take(sku_codes, sku, sku)
    columns = {"sku": sku}
    # a row's fields are checked in column order; the table lets go of
    # each column's codes once parsed
    errors = []
    for col, name in enumerate(_RECORD_COLUMNS[1:], start=1):
        dtype = np.int8 if name in _LABELS else float if name == "rps" else np.int64
        parse = partial(_record_field, name, col)
        columns[name], error = _parsed(table.values[col], table.pop(col), parse, dtype)
        errors.append(error)
    # then a score exactly when not skipped, a reason exactly when skipped,
    # and a branch only under bnbp, as every record of evaluate has
    records = RecordTable(skus, p0_at_d=np.full(table.count, np.nan), **columns)
    skipped = records.status == _SKIPPED
    rules = {
        "branch": ("model", (records.branch != 0) & (records.model != _CODES["model"]["bnbp"])),
        "rps": ("status", np.isnan(records.rps) != skipped),
        "reason": ("status", (records.reason == _OK) == skipped),
    }
    for rank, (name, (key, wrong)) in enumerate(rules.items(), start=len(_RECORD_COLUMNS)):
        if wrong.any():
            row = int(np.argmax(wrong))
            (value,), (label,) = records.column(name, [row]), records.column(key, [row])
            field_text = f"empty {name}" if value is None else f"{name} {value!r}"
            errors.append((row, rank, f"{field_text} for {key} {label!r}"))
    # the reader stops at a bad row, after every row the table holds
    if stop is not None:
        errors.append((table.count, len(_RECORD_COLUMNS), stop))
    _raise_first(errors, partial(_csv_line, path))
    return records


def _record_field(name: str, rank: int, text: str):
    """The value of a records.csv field ``name``: the code of a label, an
    int in the range ``evaluate`` writes, or a finite non-negative ``rps``
    (NaN when empty); or the ``(rank, message)`` of its error."""
    if name in _LABELS:
        # an empty field is None, a label only branch and reason hold
        code = _CODES[name].get(text or None)
        return (rank, f"unknown {name} {text!r}") if code is None else code
    if name == "rps" and not text:
        return np.nan
    # a score is finite and non-negative, a stock and a day are at least 1,
    # a count of training days at least 0, and an int fits in int64
    low, high = {"rps": (0.0, math.inf), "m": (1, 2**63), "u": (1, 2**63)}.get(name, (0, 2**63))
    if name == "rps":
        value = float(text) if _DECIMAL.fullmatch(text) else math.nan
    else:
        value = int(text) if _INTEGER.fullmatch(text) else math.nan
    return value if low <= value < high else (rank, f"bad {name} {text!r}")
