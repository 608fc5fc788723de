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
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from datetime import date
from functools import partial
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .closed_form import stockout_tail_block, tail_blocks
from .demand import fit_columns
from .engine import _horizon, stockout_rows_block, sweep_blocks
from .metrics import baseline_uniform, baseline_uniform_discrete, rps_rows
from .special import ConvergenceError

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

_ISO_DAY = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")

# quantities are stored as int32; sums over them are int64
_MAX_QTY = 2**31 - 1

# rows streamed per batch into the column codes, or out of them
_CHUNK = 1 << 14

# bytes of a CSV file read per block
_BLOCK = 1 << 20

# per byte count 0 .. 8, the mask of that many leading bytes of a big-endian word
_MASKS = np.array([(1 << 64) - (1 << (64 - 8 * n)) for n in range(9)], dtype=np.uint64)

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
        range ('2021-02-01..2021-02-14')."""
        text = text.strip()
        if ".." in text:
            lo, hi = text.split("..", 1)
            return cls(date.fromisoformat(lo), date.fromisoformat(hi))
        year, month = (int(part) for part in text.split("-"))
        last = calendar.monthrange(year, month)[1]
        return cls(date(year, month, 1), date(year, month, last))

    @property
    def n_days(self) -> int:
        return (self.end - self.start).days + 1

    def day_index(self, day: date) -> int:
        """1-based day number within the window."""
        return (day - self.start).days + 1

    def __str__(self) -> str:
        return f"{self.start.isoformat()}..{self.end.isoformat()}"


class SalesDataset:
    """All ingested rows as three int columns, SKU code, day ordinal and
    quantity, sorted by (SKU code, day). SKU codes rank the SKU
    identities in ``str`` order, so each SKU's rows are one slice."""

    def __init__(self, skus: tuple, code: np.ndarray, day: np.ndarray, qty: np.ndarray) -> None:
        self._skus = skus
        self._code, self._day, self._qty = code, day, qty

    @property
    def skus(self) -> list:
        return list(self._skus)

    def _window_bounds(self, window: Window) -> tuple[np.ndarray, np.ndarray]:
        """Per SKU code, the bounds ``[lo, hi)`` of its rows inside the window."""
        # day ordinals stay below 2**22, so (code, day) sorts as one int64 key
        key = (self._code.astype(np.int64) << 32) + self._day
        first = np.arange(len(self._skus), dtype=np.int64) << 32
        return (
            np.searchsorted(key, first + window.start.toordinal()),
            np.searchsorted(key, first + window.end.toordinal() + 1),
        )

    def quantities(self, sku, window: Window) -> np.ndarray | None:
        """Units sold on each recorded day of one SKU inside the window, in
        day order (a copy), or None when the SKU has no data there."""
        code = bisect_left(self._skus, str(sku), key=str)
        if code == len(self._skus) or self._skus[code] != sku:
            return None
        start, stop = np.searchsorted(self._code, [code, code + 1])
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


def _factorize(values: list, key) -> tuple[tuple, np.ndarray]:
    """The distinct values sorted by ``key``, and the code of each value."""
    labels = tuple(sorted(dict.fromkeys(values), key=key))
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


class _RawColumns:
    """Columns of raw values, by default sku, date and sold_quantity,
    streamed into int codes over each column's distinct values:
    ``values[col][code]`` holds one raw form of each value, found by its
    ``key``."""

    def __init__(self, width: int = 3, key=None) -> None:
        self.key = key
        self.count = 0
        self.index: tuple = tuple({} for _ in range(width))
        self.values: tuple = tuple([] for _ in range(width))
        self.parts: tuple = tuple([] for _ in range(width))

    def extend(self, rows: list, cols=(0, 1, 2)) -> None:
        """Adds fields ``cols`` of each row, one to each column."""
        for col, index, values, parts in zip(cols, self.index, self.values, self.parts):
            raw = list(map(itemgetter(col), rows))
            keys = raw if self.key is None else list(map(self.key, raw))
            for key, value in dict(zip(keys, raw)).items():
                if key not in index:
                    index[key] = len(values)
                    values.append(value)
            parts.append(np.fromiter(map(index.__getitem__, keys), np.int32, len(keys)))
        self.count += len(rows)

    def extend_distinct(self, columns: list) -> None:
        """Adds rows given per column as ``(texts, inverse)``: distinct
        texts, each looked up once, and the index of each row's text."""
        for (texts, inverse), index, values, parts in zip(columns, self.index, self.values, self.parts):
            for text in texts:
                if text not in index:
                    index[text] = len(values)
                    values.append(text)
            parts.append(np.fromiter(map(index.__getitem__, texts), np.int32, len(texts))[inverse])
        self.count += columns[0][1].size

    def codes(self, col: int) -> np.ndarray:
        parts = self.parts[col]
        return np.concatenate(parts) if parts else np.zeros(0, np.int32)


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
    """``(offset, data)`` for each block of a binary file, cut after its
    last newline; the partial line left over starts the next block."""
    offset, carry = 0, b""
    while block := handle.read(_BLOCK):
        data = carry + block
        cut = data.rfind(b"\n") + 1
        if cut:
            yield offset, data[:cut]
            offset += cut
        carry = data[cut:]
    if carry:
        yield offset, carry


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


def _block_fields(data: bytes, cols: list, width: int) -> tuple[list, int | None] | None:
    """The fields ``cols`` of the non-empty lines of a block, as ``(texts,
    inverse)`` per column: the distinct texts and the index of each
    line's text. Returns them up to the first line with fewer than
    ``width`` fields, with that line's field count or None; or returns
    None for a block that csv.reader would read otherwise.

    Each field's bytes are read as big-endian words from one strided
    view: an 8-byte word, zero past the field's end, then for a longer
    field one 4-byte word at a time, joined to the codes of the words
    before it. No field holds a NUL, so zero padding keeps keys apart."""
    if not _plain(data):
        return None
    buf = np.frombuffer(data + bytes(8), np.uint8)
    size = len(data)
    # field k of the block runs from lo[k] up to hi[k], the k-th comma or line end
    sep = np.flatnonzero((buf[:size] == 44) | (buf[:size] == 10))
    if not data.endswith(b"\n"):
        sep = np.append(sep, size)
    lo, hi = np.concatenate(([0], sep[:-1] + 1)), sep
    if (hi - lo).max(initial=0) > csv.field_size_limit():
        return None  # csv.reader raises on such a field
    last = np.flatnonzero(buf[sep] != 44)
    hi[last] -= buf[sep[last] - 1] == 13
    first = np.concatenate(([0], last[:-1] + 1))
    n_fields = last - first + 1
    # a blank line reads as [] in csv.reader, and as no row
    keep = (n_fields > 1) | (hi[first] > lo[first])
    first, n_fields = first[keep], n_fields[keep]
    short = np.flatnonzero(n_fields < width)
    n = int(short[0]) if short.size else first.size
    words = np.ndarray(size + 1, dtype=">u8", buffer=buf, strides=(1,))
    columns = []
    for col in cols:
        start, stop = lo[first[:n] + col], hi[first[:n] + col]
        length = stop - start
        key = words[start] & _MASKS[np.minimum(length, 8)]
        for at in range(8, int(length.max(initial=0)), 4):
            _, inverse = np.unique(key, return_inverse=True)
            tail = words[np.minimum(start + at, size)] & _MASKS[np.clip(length - at, 0, 4)]
            key = (inverse.astype(np.uint64) << np.uint64(32)) | (tail >> np.uint64(32))
        distinct, inverse = np.unique(key, return_inverse=True)
        # any row of a distinct key holds its text
        row = np.empty(distinct.size, np.intp)
        row[inverse] = np.arange(inverse.size)
        texts = [data[a:b].decode("utf-8") for a, b in zip(start[row].tolist(), stop[row].tolist())]
        columns.append((texts, inverse))
    return columns, None if n == first.size else int(n_fields[n])


def _read_csv(path, required: tuple, optional: tuple = ()) -> tuple[_RawColumns, list, str | None]:
    """Streams the columns ``required`` of a CSV file, and those of
    ``optional`` that its header names, into a table. Returns the table,
    the names of its columns, and the error that ended the read, at row
    ``table.count``.

    The file is read a block at a time. A plain block is split with
    numpy and each distinct field decoded once; from the first block
    that is not, csv.reader reads the rest of the file."""
    with open(path, "rb") as handle:
        blocks = _whole_lines(handle)
        offset, data = next(blocks, (0, b""))
        reader = None
        if _plain(data):
            line, _, data = data.partition(b"\n")
            offset += len(line) + 1
            head = next(csv.reader([line.decode("utf-8")]), [])
        else:
            reader = _csv_reader(handle, offset)
            head = next(reader, [])
        # a repeated column name means its last column, as in csv.DictReader
        header = {name: col for col, name in enumerate(head)}
        missing = [key for key in required if key not in header]
        if missing:
            raise IngestError(f"line 1: header missing columns {missing}")
        names = [*required, *(key for key in optional if key in header)]
        cols = [header[key] for key in names]
        table = _RawColumns(len(names))
        width = max(cols) + 1
        short = None  # the field count of the first row with too few
        if reader is None:
            for offset, data in chain([(offset, data)], blocks):
                block = _block_fields(data, cols, width)
                if block is None:
                    reader = _csv_reader(handle, offset)
                    break
                table.extend_distinct(block[0])
                if (short := block[1]) is not None:
                    break
        if reader is not None:
            rows = filter(None, reader)  # a blank line reads as []
            while chunk := list(islice(rows, _CHUNK)):
                if min(map(len, chunk)) < width:
                    at = next(i for i, row in enumerate(chunk) if len(row) < width)
                    table.extend(chunk[:at], cols)
                    short = len(chunk[at])
                    break
                table.extend(chunk, cols)
    if short is None:
        return table, names, None
    missing = [key for key, col in zip(names, cols) if col >= short]
    return table, names, f"missing fields {missing}"


def _jsonl_line(path, row: int) -> int:
    """Physical line of data row ``row`` (from 0) of a JSONL file."""
    with open(path, encoding="utf-8") as handle:
        return next(islice((n for n, line in enumerate(handle, start=1) if line.strip()), row, None))


def _csv_line(path, row: int) -> int:
    """Physical line of data row ``row`` (from 0) of a CSV file."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
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
    and the ``(row, rank, message)`` of its first bad row, or None."""
    parsed = list(map(parse, raw))
    bad = np.array([value.__class__ is tuple for value in parsed], dtype=bool)
    if not bad.any():
        return np.array(parsed, dtype)[codes], None
    row = int(np.argmax(bad[codes]))
    column = np.array([0 if flag else value for flag, value in zip(bad.tolist(), parsed)], dtype)
    return column[codes], (row, *parsed[codes[row]])


def _raise_first(errors: list, line_of) -> None:
    """Raises the ``(row, rank, message)`` of ``errors`` (None for no
    error) with the smallest row, then rank, as ``line N: message``."""
    errors = [error for error in errors if error is not None]
    if errors:
        row, _, message = min(errors)
        raise IngestError(f"line {line_of(row)}: {message}")


def _dataset(table: _RawColumns, stop: str | None, line_of) -> SalesDataset:
    """Parses and checks each distinct raw value once, raises the error of
    the first offending row, and sorts the rows by (SKU code, day)."""
    sku_raw, date_raw, qty_raw = table.values
    skus, code = _factorize([parse_sku(raw) for raw in sku_raw], str)
    code = code[table.codes(0)]
    # a row's checks ran in rank order: JSON-only quantity checks, date,
    # quantity, then the duplicate test against the rows before it
    day, bad_day = _parsed(date_raw, table.codes(1), _day_ordinal, np.int32)
    qty, bad_qty = _parsed(qty_raw, table.codes(2), _quantity, np.int32)
    # (code, day) as one int64 key, as in _window_bounds: a file already in order is not sorted
    key = (code.astype(np.int64) << 32) + day
    if (key[1:] < key[:-1]).any():
        order = np.lexsort((day, code))
        code, day, qty = code[order], day[order], qty[order]
    else:
        order = np.arange(key.size)

    errors = [bad_day, bad_qty]
    # the sort is stable: the later rows of a (SKU, day) follow its first;
    # a bad day reads as 0, below every ordinal
    repeats = np.flatnonzero((code[1:] == code[:-1]) & (day[1:] == day[:-1]) & (day[1:] > 0)) + 1
    if repeats.size:
        at = repeats[np.argmin(order[repeats])]
        sku, on = skus[code[at]], date.fromordinal(int(day[at]))
        errors.append((int(order[at]), 3, f"duplicate entry for sku {sku} on {on}"))
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
            table = _RawColumns(key=_json_key)
            with open(path, encoding="utf-8") as handle:
                stop = _read_jsonl(handle, table)
            line_of = partial(_jsonl_line, path)
        else:
            table, _, stop = _read_csv(path, _REQUIRED_FIELDS)
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

_REASONS = ("beyond_horizon", "estimation_degenerate", "normalization_undefined", "unrecorded", "zero_train_sales")

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
_OK, _BEYOND_HORIZON, _DEGENERATE, _UNDEFINED, _UNRECORDED, _ZERO_TRAIN_SALES = range(6)


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

    @classmethod
    def of(cls, records) -> RecordTable:
        """A table as it is, or a sequence of records converted once."""
        if isinstance(records, cls):
            return records
        records = list(records)
        arrays = {}
        for name in _FIELDS:
            values = [getattr(r, name) for r in records]
            if name == "sku":
                skus, arrays[name] = _factorize(values, str)
            elif name in _CODED:
                arrays[name] = np.fromiter(map(_CODES[name].__getitem__, values), np.int8, len(values))
            elif name in ("rps", "p0_at_d"):
                arrays[name] = np.array([np.nan if v is None else v for v in values], dtype=float)
            else:
                arrays[name] = np.array(values, dtype=np.int64)
        return cls(skus, **arrays)

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
    tag, fits, levels, days, horizon = task
    try:
        kernel = stockout_rows_block if tag == "nfq" else stockout_tail_block
        rows = kernel(fits, levels, horizon)
        # a copy, so that the outcome does not hold the block's rows alive
        return rows[:, -1].copy(), rps_rows(rows, np.concatenate(days)), np.ones(len(rows), bool)
    except (ConvergenceError, ArithmeticError):
        if len(fits) == 1:
            nan = np.full(levels[0].size, np.nan)
            return nan, nan, np.zeros(nan.size, bool)
        alone = [_score_block((tag, [fit], [lv], [u], horizon)) for fit, lv, u in zip(fits, levels, days)]
        return tuple(map(np.concatenate, zip(*alone)))


class _Pairs(NamedTuple):
    """The SKUs with training rows and test sales, in SKU order, each with
    its code, training row bounds, training days with sales, first pair
    and number of pairs; and every pair ``(m, u)``, SKU after SKU: one per
    test day with sales, with ``m`` the SKU's test sales through that day
    and ``u`` its day number in the test window."""

    code: np.ndarray
    train_lo: np.ndarray
    train_hi: np.ndarray
    active: np.ndarray
    start: np.ndarray
    count: np.ndarray
    m: np.ndarray
    u: np.ndarray


def _tasks(dataset: SalesDataset, train_window: Window, test_window: Window) -> _Pairs:
    """Every evaluation pair of the dataset, from its sorted columns."""
    day, qty = dataset._day, dataset._qty
    train_lo, train_hi = dataset._window_bounds(train_window)
    test_lo, test_hi = dataset._window_bounds(test_window)
    sold = qty > 0
    sold_before = np.concatenate(([0], np.cumsum(sold)))
    train_days_with_sales = sold_before[train_hi] - sold_before[train_lo]
    n_pairs = np.where(train_hi > train_lo, sold_before[test_hi] - sold_before[test_lo], 0)
    # the sold test rows of all SKUs, SKU after SKU; m cumulates their sales per SKU
    offsets = np.cumsum(n_pairs) - n_pairs
    first = np.repeat(sold_before[test_lo] - offsets, n_pairs)
    rows = np.flatnonzero(sold)[np.arange(first.size) + first]
    sales = np.cumsum(qty[rows], dtype=np.int64)
    m = sales - np.repeat(np.concatenate(([0], sales))[offsets], n_pairs)
    u = day[rows] - (test_window.start.toordinal() - 1)
    keep = np.flatnonzero(n_pairs)
    return _Pairs(
        keep, train_lo[keep], train_hi[keep], train_days_with_sales[keep], offsets[keep], n_pairs[keep], m, u
    )


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
    if exclusion_threshold is not None and not 0.0 <= exclusion_threshold <= 1.0:
        raise ValueError(f"exclusion threshold must lie in [0, 1], got {exclusion_threshold!r}")
    if jobs != int(jobs) or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    _horizon(horizon)

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
        lo, n = pairs.train_lo[sku], pairs.train_hi[sku] - pairs.train_lo[sku]
        # the training quantities of every SKU, SKU after SKU
        qty = dataset._qty[np.arange(n.sum()) + np.repeat(lo - (np.cumsum(n) - n), n)]
        fits, _ = fit_columns(qty, n, tags, moment_ddof, largest)
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
        blocks = sweep_blocks(chosen_fits, tops) if tag == "nfq" else tail_blocks(chosen_fits, tops, horizon)
        for block in blocks:
            at = [spans[i] for i in block]
            tasks.append((tag, [chosen_fits[i] for i in block], [m[a] for a in at], [u[a] for a in at], horizon))
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


def summarize(
    records,
    horizon: int = 31,
    exclusion_threshold: float | None = None,
) -> SummaryReport:
    """Aggregate scored records per model, per BNBP branch, and per
    number-of-training-days-with-sales stratum. ``records`` is a
    ``RecordTable`` or a sequence of records."""
    table = RecordTable.of(records)
    if not len(table):
        raise ValueError("no evaluation records to summarize")
    # a score past the horizon would fall outside every histogram bin
    late = table.u[table.status != _SKIPPED]
    if late.size and late.max() > horizon:
        raise ValueError(
            f"a record with a score has stockout day {late.max()}, past horizon {horizon}; pass the run's --horizon"
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


def export_report(report: SummaryReport, records, out_dir) -> list[Path]:
    """Write the machine-readable summary, the per-record score table,
    and per-model histogram / stratum tables. ``records`` is a
    ``RecordTable`` or a sequence of records.

    With a single evaluated model this produces exactly four files
    (summary.json, records.csv, histogram.csv, strata.csv); with several
    models the histogram and strata files carry a model suffix.
    """
    table = RecordTable.of(records)
    if not len(table):
        raise ValueError("no evaluation records to export")
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
    suffix = len(focal) > 1
    edges = np.arange(report.horizon + 1, dtype=float)
    scored = table.status == _SCORED
    for tag in focal:
        values = table.rps[scored & (table.model == _CODES["model"][tag])]
        counts, _ = np.histogram(values, bins=edges)
        name = f"histogram_{tag}.csv" if suffix else "histogram.csv"
        hist_path = out_dir / name
        with open(hist_path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["bin_lo", "bin_hi", "count"])
            for lo, hi, count in zip(edges[:-1], edges[1:], counts):
                writer.writerow([lo, hi, int(count)])
        written.append(hist_path)

        name = f"strata_{tag}.csv" if suffix else "strata.csv"
        strata_path = out_dir / name
        with open(strata_path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["train_days", "n", "count", "min", "q1", "median", "mean", "q3", "max"])
            for row in report.strata.get(tag, []):
                writer.writerow(
                    [
                        row.train_days,
                        row.n_skus,
                        row.n_evals,
                        repr(row.min),
                        repr(row.q1),
                        repr(row.median),
                        repr(row.mean),
                        repr(row.q3),
                        repr(row.max),
                    ]
                )
        written.append(strata_path)
    return written


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
    distinct texts, each parsed once; an unknown label, a bad number or
    a scored or excluded record without a score is an error naming its
    line. The file holds no ``p0_at_d``; a skip with no reason, as in a
    file without the ``reason`` column, reads as ``"unrecorded"``."""
    with _collector_paused():
        table, names, stop = _read_csv(path, _RECORD_COLUMNS[:-1], ("reason",))
    skus, sku_codes = _factorize(table.values[0], str)
    columns = {"sku": sku_codes[table.codes(0)], "p0_at_d": np.full(table.count, np.nan)}
    # a row's fields are checked in column order, then its score against its status
    errors = []
    for col, name in enumerate(names[1:], start=1):
        dtype = np.int8 if name in _LABELS else float if name == "rps" else np.int64
        parse = partial(_record_field, name, _RECORD_COLUMNS.index(name))
        columns[name], error = _parsed(table.values[col], table.codes(col), parse, dtype)
        errors.append(error)
    unscored = np.isnan(columns["rps"]) & (columns["status"] != _SKIPPED)
    if unscored.any():
        row = int(np.argmax(unscored))
        status = _LABELS["status"][columns["status"][row]]
        errors.append((row, len(_RECORD_COLUMNS), f"empty rps for status {status!r}"))
    # the reader stops at a bad row, after every row the table holds
    if stop is not None:
        errors.append((table.count, len(_RECORD_COLUMNS), stop))
    _raise_first(errors, partial(_csv_line, path))
    reason = columns.setdefault("reason", np.full(table.count, _OK, np.int8))
    reason[(reason == _OK) & (columns["status"] == _SKIPPED)] = _UNRECORDED
    return RecordTable(skus, **columns)


def _record_field(name: str, rank: int, text: str):
    """The value of a records.csv field ``name``: the code of a label, an
    int, or a finite non-negative ``rps`` (NaN when empty); or the
    ``(rank, message)`` of its error."""
    if name in _LABELS:
        # an empty field is None, a label only branch and reason hold
        code = _CODES[name].get(text or None)
        return (rank, f"unknown {name} {text!r}") if code is None else code
    if name == "rps" and not text:
        return np.nan
    # a score is finite and non-negative, and an int fits in int64
    low, high = (0.0, math.inf) if name == "rps" else (-(2**63), 2**63)
    try:
        value = float(text) if name == "rps" else int(text)
    except ValueError:
        value = math.nan
    return value if low <= value < high else (rank, f"bad {name} {text!r}")
