"""Batch stockout-forecast evaluation over per-SKU daily sales files.

The pipeline ingests (sku, date, sold_quantity) rows, splits them into a
training and a testing window, turns each test month into hypothetical
(initial stock, stockout day) pairs, scores every pair under the selected
demand models, and aggregates the scores into summary tables.
"""

from __future__ import annotations

import calendar
import csv
import json
import re
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from datetime import date
from functools import partial
from itertools import islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from .closed_form import stockout_tail_rows
from .demand import (
    PoissonDemand,
    SalesSeries,
    estimate_moments,
    fit_frequentist,
    select_bnbp,
)
from .engine import stockout_rows
from .metrics import baseline_uniform, baseline_uniform_discrete, rps_rows
from .special import ConvergenceError

__all__ = [
    "BENCHMARK_RPS",
    "MODEL_TAGS",
    "IngestError",
    "Window",
    "SalesDataset",
    "EvaluationRecord",
    "ModelStats",
    "StratumStats",
    "SummaryReport",
    "ingest",
    "augment",
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

MODEL_TAGS = ("nfq", "poisson", "bnbp", "uniform")

_REQUIRED_FIELDS = ("sku", "date", "sold_quantity")

_ISO_DAY = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")

# quantities are stored as int32; sums over them are int64
_MAX_QTY = 2**31 - 1

# rows streamed per batch into the column codes
_CHUNK = 1 << 14

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

    def __init__(self, skus: list, code: np.ndarray, day: np.ndarray, qty: np.ndarray) -> None:
        self._skus = skus
        self._code, self._day, self._qty = code, day, qty
        self._starts = np.searchsorted(code, np.arange(len(skus) + 1))

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

    def series(self, sku, window: Window) -> SalesSeries | None:
        """Recorded days for one SKU inside the window, or None when the
        SKU has no data there."""
        code = bisect_left(self._skus, str(sku), key=str)
        if code == len(self._skus) or self._skus[code] != sku:
            return None
        start = self._starts[code]
        days = self._day[start : self._starts[code + 1]]
        lo, hi = start + np.searchsorted(days, [window.start.toordinal(), window.end.toordinal() + 1])
        if lo == hi:
            return None
        return SalesSeries(
            sku=self._skus[code],
            days=tuple(zip(map(date.fromordinal, self._day[lo:hi].tolist()), self._qty[lo:hi].tolist())),
        )


def parse_sku(raw) -> int | str:
    """SKU identity: an int only when written in canonical decimal form,
    so "007" and "7" stay two SKUs."""
    try:
        sku = int(raw)
    except (TypeError, ValueError):
        return str(raw)
    return sku if str(sku) == str(raw) else str(raw)


def _json_key(value):
    """Dict key of a raw JSON value. A dict takes 1, 1.0 and True for one
    key, and 0.0 and -0.0 too, though each parses to its own value."""
    cls = value.__class__
    return value if cls is str or cls is int else (cls, repr(value))


class _RawColumns:
    """The sku, date and sold_quantity columns, streamed into int codes
    over each column's distinct values: ``values[col][code]`` holds one
    raw form of each value, found by its ``key``."""

    def __init__(self, key=None) -> None:
        self.key = key
        self.count = 0
        self.index: tuple = ({}, {}, {})
        self.values: tuple = ([], [], [])
        self.parts: tuple = ([], [], [])

    def extend(self, rows: list, cols=(0, 1, 2)) -> None:
        """Adds the raw sku, date and sold_quantity, fields ``cols`` of each row."""
        for col, index, values, parts in zip(cols, self.index, self.values, self.parts):
            raw = list(map(itemgetter(col), rows))
            keys = raw if self.key is None else list(map(self.key, raw))
            for key, value in dict(zip(keys, raw)).items():
                if key not in index:
                    index[key] = len(values)
                    values.append(value)
            parts.append(np.fromiter(map(index.__getitem__, keys), np.int32, len(keys)))
        self.count += len(rows)

    def codes(self, col: int) -> np.ndarray:
        parts = self.parts[col]
        return np.concatenate(parts) if parts else np.zeros(0, np.int32)


def _read_jsonl(handle, table: _RawColumns) -> tuple[str | None, list]:
    """Streams a JSONL file into ``table``. Returns the error that ended
    the read, at row ``table.count``, and the line of each row read and
    of that error."""
    rows, lines = [], []
    for line_no, line in enumerate(handle, start=1):
        if not line.strip():
            continue
        lines.append(line_no)
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            table.extend(rows)
            return "invalid JSON", lines
        if not isinstance(obj, dict):
            table.extend(rows)
            return "expected a JSON object", lines
        try:
            rows.append((obj["sku"], obj["date"], obj["sold_quantity"]))
        except KeyError:
            table.extend(rows)
            missing = [key for key in _REQUIRED_FIELDS if key not in obj]
            return f"missing fields {missing}", lines
        if len(rows) == _CHUNK:
            table.extend(rows)
            rows = []
    table.extend(rows)
    return None, lines


def _read_csv(handle, table: _RawColumns) -> str | None:
    """Streams a CSV file into ``table``. Returns the error that ended the
    read, at row ``table.count``."""
    reader = csv.reader(handle)
    # a repeated column name means its last column, as in csv.DictReader
    header = {name: col for col, name in enumerate(next(reader, []))}
    missing = [key for key in _REQUIRED_FIELDS if key not in header]
    if missing:
        raise IngestError(f"line 1: header missing columns {missing}")
    cols = [header[key] for key in _REQUIRED_FIELDS]
    width = max(cols) + 1
    rows = filter(None, reader)  # a blank line reads as []
    while chunk := list(islice(rows, _CHUNK)):
        if min(map(len, chunk)) < width:
            short = next(i for i, row in enumerate(chunk) if len(row) < width)
            table.extend(chunk[:short], cols)
            missing = [key for key, col in zip(_REQUIRED_FIELDS, cols) if col >= len(chunk[short])]
            return f"missing fields {missing}"
        table.extend(chunk, cols)
    return None


def _csv_line(path, row: int) -> int:
    """Physical line of data row ``row`` (from 0) of a CSV file."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
        next(islice(filter(None, reader), row, None))
        return reader.line_num


def _day_ordinal(raw) -> int:
    """Ordinal of a ``YYYY-MM-DD`` day, or -1. Python 3.11's
    ``date.fromisoformat`` alone would also take ``20210201``."""
    text = str(raw)
    if _ISO_DAY.fullmatch(text) is None:
        return -1
    try:
        return date.fromisoformat(text).toordinal()
    except ValueError:
        return -1


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


def _first_error(codes: np.ndarray, problems: list) -> tuple | None:
    """``(row, rank, message)`` at the first row whose value has a
    problem, or None."""
    bad = np.array([problem is not None for problem in problems], dtype=bool)
    if not bad.any():
        return None
    row = int(np.argmax(bad[codes]))
    return (row, *problems[codes[row]])


def _dataset(table: _RawColumns, stop: str | None, line_of) -> SalesDataset:
    """Parses and checks each distinct raw value once, raises the error of
    the first offending row, and sorts the rows by (SKU code, day)."""
    sku_raw, date_raw, qty_raw = table.values
    sku_codes, date_codes, qty_codes = (table.codes(col) for col in range(3))
    idents = [parse_sku(raw) for raw in sku_raw]
    skus = sorted(set(idents), key=str)
    code_of = {sku: code for code, sku in enumerate(skus)}
    code = np.array([code_of[sku] for sku in idents], dtype=np.int32)[sku_codes]
    ordinals = [_day_ordinal(raw) for raw in date_raw]
    day = np.array(ordinals, dtype=np.int32)[date_codes]
    parsed = [_quantity(raw) for raw in qty_raw]
    qty = np.array([q if isinstance(q, int) else -1 for q in parsed], dtype=np.int32)[qty_codes]
    order = np.lexsort((day, code))
    code, day, qty = code[order], day[order], qty[order]

    # a row's checks ran in rank order: JSON-only quantity checks, date,
    # quantity, then the duplicate test against the rows before it
    errors = [
        _first_error(date_codes, [None if o >= 0 else (1, f"bad date {raw!r}") for raw, o in zip(date_raw, ordinals)]),
        _first_error(qty_codes, [q if isinstance(q, tuple) else None for q in parsed]),
    ]
    # the sort is stable: the later rows of a (SKU, day) follow its first
    repeats = np.flatnonzero((code[1:] == code[:-1]) & (day[1:] == day[:-1]) & (day[1:] >= 0)) + 1
    if repeats.size:
        at = repeats[np.argmin(order[repeats])]
        sku, on = skus[code[at]], date.fromordinal(int(day[at]))
        errors.append((int(order[at]), 3, f"duplicate entry for sku {sku} on {on}"))
    if stop is not None:
        errors.append((table.count, 4, stop))
    errors = [error for error in errors if error is not None]
    if errors:
        row, _, message = min(errors)
        raise IngestError(f"line {line_of(row)}: {message}")
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

    with open(path, newline="" if fmt == "csv" else None, encoding="utf-8") as handle:
        if fmt == "jsonl":
            table = _RawColumns(_json_key)
            stop, lines = _read_jsonl(handle, table)
            line_of = lines.__getitem__
        else:
            table = _RawColumns()
            stop = _read_csv(handle, table)
            line_of = partial(_csv_line, path)
    return _dataset(table, stop, line_of)


def augment(series: SalesSeries, window: Window | None = None) -> list[tuple[int, int]]:
    """Hypothetical (initial stock m, stockout day u) pairs from a test
    series: one pair per day with sales, with m the cumulative sales
    through that day. Without a window, u is the day of the month."""
    pairs = []
    cumulative = 0
    for day, qty in series.days:
        if qty <= 0:
            continue
        cumulative += qty
        u = window.day_index(day) if window is not None else day.day
        pairs.append((cumulative, u))
    return pairs


@dataclass(frozen=True)
class EvaluationRecord:
    """Score of one (sku, initial stock, stockout day, model) case."""

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


def _fit_for_tag(
    tag: str, train: SalesSeries, train_days_with_sales: int, moment_ddof: int
) -> tuple:
    """The demand model every pair of one model tag is scored against,
    resolved once per SKU: ``(fit, branch, None)``, with no fit for
    ``uniform``, or ``(None, None, reason)`` when no pair of the tag can
    be scored."""
    if tag == "uniform":
        return None, None, None
    if train_days_with_sales == 0:
        return None, None, "zero_train_sales"
    try:
        if tag == "nfq":
            return fit_frequentist(train), None, None
        if tag == "poisson":
            # the rate is the mean, whatever the variance divisor
            return PoissonDemand(lam=estimate_moments(train).mean), None, None
        if train.n_days <= moment_ddof:
            # the variance needs more recorded days than ddof
            return None, None, "estimation_degenerate"
        fitted = select_bnbp(estimate_moments(train, ddof=moment_ddof))
        return fitted, fitted.kind, None
    except (ConvergenceError, ArithmeticError):
        return None, None, "estimation_degenerate"


def _score_tag(tag: str, fit, levels: list, days: list, horizon: int, uniform_rps: list) -> list:
    """``(p0_at_d, rps, reason)`` for each pair within the horizon: one
    matrix of stockout rows per fitted tag, scored in one reduction."""
    if tag == "uniform":
        # the uniform curve is certain to stock out; its score depends on u alone
        return [(1.0, uniform_rps[u - 1], None) for u in days]
    try:
        if tag == "nfq":
            # the empirical model has no closed form: one sweep serves every pair
            rows = stockout_rows(fit, levels, horizon)
        else:
            rows = stockout_tail_rows(fit, levels, horizon)
    except (ConvergenceError, ArithmeticError):
        return [(None, None, "estimation_degenerate")] * len(levels)
    scores = rps_rows(rows, days).tolist()
    # certain stockouts share one float, not one per record
    tails = [1.0 if p0 == 1.0 else p0 for p0 in rows[:, -1].tolist()]
    return [
        (p0, rps, None) if p0 > 0.0 else (0.0, None, "normalization_undefined")
        for p0, rps in zip(tails, scores)
    ]


def _evaluate_sku(
    task,
    models: tuple[str, ...],
    horizon: int,
    threshold: float | None,
    moment_ddof: int,
    uniform_rps: list,
) -> list[EvaluationRecord]:
    sku, train_days, train_qty, train_days_with_sales, ms, us = task
    pairs = list(zip(ms.tolist(), us.tolist()))
    levels = [m for m, u in pairs if u <= horizon]
    days = [u for _, u in pairs if u <= horizon]
    train = None
    if train_days_with_sales and any(tag != "uniform" for tag in models):
        recorded = zip(map(date.fromordinal, train_days.tolist()), train_qty.tolist())
        train = SalesSeries(sku=sku, days=tuple(recorded))
    records = []
    for tag in models:
        fit, branch, tag_reason = _fit_for_tag(tag, train, train_days_with_sales, moment_ddof)
        outcomes = iter(
            _score_tag(tag, fit, levels, days, horizon, uniform_rps) if tag_reason is None and levels else ()
        )
        for m, u in pairs:
            rps = p0_at_d = None
            status = "skipped"
            reason = tag_reason or ("beyond_horizon" if u > horizon else None)
            if reason is None:
                p0_at_d, rps, reason = next(outcomes)
                if reason is None:
                    excluded = threshold is not None and p0_at_d < threshold
                    status = "excluded" if excluded else "scored"
            records.append(
                EvaluationRecord(sku, m, u, tag, branch, rps, train_days_with_sales, p0_at_d, status, reason)
            )
    return records


def _tasks(dataset: SalesDataset, train_window: Window, test_window: Window) -> list:
    """One task per SKU with training rows and test sales, in SKU order:
    ``(sku, train days, train quantities, train days with sales, m, u)``,
    with the pairs ``(m, u)`` that ``augment`` gives its test series."""
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
    skus = dataset._skus
    keep = np.flatnonzero(n_pairs)
    return [
        (skus[code], day[lo:hi], qty[lo:hi], active, m[start : start + count], u[start : start + count])
        for code, lo, hi, active, start, count in zip(
            keep.tolist(),
            train_lo[keep].tolist(),
            train_hi[keep].tolist(),
            train_days_with_sales[keep].tolist(),
            offsets[keep].tolist(),
            n_pairs[keep].tolist(),
        )
    ]


def evaluate(
    dataset: SalesDataset,
    train_window: Window,
    test_window: Window,
    models: tuple[str, ...] = ("nfq", "poisson", "bnbp"),
    horizon: int = 31,
    exclusion_threshold: float | None = None,
    moment_ddof: int = 0,
    jobs: int = 1,
) -> list[EvaluationRecord]:
    """Score every augmented (m, u) pair of every SKU with data in both
    windows, for each requested model tag.

    Per-record failures become skip reasons rather than aborting the
    batch. Output ordering is canonical (sku, m, model) regardless of
    the degree of parallelism.
    """
    for tag in models:
        if tag not in MODEL_TAGS:
            raise ValueError(f"unknown model tag {tag!r}; expected one of {MODEL_TAGS}")
    if exclusion_threshold is not None and not 0.0 <= exclusion_threshold <= 1.0:
        raise ValueError(f"exclusion threshold must lie in [0, 1], got {exclusion_threshold!r}")

    tasks = _tasks(dataset, train_window, test_window)
    days = np.arange(1, horizon + 1)
    worker = partial(
        _evaluate_sku,
        models=tuple(models),
        horizon=horizon,
        threshold=exclusion_threshold,
        moment_ddof=moment_ddof,
        uniform_rps=rps_rows(np.tile(days / horizon, (horizon, 1)), days).tolist(),
    )
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = pool.map(worker, tasks, chunksize=max(1, len(tasks) // (4 * jobs)))
            records = [record for chunk in chunks for record in chunk]
    else:
        records = [record for task in tasks for record in worker(task)]

    records.sort(key=lambda r: (str(r.sku), r.m, r.model))
    return records


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


def _stats_for(tag: str, group: list[EvaluationRecord]) -> ModelStats:
    values = np.array([r.rps for r in group])
    q1, median, q3 = np.quantile(values, [0.25, 0.5, 0.75])
    return ModelStats(
        model=tag,
        n_skus=len({str(r.sku) for r in group}),
        n_evals=len(group),
        mean=float(values.mean()),
        sd=float(values.std(ddof=1)) if len(group) > 1 else 0.0,
        min=float(values.min()),
        q1=float(q1),
        median=float(median),
        q3=float(q3),
        max=float(values.max()),
    )


def summarize(
    records: list[EvaluationRecord],
    horizon: int = 31,
    exclusion_threshold: float | None = None,
) -> SummaryReport:
    """Aggregate scored records per model, per BNBP branch, and per
    number-of-training-days-with-sales stratum."""
    if not records:
        raise ValueError("no evaluation records to summarize")

    status_counts: dict = {}
    skip_reasons: dict = {}
    for record in records:
        status_counts[record.status] = status_counts.get(record.status, 0) + 1
        if record.status == "skipped":
            skip_reasons[record.reason] = skip_reasons.get(record.reason, 0) + 1

    scored = [r for r in records if r.status == "scored"]
    by_model: dict = {}
    for record in scored:
        by_model.setdefault(record.model, []).append(record)

    models = {tag: _stats_for(tag, group) for tag, group in sorted(by_model.items())}

    branches: dict = {}
    for record in by_model.get("bnbp", []):
        branches.setdefault(record.branch, []).append(record)
    bnbp_branches = {tag: _stats_for(tag, group) for tag, group in sorted(branches.items())}

    strata: dict = {}
    for tag, group in sorted(by_model.items()):
        buckets: dict = {}
        for record in group:
            buckets.setdefault(record.train_days_with_sales, []).append(record)
        rows = []
        for train_days, bucket in sorted(buckets.items()):
            stats = _stats_for(tag, bucket)
            rows.append(
                StratumStats(
                    train_days=train_days,
                    n_skus=stats.n_skus,
                    n_evals=stats.n_evals,
                    min=stats.min,
                    q1=stats.q1,
                    median=stats.median,
                    mean=stats.mean,
                    q3=stats.q3,
                    max=stats.max,
                )
            )
        strata[tag] = rows

    mean, variance = baseline_uniform(horizon)
    return SummaryReport(
        horizon=horizon,
        exclusion_threshold=exclusion_threshold,
        n_records=len(records),
        status_counts=status_counts,
        skip_reasons=skip_reasons,
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


def export_report(
    report: SummaryReport,
    records: list[EvaluationRecord],
    out_dir,
) -> list[Path]:
    """Write the machine-readable summary, the per-record score table,
    and per-model histogram / stratum tables.

    With a single evaluated model this produces exactly four files
    (summary.json, records.csv, histogram.csv, strata.csv); with several
    models the histogram and strata files carry a model suffix.
    """
    if not records:
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
        writer = csv.writer(handle)
        writer.writerow(_RECORD_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    r.sku,
                    r.m,
                    r.u,
                    r.model,
                    r.branch or "",
                    "" if r.rps is None else repr(r.rps),
                    r.train_days_with_sales,
                    r.status,
                    r.reason or "",
                ]
            )
    written.append(records_path)

    focal = list(report.models)
    suffix = len(focal) > 1
    edges = np.arange(report.horizon + 1, dtype=float)
    for tag in focal:
        values = np.array(
            [r.rps for r in records if r.model == tag and r.status == "scored"]
        )
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


def read_records(path) -> list[EvaluationRecord]:
    """Records from a records.csv written by ``export_report``, with each
    SKU as written. The file holds no ``p0_at_d``; skips in a file without
    the ``reason`` column read as ``"unrecorded"``."""
    with open(path, newline="", encoding="utf-8") as handle:
        return [
            EvaluationRecord(
                sku=row["sku"],
                m=int(row["m"]),
                u=int(row["u"]),
                model=row["model"],
                branch=row["branch"] or None,
                rps=float(row["rps"]) if row["rps"] else None,
                train_days_with_sales=int(row["train_days_with_sales"]),
                p0_at_d=None,
                status=row["status"],
                reason=row.get("reason") or ("unrecorded" if row["status"] == "skipped" else None),
            )
            for row in csv.DictReader(handle)
        ]
