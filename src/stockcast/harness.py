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
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from datetime import date
from functools import partial
from pathlib import Path

import numpy as np

from .closed_form import cf_p0k
from .demand import (
    DemandModel,
    PoissonDemand,
    SalesSeries,
    estimate_moments,
    fit_frequentist,
    select_bnbp,
)
from .engine import DegenerateDemandWarning, solve_recursive
from .metrics import (
    NormalizationError,
    OutcomeStep,
    baseline_uniform,
    baseline_uniform_discrete,
    normalize_curve,
    rps_discrete,
    uniform_forecast,
)
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

    def contains(self, day: date) -> bool:
        return self.start <= day <= self.end

    def day_index(self, day: date) -> int:
        """1-based day number within the window."""
        return (day - self.start).days + 1

    def __str__(self) -> str:
        return f"{self.start.isoformat()}..{self.end.isoformat()}"


class SalesDataset:
    """All ingested rows, addressable per SKU and calendar window."""

    def __init__(self, rows: dict) -> None:
        self._rows = {sku: sorted(day_map.items()) for sku, day_map in rows.items()}

    @property
    def skus(self) -> list:
        return sorted(self._rows, key=str)

    def series(self, sku, window: Window) -> SalesSeries | None:
        """Recorded days for one SKU inside the window, or None when the
        SKU has no data there."""
        rows = self._rows.get(sku)
        if rows is None:
            return None
        days = tuple((d, q) for d, q in rows if window.contains(d))
        if not days:
            return None
        return SalesSeries(sku=sku, days=days)


def parse_sku(raw) -> int | str:
    """SKU identity: an int only when written in canonical decimal form,
    so "007" and "7" stay two SKUs."""
    try:
        sku = int(raw)
    except (TypeError, ValueError):
        return str(raw)
    return sku if str(sku) == str(raw) else str(raw)


def _parse_row(sku_raw, date_raw, qty_raw, line_no: int):
    sku = parse_sku(sku_raw)
    try:
        day = date.fromisoformat(str(date_raw))
    except ValueError as exc:
        raise IngestError(f"line {line_no}: bad date {date_raw!r}") from exc
    try:
        qty = int(qty_raw)
    except (TypeError, ValueError) as exc:
        raise IngestError(f"line {line_no}: bad sold_quantity {qty_raw!r}") from exc
    if qty < 0:
        raise IngestError(f"line {line_no}: negative sold_quantity {qty}")
    return sku, day, qty


def ingest(path, fmt: str | None = None) -> SalesDataset:
    """Load a JSONL or CSV sales file into a dataset.

    Each row needs sku, date (ISO day), and sold_quantity. Malformed
    rows raise with their line number; a duplicated (sku, date) pair is
    an error.
    """
    path = Path(path)
    if not path.exists():
        raise IngestError(f"no such file: {path}")
    if fmt is None:
        fmt = "csv" if path.suffix.lower() == ".csv" else "jsonl"
    if fmt not in ("jsonl", "csv"):
        raise ValueError(f"unknown input format {fmt!r}")

    rows: dict = {}

    def _add(sku, day, qty, line_no):
        day_map = rows.setdefault(sku, {})
        if day in day_map:
            raise IngestError(f"line {line_no}: duplicate entry for sku {sku} on {day}")
        day_map[day] = qty

    with open(path, newline="" if fmt == "csv" else None, encoding="utf-8") as handle:
        if fmt == "jsonl":
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise IngestError(f"line {line_no}: invalid JSON") from exc
                missing = [key for key in _REQUIRED_FIELDS if key not in obj]
                if missing:
                    raise IngestError(f"line {line_no}: missing fields {missing}")
                _add(*_parse_row(obj["sku"], obj["date"], obj["sold_quantity"], line_no), line_no)
        else:
            reader = csv.DictReader(handle)
            header = reader.fieldnames or []
            missing = [key for key in _REQUIRED_FIELDS if key not in header]
            if missing:
                raise IngestError(f"line 1: header missing columns {missing}")
            for line_no, row in enumerate(reader, start=2):
                _add(
                    *_parse_row(row["sku"], row["date"], row["sold_quantity"], line_no),
                    line_no,
                )
    return SalesDataset(rows)


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


def _stockout_probabilities(model: DemandModel, m: int, horizon: int) -> np.ndarray:
    """P(0, k) for k = 1..horizon; recursion for the empirical model,
    closed forms for the parametric ones."""
    if model.kind == "frequentist":
        with warnings.catch_warnings():
            # SKUs that sold every training day are degenerate but routine
            # in batch runs; the curve itself is still exact
            warnings.simplefilter("ignore", DegenerateDemandWarning)
            return solve_recursive(model, m, horizon).p0[1:]
    return np.array([cf_p0k(model, m, k) for k in range(1, horizon + 1)])


def _fit_for_tag(
    tag: str, train: SalesSeries, train_days_with_sales: int, horizon: int, moment_ddof: int
) -> tuple:
    """What every pair of one model tag is scored against, resolved once
    per SKU: ``(fit, branch, None)`` with ``fit`` the constant forecast for
    ``uniform`` or a fitted demand model, or ``(None, None, reason)`` when
    no pair of the tag can be scored."""
    if tag == "uniform":
        return uniform_forecast(horizon), None, None
    if train_days_with_sales == 0:
        return None, None, "zero_train_sales"
    try:
        if tag == "nfq":
            return fit_frequentist(train), None, None
        moments = estimate_moments(train, ddof=moment_ddof)
        if tag == "poisson":
            return PoissonDemand(lam=moments.mean), None, None
        fitted = select_bnbp(moments)
        return fitted, fitted.kind, None
    except (ConvergenceError, ArithmeticError):
        return None, None, "estimation_degenerate"


def _evaluate_sku(
    task,
    models: tuple[str, ...],
    test_window: Window,
    horizon: int,
    threshold: float | None,
    moment_ddof: int,
) -> list[EvaluationRecord]:
    sku, train, test = task
    pairs = augment(test, test_window)
    if not pairs:
        return []
    train_days_with_sales = train.days_with_sales
    records = []
    for tag in models:
        fit, branch, tag_reason = _fit_for_tag(tag, train, train_days_with_sales, horizon, moment_ddof)
        for m, u in pairs:
            rps = p0_at_d = None
            status = "skipped"
            reason = tag_reason or ("beyond_horizon" if u > horizon else None)
            if reason is None:
                try:
                    if tag == "uniform":
                        p0_at_d, forecast = 1.0, fit
                    else:
                        p0 = _stockout_probabilities(fit, m, horizon)
                        p0_at_d = float(p0[-1])
                        forecast = normalize_curve(p0, horizon)
                    rps = rps_discrete(OutcomeStep(horizon, u), forecast)
                except NormalizationError:
                    p0_at_d, reason = 0.0, "normalization_undefined"
                except (ConvergenceError, ArithmeticError, OverflowError):
                    p0_at_d, reason = None, "estimation_degenerate"
                else:
                    excluded = threshold is not None and p0_at_d < threshold
                    status = "excluded" if excluded else "scored"
            records.append(
                EvaluationRecord(sku, m, u, tag, branch, rps, train_days_with_sales, p0_at_d, status, reason)
            )
    return records


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

    tasks = [
        (sku, train, test)
        for sku in dataset.skus
        if (train := dataset.series(sku, train_window)) is not None
        and (test := dataset.series(sku, test_window)) is not None
    ]

    worker = partial(
        _evaluate_sku,
        models=tuple(models),
        test_window=test_window,
        horizon=horizon,
        threshold=exclusion_threshold,
        moment_ddof=moment_ddof,
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
    stratify_by_train_days: bool = True,
) -> SummaryReport:
    """Aggregate scored records per model, per BNBP branch, and (optionally)
    per number-of-training-days-with-sales stratum."""
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
    if stratify_by_train_days:
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
