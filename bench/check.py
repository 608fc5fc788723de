"""Checks of one evaluate round against the generator's arrays and the
oracle, plus the consistency of the exported files.

An operation is one evaluation record (sku, m, u, model). A record that
disagrees with its expectation, or an expected record that is missing,
is a failed operation. Problems that are not about a single record
(extra records, summary or histogram totals that disagree with
records.csv) make the whole run incorrect.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
from synth import FAULT_B_MAX_P0, TRAIN_DAYS

RPS_TOL = 1e-9  # absolute, on a score bounded by the horizon
P0_RTOL = 1e-9  # relative, on P(0, horizon)
TIE_TOL = 1e-9  # P(0, horizon) this close to the threshold may land either side

# Fault (a): reg_upper_gamma stops at 500 series terms, which is too few
# once a ~ x passes about 4000 (a = x = 3800 still converges).
FAULT_A_MIN_STOCK = 3800
# Fault (b): Poisson P(0, k) = 1 - Q(m, k*lam) keeps only an absolute
# accuracy of about 1e-16, so a curve normalized by a P(0, horizon) below
# FAULT_B_MAX_P0 can be off by more than RPS_TOL; above it, it cannot.


@dataclass(frozen=True)
class Expected:
    branch: str | None
    train_days_with_sales: int
    status: str
    reason: str | None
    p0_at_d: float | None
    rps: float | None


def _sku_slices(arrays: dict):
    sku = arrays["sku"]
    starts = np.flatnonzero(np.r_[True, sku[1:] != sku[:-1]])
    ends = np.r_[starts[1:], sku.size]
    for lo, hi in zip(starts.tolist(), ends.tolist()):
        yield int(sku[lo]), arrays["day"][lo:hi], arrays["qty"][lo:hi]


def expected_records(arrays: dict, models, horizon: int, threshold: float | None) -> dict:
    """(sku, m, u, model) -> Expected, for every SKU with rows in both
    windows, built from the generator's arrays alone."""
    out = {}
    for sku, day, qty in _sku_slices(arrays):
        in_train = day < TRAIN_DAYS
        train = qty[in_train]
        test_day, test_qty = day[~in_train], qty[~in_train]
        if train.size == 0 or test_day.size == 0:
            continue
        sold = test_qty > 0
        m = np.cumsum(test_qty[sold])
        u = test_day[sold] - TRAIN_DAYS + 1
        if m.size == 0:
            continue
        active = int(np.count_nonzero(train))
        for tag in models:
            for key, exp in _expect_model(tag, train, active, m, u, horizon, threshold):
                out[(sku, *key, tag)] = exp
    return out


def _expect_model(tag, train, active, m, u, horizon, threshold):
    keys = list(zip(m.tolist(), u.tolist()))
    if tag == "uniform":
        for key in keys:
            yield key, Expected(None, active, "scored", None, 1.0, oracle.uniform_rps(key[1], horizon))
        return
    if active == 0:
        for key in keys:
            yield key, Expected(None, active, "skipped", "zero_train_sales", None, None)
        return
    branch = None
    if tag == "nfq":
        p0 = oracle.empirical_p0(train, m, horizon)
    else:
        kind, params = oracle.fit(train) if tag == "bnbp" else ("poisson", {"lam": float(train.sum()) / train.size})
        branch = kind if tag == "bnbp" else None
        p0 = oracle.parametric_p0(kind, params, m, horizon)
    scores = oracle.rps(p0, u)
    for key, tail, score in zip(keys, p0[:, -1].tolist(), scores.tolist()):
        if tail == 0.0:
            yield key, Expected(branch, active, "skipped", "normalization_undefined", 0.0, None)
            continue
        status = "excluded" if threshold is not None and tail < threshold else "scored"
        yield key, Expected(branch, active, status, None, tail, score)


def _record_ok(rec, exp: Expected, threshold) -> bool:
    if rec.branch != exp.branch or rec.train_days_with_sales != exp.train_days_with_sales:
        return False
    if exp.status == "skipped":
        return rec.status == "skipped" and rec.reason == exp.reason and rec.rps is None
    if rec.status not in ("scored", "excluded") or rec.rps is None or rec.p0_at_d is None:
        return False
    if rec.status != exp.status and not (
        threshold is not None and abs(exp.p0_at_d - threshold) <= TIE_TOL
    ):
        return False
    return abs(rec.p0_at_d - exp.p0_at_d) <= P0_RTOL * exp.p0_at_d and abs(rec.rps - exp.rps) <= RPS_TOL


def explain(key, rec, exp: Expected) -> str:
    """Which known fault accounts for a failed record: 'a', 'b' or '?'."""
    if key[3] != "poisson":
        return "?"
    if rec is not None and rec.reason == "estimation_degenerate" and key[1] > FAULT_A_MIN_STOCK:
        return "a"
    if exp.p0_at_d is not None and exp.p0_at_d < FAULT_B_MAX_P0:
        return "b"
    return "?"


@dataclass
class Verdict:
    attempted: int
    failed: int
    faults: Counter  # failed records per explanation: 'a', 'b' or '?'
    problems: list  # whole-run problems; any makes the run incorrect


def check_round(records, expected: dict, out_dir: Path, threshold) -> Verdict:
    """Compare one round's records with the expectations and its exported
    files with the records."""
    problems = []
    faults: Counter = Counter()
    seen = {}
    for rec in records:
        key = (int(rec.sku), rec.m, rec.u, rec.model)
        if key not in expected or key in seen:
            problems.append(f"unexpected record {key}")
            continue
        seen[key] = rec
    failed = 0
    for key, exp in expected.items():
        rec = seen.get(key)
        if rec is None or not _record_ok(rec, exp, threshold):
            failed += 1
            faults[explain(key, rec, exp)] += 1
    order = [(str(r.sku), r.m, r.model) for r in records]
    if order != sorted(order):
        problems.append("records are not in (sku, m, model) order")
    problems += _check_exports(records, out_dir)
    return Verdict(len(expected), failed, faults, problems)


def _check_exports(records, out_dir: Path) -> list:
    problems = []
    with open(out_dir / "records.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    if len(rows) != len(records):
        return [f"records.csv has {len(rows)} rows for {len(records)} records"]
    for row, rec in zip(rows, records):
        if (
            row["sku"] != str(rec.sku)
            or int(row["m"]) != rec.m
            or int(row["u"]) != rec.u
            or row["model"] != rec.model
            or row["branch"] != (rec.branch or "")
            or row["rps"] != ("" if rec.rps is None else repr(rec.rps))
            or int(row["train_days_with_sales"]) != rec.train_days_with_sales
            or row["status"] != rec.status
        ):
            problems.append(f"records.csv row differs from record {rec.sku},{rec.m},{rec.model}")
            break

    summary = json.loads((out_dir / "summary.json").read_text())
    if summary["status_counts"] != dict(Counter(row["status"] for row in rows)):
        problems.append("summary.json status counts disagree with records.csv")
    reasons = Counter(r.reason for r in records if r.status == "skipped")
    if summary["skip_reasons"] != dict(reasons):
        problems.append("summary.json skip reasons disagree with the records")
    scored: dict = {}
    for row in rows:
        if row["status"] == "scored":
            scored.setdefault(row["model"], []).append(float(row["rps"]))
    if sorted(summary["models"]) != sorted(scored):
        problems.append("summary.json models disagree with records.csv")
        return problems
    for tag, values in scored.items():
        stats = summary["models"][tag]
        mean = math.fsum(values) / len(values)
        if stats["n_evals"] != len(values) or not math.isclose(stats["mean"], mean, rel_tol=1e-12):
            problems.append(f"summary.json {tag} count or mean disagrees with records.csv")
        name = f"histogram_{tag}.csv" if len(scored) > 1 else "histogram.csv"
        with open(out_dir / name, newline="", encoding="utf-8") as handle:
            total = sum(int(row["count"]) for row in csv.DictReader(handle))
        if total != len(values):
            problems.append(f"{name} counts sum to {total}, not {len(values)} scored")
    return problems
