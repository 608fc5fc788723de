"""Shared fixtures: the reference SKU 538100 sales history (a smartphone
accessory sold on a large marketplace, Feb/Mar 2021) and helpers to spin
up small sales files."""

from __future__ import annotations

import csv
import json
from datetime import date, timedelta

import numpy as np
import pytest

from stockcast.demand import FrequentistDemand
from stockcast.harness import _RECORD_COLUMNS, RecordTable, read_records

SKU_538100 = 538100

FEB_538100 = [0, 0, 2, 1, 2, 0, 0, 0, 0, 1, 0, 2, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 2, 1, 0, 0, 1, 1]

MAR_538100 = [0, 1, 2, 0, 0, 0, 1, 0, 1, 0, 3, 1, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 2, 0, 1, 0, 1, 2, 3, 4]

# (initial stock m, stockout day u) pairs implied by the March history
PAIRS_538100 = [
    (1, 2), (3, 3), (4, 7), (5, 9), (8, 11), (9, 12), (10, 15), (11, 17),
    (12, 18), (14, 24), (15, 26), (16, 28), (18, 29), (21, 30), (25, 31),
]


def dated(values, start=date(2021, 2, 1)) -> list[tuple[date, int]]:
    """``(day, qty)`` of daily quantities from ``start`` on."""
    return [(start + timedelta(days=i), int(q)) for i, q in enumerate(values)]


def augment(days, window) -> list[tuple[int, int]]:
    """Reference (initial stock m, stockout day u) pairs of a test history
    of ``(day, qty)`` in day order, one SKU at a time: one pair per day
    with sales, with m the cumulative sales through that day and u its
    day number in the window. ``harness._tasks`` is checked against it."""
    pairs = []
    cumulative = 0
    for day, qty in days:
        if qty <= 0:
            continue
        cumulative += qty
        pairs.append((cumulative, (day - window.start).days + 1))
    return pairs


def empirical(quantities) -> FrequentistDemand:
    """The empirical demand of daily quantities, every count kept."""
    return FrequentistDemand(np.bincount(quantities))


def reference_rps(p0, u: int) -> float:
    """The score of one stockout curve P(0, k), k = 1 .. d, against a
    stockout on day u, day by day: the curve scaled by its last value is
    the forecast CDF G, summed over days as ((k >= u) - G(k))^2. The
    scalar twin that ``metrics.rps_rows`` must match bit for bit."""
    g = np.asarray(p0, dtype=float) / p0[-1]
    steps = np.arange(1, g.size + 1) >= u
    return float(np.sum((steps - g) ** 2))


def write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


def record_table(path, records) -> RecordTable:
    """``EvaluationRecord``s as a table: written as a records.csv at
    ``path`` and read back, so each SKU is its text and no p0_at_d is kept."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(_RECORD_COLUMNS)
        writer.writerows([getattr(record, name) for name in _RECORD_COLUMNS] for record in records)
    return read_records(path)


def sku_rows(sku, start: date, values):
    return [
        {
            "sku": sku,
            "date": (start + timedelta(days=i)).isoformat(),
            "sold_quantity": int(q),
        }
        for i, q in enumerate(values)
    ]


@pytest.fixture
def ref_sales_file(tmp_path):
    """JSONL file holding the reference SKU's two months."""
    path = tmp_path / "sales.jsonl"
    rows = sku_rows(SKU_538100, date(2021, 2, 1), FEB_538100) + sku_rows(
        SKU_538100, date(2021, 3, 1), MAR_538100
    )
    write_jsonl(path, rows)
    return path
