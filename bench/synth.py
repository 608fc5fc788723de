"""Seeded synthetic sales corpora for the evaluate benchmark.

Each workload is a MELI-shaped daily-sales file over February (the train
window, 28 days) and March 2021 (the test window, 31 days). The program
under test only ever sees the sales file; the checks call ``generate``
again for the same rows as arrays, so that they can rebuild every
expected record without going through the program.

    python3 bench/synth.py --workload meli-mix --seed 1 [--scale 1.0]

The corpus lands in the cache directory that ``corpus_dir`` names, whose
path it prints; an existing complete corpus is left as it is.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np
from scipy.special import gammainc, ndtri

HERE = Path(__file__).resolve().parent
CACHE = HERE / ".work" / "corpus"

FIRST_DAY = date(2021, 2, 1)
TRAIN_DAYS = 28  # 2021-02
TEST_DAYS = 31  # 2021-03
N_DAYS = TRAIN_DAYS + TEST_DAYS

# Rows of the heavy-sellers fault panel come from this fixed generator so
# that the Poisson faults it shows are the same on every seed.
PANEL_SEED = 20210301

# Below this Poisson P(0, 31) the program's 1 - Q(m, k*lam) has lost too
# many digits (fault b). The seeded SKUs are redrawn until their largest
# stock level stays above it, so that fault b shows only on the fixed
# panel and the number of failed records does not depend on the seed.
FAULT_B_MAX_P0 = 1e-4

WORKLOADS = ("meli-mix", "heavy-sellers", "long-tail-uniform")


def _surging(qty, present) -> np.ndarray:
    """SKUs whose test-month total puts the Poisson P(0, 31) fitted on the
    train month below FAULT_B_MAX_P0."""
    train = np.where(present[:, :TRAIN_DAYS], qty[:, :TRAIN_DAYS], 0)
    days = present[:, :TRAIN_DAYS].sum(axis=1)
    total = np.where(present[:, TRAIN_DAYS:], qty[:, TRAIN_DAYS:], 0).sum(axis=1)
    lam = train.sum(axis=1) / np.maximum(days, 1)
    fitted = (lam > 0) & (total > 0)
    p0 = np.ones(len(qty))
    p0[fitted] = gammainc(total[fitted], TEST_DAYS * lam[fitted])
    return p0 < FAULT_B_MAX_P0


def _redraw_surging(qty, present, draw) -> np.ndarray:
    for _ in range(1000):
        rows = np.flatnonzero(_surging(qty, present))
        if rows.size == 0:
            return qty
        qty[rows] = draw(rows)
    raise RuntimeError("could not draw a corpus without surging SKUs")


def _strata(rng, n: int) -> np.ndarray:
    """The n midpoints of [0, 1] in random order: a stratified sample that
    keeps the make-up of a corpus, and so its cost, nearly the same from
    one seed to the next."""
    return (rng.permutation(n) + 0.5) / n


def _slow_sellers(rng, n_skus: int, median_rate: float, sigma: float, first_sku: int):
    """Lognormal daily rates, negative-binomial sales with shape 0.3 to 3,
    about 15% of (sku, day) cells missing; 4% of SKUs are listed only in
    the train window and 4% only in the test window."""
    rates = median_rate * np.exp(sigma * ndtri(_strata(rng, n_skus)))
    shapes = 0.3 + 2.7 * _strata(rng, n_skus)
    present = rng.random((n_skus, N_DAYS)) >= 0.15
    listing = _strata(rng, n_skus)
    present[listing < 0.04, TRAIN_DAYS:] = False
    present[listing > 0.96, :TRAIN_DAYS] = False
    skus = first_sku + np.sort(rng.choice(10 * n_skus, n_skus, replace=False))

    def draw(rows):
        r = shapes[rows, None]
        return rng.negative_binomial(r, r / (r + rates[rows, None]), (rows.size, N_DAYS))

    qty = _redraw_surging(draw(np.arange(n_skus)), present, draw)
    return skus, qty, present


def _heavy_sellers(rng, n_body: int):
    """A body of ``n_body`` SKUs whose quantities follow the seed, plus a
    fixed fault panel. Every sale count is 1 + Binomial(c, 1/2), so every
    present day has sales and the pair count does not depend on the seed;
    which days are present is fixed too. Body rates run from 11 to 111 a
    day, which keeps stock levels near 2600 at most, well short of the
    3800 units where fault (a) starts."""
    fixed = np.random.default_rng(PANEL_SEED)
    body_c = fixed.integers(20, 221, n_body)
    present = fixed.random((n_body + 3, N_DAYS)) >= 0.15
    present[:, 0] = present[:, TRAIN_DAYS] = True

    # panel: two sellers at 150 and 190 a day, whose stock levels pass
    # 4000 units, and one whose rate triples from 20 to 60 a day in March
    train_c = np.concatenate([body_c, [298, 378, 38]])
    test_c = np.concatenate([body_c, [298, 378, 118]])
    c = np.where(np.arange(N_DAYS) < TRAIN_DAYS, train_c[:, None], test_c[:, None])
    panel = 1 + fixed.binomial(c[n_body:], 0.5)

    def draw(rows):
        return 1 + rng.binomial(c[rows], 0.5)

    body = _redraw_surging(draw(np.arange(n_body)), present[:n_body], draw)
    skus = 7_000_001 + np.arange(n_body + 3)
    return skus, np.concatenate([body, panel]), present


def generate(workload: str, seed: int, scale: float = 1.0) -> dict:
    """Rows of one corpus as arrays sorted by (sku, day)."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "meli-mix":
        skus, qty, present = _slow_sellers(rng, max(2, round(240 * scale)), 0.5, 1.0, 500_000)
    elif workload == "long-tail-uniform":
        skus, qty, present = _slow_sellers(rng, max(2, round(20_000 * scale)), 0.25, 0.8, 1_000_000)
    elif workload == "heavy-sellers":
        skus, qty, present = _heavy_sellers(rng, max(1, round(21 * scale)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rows, days = np.nonzero(present)
    return {
        "sku": skus[rows].astype(np.int64),
        "day": days.astype(np.int64),
        "qty": qty[rows, days].astype(np.int64),
    }


def _write_sales(path: Path, arrays: dict) -> None:
    dates = [(FIRST_DAY + timedelta(days=d)).isoformat() for d in range(N_DAYS)]
    triples = zip(arrays["sku"].tolist(), arrays["day"].tolist(), arrays["qty"].tolist())
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if path.suffix == ".csv":
            handle.write("sku,date,sold_quantity\n")
            handle.writelines(f"{s},{dates[d]},{q}\n" for s, d, q in triples)
        else:
            handle.writelines(
                f'{{"sku": {s}, "date": "{dates[d]}", "sold_quantity": {q}}}\n' for s, d, q in triples
            )


def sales_name(workload: str) -> str:
    return "sales.csv" if workload == "long-tail-uniform" else "sales.jsonl"


def corpus_dir(workload: str, seed: int, scale: float = 1.0) -> Path:
    # the name carries a digest of this file, so an edited generator never reuses old corpora
    version = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:8]
    return CACHE / f"{workload}-s{seed}-x{scale:g}-{version}"


def build(workload: str, seed: int, scale: float = 1.0) -> Path:
    """Write the sales file and manifest.json; returns the directory. The
    files appear together, so a run cut short leaves no half corpus."""
    out = corpus_dir(workload, seed, scale)
    if (out / "manifest.json").exists():
        return out
    tmp = out.with_name(f"{out.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    arrays = generate(workload, seed, scale)
    _write_sales(tmp / sales_name(workload), arrays)
    manifest = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "sales": sales_name(workload),
        "rows": int(arrays["sku"].size),
        "skus": int(np.unique(arrays["sku"]).size),
    }
    (tmp / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    shutil.rmtree(out, ignore_errors=True)
    tmp.rename(out)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    print(build(args.workload, args.seed, args.scale))
    return 0


if __name__ == "__main__":
    sys.exit(main())
