"""Acceptance suite: one test per release criterion, each printing a
PASS line at its stated tolerance (run with -s to see them).

The optional full-dataset criterion runs only when STOCKCAST_MELI
points at the public 2021 marketplace challenge file.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np
import pytest

from conftest import FEB_538100, MAR_538100, PAIRS_538100, augment, dated, empirical
from stockcast import harness, verify
from stockcast.closed_form import closed_form_curve
from stockcast.demand import (
    BinomialDemand,
    DeterministicDemand,
    NegativeBinomialDemand,
    PoissonDemand,
    fit_columns,
)
from stockcast.engine import solve_recursive
from stockcast.harness import Window, ingest
from stockcast.metrics import (
    baseline_uniform,
    point_forecast_expected_rps,
    uniform_forecast_rps_continuous,
)

M_MAX = 20
K_MAX = 40

# deterministic h in {1,2,3}; poisson rates {0.3, 1, 3}; binomial over
# integer and real customer-count grids; negative binomial over shape
# grids. Real customer counts sit above M_MAX so the generalized mass
# stays a genuine distribution over every evaluated stock level.
GRID_MODELS = (
    [DeterministicDemand(h=h) for h in (1, 2, 3)]
    + [PoissonDemand(lam=lam) for lam in (0.3, 1.0, 3.0)]
    + [BinomialDemand(c=c, p=p) for c in (1.0, 3.0, 21.0) for p in (0.25, 0.6)]
    + [BinomialDemand(c=c, p=p) for c in (20.5, 25.3) for p in (0.3, 0.6)]
    + [NegativeBinomialDemand(r=r, p=p) for r in (0.6, 1.0, 2.5) for p in (0.35, 0.7)]
)

MC_SEED = 101
MC_TRIALS = 1_000_000
MC_HORIZON = 10
MC_CASES = [
    (DeterministicDemand(h=2), 3),
    (PoissonDemand(lam=0.5), 2),
    (PoissonDemand(lam=1.0), 1),
    (PoissonDemand(lam=1.0), 3),
    (PoissonDemand(lam=3.0), 7),
    (BinomialDemand(c=3.0, p=0.3), 4),
    (BinomialDemand(c=5.0, p=0.6), 8),
    (NegativeBinomialDemand(r=1.0, p=0.5), 3),
    (NegativeBinomialDemand(r=2.5, p=0.4), 6),
    (empirical(FEB_538100), 3),
]


def test_closed_form_matches_recursion_on_grid():
    started = time.monotonic()
    ok, detail = verify.closed_form_vs_recursion(GRID_MODELS, range(1, M_MAX + 1), K_MAX, 1e-9)
    elapsed = time.monotonic() - started
    assert ok, detail
    assert elapsed < 60.0, f"grid took {elapsed:.1f}s"
    print(f"\nACCEPTANCE closed-form/recursion equivalence: PASS ({detail}, {elapsed:.1f}s)")


def test_normalization_and_monotonicity_on_grid():
    ok, detail = verify.lattice_normalization(GRID_MODELS, range(1, M_MAX + 1), K_MAX, 1e-10)
    assert ok, detail
    print(f"\nACCEPTANCE normalization and monotonicity: PASS ({detail})")


def test_monte_carlo_consistency():
    started = time.monotonic()
    assert len(MC_CASES) == 10
    ok, detail = verify.monte_carlo_bands(MC_CASES, MC_HORIZON, MC_TRIALS, MC_SEED, 3.0)
    elapsed = time.monotonic() - started
    assert ok, detail
    assert elapsed < 120.0, f"simulation took {elapsed:.1f}s"
    print(f"\nACCEPTANCE monte carlo consistency: PASS ({detail} at {MC_TRIALS} trials, {elapsed:.1f}s)")


def test_frustrated_sales_dual_formula():
    ok, detail = verify.frustrated_sales_dual_route(GRID_MODELS, range(1, M_MAX + 1), K_MAX, 1e-10)
    assert ok, detail
    # stock divisible by the daily draw never frustrates, exactly
    for h in (1, 2, 3):
        for p in (1, 2, 4):
            curve = solve_recursive(DeterministicDemand(h=h), p * h, K_MAX)
            assert np.all(curve.pf == 0.0)
            assert np.all(closed_form_curve(DeterministicDemand(h=h), p * h, K_MAX).pf == 0.0)
    print(f"\nACCEPTANCE frustrated-sales dual formula: PASS ({detail})")


def test_metric_baselines():
    d = 31
    # simulated uniform stockout day scored against the uniform forecast
    rng = np.random.default_rng(424242)
    draws = 1_000_000
    scores = np.array(
        [uniform_forecast_rps_continuous(u, d) for u in rng.uniform(0.0, d, draws)]
    )
    mean_ref, var_ref = baseline_uniform(d)
    se_mean = math.sqrt(var_ref / draws)
    assert abs(scores.mean() - mean_ref) <= 3.0 * se_mean
    centered = scores - scores.mean()
    fourth = float(np.mean(centered**4))
    sample_var = float(scores.var())
    se_var = math.sqrt((fourth - sample_var**2) / draws)
    assert abs(sample_var - var_ref) <= 3.0 * se_var

    # a point forecast scores exactly its distance in days
    ok, detail = verify.score_identities(d, d, 1e-15)
    assert ok, detail

    # averaging the point-forecast expectation over its placement gives d/3
    from scipy.integrate import quad

    integral, _ = quad(lambda u0: point_forecast_expected_rps(d, u0), 0.0, d)
    assert integral / d == pytest.approx(d / 3, rel=1e-12)

    assert f"{mean_ref:.2f}" == "5.17"
    print(
        f"\nACCEPTANCE metric baselines: PASS"
        f" (sim mean {scores.mean():.4f} vs {mean_ref:.4f}, var {sample_var:.4f} vs {var_ref:.4f})"
    )


def test_worked_example_fidelity(ref_sales_file):
    model = fit_columns(FEB_538100, [28], ("nfq",), tops=[3])[0]["nfq"][0]
    assert model.alpha(0) == 17 / 28
    assert model.alpha(1) == 7 / 28
    assert model.alpha(2) == 4 / 28
    assert model.alpha(3) == 0.0
    mar = Window.parse("2021-03")
    assert augment(dated(MAR_538100, mar.start), mar) == PAIRS_538100
    pairs = harness._tasks(ingest(ref_sales_file), Window.parse("2021-02"), mar)
    assert list(zip(pairs.m.tolist(), pairs.u.tolist())) == PAIRS_538100
    print("\nACCEPTANCE worked-example fidelity: PASS (masses and 15 stock/day pairs exact)")


@pytest.mark.skipif(
    not os.environ.get("STOCKCAST_MELI"),
    reason="full-dataset criterion needs STOCKCAST_MELI pointing at the public 2021 challenge file",
)
def test_full_dataset_reference_means():
    """Dataset-optional: reproduce the reference score tables within 0.1."""
    from stockcast.harness import evaluate

    path = os.environ["STOCKCAST_MELI"]
    jobs = int(os.environ.get("STOCKCAST_JOBS", os.cpu_count() or 1))
    dataset = ingest(path)
    assert len(dataset.skus) == 660_916
    feb, mar = Window.parse("2021-02"), Window.parse("2021-03")
    evaluable = [
        sku
        for sku in dataset.skus
        if dataset.quantities(sku, feb) is not None and dataset.quantities(sku, mar) is not None
    ]
    assert len(evaluable) == 495_353

    # one pair per test day with sales
    n_pairs = sum(int(np.count_nonzero(dataset.quantities(sku, mar))) for sku in evaluable)
    assert n_pairs == 4_822_218

    records = evaluate(
        dataset,
        train_window=feb,
        test_window=mar,
        models=("nfq", "poisson", "bnbp"),
        exclusion_threshold=0.5,
        jobs=jobs,
    )
    # threshold marking splits scored/excluded; unfiltered means pool both
    unfiltered: dict = {}
    filtered: dict = {}
    for record in records:
        if record.rps is None:
            continue
        unfiltered.setdefault(record.model, []).append(record.rps)
        if record.status == "scored":
            filtered.setdefault(record.model, []).append(record.rps)
    reference_unfiltered = {"poisson": 5.32, "nfq": 4.91, "bnbp": 4.78}
    reference_filtered = {"poisson": 4.5, "nfq": 4.2, "bnbp": 4.2}
    for tag, expected in reference_unfiltered.items():
        got = float(np.mean(unfiltered[tag]))
        assert abs(got - expected) <= 0.1, f"unfiltered {tag}: {got:.3f} vs {expected}"
    for tag, expected in reference_filtered.items():
        got = float(np.mean(filtered[tag]))
        assert abs(got - expected) <= 0.1, f"filtered {tag}: {got:.3f} vs {expected}"
    print("\nACCEPTANCE full-dataset reference means: PASS")
