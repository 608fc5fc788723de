"""Recursive engine: seeding, normalization, monotonicity, frustrated
sales by both routes, and Monte Carlo agreement."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from conftest import series_from
from stockcast.closed_form import cf_p0k, cf_pf, closed_form_curve, stockout_tail_block
from stockcast.demand import (
    BinomialDemand,
    DeterministicDemand,
    FrequentistDemand,
    NegativeBinomialDemand,
    PoissonDemand,
    fit_frequentist,
)
from stockcast.engine import (
    DegenerateDemandWarning,
    frustrated_sales_via_pfk,
    monte_carlo_oracle,
    solve_recursive,
    stockout_rows_block,
)
from stockcast.special import ConvergenceError

MODELS = [
    PoissonDemand(lam=1.0),
    PoissonDemand(lam=0.3),
    BinomialDemand(c=3.0, p=0.4),
    NegativeBinomialDemand(r=1.5, p=0.5),
    FrequentistDemand([0.5, 0.3, 0.2]),
]


class TestRecursion:
    def test_initial_column_is_delta(self):
        dist = solve_recursive(PoissonDemand(lam=1.0), 4, 5, keep_lattice=True)
        expected = np.zeros(5)
        expected[4] = 1.0
        np.testing.assert_array_equal(dist.lattice[:, 0], expected)
        assert dist.p0[0] == 0.0
        assert dist.pf[0] == 0.0

    def test_first_day_seeding(self):
        model = PoissonDemand(lam=1.0)
        m = 4
        dist = solve_recursive(model, m, 2, keep_lattice=True)
        assert dist.p0[1] == pytest.approx(model.beta(m), abs=1e-15)
        for n in range(1, m + 1):
            assert dist.lattice[n, 1] == pytest.approx(model.alpha(m - n), abs=1e-15)

    def test_deterministic_unit_demand_step(self):
        with pytest.warns(DegenerateDemandWarning):
            curve = solve_recursive(DeterministicDemand(h=1), 2, 3)
        np.testing.assert_allclose(curve.p0, [0.0, 0.0, 1.0, 1.0])

    def test_full_stock_probability_is_alpha0_power(self, feb_series):
        model = fit_frequentist(feb_series)
        dist = solve_recursive(model, 5, 3, keep_lattice=True)
        assert dist.lattice[5, 3] == pytest.approx((17 / 28) ** 3, rel=1e-12)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_columns_normalized(self, model, m):
        dist = solve_recursive(model, m, 25, keep_lattice=True)
        sums = dist.lattice.sum(axis=0)
        np.testing.assert_allclose(sums, 1.0, atol=1e-10)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
    def test_stockout_curve_monotone(self, model):
        curve = solve_recursive(model, 6, 30)
        assert np.all(np.diff(curve.p0) >= -1e-14)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
    def test_full_stock_decays_geometrically(self, model):
        dist = solve_recursive(model, 4, 20, keep_lattice=True)
        a0 = model.alpha(0)
        powers = a0 ** np.arange(21)
        np.testing.assert_allclose(dist.lattice[4, :], powers, atol=1e-10)

    def test_invalid_dimensions(self):
        model = PoissonDemand(lam=1.0)
        with pytest.raises(ValueError):
            solve_recursive(model, 0, 5)
        with pytest.raises(ValueError):
            solve_recursive(model, 3, 0)

    def test_curve_and_lattice_agree(self):
        model = NegativeBinomialDemand(r=0.8, p=0.4)
        curve = solve_recursive(model, 5, 12)
        dist = solve_recursive(model, 5, 12, keep_lattice=True)
        assert curve.lattice is None and dist.lattice is not None
        np.testing.assert_array_equal(curve.p0, dist.p0)
        np.testing.assert_array_equal(curve.pf, dist.pf)
        np.testing.assert_array_equal(dist.lattice[0, :], dist.p0)


# MODELS plus an empirical fit with alpha_0 = 0, and demand of 3 a day,
# which empties any stock m < 3 on day 1: no sale leaves stock in hand
SWEEP_MODELS = MODELS + [fit_frequentist(series_from([1, 3, 2, 1, 3])), DeterministicDemand(h=3)]


class TestStockoutRows:
    @pytest.mark.parametrize("model", SWEEP_MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("horizon", [1, 17])
    def test_each_row_is_the_recursion_curve(self, model, horizon):
        # unsorted and repeated levels, 1 among them
        levels = [2, 1, 2] if model.kind == "deterministic" else [6, 1, 11, 3, 6, 1]
        rows = stockout_rows_block([model], [levels], horizon)
        assert rows.shape == (len(levels), horizon)
        for m, row in zip(levels, rows):
            expected = solve_recursive(model, m, horizon).p0[1:]
            np.testing.assert_allclose(row, expected, rtol=0, atol=1e-15)

    def test_no_levels_no_rows(self):
        assert stockout_rows_block([PoissonDemand(lam=1.0)], [[]], 5).shape == (0, 5)

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            stockout_rows_block([PoissonDemand(lam=1.0)], [[3, 0]], 5)

    @pytest.mark.parametrize("levels", [[3, 2.5], [np.nan], [np.inf, 3]], ids=["fraction", "nan", "inf"])
    def test_non_integral_level(self, levels):
        with pytest.raises(ValueError, match="integer >= 1"):
            stockout_rows_block([PoissonDemand(lam=1.0)], [levels], 5)

    def test_horizon_checked_without_levels(self):
        with pytest.raises(ValueError, match="horizon"):
            stockout_rows_block([PoissonDemand(lam=1.0)], [[]], 0)


# every public entry that takes stock levels, with its one level check
LEVEL_ENTRIES = {
    "solve_recursive": lambda model, m: solve_recursive(model, m, 5),
    "monte_carlo_oracle": lambda model, m: monte_carlo_oracle(model, m, 5, trials=10, seed=0),
    "stockout_rows_block": lambda model, m: stockout_rows_block([model], [[3, m]], 5),
    "stockout_tail_block": lambda model, m: stockout_tail_block([model], [[3, m]], 5),
    "cf_p0k": lambda model, m: cf_p0k(model, m, 3),
    "closed_form_curve": lambda model, m: closed_form_curve(model, m, 5),
}


@pytest.mark.parametrize("entry", LEVEL_ENTRIES.values(), ids=LEVEL_ENTRIES.keys())
@pytest.mark.parametrize(
    ("m", "named"), [(2**53, "9007199254740992"), (10**21, "1e+21"), (10**400, "1" + "0" * 399)], ids=["2^53", "1e21", "1e400"]
)
def test_levels_a_float_cannot_hold_are_refused(entry, m, named):
    # a float past 2^53 no longer holds every integer, and int64 wraps further on
    with pytest.raises(ValueError, match=re.escape(f"integer >= 1 and below 2^53, got {named}")):
        entry(PoissonDemand(lam=1.0), m)


def test_the_level_bound_is_two_to_the_53():
    # the last level a float holds passes the check and meets the kernel's support bound
    with pytest.raises(ConvergenceError, match="support terms"):
        stockout_tail_block([PoissonDemand(lam=1.0)], [[2**53 - 1]], 5)
    with pytest.raises(ValueError, match="below 2\\^53"):
        stockout_tail_block([PoissonDemand(lam=1.0)], [[2**53]], 5)


class TestFrustratedSales:
    def test_deterministic_window(self):
        with pytest.warns(DegenerateDemandWarning):
            curve = solve_recursive(DeterministicDemand(h=2), 3, 3)
        np.testing.assert_allclose(curve.pf, [0.0, 0.0, 1.0, 0.0])

    def test_first_day_is_tail_beyond_stock(self):
        # day 1 frustration needs demand of at least m + 1 units
        model = PoissonDemand(lam=1.0)
        curve = solve_recursive(model, 2, 1)
        expected = 1.0 - math.exp(-1.0) * (1.0 + 1.0 + 0.5)
        assert curve.pf[1] == pytest.approx(expected, rel=1e-12)

    def test_divisible_stock_never_frustrates(self):
        for h, p in ((2, 2), (3, 4)):
            with pytest.warns(DegenerateDemandWarning):
                curve = solve_recursive(DeterministicDemand(h=h), p * h, 3 * p)
            assert np.all(curve.pf == 0.0)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("m", [1, 4, 9])
    def test_dual_route_agreement(self, model, m):
        dist = solve_recursive(model, m, 20, keep_lattice=True)
        alt = frustrated_sales_via_pfk(model, dist)
        np.testing.assert_allclose(alt[2:], dist.pf[2:], atol=1e-10)
        # the two derivations coincide on day 1 as well
        assert alt[1] == pytest.approx(dist.pf[1], abs=1e-12)

    def test_saturated_day_produces_no_frustration(self):
        # once a stockout is certain, the next day cannot frustrate anyone
        with pytest.warns(DegenerateDemandWarning):
            curve = solve_recursive(DeterministicDemand(h=3), 3, 4)
        assert curve.p0[1] == 1.0
        assert np.all(curve.pf[2:] == 0.0)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
    def test_bounded_by_stockout_increment(self, model):
        # frustration on day k cannot exceed the day-k stockout mass gain
        curve = solve_recursive(model, 5, 25)
        increments = np.diff(curve.p0)
        assert np.all(curve.pf[1:] <= increments + 1e-10)


class TestMonteCarlo:
    def test_deterministic_exact(self):
        empirical = monte_carlo_oracle(DeterministicDemand(h=1), 2, 3, trials=500, seed=3)
        np.testing.assert_array_equal(empirical.p0, [0.0, 0.0, 1.0, 1.0])

    def test_day_zero_is_zero(self):
        empirical = monte_carlo_oracle(PoissonDemand(lam=1.0), 3, 4, trials=100, seed=0)
        assert empirical.p0[0] == 0.0
        assert empirical.pf[0] == 0.0

    def test_poisson_band(self):
        model = PoissonDemand(lam=1.0)
        trials = 200_000
        empirical = monte_carlo_oracle(model, 3, 6, trials=trials, seed=11)
        for k in range(1, 7):
            for emp, ref in ((empirical.p0[k], cf_p0k(model, 3, k)), (empirical.pf[k], cf_pf(model, 3, k))):
                sigma = math.sqrt(ref * (1.0 - ref) / trials)
                assert abs(emp - ref) <= 3.0 * sigma

    def test_seed_determinism(self):
        model = NegativeBinomialDemand(r=1.2, p=0.5)
        a = monte_carlo_oracle(model, 4, 8, trials=50_000, seed=99)
        b = monte_carlo_oracle(model, 4, 8, trials=50_000, seed=99)
        np.testing.assert_array_equal(a.p0, b.p0)
        np.testing.assert_array_equal(a.pf, b.pf)

    def test_generalized_mass_rejected(self):
        # a real-valued customer count below the stock is not a simulable distribution
        with pytest.raises(ValueError, match="closed_form_curve"):
            monte_carlo_oracle(BinomialDemand(c=2.5, p=0.4), 6, 4, trials=10, seed=0)

    def test_chunking_spans_trials(self):
        model = PoissonDemand(lam=0.5)
        small = monte_carlo_oracle(model, 2, 5, trials=1000, seed=5, chunk_size=64)
        assert 0.0 <= small.p0[5] <= 1.0
