"""Closed-form stock solutions: spot values, the pre-recast summation
identities, convolution identities for the coefficients, equivalence
with the recursion, and the stockout tail kernel against scipy."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sps

from stockcast.closed_form import cf_pnk, closed_form_curve, stockout_tail_block
from stockcast.demand import (
    BinomialDemand,
    DeterministicDemand,
    FrequentistDemand,
    NegativeBinomialDemand,
    PoissonDemand,
    _support,
)
from stockcast.engine import solve_recursive, stockout_rows_block
from stockcast.special import ConvergenceError


def p0k(model, m: int, k: int) -> float:
    """P(0, k) of stock ``m``, read off the tail kernel."""
    return stockout_tail_block([model], [[m]], k)[0, -1]


class TestSpotValues:
    def test_poisson_one_unit_sold(self):
        assert cf_pnk(PoissonDemand(lam=1.0), m=2, n=1, k=1) == pytest.approx(
            math.exp(-1.0), rel=1e-12
        )

    def test_full_stock_is_alpha0_power(self):
        for model in (
            PoissonDemand(lam=0.7),
            BinomialDemand(c=4.0, p=0.3),
            NegativeBinomialDemand(r=1.3, p=0.6),
        ):
            for k in range(6):
                assert cf_pnk(model, m=3, n=3, k=k) == pytest.approx(
                    model.alpha(0) ** k, rel=1e-12
                )

    def test_deterministic_delta(self):
        assert cf_pnk(DeterministicDemand(h=2), m=4, n=2, k=1) == 1.0
        assert cf_pnk(DeterministicDemand(h=2), m=4, n=3, k=1) == 0.0

    def test_initial_condition(self):
        # day 0 reads no law, so a model with no closed form gets it too
        for model in (PoissonDemand(lam=1.0), BinomialDemand(c=2.0, p=0.5), FrequentistDemand([3, 2])):
            assert cf_pnk(model, m=4, n=4, k=0) == 1.0
            assert cf_pnk(model, m=4, n=2, k=0) == 0.0

    def test_poisson_stockout_by_series_oracle(self):
        expected = 1.0 - math.fsum(3.0**j * math.exp(-3.0) / math.factorial(j) for j in range(3))
        assert p0k(PoissonDemand(lam=1.0), 3, 3) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.576810, abs=5e-7)

    def test_binomial_boundary_day_cannot_clear_stock(self):
        # one day brings at most 4 buyers, stock is 5
        assert p0k(BinomialDemand(c=4.0, p=0.5), 5, 1) == 0.0

    def test_binomial_exact_clearing_needs_every_customer(self):
        # k*c == m: stockout means every customer bought every day
        model = BinomialDemand(c=4.0, p=0.5)
        assert p0k(model, 4, 1) == pytest.approx(0.5**4, rel=1e-10)
        assert p0k(model, 8, 2) == pytest.approx(0.5**8, rel=1e-10)

    def test_stockout_approaches_certainty(self):
        for model in (
            PoissonDemand(lam=1.0),
            BinomialDemand(c=3.0, p=0.4),
            NegativeBinomialDemand(r=1.0, p=0.4),
        ):
            assert p0k(model, 3, 200) == pytest.approx(1.0, abs=1e-9)

    def test_frustration_fades(self):
        for model in (
            PoissonDemand(lam=1.0),
            BinomialDemand(c=3.0, p=0.4),
            NegativeBinomialDemand(r=1.0, p=0.4),
        ):
            assert closed_form_curve(model, 3, 200).pf[200] == pytest.approx(0.0, abs=1e-9)

    def test_poisson_first_day_frustration(self):
        assert closed_form_curve(PoissonDemand(lam=1.0), 2, 1).pf[1] == pytest.approx(
            1.0 - 2.5 * math.exp(-1.0), rel=1e-12
        )

    def test_deterministic_divisible_stock(self):
        np.testing.assert_array_equal(closed_form_curve(DeterministicDemand(h=2), 4, 9).pf, 0.0)

    def test_frequentist_has_no_closed_form(self):
        model = FrequentistDemand([3, 2])
        # the curve and the tail kernel hand an empirical law to the recursion
        curve, swept = closed_form_curve(model, 2, 4), solve_recursive(model, 2, 4)
        np.testing.assert_array_equal(curve.p0, swept.p0)
        np.testing.assert_array_equal(curve.pf, swept.pf)
        np.testing.assert_array_equal(stockout_tail_block([model], [[2, 5]], 4), stockout_rows_block([model], [[2, 5]], 4))
        with pytest.raises(ValueError):
            cf_pnk(model, m=2, n=1, k=1)
        with pytest.raises(ValueError, match="use the recursive engine"):
            FrequentistDemand([1, 1]).over(2)

    def test_argument_validation(self):
        model = PoissonDemand(lam=1.0)
        with pytest.raises(ValueError):
            cf_pnk(model, m=3, n=0, k=1)
        with pytest.raises(ValueError):
            cf_pnk(model, m=3, n=4, k=1)
        with pytest.raises(ValueError):
            closed_form_curve(model, 0, 1)
        with pytest.raises(ValueError):
            closed_form_curve(model, 3, 0)


class TestSummationIdentities:
    """The stockout forms before their gamma/beta recasts."""

    @pytest.mark.parametrize("lam", [0.3, 1.0, 3.0])
    @pytest.mark.parametrize("m", [1, 3, 10])
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_poisson(self, lam, m, k):
        model = PoissonDemand(lam=lam)
        partial = math.fsum(
            math.exp(j * math.log(k * lam) - k * lam - math.lgamma(j + 1)) for j in range(m)
        )
        assert 1.0 - p0k(model, m, k) == pytest.approx(partial, abs=1e-10)

    @pytest.mark.parametrize("c,p", [(2, 0.5), (4, 0.3), (6, 0.75)])
    @pytest.mark.parametrize("m", [1, 3, 5])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_binomial_integer_count(self, c, p, m, k):
        model = BinomialDemand(c=float(c), p=p)
        q = 1.0 - p
        total = math.fsum(
            math.comb(k * c, j) * p**j * q ** (k * c - j) for j in range(m, k * c + 1)
        )
        assert p0k(model, m, k) == pytest.approx(total, abs=1e-9)

    @pytest.mark.parametrize("r,p", [(1.0, 0.5), (2.5, 0.35), (0.6, 0.7)])
    @pytest.mark.parametrize("m", [1, 3, 6])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_negative_binomial(self, r, p, m, k):
        model = NegativeBinomialDemand(r=r, p=p)
        q = 1.0 - p
        kr = k * r
        total = math.fsum(
            math.exp(
                math.lgamma(kr + j) - math.lgamma(kr) - math.lgamma(j + 1)
                + kr * math.log(p)
                + j * math.log(q)
            )
            for j in range(m)
        )
        assert p0k(model, m, k) == pytest.approx(1.0 - total, abs=1e-9)


class TestConvolutionIdentities:
    """Coefficient identities behind the day-composition proofs, checked
    exactly with rational arithmetic."""

    def test_vandermonde(self):
        for big_m in range(0, 9):
            for big_n in range(0, 9):
                for r in range(0, big_m + big_n + 1):
                    total = sum(
                        math.comb(big_m, l) * math.comb(big_n, r - l)
                        for l in range(0, r + 1)
                        if r - l <= big_n and l <= big_m
                    )
                    assert total == math.comb(big_m + big_n, r)

    def test_rising_convolution(self):
        # sum_l C(a+l, l) C(g+n-l, n-l) = C(a+g+1+n, n)
        def comb_frac(top: int, r: int) -> Fraction:
            return Fraction(math.comb(top, r))

        for a in range(0, 7):
            for g in range(0, 7):
                for n in range(0, 9):
                    total = sum(
                        comb_frac(a + l, l) * comb_frac(g + n - l, n - l) for l in range(n + 1)
                    )
                    assert total == comb_frac(a + g + 1 + n, n)

    def test_gamma_shift_recurrence_as_identity(self):
        # Gamma(m+1, x) = m Gamma(m, x) + x^m e^-x, regularized form, read
        # through the Poisson tail: beta(m) = 1 - Q(m, x)
        for m in (1, 2, 5, 11):
            for x in (0.2, 1.0, 4.5, 20.0):
                model = PoissonDemand(lam=x)
                lhs = 1.0 - model.beta(m + 1)
                rhs = 1.0 - model.beta(m) + math.exp(m * math.log(x) - x - math.lgamma(m + 1.0))
                assert lhs == pytest.approx(rhs, abs=1e-12)


EQUIVALENCE_MODELS = [
    DeterministicDemand(h=1),
    DeterministicDemand(h=3),
    PoissonDemand(lam=1.0),
    BinomialDemand(c=3.0, p=0.4),
    BinomialDemand(c=12.5, p=0.55),
    NegativeBinomialDemand(r=0.6, p=0.35),
    NegativeBinomialDemand(r=2.5, p=0.7),
]


class TestRecursionEquivalence:
    @pytest.mark.parametrize("model", EQUIVALENCE_MODELS, ids=lambda m: f"{m.kind}-{m}")
    @pytest.mark.parametrize("m", [1, 4, 11])
    def test_lattice_and_curves_match(self, model, m):
        horizon = 18
        dist = solve_recursive(model, m, horizon)
        curve = closed_form_curve(model, m, horizon)
        np.testing.assert_allclose(curve.p0, dist.p0, atol=1e-11)
        np.testing.assert_allclose(curve.pf, dist.pf, atol=1e-11)
        for k in range(horizon + 1):
            for n in range(1, m + 1):
                assert cf_pnk(model, m, n, k) == pytest.approx(dist.lattice[n, k], abs=1e-11)

    @pytest.mark.parametrize(
        ("model", "m"),
        [(PoissonDemand(lam=190.0), 4750), (NegativeBinomialDemand(r=20.0, p=0.1), 4500)],
        ids=["poisson-190", "negbinomial-20-0.1"],
    )
    def test_curves_match_at_large_stock(self, model, m):
        # Q(4751, 4750) stopped the gamma series behind the old Poisson P_F;
        # the recursion's P(0, k) sums 31 days of increments, so it gets 1e-11
        curve = closed_form_curve(model, m, 31)
        dist = solve_recursive(model, m, 31)
        np.testing.assert_allclose(curve.pf, dist.pf, rtol=0, atol=1e-12)
        np.testing.assert_allclose(curve.p0, dist.p0, rtol=0, atol=1e-11)

    @pytest.mark.parametrize(
        ("model", "m"),
        [(BinomialDemand(c=2.5, p=0.3), m) for m in (1, 2, 3, 6)]
        # the signed mass once gave p0[3] of 1.9e41 at m = 120, with no error
        + [(BinomialDemand(c=20.5, p=0.9), m) for m in (120, 200, 400)],
        ids=str,
    )
    def test_small_real_customer_count_lattice(self, model, m):
        # below c the daily mass is a distribution and the two lattices
        # agree; past it the mass is signed, and the recursion points to
        # the closed form, the specified value
        horizon = 10
        if m > model.c:
            with pytest.raises(ValueError, match="closed_form_curve"):
                solve_recursive(model, m, horizon)
            return
        dist = solve_recursive(model, m, horizon)
        for k in range(horizon + 1):
            for n in range(1, m + 1):
                assert cf_pnk(model, m, n, k) == pytest.approx(dist.lattice[n, k], abs=1e-11)


HORIZON = 31


def scipy_tail_rows(model, levels, horizon=HORIZON) -> np.ndarray:
    """P(0, k | m) from scipy's regularized incomplete gamma and beta."""
    m = np.asarray(levels, dtype=float)[:, None]
    k = np.arange(1, horizon + 1, dtype=float)[None, :]
    if isinstance(model, PoissonDemand):
        return sps.gammainc(m, k * model.lam)
    if isinstance(model, NegativeBinomialDemand):
        return sps.betainc(m, k * model.r, 1.0 - model.p)
    b = k * model.c - m + 1.0
    return np.where(b > 0.0, sps.betainc(m, np.where(b > 0.0, b, 1.0), model.p), 0.0)


def assert_matches_scipy(model, levels, horizon=HORIZON):
    got = stockout_tail_block([model], [levels], horizon)
    expected = scipy_tail_rows(model, levels, horizon)
    # relative on P(0, k); scipy underflows to 0 somewhere below 1e-250
    resolved = expected > 1e-200
    np.testing.assert_allclose(got[resolved], expected[resolved], rtol=1e-9)
    assert np.all(got[~resolved] < 1e-190)
    return got, expected


levels_st = st.lists(st.integers(1, 10_000), min_size=1, max_size=6)
rates_st = st.floats(1e-3, 1e3)


class TestStockoutTailRows:
    @settings(max_examples=25, deadline=None)
    @given(lam=rates_st, levels=levels_st)
    def test_poisson_against_scipy(self, lam, levels):
        assert_matches_scipy(PoissonDemand(lam=lam), levels)

    @settings(max_examples=25, deadline=None)
    @given(rate=rates_st, p=st.floats(1e-3, 0.999), levels=levels_st)
    def test_negative_binomial_against_scipy(self, rate, p, levels):
        # the shape that puts the daily mean at rate; below p of about 6e-4
        # the support is closed by reg_inc_beta instead (see the slow-tail test)
        assert_matches_scipy(NegativeBinomialDemand(r=rate * p / (1.0 - p), p=p), levels)

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(0.5, 2e3), p=st.floats(1e-3, 0.999), levels=levels_st)
    def test_real_count_binomial_against_scipy(self, c, p, levels):
        if c * p > 1e3:
            p = 1e3 / c
        assert_matches_scipy(BinomialDemand(c=c, p=p), levels)

    def test_negative_binomial_at_large_shape(self):
        # k*r = 1e5 on the last day: the old beta front factor drifted by 3e-10 here
        r = 1e5 / HORIZON
        for rate in (1.0, 50.0, 1e3):
            model = NegativeBinomialDemand(r=r, p=r / (r + rate))
            mean = HORIZON * rate
            assert_matches_scipy(model, [1, round(mean / 2), round(mean), round(mean + 6 * math.sqrt(mean / model.p))])

    def test_poisson_where_the_gamma_series_stopped(self):
        # a ~ x between 4000 and 6000 took more than 500 series terms
        model = PoissonDemand(lam=190.0)
        levels = [4000, 4560, 4750, 4739, 5320, 5700, 6000]
        got, _ = assert_matches_scipy(model, levels)
        assert np.all(got[:, -1] > 0.05)

    def test_tails_far_below_one_minus_q_resolution(self):
        got, expected = assert_matches_scipy(PoissonDemand(lam=0.5), [30, 40, 60, 80])
        assert expected[2, -1] == pytest.approx(7.85e-18, rel=1e-3)
        assert np.count_nonzero((expected > 0.0) & (expected < 1e-13)) > 50
        assert np.all(got[:, -1] > 0.0)
        assert_matches_scipy(NegativeBinomialDemand(r=2.0, p=0.6), [60, 120])
        assert_matches_scipy(BinomialDemand(c=7.5, p=0.2), [100, 150])

    def test_real_count_below_stock(self):
        # c = 20.5: at most floor(k c) + 1 units can sell by day k, so the
        # rows of m = 400 open on day 20 with the incomplete-beta remainder alone
        model = BinomialDemand(c=20.5, p=0.9)
        levels = [20, 21, 22, 400, 410, 636, 637]
        got, expected = assert_matches_scipy(model, levels)
        for row, m in zip(got, levels):
            closes = np.floor(np.arange(1, HORIZON + 1) * model.c) + 1
            assert np.all(row[closes < m] == 0.0)
        assert got[3, 19] == pytest.approx(sps.betainc(400.0, 20 * 20.5 - 399.0, 0.9), rel=1e-12)
        assert got[-1, -1] == 0.0

    @pytest.mark.parametrize(
        "model",
        [
            PoissonDemand(lam=0.3),
            PoissonDemand(lam=7.0),
            BinomialDemand(c=3.0, p=0.4),
            BinomialDemand(c=12.0, p=0.85),
            NegativeBinomialDemand(r=0.6, p=0.35),
            NegativeBinomialDemand(r=4.0, p=0.7),
        ],
        ids=lambda m: f"{m.kind}-{m}",
    )
    def test_rows_match_recursion(self, model):
        levels = [7, 1, 40, 7, 120]
        rows = stockout_tail_block([model], [levels], HORIZON)
        for row, m in zip(rows, levels):
            np.testing.assert_allclose(row, solve_recursive(model, m, HORIZON).p0[1:], rtol=0, atol=1e-10)

    def test_indicator_models(self):
        rows = stockout_tail_block([DeterministicDemand(h=3)], [[3, 4, 9]], 4)
        np.testing.assert_array_equal(rows, [[1, 1, 1, 1], [0, 1, 1, 1], [0, 0, 1, 1]])
        # every customer buys: k c units sell by day k
        rows = stockout_tail_block([BinomialDemand(c=2.5, p=1.0)], [[3, 4, 6]], 3)
        np.testing.assert_array_equal(rows, [[1, 1, 1], [0, 1, 1], [0, 0, 1]])
        # the lattice agrees: after 2 days the 5 units sold leave 1 of 6
        assert cf_pnk(BinomialDemand(c=2.5, p=1.0), 6, 1, 2) == 1.0

    def test_curve_reads_the_kernel(self):
        model = NegativeBinomialDemand(r=1.3, p=0.4)
        # one kernel call at m and m + 1 serves both curves
        curve = closed_form_curve(model, 5, 9)
        np.testing.assert_array_equal(curve.p0, np.r_[0.0, stockout_tail_block([model], [[5, 6]], 9)[0]])

    def test_levels_and_horizon_validated(self):
        model = PoissonDemand(lam=1.0)
        assert stockout_tail_block([model], [[]], 5).shape == (0, 5)
        for levels, horizon in (([0], 5), ([2.5], 5), ([3], 0)):
            with pytest.raises(ValueError):
                stockout_tail_block([model], [levels], horizon)
        model = FrequentistDemand([1, 1])
        np.testing.assert_array_equal(stockout_tail_block([model], [[3]], 5), stockout_rows_block([model], [[3]], 5))

    def test_slow_negative_binomial_tail_is_closed(self):
        # q = 1 - 5.6e-6 would keep seven million terms open; one incomplete
        # beta remainder per day closes the support past the largest level
        model = NegativeBinomialDemand(r=0.5 / HORIZON, p=5.6e-6)
        assert_matches_scipy(model, [1, 300, 9000])

    def test_binomial_levels_past_the_last_customer_share_one_zero_column(self):
        # S_31 <= 93, so J = 94 and column 95 is zero: level 2**21 reads it
        model = BinomialDemand(c=3.0, p=1 / 3)
        assert [v.tolist() for v in _support([model], [HORIZON], [2**21])] == [[[96]], [[False]]]
        rows = stockout_tail_block([model], [[5, 2**21]], HORIZON)
        np.testing.assert_array_equal(rows[0], stockout_tail_block([model], [[5, 95]], HORIZON)[0])
        np.testing.assert_array_equal(rows[1], 0.0)
        assert_matches_scipy(model, [5, 93, 94, 95, 2**21])
        # a real count keeps the remainder I_p(J, kc - J + 1) at J itself
        model = BinomialDemand(c=2.5, p=0.4)
        assert [v.tolist() for v in _support([model], [HORIZON], [10**6])] == [[[80]], [[False]]]
        rows, _ = assert_matches_scipy(model, [3, 77, 78, 79, 10**6])
        np.testing.assert_array_equal(rows[3:], 0.0)

    def test_support_past_a_million_terms_is_a_convergence_error(self):
        with pytest.raises(ConvergenceError):
            stockout_tail_block([PoissonDemand(lam=1.0)], [[3, 2_000_000]], HORIZON)

    def test_a_shape_past_the_float_range_is_a_convergence_error(self):
        # the day-2 shape 2e308 overflows, so no remainder can close that support
        with pytest.raises(ConvergenceError, match=r"for NegativeBinomialDemand\(r=1e\+308, p=0\.5\)$"):
            stockout_tail_block([NegativeBinomialDemand(r=1e308, p=0.5)], [[3]], 2)
