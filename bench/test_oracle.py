"""Hand-checkable cases for the benchmark's oracle.

    PYTHONPATH=src python3 -m pytest bench/test_oracle.py -q
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracle

D = 31


def test_fit_selects_each_family_from_exact_moments():
    assert oracle.fit([0, 0, 0]) == ("zero", {})
    assert oracle.fit([2, 2, 2]) == ("deterministic", {"h": 2})
    assert oracle.fit([0, 2]) == ("poisson", {"lam": 1.0})  # mean 1, variance 1
    assert oracle.fit([0, 1, 0, 1]) == ("binomial", {"c": 1.0, "p": 0.5})  # mean 1/2, variance 1/4
    assert oracle.fit([0, 0, 3]) == ("negative_binomial", {"r": 1.0, "p": 0.5})  # mean 1, variance 2


def test_poisson_single_unit_is_one_minus_no_sale():
    lam = 0.7
    k = np.arange(1, D + 1)
    got = oracle.parametric_p0("poisson", {"lam": lam}, [1], D)[0]
    np.testing.assert_allclose(got, 1.0 - np.exp(-k * lam), rtol=1e-14)


def test_poisson_tiny_tail_keeps_relative_accuracy():
    # P(Pois(0.1) >= 60) is about 0.1^60 e^-0.1 / 60!, far below 1 - Q's reach
    got = oracle.parametric_p0("poisson", {"lam": 0.1}, [60], 1)[0, 0]
    terms = [math.exp(j * math.log(0.1) - 0.1 - math.lgamma(j + 1)) for j in range(60, 200)]
    assert got == pytest.approx(math.fsum(terms), rel=1e-12)


def test_negative_binomial_single_unit():
    r, p = 1.5, 0.6
    k = np.arange(1, D + 1)
    got = oracle.parametric_p0("negative_binomial", {"r": r, "p": p}, [1], D)[0]
    np.testing.assert_allclose(got, 1.0 - p ** (k * r), rtol=1e-13)


def test_binomial_single_unit_and_unreachable_stock():
    c, p = 2.0, 0.3
    k = np.arange(1, D + 1)
    got = oracle.parametric_p0("binomial", {"c": c, "p": p}, [1], D)[0]
    np.testing.assert_allclose(got, 1.0 - (1.0 - p) ** (k * c), rtol=1e-13)
    # one customer a day cannot empty a stock of 3 within 2 days
    unreachable = oracle.parametric_p0("binomial", {"c": 1.0, "p": 0.5}, [3], D)[0]
    assert unreachable[:2].tolist() == [0.0, 0.0]
    assert unreachable[2] == pytest.approx(0.125, rel=1e-14)


def test_deterministic_demand_is_a_step():
    got = oracle.parametric_p0("deterministic", {"h": 2}, [1, 5], 4)
    assert got.tolist() == [[1, 1, 1, 1], [0, 0, 1, 1]]


def test_empirical_constant_sales_is_a_step():
    got = oracle.empirical_p0([2, 2, 2], [1, 5], 4)
    assert got.tolist() == [[1, 1, 1, 1], [0, 0, 1, 1]]


def test_empirical_fair_coin_matches_binomial_tail():
    got = oracle.empirical_p0([0, 1, 1, 0], [1, 3, 31], D)
    for row, m in zip(got, (1, 3, 31)):
        want = [math.fsum(math.comb(k, j) for j in range(m, k + 1)) / 2**k for k in range(1, D + 1)]
        np.testing.assert_allclose(row, want, rtol=1e-13, atol=0.0)
    assert got[2, -1] == 2.0**-31


def test_rps_of_a_point_forecast_is_the_day_gap():
    u0 = 9
    curve = (np.arange(1, D + 1) >= u0).astype(float)[None, :].repeat(D, axis=0)
    u = np.arange(1, D + 1)
    np.testing.assert_allclose(oracle.rps(curve, u), np.abs(u - u0), atol=0.0)


def test_rps_is_undefined_without_stockout():
    assert math.isnan(oracle.rps(np.zeros((1, D)), [3])[0])


def test_uniform_rps_matches_the_curve_and_its_mean():
    u = np.arange(1, D + 1)
    curve = np.arange(1, D + 1)[None, :].repeat(D, axis=0) / D
    closed = [oracle.uniform_rps(int(day), D) for day in u]
    np.testing.assert_allclose(closed, oracle.rps(curve, u), rtol=1e-14)
    # averaged over a uniform stockout day: (d^2 - 1) / (6 d)
    assert math.fsum(closed) / D == pytest.approx((D * D - 1) / (6 * D), rel=1e-14)
