"""Score function: exact identities, analytic baselines, simulation
oracles, normalization, and input checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import reference_rps
from stockcast.metrics import (
    baseline_uniform,
    baseline_uniform_discrete,
    point_forecast_expected_rps,
    rps_rows,
    uniform_forecast_rps_continuous,
)


def point_rows(d: int, u0) -> np.ndarray:
    """Unit-step (point) forecasts at each day of ``u0``, one row each."""
    return (np.arange(1, d + 1) >= np.reshape(u0, (-1, 1))).astype(float)


def uniform_rows(d: int, n: int) -> np.ndarray:
    """``n`` copies of the uninformed forecast G(k) = k/d."""
    return np.tile(np.arange(1, d + 1) / d, (n, 1))


class TestScore:
    def test_perfect_forecast_scores_zero(self):
        assert rps_rows(point_rows(5, 1), [1]).tolist() == [0.0]

    def test_point_forecast_distance(self):
        d = 12
        u, u0 = np.indices((d, d)).reshape(2, -1) + 1
        assert rps_rows(point_rows(d, u0), u).tolist() == np.abs(u - u0).tolist()

    @given(
        d=st.integers(min_value=1, max_value=40),
        u=st.integers(min_value=1, max_value=40),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_score_bounds_and_zero_condition(self, d, u, data):
        u = min(u, d)
        raw = data.draw(
            st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=d, max_size=d)
        )
        # a CDF that reaches certainty on the last day, as every normalized row does
        g = np.sort(np.asarray(raw))
        g[-1] = 1.0
        (score,) = rps_rows(g[None], [u])
        assert 0.0 <= score <= d
        if score == 0.0:
            # every squared gap was 0 or underflowed to 0
            assert np.all(np.abs(g - point_rows(d, u)[0]) <= np.sqrt(np.finfo(float).smallest_subnormal))

    def test_uniform_draws_match_baseline_mean(self):
        d = 31
        rng = np.random.default_rng(2214)
        draws = 100_000
        us = rng.integers(1, d + 1, size=draws)
        scores = rps_rows(uniform_rows(d, draws), us)
        mean, variance = baseline_uniform(d)
        se = np.sqrt(variance / draws)
        assert abs(np.mean(scores) - mean) <= 2.0 * se

    def test_rows_are_scaled_by_their_last_value(self):
        scaled = rps_rows([[0.1, 0.2, 0.4], [0.2, 0.7, 1.0]], [2, 2])
        assert scaled.tolist() == rps_rows([[0.25, 0.5, 1.0], [0.2, 0.7, 1.0]], [2, 2]).tolist()

    def test_zero_last_value_scores_nan(self):
        scores = rps_rows([[0.1, 0.2, 0.4], [0.0, 0.0, 0.0], [0.2, 0.7, 1.0]], [2, 3, 1])
        assert np.isnan(scores[1])
        assert scores[[0, 2]].tolist() == [reference_rps([0.1, 0.2, 0.4], 2), reference_rps([0.2, 0.7, 1.0], 1)]


class TestBaselines:
    def test_values(self):
        assert baseline_uniform(31) == (31 / 6, 31 * 31 / 180)
        assert baseline_uniform(6) == (1.0, 0.2)

    def test_display_rounding(self):
        mean, _ = baseline_uniform(31)
        assert f"{mean:.2f}" == "5.17"

    def test_continuous_form_matches_quadrature(self):
        d = 31.0
        for u in (0.0, 4.2, 15.5, 29.9, 31.0):
            def gap_sq(t, u=u):
                step = 1.0 if t > u else 0.0
                return (step - t / d) ** 2

            integral, _ = quad(gap_sq, 0.0, d, points=[u], limit=200)
            assert uniform_forecast_rps_continuous(u, d) == pytest.approx(integral, abs=1e-9)

    def test_continuous_simulation_reproduces_moments(self):
        d = 31
        rng = np.random.default_rng(909)
        draws = 200_000
        scores = np.array([uniform_forecast_rps_continuous(u, d) for u in rng.uniform(0, d, draws)])
        mean, variance = baseline_uniform(d)
        mean_se = np.sqrt(variance / draws)
        assert abs(scores.mean() - mean) <= 3.0 * mean_se
        assert abs(scores.var() - variance) <= 0.05 * variance

    def test_point_forecast_expectation(self):
        assert point_forecast_expected_rps(31, 15.5) == pytest.approx(31 / 4)
        assert point_forecast_expected_rps(31, 0.0) == pytest.approx(31 / 2)

    def test_point_forecast_minimum_at_midpoint(self):
        d = 31
        values = [point_forecast_expected_rps(d, u0) for u0 in np.linspace(0, d, 311)]
        assert min(values) == pytest.approx(d / 4)
        assert values[155] == pytest.approx(d / 4)

    def test_point_forecast_average_over_u0(self):
        # averaging the expectation over u0 ~ Uniform(0, d) gives d/3
        d = 31
        integral, _ = quad(lambda u0: point_forecast_expected_rps(d, u0), 0.0, d)
        assert integral / d == pytest.approx(d / 3, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 5, 13, 31, 40])
    def test_discrete_baseline_by_enumeration(self, d):
        scores = rps_rows(uniform_rows(d, d), range(1, d + 1))
        assert baseline_uniform_discrete(d) == pytest.approx(scores.mean(), rel=1e-12)


class TestRpsRows:
    @settings(max_examples=50, deadline=None)
    @given(
        d=st.integers(1, 40),
        data=st.data(),
    )
    def test_bitwise_equal_to_reference(self, d, data):
        n = data.draw(st.integers(1, 6))
        increments = data.draw(
            st.lists(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d), min_size=n, max_size=n)
        )
        rows = np.cumsum(np.array(increments), axis=1) / d
        days = data.draw(st.lists(st.integers(1, d), min_size=n, max_size=n))
        scores = rps_rows(rows, days)
        for row, u, score in zip(rows, days, scores):
            if row[-1] == 0.0:
                assert np.isnan(score)
                continue
            assert score.tobytes() == np.float64(reference_rps(row, u)).tobytes()

    def test_uniform_rows(self):
        d = 31
        rows = uniform_rows(d, d)
        scores = rps_rows(rows, range(1, d + 1))
        for u, score in zip(range(1, d + 1), scores):
            assert score == reference_rps(rows[0], u)

    def test_forecast_cdf_checks(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            rps_rows([[0.2, 0.6, 0.5, 1.0], [0.1, 0.2, 0.3, 0.4]], [1, 2])
        # roundoff within the CDF slack passes
        assert np.all(np.isfinite(rps_rows([[0.5, 0.5 - 1e-14, 1.0]], [2])))
        with pytest.raises(ValueError, match="stockout days"):
            rps_rows([[0.2, 0.5, 1.0]], [4])
        with pytest.raises(ValueError, match="rows"):
            rps_rows([[0.2, 0.5, 1.0]], [1, 2])

    @pytest.mark.parametrize(
        ("rows", "days", "message"),
        [
            ([[0.1, 0.5, 1.0]], [np.nan], "stockout days must be integers in \\[1, 3\\], got nan"),
            ([[0.1, 0.5, 1.0]], [2.5], "got 2.5"),
            ([0.1, 0.5, 1.0], [2], "2-D array"),
            ([[[0.1, 0.5, 1.0]]], [2], "2-D array"),
            ([[0.1, np.nan, 1.0]], [2], "must be finite, got nan"),
            ([[0.1, 0.5, np.inf]], [2], "must be finite, got inf"),
            ([[0.2, 0.4, -0.5]], [1], "must end at a non-negative value, got -0.5$"),
            ([[0.0, 0.0, 0.0], [0.1, 0.2, 0.3], [0.0, -0.1, -1e-300]], [1, 2, 3], "non-negative value, got -1e-300$"),
        ],
        ids=[
            "nan-day", "fractional-day", "1-D-row", "3-D-rows", "nan-in-row", "inf-last-value",
            "negative-last-value", "negative-after-a-zero-row",
        ],
    )
    def test_bad_input_raises(self, rows, days, message):
        with pytest.raises(ValueError, match=message):
            rps_rows(rows, days)
