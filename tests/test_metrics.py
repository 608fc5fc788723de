"""Score function: exact identities, analytic baselines, simulation
oracles, and normalization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from stockcast.metrics import (
    ForecastCdf,
    NormalizationError,
    OutcomeStep,
    baseline_uniform,
    baseline_uniform_discrete,
    normalize_curve,
    point_forecast_expected_rps,
    rps_discrete,
    rps_rows,
    uniform_forecast,
    uniform_forecast_rps_continuous,
)


def step_forecast(d: int, u0: int) -> ForecastCdf:
    return ForecastCdf(horizon=d, g=(np.arange(1, d + 1) >= u0).astype(float))


class TestRpsDiscrete:
    def test_perfect_forecast_scores_zero(self):
        assert rps_discrete(OutcomeStep(horizon=5, u=1), step_forecast(5, 1)) == 0.0

    def test_point_forecast_distance(self):
        d = 12
        for u in range(1, d + 1):
            for u0 in range(1, d + 1):
                score = rps_discrete(OutcomeStep(horizon=d, u=u), step_forecast(d, u0))
                assert score == abs(u - u0)

    def test_horizon_mismatch(self):
        with pytest.raises(ValueError):
            rps_discrete(OutcomeStep(horizon=4, u=2), step_forecast(5, 1))

    def test_non_monotone_forecast_rejected(self):
        with pytest.raises(ValueError):
            ForecastCdf(horizon=3, g=np.array([0.5, 0.2, 1.0]))

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
        g = np.sort(np.asarray(raw))
        forecast = ForecastCdf(horizon=d, g=g)
        score = rps_discrete(OutcomeStep(horizon=d, u=u), forecast)
        assert 0.0 <= score <= d
        steps = (np.arange(1, d + 1) >= u).astype(float)
        if score == 0.0:
            np.testing.assert_array_equal(g, steps)

    def test_uniform_draws_match_baseline_mean(self):
        d = 31
        rng = np.random.default_rng(2214)
        draws = 100_000
        forecast = uniform_forecast(d)
        us = rng.integers(1, d + 1, size=draws)
        scores = [rps_discrete(OutcomeStep(horizon=d, u=int(u)), forecast) for u in us]
        mean, variance = baseline_uniform(d)
        se = np.sqrt(variance / draws)
        assert abs(np.mean(scores) - mean) <= 2.0 * se


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
        forecast = uniform_forecast(d)
        total = sum(
            rps_discrete(OutcomeStep(horizon=d, u=u), forecast) for u in range(1, d + 1)
        )
        assert baseline_uniform_discrete(d) == pytest.approx(total / d, rel=1e-12)


class TestNormalizeCurve:
    def test_already_normalized_passthrough(self):
        p0 = np.array([0.2, 0.7, 1.0])
        np.testing.assert_allclose(normalize_curve(p0, 3).g, p0)

    def test_scaling(self):
        np.testing.assert_allclose(
            normalize_curve(np.array([0.1, 0.2, 0.4]), 3).g, [0.25, 0.5, 1.0]
        )

    def test_zero_curve_rejected(self):
        with pytest.raises(NormalizationError):
            normalize_curve(np.zeros(3), 3)

    def test_length_checked(self):
        with pytest.raises(ValueError):
            normalize_curve(np.array([0.1, 0.4]), 3)


class TestRpsRows:
    @settings(max_examples=50, deadline=None)
    @given(
        d=st.integers(1, 40),
        data=st.data(),
    )
    def test_bitwise_equal_to_rps_discrete(self, d, data):
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
            expected = rps_discrete(OutcomeStep(d, u), normalize_curve(row, d))
            assert score.tobytes() == np.float64(expected).tobytes()

    def test_uniform_rows(self):
        d = 31
        rows = np.tile(np.arange(1, d + 1) / d, (d, 1))
        scores = rps_rows(rows, range(1, d + 1))
        for u, score in zip(range(1, d + 1), scores):
            assert score == rps_discrete(OutcomeStep(d, u), uniform_forecast(d))

    def test_checks_of_forecast_cdf_apply(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            rps_rows([[0.2, 0.6, 0.5, 1.0], [0.1, 0.2, 0.3, 0.4]], [1, 2])
        # roundoff within the slack of ForecastCdf passes
        assert np.all(np.isfinite(rps_rows([[0.5, 0.5 - 1e-14, 1.0]], [2])))
        with pytest.raises(ValueError, match="stockout days"):
            rps_rows([[0.2, 0.5, 1.0]], [4])
        with pytest.raises(ValueError, match="rows"):
            rps_rows([[0.2, 0.5, 1.0]], [1, 2])
