"""Ranked probability score for stockout forecasts, plus analytic baselines.

The score compares a forecast CDF G over the horizon against the
realized step function of the actual stockout day. Discrete convention:
the step F_u(k) is 1 for k >= u, chosen so that a unit-step (point)
forecast at day u0 scores exactly |u - u0|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import _horizon
from .special import _UNIT_SLACK

__all__ = [
    "ForecastCdf",
    "OutcomeStep",
    "NormalizationError",
    "rps_discrete",
    "rps_rows",
    "baseline_uniform",
    "baseline_uniform_discrete",
    "point_forecast_expected_rps",
    "uniform_forecast",
    "uniform_forecast_rps_continuous",
    "normalize_curve",
]


class NormalizationError(ValueError):
    """The stockout probability never leaves zero over the horizon, so a
    forecast CDF cannot be formed."""


@dataclass(frozen=True)
class ForecastCdf:
    """Forecast CDF values G(k) for k = 1 .. horizon."""

    horizon: int
    g: np.ndarray

    def __post_init__(self) -> None:
        g = np.asarray(self.g, dtype=float)
        _horizon(self.horizon)
        if g.shape != (self.horizon,):
            raise ValueError(f"expected {self.horizon} CDF values, got shape {g.shape}")
        _check_cdf(g)
        object.__setattr__(self, "g", g)


def _check_cdf(g: np.ndarray) -> None:
    """CDF values along the last axis lie in [0, 1] and never decrease,
    up to roundoff."""
    if g.size and (g.min() < -_UNIT_SLACK or g.max() > 1.0 + _UNIT_SLACK):
        raise ValueError("forecast CDF values must lie in [0, 1]")
    if g.shape[-1] > 1 and g.size and (g[..., 1:] - g[..., :-1]).min() < -_UNIT_SLACK:
        raise ValueError("forecast CDF must be non-decreasing")


@dataclass(frozen=True)
class OutcomeStep:
    """Realized stockout day ``u`` within a ``horizon``-day window."""

    horizon: int
    u: int

    def __post_init__(self) -> None:
        if not 1 <= self.u <= self.horizon:
            raise ValueError(f"stockout day must lie in [1, {self.horizon}], got {self.u!r}")


def rps_discrete(outcome: OutcomeStep, forecast: ForecastCdf) -> float:
    """Sum over days of the squared gap between the forecast CDF and the
    realized step; bounded by the horizon length."""
    if outcome.horizon != forecast.horizon:
        raise ValueError(
            f"horizon mismatch: outcome {outcome.horizon} vs forecast {forecast.horizon}"
        )
    steps = np.arange(1, outcome.horizon + 1) >= outcome.u
    return float(np.sum((steps - forecast.g) ** 2))


def rps_rows(p0_rows, stockout_days) -> np.ndarray:
    """``rps_discrete`` of every row of stockout probabilities P(0, k),
    k = 1 .. d, normalized by its last value, against its stockout day,
    in one reduction; NaN where the last value is 0 and normalization is
    undefined. Each score equals ``rps_discrete(OutcomeStep(d, u),
    normalize_curve(row, d))`` bit for bit."""
    rows = np.asarray(p0_rows, dtype=float)
    u = np.asarray(stockout_days)
    n, d = rows.shape
    if u.shape != (n,):
        raise ValueError(f"{n} stockout rows for {u.size} stockout days")
    if n and (u.min() < 1 or u.max() > d):
        raise ValueError(f"stockout days must lie in [1, {d}]")
    defined = rows[:, -1] > 0.0
    if not defined.all():
        scores = np.full(n, np.nan)
        scores[defined] = rps_rows(rows[defined], u[defined])
        return scores
    g = rows / rows[:, -1:]
    _check_cdf(g)
    steps = np.arange(1, d + 1) >= u[:, None]
    return np.sum((steps - g) ** 2, axis=1)


def baseline_uniform(d: int) -> tuple[float, float]:
    """Mean and variance of the score when the stockout day is uniform
    and the forecast is the matching uniform CDF: (d/6, d^2/180)."""
    _horizon(d)
    return d / 6.0, d * d / 180.0


def baseline_uniform_discrete(d: int) -> float:
    """Mean of the day-summed score under a uniform stockout day and the
    uniform forecast: (d^2 - 1) / (6 d), an O(1/d) correction below the
    continuous d/6."""
    _horizon(d)
    return (d * d - 1.0) / (6.0 * d)


def point_forecast_expected_rps(d: int, u0: float) -> float:
    """Expected score of a point forecast at u0 under a uniform stockout
    day: (u0^2 + (d - u0)^2) / (2 d), minimized at u0 = d/2 with value d/4."""
    _horizon(d)
    if not 0.0 <= u0 <= d:
        raise ValueError(f"u0 must lie in [0, {d}], got {u0!r}")
    return (u0 * u0 + (d - u0) ** 2) / (2.0 * d)


def uniform_forecast(d: int) -> ForecastCdf:
    """The uninformed forecast G(k) = k/d used as the comparison line."""
    _horizon(d)
    return ForecastCdf(horizon=d, g=np.arange(1, d + 1) / d)


def uniform_forecast_rps_continuous(u: float, d: float) -> float:
    """Continuous-time score of the uniform forecast against a stockout
    at u: d/3 * (1 + (3/d) * (u^2/d - u))."""
    if d <= 0.0:
        raise ValueError(f"horizon must be positive, got {d!r}")
    if not 0.0 <= u <= d:
        raise ValueError(f"u must lie in [0, {d}], got {u!r}")
    return d / 3.0 * (1.0 + (3.0 / d) * (u * u / d - u))


def normalize_curve(p0, d: int) -> ForecastCdf:
    """Forecast CDF from stockout probabilities for k = 1 .. d, scaled by
    the final value so the horizon ends at certainty."""
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (d,):
        raise ValueError(f"expected {d} stockout values for k = 1..{d}, got shape {p0.shape}")
    tail = p0[-1]
    if tail <= 0.0:
        raise NormalizationError("stockout probability is zero over the whole horizon")
    return ForecastCdf(horizon=d, g=p0 / tail)
