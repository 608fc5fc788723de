"""Ranked probability score for stockout forecasts, plus analytic baselines.

The score compares a forecast CDF G over the horizon against the
realized step function of the actual stockout day. Discrete convention:
the step F_u(k) is 1 for k >= u, chosen so that a unit-step (point)
forecast at day u0 scores exactly |u - u0|.
"""

from __future__ import annotations

import numpy as np

from .engine import _horizon
from .special import _UNIT_SLACK

__all__ = [
    "rps_rows",
    "baseline_uniform",
    "baseline_uniform_discrete",
    "point_forecast_expected_rps",
    "uniform_forecast_rps_continuous",
]


def rps_rows(p0_rows, stockout_days) -> np.ndarray:
    """The score of every row of stockout probabilities P(0, k), k = 1 ..
    d, against its stockout day u, in one reduction: the row normalized
    by its last value is the forecast CDF G, and the score is the sum over
    days of ((k >= u) - G(k))^2, at most d. NaN where the last value is 0
    and normalization is undefined; a negative last value, which no
    probability has, is an error."""
    rows = np.asarray(p0_rows, dtype=float)
    if rows.ndim != 2 or not rows.shape[1]:
        raise ValueError(f"stockout rows must form a 2-D array, one column per day, got shape {rows.shape}")
    if not np.isfinite(rows).all():
        raise ValueError(f"stockout rows must be finite, got {rows[~np.isfinite(rows)][0]}")
    negative = rows[:, -1] < 0.0
    if negative.any():
        raise ValueError(f"stockout rows must end at a non-negative value, got {rows[negative, -1][0]}")
    n, d = rows.shape
    days = np.asarray(stockout_days, dtype=float)
    if days.shape != (n,):
        raise ValueError(f"{n} stockout rows for {days.size} stockout days")
    bad = ~((days >= 1) & (days <= d) & (days == np.floor(days)))
    if bad.any():
        raise ValueError(f"stockout days must be integers in [1, {d}], got {days[bad][0]:.17g}")
    u = days.astype(int)
    defined = rows[:, -1] > 0.0
    if not defined.all():
        scores = np.full(n, np.nan)
        scores[defined] = rps_rows(rows[defined], u[defined])
        return scores
    g = rows / rows[:, -1:]
    # CDF values lie in [0, 1] and never decrease, up to roundoff
    if g.size and (g.min() < -_UNIT_SLACK or g.max() > 1.0 + _UNIT_SLACK):
        raise ValueError("forecast CDF values must lie in [0, 1]")
    if d > 1 and g.size and np.diff(g).min() < -_UNIT_SLACK:
        raise ValueError("forecast CDF must be non-decreasing")
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


def uniform_forecast_rps_continuous(u: float, d: float) -> float:
    """Continuous-time score of the uniform forecast against a stockout
    at u: d/3 * (1 + (3/d) * (u^2/d - u))."""
    if d <= 0.0:
        raise ValueError(f"horizon must be positive, got {d!r}")
    if not 0.0 <= u <= d:
        raise ValueError(f"u must lie in [0, {d}], got {u!r}")
    return d / 3.0 * (1.0 + (3.0 / d) * (u * u / d - u))
