"""Stockout curves and scores computed apart from the program.

Nothing here imports ``stockcast``. Fits use exact integer moments; the
parametric curves come from scipy's regularized incomplete gamma and
beta functions, which return the lower tail directly, and the empirical
curve sums only non-negative terms. So the values stay accurate to a
few ulps even where ``P(0, horizon)`` is tiny.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy.special import betainc, gammainc


def fit(train_qty) -> tuple[str, dict]:
    """Family and parameters that moment selection implies for the
    training quantities: ``zero`` when nothing sold, else deterministic,
    poisson, binomial or negative_binomial (variance divided by n)."""
    q = [int(v) for v in train_qty]
    n, total = len(q), sum(q)
    if total == 0:
        return "zero", {}
    mean = Fraction(total, n)
    var = Fraction(n * sum(v * v for v in q) - total * total, n * n)
    if var == 0:
        return "deterministic", {"h": int(mean)}
    if var == mean:
        return "poisson", {"lam": float(mean)}
    if mean > var:
        return "binomial", {"c": float(mean * mean / (mean - var)), "p": float(1 - var / mean)}
    return "negative_binomial", {"r": float(mean * mean / (var - mean)), "p": float(mean / var)}


def parametric_p0(kind: str, params: dict, m, horizon: int) -> np.ndarray:
    """P(0, k) for stock levels ``m`` (rows) and days k = 1..horizon."""
    m = np.asarray(m, dtype=float)[:, None]
    k = np.arange(1, horizon + 1, dtype=float)[None, :]
    if kind == "deterministic":
        return (k * params["h"] >= m).astype(float)
    if kind == "poisson":
        return gammainc(m, k * params["lam"])
    if kind == "negative_binomial":
        return betainc(m, k * params["r"], 1.0 - params["p"])
    if kind == "binomial":
        # at most m - 1 units can sell when k*c - m + 1 <= 0: no stockout
        b = k * params["c"] - m + 1.0
        return np.where(b > 0.0, betainc(m, np.where(b > 0.0, b, 1.0), params["p"]), 0.0)
    raise ValueError(f"no closed form for {kind!r}")


def empirical_p0(train_qty, m, horizon: int) -> np.ndarray:
    """P(0, k) under the empirical daily-sales distribution of the
    training quantities, for stock levels ``m`` and k = 1..horizon.

    The mass still in stock after j days is the j-fold convolution of
    the daily pmf, truncated below the largest stock level; day j + 1
    absorbs sum_{s < m} mass_j(s) * P(demand >= m - s) of it.
    """
    counts = np.bincount(np.asarray(train_qty, dtype=np.int64))
    pmf = counts / counts.sum()
    # tail[n] = P(demand >= n), from integer suffix sums
    tail = np.cumsum(counts[::-1])[::-1] / counts.sum()
    m = np.asarray(m, dtype=np.int64)
    top = int(m.max())
    kernel = tail[1 : top + 1]
    mass = np.zeros(top)
    mass[0] = 1.0
    absorbed = np.zeros(top + 1)
    out = np.empty((m.size, horizon))
    for k in range(horizon):
        absorbed[1:] += np.convolve(mass, kernel)[:top]
        out[:, k] = absorbed[m]
        mass = np.convolve(mass, pmf)[:top]
    return out


def rps(p0: np.ndarray, u) -> np.ndarray:
    """Score of each normalized curve row against its stockout day u;
    rows whose last value is 0 give NaN (normalization undefined)."""
    horizon = p0.shape[1]
    tail = p0[:, -1:]
    with np.errstate(invalid="ignore", divide="ignore"):
        g = np.where(tail > 0.0, p0 / tail, np.nan)
    step = np.arange(1, horizon + 1)[None, :] >= np.asarray(u)[:, None]
    return np.sum((step - g) ** 2, axis=1)


def uniform_rps(u: int, horizon: int) -> float:
    """Closed-form score of the forecast G(k) = k/d against day u."""
    d = horizon
    return sum((k / d) ** 2 for k in range(1, u)) + sum((1.0 - k / d) ** 2 for k in range(u, d + 1))
