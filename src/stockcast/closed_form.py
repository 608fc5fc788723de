"""Analytic stock distributions for the parametric demand families.

Each routine evaluates the closed-form counterpart of the recursion for
deterministic, Poisson, Binomial, and Negative Binomial daily demand.

The stockout probability is ``P(0, k | m) = P(S_k >= m)``, where ``S_k``
is the demand over ``k`` days. The three families are closed under
convolution, so ``S_k`` is Poisson(k*lam), NB(k*r, p) or Binomial(k*c, p)
(Panjer 1981). ``stockout_tail_rows`` builds one pmf of ``S_k`` per day,
from its log-ratio recurrence summed outward from the mean, and reads
every stock level of a SKU off its sums, adding only non-negative terms,
smallest first: no ``1 - Q`` cancellation and no series cap. For a real
customer count ``c`` the specified value stays ``I_p(m, kc - m + 1)``;
with ``J = floor(kc) + 1`` it equals
``sum_{j=m}^{J-1} C(kc, j) p^j q^(kc-j) + I_p(J, kc - J + 1)``, so one
incomplete-beta remainder per day closes the positive terms (DiDonato &
Morris 1992), and it is 0 for an integer ``kc``. A negative binomial
tail too slow to truncate is closed the same way, by ``I_q(M, k*r)``
past the largest level.

``cf_p0k``, ``cf_pf`` and ``closed_form_curve`` read the kernel. A sale
is frustrated on day ``k`` when ``S_{k-1} < m < S_k``, so with
``alpha_0`` the zero-sale probability,
``P_F(k) = P(S_k >= m+1) - (1 - alpha_0) P(S_{k-1} >= m) - alpha_0 P(S_{k-1} >= m+1)``:
the rows of the two levels ``m`` and ``m + 1`` give the whole curve.
``cf_pnk`` assembles the lattice cell in log space and exponentiates
last, since the effective parameters (k*c, k*r, k*lam) grow with the
horizon.

The empirical (frequentist) model has no closed form; use the recursive
engine for it.
"""

from __future__ import annotations

import math

import numpy as np

from .demand import (
    BinomialDemand,
    DemandModel,
    DeterministicDemand,
    NegativeBinomialDemand,
    PoissonDemand,
)
from .engine import _PF_SLACK, StockoutCurve, _clamp_pf, _stock_levels, _validate_dims
from .special import ConvergenceError, reg_inc_beta, signed_log_gen_binomial

__all__ = ["stockout_tail_rows", "cf_pnk", "cf_p0k", "cf_pf", "closed_form_curve"]

_PARAMETRIC = (DeterministicDemand, PoissonDemand, BinomialDemand, NegativeBinomialDemand)

_SPREAD = 12.0  # standard deviations past the mean that the support always covers
_TAIL = 40.0  # dropped tail below exp(-_TAIL) of the last kept pmf term
_MAX_CELLS = 1 << 13  # (day, support) cells per pmf block, bounding working memory
_MAX_EXTRA = 1 << 16  # longest open tail past the levels and the bulk
_MAX_WIDTH = 1 << 20  # widest support computed for one day
_UNDERFLOW = 740.0  # log-weights below -_UNDERFLOW stay 0, not subnormal


def _require_parametric(model: DemandModel) -> None:
    if not isinstance(model, _PARAMETRIC):
        raise ValueError(
            f"no closed form for demand kind {model.kind!r}; use the recursive engine"
        )


def stockout_tail_rows(model: DemandModel, stock_levels, horizon: int) -> np.ndarray:
    """``P(0, k | m) = P(S_k >= m)`` for ``k = 1..horizon``, one row per
    entry of ``stock_levels``, where ``S_k`` is the demand over ``k`` days.
    The parametric twin of ``engine.stockout_rows``: each day's values for
    every level come from one pmf of ``S_k``, summed from its smallest
    terms, so no row loses digits to ``1 - Q`` cancellation."""
    _require_parametric(model)
    _validate_dims(1, horizon)
    return _tail_rows(model, stock_levels, np.arange(1, horizon + 1))


def _tail_rows(model: DemandModel, stock_levels, days: np.ndarray) -> np.ndarray:
    levels = _stock_levels(stock_levels)
    if not levels.size:
        return np.zeros((0, days.size))
    if isinstance(model, DeterministicDemand):
        return (days * model.h >= levels[:, None]).astype(float)
    if isinstance(model, BinomialDemand) and model.p == 1.0:
        # every customer buys: the same indicator as I_1(m, kc - m + 1)
        return (days * model.c - levels[:, None] + 1.0 > 0.0).astype(float)
    width, closed = _support(model, float(days.max()), int(levels.max()))
    # the support splits at each distinct level: [0, m_1), [m_1, m_2), ..., [m_n, width)
    cuts = np.unique(levels)
    segment = np.searchsorted(cuts, levels) + 1
    rows = np.empty((levels.size, days.size))
    chunk = max(1, _MAX_CELLS // width)
    for lo in range(0, days.size, chunk):
        weights = _weights(model, days[lo : lo + chunk], width, closed)
        sums = np.add.reduceat(weights, np.r_[0, cuts], axis=1)
        # P(S >= m) adds the smallest segments first; past one half, 1 - P(S < m) does
        upper = np.cumsum(sums[:, ::-1], axis=1)[:, ::-1]
        below = np.cumsum(sums, axis=1) - sums
        total = upper[:, :1]
        tails = np.where(upper < 0.5 * total, upper / total, 1.0 - below / total)
        rows[:, lo : lo + chunk] = tails[:, segment].T
    return rows


def _support(model: DemandModel, day: float, top: int) -> tuple[int, bool]:
    """Width of the support kept for ``S_day`` and every earlier day,
    covering each level up to ``top``, and whether its last column holds
    the remainder ``P(S >= width - 1)``. Past ``start`` the pmf ratio
    pmf(s + 1) / pmf(s) stays below ``ratio``, so the terms past an open
    support add up to less than exp(-_TAIL) of the term at ``start``,
    itself no larger than any row it serves. A negative binomial tail too
    slow for that (q near 1) is closed by one incomplete-beta remainder."""
    if isinstance(model, PoissonDemand):
        mean = day * model.lam
        start = max(top, math.ceil(mean + _SPREAD * math.sqrt(mean)))
        ratio = mean / (start + 1.0)
    elif isinstance(model, NegativeBinomialDemand):
        shape, q = day * model.r, 1.0 - model.p
        mean = shape * q / model.p
        start = max(top, math.ceil(mean + _SPREAD * math.sqrt(mean / model.p)))
        ratio = q * max(1.0, (shape + start) / (start + 1.0))
    else:
        kc, p = day * model.c, model.p
        last = math.floor(kc) + 1  # where the incomplete-beta remainder sits
        start = max(top, math.ceil(kc * p + _SPREAD * math.sqrt(kc * p * (1.0 - p))))
        if start + 1 >= last:
            return max(top, last) + 1, False
        ratio = p / (1.0 - p) * (kc - start) / (start + 1.0)
    extra = math.ceil((_TAIL - math.log1p(-ratio)) / -math.log(ratio))
    closed = isinstance(model, NegativeBinomialDemand) and extra > _MAX_EXTRA
    width = top + 2 if closed else start + 1 + extra
    if width > _MAX_WIDTH:
        raise ConvergenceError(f"stockout tail needs {width} support terms for {model}")
    return width, closed


def _weights(model: DemandModel, days: np.ndarray, width: int, closed: bool) -> np.ndarray:
    """The pmf of ``S_k`` on ``0 .. width - 1``, one row per day ``k``, up
    to a factor per row. Log-ratios log(pmf(j + 1) / pmf(j)) are summed
    outward from the mean, so every partial sum stays near the size of
    the log-pmf it yields, whatever the size of ``k*lam``, ``k*r`` or ``k*c``."""
    j = np.arange(width - 1, dtype=float)
    if isinstance(model, PoissonDemand):
        means = days * model.lam
        ratios = means[:, None] / (j + 1.0)
    elif isinstance(model, NegativeBinomialDemand):
        shapes, q = days * model.r, 1.0 - model.p
        means = shapes * q / model.p
        ratios = q * (shapes[:, None] + j) / (j + 1.0)
    else:
        kc, p = days * model.c, model.p
        means = kc * p
        # C(kc, j) p^j q^(kc - j) for j < J = floor(kc) + 1, the only terms kept
        ratios = p / (1.0 - p) * np.maximum(kc[:, None] - j, 0.0) / (j + 1.0)
    log_ratios = np.full_like(ratios, -np.inf)
    np.log(ratios, out=log_ratios, where=ratios > 0.0)
    above = j >= np.floor(means)[:, None]
    log_w = np.zeros((days.size, width))
    np.cumsum(np.where(above, log_ratios, 0.0), axis=1, out=log_w[:, 1:])
    log_w[:, :-1] -= np.cumsum(np.where(above, 0.0, log_ratios)[:, ::-1], axis=1)[:, ::-1]
    # weights that would be subnormal or zero are left zero: subnormals are slow
    weights = np.zeros_like(log_w)
    np.exp(log_w, out=weights, where=log_w > -_UNDERFLOW)
    # a remainder R at column J closes the terms below J to 1 - R
    for row, day in enumerate(days.tolist()):
        closing = _remainder(model, day, width, closed)
        if closing is not None:
            J, remainder = closing
            weights[row, J:] = 0.0
            weights[row] *= (1.0 - remainder) / weights[row].sum()
            weights[row, J] = remainder
    return weights


def _remainder(model: DemandModel, day: float, width: int, closed: bool) -> tuple[int, float] | None:
    """Column and value of the incomplete-beta remainder that closes the
    support of ``S_day``, or None when the support stays open."""
    if isinstance(model, BinomialDemand):
        kc = day * model.c
        J = math.floor(kc) + 1
        if J >= width:
            return None
        # sum_{j < J} C(kc, j) p^j q^(kc - j) + I_p(J, kc - J + 1) = 1, and an
        # integer kc has no terms past J - 1 = kc
        return J, 0.0 if J - 1 == kc else reg_inc_beta(model.p, J, kc - J + 1.0)
    if closed:
        return width - 1, reg_inc_beta(1.0 - model.p, width - 1.0, day * model.r)
    return None


def cf_pnk(model: DemandModel, m: int, n: int, k: int) -> float:
    """Closed-form P(n, k): probability of n units in stock on day k,
    starting from m, for 1 <= n <= m."""
    _require_parametric(model)
    if not 1 <= n <= m:
        raise ValueError(f"need 1 <= n <= m, got n={n!r}, m={m!r}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k!r}")
    if k == 0:
        return 1.0 if n == m else 0.0
    sold = m - n
    if isinstance(model, DeterministicDemand):
        return 1.0 if sold == k * model.h else 0.0
    if isinstance(model, PoissonDemand):
        kl = k * model.lam
        return math.exp(sold * math.log(kl) - kl - math.lgamma(sold + 1.0))
    if isinstance(model, BinomialDemand):
        q = 1.0 - model.p
        kc = k * model.c
        if q == 0.0:
            return 1.0 if model.has_integer_count and sold == round(kc) else 0.0
        # C(kc, sold) p^sold q^(kc - sold), with a generalized, possibly signed coefficient
        sign, log_mag = signed_log_gen_binomial(kc, sold)
        if sign == 0.0:
            return 0.0
        return sign * math.exp(log_mag + sold * math.log(model.p) + (kc - sold) * math.log(q))
    kr = k * model.r
    q = 1.0 - model.p
    log_coeff = math.lgamma(kr + sold) - math.lgamma(kr) - math.lgamma(sold + 1.0)
    return math.exp(log_coeff + kr * math.log(model.p) + sold * math.log(q))


def cf_p0k(model: DemandModel, m: int, k: int) -> float:
    """Closed-form stockout probability P(0, k), read off the tail kernel."""
    _require_parametric(model)
    if m < 1:
        raise ValueError(f"initial stock m must be >= 1, got {m!r}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k!r}")
    if k == 0:
        return 0.0
    return float(_tail_rows(model, [m], np.array([k]))[0, 0])


def cf_pf(model: DemandModel, m: int, k: int) -> float:
    """Closed-form frustrated-sales probability P_F(k) for day k >= 1."""
    _require_parametric(model)
    if m < 1:
        raise ValueError(f"initial stock m must be >= 1, got {m!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k!r}")
    return float(closed_form_curve(model, m, k).pf[k])


def closed_form_curve(model: DemandModel, m: int, horizon: int) -> StockoutCurve:
    """Stockout curve read off the tail kernel at stocks ``m`` and
    ``m + 1``, mirroring the shape returned by the recursive engine."""
    # column k is day k; day 0 has S_0 = 0, below every stock
    rows = np.pad(stockout_tail_rows(model, [m, m + 1], horizon), ((0, 0), (1, 0)))
    alpha0 = model.alpha(0)
    # S_{k-1} < m < S_k: P(S_k > m) less the runs that had sold m or more by day k - 1
    pf = rows[1, 1:] - (1.0 - alpha0) * rows[0, :-1] - alpha0 * rows[1, :-1]
    # a real customer count can leave the identity outside any probability
    escaped = np.flatnonzero(~((pf >= -_PF_SLACK) & (pf <= 1.0 + _PF_SLACK)))
    if escaped.size:
        day = int(escaped[0])
        raise ConvergenceError(f"frustrated-sales probability escaped [0, 1] on day {day + 1}: {float(pf[day])!r}")
    pf = np.r_[0.0, [_clamp_pf(value) for value in pf.tolist()]]
    return StockoutCurve(m=m, horizon=horizon, p0=rows[0], pf=pf)
