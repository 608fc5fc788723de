"""Analytic stock distributions for the parametric demand families.

Each routine evaluates the closed-form counterpart of the recursion for
deterministic, Poisson, Binomial, and Negative Binomial daily demand.
Mass terms are assembled in log space and exponentiated last, since the
effective one-shot parameters (k*c, k*r, k*lam) grow with the horizon.
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
from .engine import _PF_SLACK, StockoutCurve, _clamp_pf
from .special import ConvergenceError, reg_inc_beta, reg_upper_gamma, signed_log_gen_binomial

__all__ = ["cf_pnk", "cf_p0k", "cf_pf", "closed_form_curve"]

_PARAMETRIC = (DeterministicDemand, PoissonDemand, BinomialDemand, NegativeBinomialDemand)


def _require_parametric(model: DemandModel) -> None:
    if not isinstance(model, _PARAMETRIC):
        raise ValueError(
            f"no closed form for demand kind {model.kind!r}; use the recursive engine"
        )


def _ibeta_or_zero(x: float, a: float, b: float) -> float:
    # the stockout formulas use I_x(a, b) = 0 whenever the second shape
    # parameter degenerates to b <= 0 (fewer than a units can have sold)
    if b <= 0.0:
        return 0.0
    return reg_inc_beta(x, a, b)


def _signed_coeff_times(top: float, r: int, log_rest: float) -> float:
    # C(top, r) * exp(log_rest), tolerating a vanishing coefficient
    sign, log_mag = signed_log_gen_binomial(top, r)
    if sign == 0.0:
        return 0.0
    return sign * math.exp(log_mag + log_rest)


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
        return _signed_coeff_times(kc, sold, sold * math.log(model.p) + (kc - sold) * math.log(q))
    kr = k * model.r
    q = 1.0 - model.p
    log_coeff = math.lgamma(kr + sold) - math.lgamma(kr) - math.lgamma(sold + 1.0)
    return math.exp(log_coeff + kr * math.log(model.p) + sold * math.log(q))


def cf_p0k(model: DemandModel, m: int, k: int) -> float:
    """Closed-form stockout probability P(0, k)."""
    _require_parametric(model)
    if m < 1:
        raise ValueError(f"initial stock m must be >= 1, got {m!r}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k!r}")
    if isinstance(model, DeterministicDemand):
        return 1.0 if k * model.h >= m else 0.0
    if isinstance(model, PoissonDemand):
        return 1.0 - reg_upper_gamma(float(m), k * model.lam)
    if isinstance(model, BinomialDemand):
        # k*c - m + 1 <= 0 means at most m - 1 units can have sold: no stockout
        return _ibeta_or_zero(model.p, float(m), k * model.c - m + 1.0)
    if k == 0:
        return 0.0
    return reg_inc_beta(1.0 - model.p, float(m), k * model.r)


def cf_pf(model: DemandModel, m: int, k: int) -> float:
    """Closed-form frustrated-sales probability P_F(k) for day k >= 1."""
    _require_parametric(model)
    if m < 1:
        raise ValueError(f"initial stock m must be >= 1, got {m!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k!r}")
    if isinstance(model, DeterministicDemand):
        return 1.0 if m + 1 <= k * model.h <= m + model.h - 1 else 0.0
    if isinstance(model, PoissonDemand):
        lam = model.lam
        if k == 1:
            spike = 0.0
        else:
            spike = math.exp(m * math.log((k - 1) * lam) - k * lam - math.lgamma(m + 1.0))
        value = (
            spike
            + reg_upper_gamma(float(m), (k - 1) * lam)
            - reg_upper_gamma(float(m + 1), k * lam)
        )
    elif isinstance(model, BinomialDemand):
        q = 1.0 - model.p
        if q == 0.0:
            # all c customers buy every day: identical to deterministic demand
            if not model.has_integer_count:
                raise ValueError("binomial demand with p = 1 requires an integer customer count")
            h = round(model.c)
            return 1.0 if m + 1 <= k * h <= m + h - 1 else 0.0
        kc = k * model.c
        value = (
            _ibeta_or_zero(model.p, float(m + 1), kc - m)
            - _ibeta_or_zero(model.p, float(m), (k - 1) * model.c - m + 1.0)
            + _signed_coeff_times(
                (k - 1) * model.c, m, m * math.log(model.p) + (kc - m) * math.log(q)
            )
        )
    else:
        q = 1.0 - model.p
        kr = k * model.r
        value = (
            reg_inc_beta(q, float(m + 1), kr)
            - _ibeta_or_zero(q, float(m), (k - 1) * model.r)
            + _signed_coeff_times((k - 1) * model.r - 1.0 + m, m, kr * math.log(model.p) + m * math.log(q))
        )
    # signed terms can cancel into a value no probability takes (real c < m)
    if not -_PF_SLACK <= value <= 1.0 + _PF_SLACK:
        raise ConvergenceError(f"frustrated-sales probability escaped [0, 1]: {value!r}")
    return _clamp_pf(value)


def closed_form_curve(model: DemandModel, m: int, horizon: int) -> StockoutCurve:
    """Stockout curve assembled from the closed forms, mirroring the
    shape returned by the recursive engine."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon!r}")
    p0 = np.array([cf_p0k(model, m, k) for k in range(horizon + 1)])
    pf = np.array([0.0] + [cf_pf(model, m, k) for k in range(1, horizon + 1)])
    return StockoutCurve(m=m, horizon=horizon, p0=p0, pf=pf)
