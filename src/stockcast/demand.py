"""Daily-demand distributions and their estimation from sales history.

A demand model exposes the per-day mass ``alpha(l)`` (probability of
selling exactly ``l`` units in a day) and the upper tail ``beta(n)``
(probability of demand for at least ``n`` units). ``beta(0)`` is 1
exactly for every model. Models are immutable once built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date

import numpy as np

from .special import reg_inc_beta, reg_upper_gamma, signed_log_gen_binomial

__all__ = [
    "DemandModel",
    "FrequentistDemand",
    "DeterministicDemand",
    "PoissonDemand",
    "BinomialDemand",
    "NegativeBinomialDemand",
    "SalesSeries",
    "MomentEstimates",
    "EmptySeriesError",
    "ZeroMeanError",
    "fit_frequentist",
    "estimate_moments",
    "moments_from_quantities",
    "select_bnbp",
]

_INT_TOL = 1e-9


class EmptySeriesError(ValueError):
    """A sales series with no recorded days cannot be fitted."""


class ZeroMeanError(ValueError):
    """Moment-based selection is undefined when training sales are all zero."""


@dataclass(frozen=True)
class SalesSeries:
    """Per-SKU daily sales over a calendar window.

    Only recorded days are stored; days on which the SKU was not offered
    are absent rather than zero.
    """

    sku: int | str
    days: tuple[tuple[date, int], ...]

    def __post_init__(self) -> None:
        prev = None
        for day, qty in self.days:
            if prev is not None and day <= prev:
                raise ValueError(f"dates must be strictly increasing, got {day} after {prev}")
            if qty < 0 or qty != int(qty):
                raise ValueError(f"sold quantity must be a non-negative integer, got {qty!r}")
            prev = day

    @property
    def quantities(self) -> list[int]:
        return [int(q) for _, q in self.days]

    @property
    def n_days(self) -> int:
        return len(self.days)

    @property
    def days_with_sales(self) -> int:
        return sum(1 for _, q in self.days if q > 0)


@dataclass(frozen=True)
class MomentEstimates:
    """Sample mean and variance of daily sales over recorded days."""

    mean: float
    variance: float
    n_days: int


class DemandModel:
    """Base class for discrete daily-demand distributions."""

    kind: str = "abstract"

    def alpha(self, l: int) -> float:
        """Probability of selling exactly ``l`` units within a day."""
        raise NotImplementedError

    def beta(self, n: int) -> float:
        """Probability of daily demand for at least ``n`` units; beta(0) = 1."""
        if n <= 0:
            return 1.0
        return max(0.0, 1.0 - math.fsum(self.alpha(j) for j in range(n)))

    def mean(self) -> float:
        raise NotImplementedError

    def variance(self) -> float:
        raise NotImplementedError


class FrequentistDemand(DemandModel):
    """Empirical demand from observed daily-sales frequencies.

    Mass above the largest observed count is zero. When built from
    integer day counts the tail ``beta`` is computed from exact integer
    arithmetic, so it vanishes identically beyond the support.
    """

    kind = "frequentist"

    def __init__(self, masses) -> None:
        masses = np.asarray(masses, dtype=float)
        if masses.ndim != 1 or masses.size == 0:
            raise ValueError("masses must be a non-empty 1-d sequence")
        if np.any(masses < 0.0):
            raise ValueError("masses must be non-negative")
        total = math.fsum(masses.tolist())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"masses must sum to 1, got {total!r}")
        self._masses = masses
        # tails[n] = P(demand >= n); forced to 0 beyond the support
        cum = [math.fsum(masses[:n].tolist()) for n in range(masses.size + 1)]
        self._tails = np.array([max(0.0, 1.0 - c) for c in cum])
        self._tails[-1] = 0.0

    @classmethod
    def from_counts(cls, counts) -> "FrequentistDemand":
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 1 or counts.size == 0:
            raise ValueError("counts must be a non-empty 1-d sequence")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        total = int(counts.sum())
        if total == 0:
            raise ValueError("counts must cover at least one day")
        model = cls.__new__(cls)
        model._masses = counts / total
        partial = np.concatenate(([0], np.cumsum(counts)))
        model._tails = (total - partial) / total
        return model

    @property
    def masses(self) -> np.ndarray:
        return self._masses.copy()

    def alpha(self, l: int) -> float:
        if l < 0 or l >= self._masses.size:
            return 0.0
        return float(self._masses[l])

    def beta(self, n: int) -> float:
        if n <= 0:
            return 1.0
        if n >= self._tails.size:
            return 0.0
        return float(self._tails[n])

    def mean(self) -> float:
        return float(np.dot(np.arange(self._masses.size), self._masses))

    def variance(self) -> float:
        support = np.arange(self._masses.size)
        mu = self.mean()
        return float(np.dot((support - mu) ** 2, self._masses))

    def __repr__(self) -> str:
        return f"FrequentistDemand(masses={self._masses.tolist()!r})"


@dataclass(frozen=True)
class DeterministicDemand(DemandModel):
    """Exactly ``h`` units sold every day."""

    h: int
    kind = "deterministic"

    def __post_init__(self) -> None:
        if self.h < 1 or self.h != int(self.h):
            raise ValueError(f"h must be an integer >= 1, got {self.h!r}")

    def alpha(self, l: int) -> float:
        return 1.0 if l == self.h else 0.0

    def beta(self, n: int) -> float:
        return 1.0 if n <= self.h else 0.0

    def mean(self) -> float:
        return float(self.h)

    def variance(self) -> float:
        return 0.0


@dataclass(frozen=True)
class PoissonDemand(DemandModel):
    """Poisson daily demand with rate ``lam`` (average daily sales)."""

    lam: float
    kind = "poisson"

    def __post_init__(self) -> None:
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"lam must be positive and finite, got {self.lam!r}")

    def alpha(self, l: int) -> float:
        if l < 0:
            return 0.0
        return math.exp(l * math.log(self.lam) - self.lam - math.lgamma(l + 1.0))

    def beta(self, n: int) -> float:
        if n <= 0:
            return 1.0
        return 1.0 - reg_upper_gamma(float(n), self.lam)

    def mean(self) -> float:
        return self.lam

    def variance(self) -> float:
        return self.lam


@dataclass(frozen=True)
class BinomialDemand(DemandModel):
    """Binomial daily demand: ``c`` independent customers, each buying a
    single unit with probability ``p``.

    ``c`` is kept real-valued so that moment-based fits plug in
    directly; coefficients generalize through the Gamma function.
    """

    c: float
    p: float
    kind = "binomial"

    def __post_init__(self) -> None:
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise ValueError(f"c must be positive and finite, got {self.c!r}")
        if not (0.0 < self.p <= 1.0):
            raise ValueError(f"p must lie in (0, 1], got {self.p!r}")

    @property
    def has_integer_count(self) -> bool:
        return abs(self.c - round(self.c)) <= _INT_TOL

    def alpha(self, l: int) -> float:
        if l < 0:
            return 0.0
        q = 1.0 - self.p
        if q == 0.0:
            # every customer buys; only an integral customer count is meaningful
            return 1.0 if self.has_integer_count and l == round(self.c) else 0.0
        if self.has_integer_count and l > round(self.c):
            return 0.0
        sign, log_mag = signed_log_gen_binomial(self.c, l)
        if sign == 0.0:
            return 0.0
        return sign * math.exp(log_mag + l * math.log(self.p) + (self.c - l) * math.log(q))

    def beta(self, n: int) -> float:
        if n <= 0:
            return 1.0
        q = 1.0 - self.p
        if q == 0.0:
            return 1.0 if self.has_integer_count and n <= round(self.c) else 0.0
        b = self.c - n + 1.0
        if b > 0.0:
            return reg_inc_beta(self.p, float(n), b)
        if self.has_integer_count:
            return 0.0
        # analytic continuation for a real customer count: finite complement
        return 1.0 - math.fsum(self.alpha(j) for j in range(n))

    def mean(self) -> float:
        return self.c * self.p

    def variance(self) -> float:
        return self.c * self.p * (1.0 - self.p)


@dataclass(frozen=True)
class NegativeBinomialDemand(DemandModel):
    """Negative Binomial daily demand with shape ``r`` and no-sale
    probability ``p`` per visit (``q = 1 - p`` sells one unit)."""

    r: float
    p: float
    kind = "negative_binomial"

    def __post_init__(self) -> None:
        if not (self.r > 0.0 and math.isfinite(self.r)):
            raise ValueError(f"r must be positive and finite, got {self.r!r}")
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"p must lie in (0, 1), got {self.p!r}")

    def alpha(self, l: int) -> float:
        if l < 0:
            return 0.0
        q = 1.0 - self.p
        return math.exp(
            math.lgamma(self.r + l)
            - math.lgamma(self.r)
            - math.lgamma(l + 1.0)
            + self.r * math.log(self.p)
            + l * math.log(q)
        )

    def beta(self, n: int) -> float:
        if n <= 0:
            return 1.0
        return reg_inc_beta(1.0 - self.p, float(n), self.r)

    def mean(self) -> float:
        return self.r * (1.0 - self.p) / self.p

    def variance(self) -> float:
        return self.r * (1.0 - self.p) / self.p**2


def fit_frequentist(train: SalesSeries) -> FrequentistDemand:
    """Empirical demand: frequency of each daily-sales count over the
    recorded training days. Days absent from the series do not count."""
    if train.n_days == 0:
        raise EmptySeriesError(f"series {train.sku!r} has no recorded days")
    quantities = train.quantities
    counts = np.bincount(quantities, minlength=max(quantities) + 1)
    return FrequentistDemand.from_counts(counts)


def estimate_moments(train: SalesSeries, ddof: int = 0) -> MomentEstimates:
    """Sample mean and variance of daily sales.

    The default divisor is ``n`` (``ddof=0``); pass ``ddof=1`` for the
    unbiased variant. The choice can flip the fitted family for
    near-equidispersed series.
    """
    if train.n_days == 0:
        raise EmptySeriesError(f"series {train.sku!r} has no recorded days")
    return moments_from_quantities(train.quantities, ddof)


def moments_from_quantities(quantities: list[int], ddof: int = 0) -> MomentEstimates:
    """``estimate_moments`` over bare daily quantities, with exact integer
    sums up to the final division."""
    n = len(quantities)
    if n - ddof <= 0:
        raise ValueError(f"need more than {ddof} recorded days for ddof={ddof}")
    total = sum(quantities)
    total_sq = sum(q * q for q in quantities)
    mean = total / n
    variance = (n * total_sq - total * total) / (n * n if ddof == 0 else n * (n - ddof))
    return MomentEstimates(mean=mean, variance=max(0.0, variance), n_days=n)


def select_bnbp(moments: MomentEstimates, rel_tol: float = 1e-9) -> DemandModel:
    """Pick the demand family by the mean/variance relationship.

    Binomial when the mean exceeds the variance, Negative Binomial in
    the opposite case, Poisson when they agree within ``rel_tol``
    relative, and the degenerate constant-sales case maps to the
    deterministic model.
    """
    x, s2 = moments.mean, moments.variance
    if x <= 0.0:
        raise ZeroMeanError("training window has no sales; demand model undefined")
    if s2 == 0.0:
        return DeterministicDemand(h=round(x))
    if abs(s2 - x) <= rel_tol * max(x, s2):
        return PoissonDemand(lam=x)
    if x > s2:
        return BinomialDemand(c=x * x / (x - s2), p=1.0 - s2 / x)
    return NegativeBinomialDemand(r=x * x / (s2 - x), p=x / s2)
