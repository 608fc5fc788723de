"""Daily-demand distributions and their estimation from sales history.

A demand model exposes the per-day mass ``alpha(l)`` (probability of
selling exactly ``l`` units in a day) and the upper tail ``beta(n)``
(probability of demand for at least ``n`` units). ``beta(0)`` is 1
exactly for every model. Models are immutable once built.

``mass_arrays(top)`` is the one source of both as arrays, and ``beta``
reads it: every tail is the reverse sum of the day law, so only
non-negative terms are added. A parametric law is cut where the
closed-form kernel cuts the pmf of one day (``_support``) and closed by
its incomplete-beta remainder (``_remainder``); both rules live here so
that the recursion and the kernel read one copy. For a real customer
count ``c`` the terms past ``J = floor(c) + 1`` are signed, so the law
serves stocks ``m < c`` only; ``closed_form_curve`` gives the specified
value at every stock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date

import numpy as np

from .special import ConvergenceError, reg_inc_beta, signed_log_gen_binomial

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
    "moments_from_sums",
    "select_bnbp",
]

_INT_TOL = 1e-9
_POISSON_REL_TOL = 1e-9  # relative mean/variance gap that select_bnbp reads as Poisson
_SPREAD = 12.0  # standard deviations past the mean that the support always covers
_TAIL = 40.0  # dropped tail below exp(-_TAIL) of the last kept pmf term
_MAX_EXTRA = 1 << 16  # longest open tail past the levels and the bulk
_MAX_WIDTH = 1 << 20  # widest support computed for one day


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
    """Base class for discrete daily-demand distributions. ``mass_arrays``
    serves the three parametric families; any other model defines its own."""

    kind: str = "abstract"

    def alpha(self, l: int) -> float:
        """Probability of selling exactly ``l`` units within a day."""
        raise NotImplementedError

    def beta(self, n: int) -> float:
        """Probability of daily demand for at least ``n`` units; beta(0) = 1."""
        return 1.0 if n <= 0 else float(self.mass_arrays(n)[1][-1])

    def mass_arrays(self, top: int) -> tuple[np.ndarray, np.ndarray]:
        """``alpha(0 .. top - 1)`` and ``beta(1 .. top)`` as arrays. The
        alphas of the day law, from the family's ``alpha``, are cut at the
        kernel's support for day 1 and closed by its remainder, and each
        beta is their reverse cumulative sum. A real customer count ``c``
        takes ``top < c + 1`` only."""
        if isinstance(self, BinomialDemand) and not self.has_integer_count and top >= self.c + 1.0:
            raise ValueError(
                f"a real customer count c={self.c!r} has signed daily masses past "
                f"{math.floor(self.c) + 1} units, so the recursion takes stocks m < c; "
                "closed_form_curve gives the specified value at every stock"
            )
        width, closed = _support(self, 1.0, top)
        J, remainder = _remainder(self, 1.0, width, closed) or (width, 0.0)
        law = np.array([self.alpha(j) for j in range(J)] + [remainder])
        tails = np.cumsum(law[::-1])[::-1]
        # each lgamma alpha is off by some 1e-14 relative, so the law sums
        # to 1 only that closely: scaled by its sum, every tail is at most 1
        # and no larger than the one before
        law, tails = law / tails[0], tails / tails[0]
        alphas, betas = np.zeros(top), np.zeros(top)
        head = min(top, J)
        alphas[:head], betas[:head] = law[:head], tails[1 : head + 1]
        return alphas, betas

    def over(self, days: int) -> "DemandModel":
        """The law of the demand over ``days`` days, in the model's own
        family: the parametric families are closed under convolution, and
        any other model has no closed form."""
        raise ValueError(f"no closed form for demand kind {self.kind!r}; use the recursive engine")

    def mean(self) -> float:
        raise NotImplementedError

    def variance(self) -> float:
        raise NotImplementedError


class FrequentistDemand(DemandModel):
    """Empirical demand from observed daily-sales frequencies.

    Mass above the largest observed count is zero, and so is every tail
    past it. When built from integer day counts the tails come from exact
    integer arithmetic.
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
        # tails[n] = P(demand >= n), summed from the largest count down
        self._tails = np.r_[np.cumsum(masses[::-1])[::-1], 0.0]

    @classmethod
    def from_counts(cls, counts) -> "FrequentistDemand":
        try:
            counts = np.asarray(counts, dtype=np.int64)
        except OverflowError:
            past = next(c for c in counts if not -(2**63) <= c < 2**63)
            raise ValueError(f"count {past} is past int64") from None
        if counts.ndim != 1 or counts.size == 0:
            raise ValueError("counts must be a non-empty 1-d sequence")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        total = sum(counts.tolist())  # exact: an int64 sum would wrap
        if total == 0:
            raise ValueError("counts must cover at least one day")
        if total >= 2**63:
            raise ValueError(f"counts total {total} is past int64")
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

    def mass_arrays(self, top: int) -> tuple[np.ndarray, np.ndarray]:
        # the stored floats themselves, zero past the support
        alphas, tails = np.zeros(top), np.zeros(top)
        head = self._masses[:top]
        alphas[: head.size] = head
        head = self._tails[1 : top + 1]
        tails[: head.size] = head
        return alphas, tails

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

    def mass_arrays(self, top: int) -> tuple[np.ndarray, np.ndarray]:
        units = np.arange(top)
        return (units == self.h).astype(float), (units < self.h).astype(float)

    def over(self, days: int) -> "DeterministicDemand":
        return DeterministicDemand(h=days * self.h)

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

    def over(self, days: int) -> "PoissonDemand":
        return PoissonDemand(lam=days * self.lam)

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

    def over(self, days: int) -> "BinomialDemand":
        return BinomialDemand(c=days * self.c, p=self.p)

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

    def over(self, days: int) -> "NegativeBinomialDemand":
        return NegativeBinomialDemand(r=days * self.r, p=self.p)

    def mean(self) -> float:
        return self.r * (1.0 - self.p) / self.p

    def variance(self) -> float:
        return self.r * (1.0 - self.p) / self.p**2


def _support(model: DemandModel, day: float, top: int) -> tuple[int, bool]:
    """Width of the support kept for ``S_day`` and every earlier day,
    covering each level up to ``top``, and whether its last column holds
    the remainder ``P(S >= width - 1)``. A binomial support stops one
    column past ``J = floor(kc) + 1``; that column is 0, as is
    ``P(S >= m)`` for every level ``m`` past ``J``. Past ``start`` the pmf ratio
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
    elif isinstance(model, BinomialDemand):
        kc, p = day * model.c, model.p
        last = math.floor(kc) + 1  # where the incomplete-beta remainder sits
        start = max(top, math.ceil(kc * p + _SPREAD * math.sqrt(kc * p * (1.0 - p))))
        if start + 1 >= last:
            return min(max(top, last), last + 1) + 1, False
        ratio = p / (1.0 - p) * (kc - start) / (start + 1.0)
    else:
        raise ValueError(f"no closed form for demand kind {model.kind!r}; use the recursive engine")
    if ratio >= 1.0:  # rounded to 1 past a mean of about 4e34: no tail bound holds
        raise ConvergenceError(f"stockout tail needs more than {_MAX_WIDTH} support terms for {model}")
    extra = math.ceil((_TAIL - math.log1p(-ratio)) / -math.log(ratio))
    closed = isinstance(model, NegativeBinomialDemand) and extra > _MAX_EXTRA
    width = top + 2 if closed else start + 1 + extra
    if width > _MAX_WIDTH:
        raise ConvergenceError(f"stockout tail needs {width} support terms for {model}")
    return width, closed


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
    return moments_from_sums(len(quantities), sum(quantities), sum(q * q for q in quantities), ddof)


def moments_from_sums(n: int, total: int, total_sq: int, ddof: int = 0) -> MomentEstimates:
    """``moments_from_quantities`` of ``n`` recorded days from their exact
    integer sum and sum of squares."""
    if n - ddof <= 0:
        raise ValueError(f"need more than {ddof} recorded days for ddof={ddof}")
    mean = total / n
    variance = (n * total_sq - total * total) / (n * n if ddof == 0 else n * (n - ddof))
    return MomentEstimates(mean=mean, variance=max(0.0, variance), n_days=n)


def select_bnbp(moments: MomentEstimates) -> DemandModel:
    """Pick the demand family by the mean/variance relationship.

    Binomial when the mean exceeds the variance, Negative Binomial in
    the opposite case, Poisson when they agree within 1e-9 relative, and
    the degenerate constant-sales case maps to the deterministic model.
    """
    x, s2 = moments.mean, moments.variance
    if x <= 0.0:
        raise ZeroMeanError("training window has no sales; demand model undefined")
    if s2 == 0.0:
        return DeterministicDemand(h=round(x))
    if abs(s2 - x) <= _POISSON_REL_TOL * max(x, s2):
        return PoissonDemand(lam=x)
    if x > s2:
        return BinomialDemand(c=x * x / (x - s2), p=1.0 - s2 / x)
    return NegativeBinomialDemand(r=x * x / (s2 - x), p=x / s2)
