"""Daily-demand distributions and their estimation from sales history.

A demand model exposes the per-day mass ``alpha(l)`` (probability of
selling exactly ``l`` units in a day) and the upper tail ``beta(n)``
(probability of demand for at least ``n`` units). ``beta(0)`` is 1
exactly for every model. Models are immutable once built.

``mass_arrays(top)`` is the one source of both as arrays, and ``beta``
reads it: every tail is the reverse sum of the day law, so only
non-negative terms are added. A parametric law is cut where the
closed-form kernel cuts the pmf of one day (``_support``) and closed by
its incomplete-beta remainder (``_remainder``); both rules live here,
array-valued over models and days, so that the recursion (one model,
one day) and the kernel (every (model, day) row of a block) read one
copy. For a real customer count ``c`` the terms past ``J = floor(c) + 1``
are signed, so the law serves stocks ``m < c`` only;
``closed_form_curve`` gives the specified value at every stock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import ConvergenceError, reg_inc_beta_lanes, signed_log_gen_binomial

__all__ = [
    "DemandModel",
    "FrequentistDemand",
    "DeterministicDemand",
    "PoissonDemand",
    "BinomialDemand",
    "NegativeBinomialDemand",
    "MomentEstimates",
    "ZeroMeanError",
    "fit_columns",
    "moments_from_sums",
    "select_bnbp",
]

_INT_TOL = 1e-9
_POISSON_REL_TOL = 1e-9  # relative mean/variance gap that select_bnbp reads as Poisson
_SPREAD = 12.0  # standard deviations past the mean that the support always covers
_TAIL = 40.0  # dropped tail below exp(-_TAIL) of the last kept pmf term
_MAX_EXTRA = 1 << 16  # longest open tail past the levels and the bulk
_MAX_WIDTH = 1 << 20  # widest support computed for one day


class ZeroMeanError(ValueError):
    """Moment-based selection is undefined when training sales are all zero."""


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
        width, closed = _support([self], [1], [top])
        (J,), (remainder,) = (v.tolist() for v in _remainder([self], [0], np.ones(1), width[0], closed[0]))
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
    """Empirical demand from ``counts[l]``, the number of observed days
    with exactly ``l`` units sold.

    Mass above the largest observed count is zero, and so is every tail
    past it. The tails come from exact integer arithmetic.
    """

    kind = "frequentist"

    def __init__(self, counts) -> None:
        counts = np.asarray(counts)
        if counts.ndim != 1 or counts.size == 0:
            raise ValueError("counts must be a non-empty 1-d sequence")
        days = counts.tolist()
        for count in days:
            if not (isinstance(count, int) or isinstance(count, float) and count.is_integer()):
                raise ValueError(f"count {count!r} is not a whole number of days")
        if min(days) < 0:
            raise ValueError("counts must be non-negative")
        if max(days) >= 2**63:
            raise ValueError(f"count {max(days)} is past int64")
        total = sum(map(int, days))  # exact: an int64 sum would wrap
        if total == 0:
            raise ValueError("counts must cover at least one day")
        if total >= 2**63:
            raise ValueError(f"counts total {total} is past int64")
        counts = np.array(days, dtype=np.int64)
        self._masses = counts / total
        partial = np.concatenate(([0], np.cumsum(counts)))
        self._tails = (total - partial) / total

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
        return f"<FrequentistDemand masses={self._masses.tolist()!r}>"


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


def _support(models, days, tops) -> tuple[np.ndarray, np.ndarray]:
    """Widths of the supports kept for ``S_day``, one row per model of
    ``models`` (all of one family) and one column per day of ``days`` (a
    scalar caller passes one), each covering every level up to the
    model's top in ``tops``, and whether each last column holds the
    remainder ``P(S >= width - 1)``. A binomial support stops one column
    past ``J = floor(kc) + 1``; that column is 0, as is ``P(S >= m)`` for
    every level ``m`` past ``J``. Past ``start`` the pmf ratio
    pmf(s + 1) / pmf(s) stays below ``ratio``, so the terms past an open
    support add up to less than exp(-_TAIL) of the term at ``start``,
    itself no larger than any row it serves. A negative binomial tail too
    slow for that (q near 1, or a shape so large that the ratio rounds to
    1) is closed by one incomplete-beta remainder, and when the last of
    ``days`` is closed, every day keeps its closed width. A support that
    cannot be bounded raises, naming the first model that has one."""
    model = models[0]
    days = np.array(days, dtype=float, ndmin=1)
    top = np.array(tops, dtype=float)[:, None]
    bounded = np.ones((len(models), days.size), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        if isinstance(model, PoissonDemand):
            mean = days * np.array([model.lam for model in models])[:, None]
            start = np.maximum(top, np.ceil(mean + _SPREAD * np.sqrt(mean)))
            ratio = mean / (start + 1.0)
        elif isinstance(model, NegativeBinomialDemand):
            r, p = np.array([(model.r, model.p) for model in models]).T[:, :, None]
            shape, q = days * r, 1.0 - p
            mean = shape * q / p
            start = np.maximum(top, np.ceil(mean + _SPREAD * np.sqrt(mean / p)))
            ratio = q * np.maximum(1.0, (shape + start) / (start + 1.0))
        elif isinstance(model, BinomialDemand):
            c, p = np.array([(model.c, model.p) for model in models]).T[:, :, None]
            kc = days * c
            last = np.floor(kc) + 1.0  # where the incomplete-beta remainder sits
            start = np.maximum(top, np.ceil(kc * p + _SPREAD * np.sqrt(kc * p * (1.0 - p))))
            # a support that reaches J stops one column past it, with no bound to check
            bounded = start + 1.0 < last
            ratio = np.where(bounded, p / (1.0 - p) * (kc - start) / (start + 1.0), 0.0)
        else:
            raise ValueError(f"no closed form for demand kind {model.kind!r}; use the recursive engine")
        # a ratio rounded to 1 (past a mean of about 4e34) bounds no tail
        extra = np.where(ratio < 1.0, np.ceil((_TAIL - np.log1p(-ratio)) / -np.log(ratio)), np.inf)
    widths = start + 1.0 + extra
    closed = np.zeros(widths.shape, dtype=bool)
    if isinstance(model, NegativeBinomialDemand):
        closed |= extra > _MAX_EXTRA
        closed |= closed[:, -1:]
        widths = np.where(closed, top + 2.0, widths)
    elif isinstance(model, BinomialDemand):
        widths = np.where(bounded, widths, np.minimum(np.maximum(top, last), last + 1.0) + 1.0)
    wide = np.isinf(widths) | (bounded & (widths > _MAX_WIDTH))
    if wide.any():
        i = int(np.flatnonzero(wide.any(axis=1))[0])
        need = f"more than {_MAX_WIDTH}" if np.isinf(widths[i]).any() else int(widths[i][bounded[i]].max())
        raise ConvergenceError(f"stockout tail needs {need} support terms for {models[i]}")
    return widths.astype(np.int64), closed


def _remainder(models, owner: np.ndarray, days: np.ndarray, widths: np.ndarray, closed: np.ndarray):
    """Columns ``J`` and values of the incomplete-beta remainders that close
    the supports of ``S_day``, one per row (model ``models[owner]``, day
    ``days``, its width and flag from ``_support``); a row whose support
    stays open gets its width and 0. The models are of one family, and
    every remainder comes from one ``reg_inc_beta_lanes`` pass."""
    model = models[0]
    if isinstance(model, BinomialDemand):
        c, p = np.array([(model.c, model.p) for model in models]).T[:, owner]
        kc = days * c
        J = np.floor(kc) + 1.0
        closing = J < widths
        # sum_{j < J} C(kc, j) p^j q^(kc - j) + I_p(J, kc - J + 1) = 1, and an
        # integer kc has no terms past J - 1 = kc
        lanes, x, b = closing & (J - 1.0 != kc), p, kc - J + 1.0
    elif isinstance(model, NegativeBinomialDemand):
        r, p = np.array([(model.r, model.p) for model in models]).T[:, owner]
        closing = lanes = closed
        J, x, b = widths - 1.0, 1.0 - p, days * r
    else:
        return widths, np.zeros(widths.shape)
    remainders = np.zeros(widths.shape)
    if lanes.any():
        remainders[lanes] = reg_inc_beta_lanes(x[lanes], J[lanes], b[lanes])
    return np.where(closing, J, widths).astype(np.int64), remainders


def moments_from_sums(n: int, total: int, total_sq: int, ddof: int = 0) -> MomentEstimates:
    """Sample mean and variance of ``n`` recorded days from their exact
    integer sum and sum of squares. The default divisor is ``n``
    (``ddof=0``); pass ``ddof=1`` for the unbiased variant. The choice
    can flip the fitted family for near-equidispersed series."""
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


def fit_columns(qty, days, tags, ddof: int = 0, tops=None) -> tuple[dict, list | None]:
    """Demand models fitted from training quantities: ``qty`` holds the
    units sold on each recorded day, SKU after SKU, ``days[i]`` of them
    (at least one) for SKU ``i``. Days absent from the column do not
    count. Each fitted tag of ``tags`` maps to one model per SKU:

    - nfq: the frequency of each daily count, exact up to the SKU's top
      stock level in ``tops``, which nfq needs. A sweep to level ``m``
      reads ``alpha(0 .. m - 1)`` and ``beta(1 .. m)``, so the days past
      it share its bin;
    - poisson: the rate at the mean, whatever the variance divisor;
    - bnbp: the family that ``select_bnbp`` picks from the moments under
      ``ddof``.

    A model is None where the moments are degenerate: no sales (poisson
    and bnbp), or no more days than ``ddof`` (bnbp). With bnbp, the
    ``MomentEstimates`` that chose each family come second, None where
    the variance is undefined; otherwise None. Every sum is exact."""
    qty = np.asarray(qty, dtype=np.int64)
    n = np.asarray(days, dtype=np.int64)
    first = np.cumsum(n) - n
    fits, moments = {}, None
    if "nfq" in tags:
        # the days of each quantity, per SKU, from one bincount over (SKU, quantity)
        if tops is None:
            raise ValueError("nfq needs a top stock level per SKU")
        sold = np.minimum(qty, np.repeat(tops, n))
        most = np.maximum.reduceat(sold, first)
        offset = np.cumsum(most + 1) - (most + 1)
        counts = np.bincount(np.repeat(offset, n) + sold, minlength=int(offset[-1] + most[-1] + 1))
        bounds = zip(offset.tolist(), (offset + most + 1).tolist())
        fits["nfq"] = [FrequentistDemand(counts[a:b]) for a, b in bounds]
    totals, n_days = np.add.reduceat(qty, first).tolist(), n.tolist()
    if "poisson" in tags:
        fits["poisson"] = [PoissonDemand(lam=t / d) if t else None for t, d in zip(totals, n_days)]
    if "bnbp" in tags:
        # an int64 sum of squares is exact while n * top**2 < 2**62; past that, Python ints
        squares = np.add.reduceat(qty * qty, first).tolist()
        top = np.maximum.reduceat(qty, first)
        for i in np.flatnonzero(n * top.astype(float) ** 2 >= 2.0**62).tolist():
            squares[i] = sum(q * q for q in qty[first[i] : first[i] + n[i]].tolist())
        moments = [moments_from_sums(d, t, sq, ddof) if d > ddof else None for d, t, sq in zip(n_days, totals, squares)]
        fits["bnbp"] = [None if est is None or t == 0 else select_bnbp(est) for est, t in zip(moments, totals)]
    return fits, moments
