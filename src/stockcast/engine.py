"""Exact recursive computation of the stock-level distribution.

Given a demand model and an initial stock of ``m`` units, the lattice
``P(n, k)`` is the probability of holding ``n`` units at the end of day
``k``. A stock ``n >= 1`` means exactly ``m - n`` units were sold, so the
lattice is one sweep of the sold-units mass, convolved each day with the
demand mass and cut at ``m`` (a truncated convolution power, Panjer 1981).
One sweep cut at the largest of several stocks reads the stockout
probability ``P(0, k)`` of each. ``closed_form.stockout_tail_block``
hands its empirical (frequentist) models to this sweep, so every caller
reads one block kernel whatever the law. A curve of either route reads
the rows of ``m`` and ``m + 1`` and forms from them the frustrated-sales
probability ``P_F(k)`` (demand exceeding a still-positive stock).
A law that sells ``f`` to ``l`` units a day holds the mass of day ``k``
only on ``[k f, k l]``, so each day convolves that live band alone, and
a band past the cut holds no mass. A block of models keeps every
model's mass in one flat buffer, advanced model by model, and each day
one gather over the block reads every (model, stock) pair's increment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .demand import DemandModel
from .special import _UNIT_SLACK, ConvergenceError

__all__ = [
    "StockoutCurve",
    "solve_recursive",
    "stockout_rows_block",
    "frustrated_sales_via_pfk",
    "monte_carlo_oracle",
]

_MC_BATCH = 250_000  # Monte Carlo trials simulated at once


@dataclass(frozen=True)
class StockoutCurve:
    """Stockout and frustrated-sales probabilities over a horizon.

    ``p0[k]`` is the probability of having stocked out by day ``k`` and
    ``pf[k]`` the probability of frustrated sales on day ``k``; both run
    over ``k = 0 .. horizon`` with ``p0[0] = pf[0] = 0``. ``lattice``,
    on the curves of ``solve_recursive`` alone, holds in ``lattice[n, k]``
    the probability of ``n`` units in stock on day ``k`` for
    ``0 <= n <= m``.
    """

    m: int
    horizon: int
    p0: np.ndarray
    pf: np.ndarray
    lattice: np.ndarray | None = None


def _horizon(horizon: int) -> int:
    if horizon != int(horizon) or horizon < 1:
        raise ValueError(f"horizon must be an integer >= 1, got {horizon!r}")
    return int(horizon)


def _stock_levels(stock_levels) -> np.ndarray:
    """Initial stocks as an int array (of the shape given); each must be
    an integer >= 1 and below 2^53, past which a float skips integers."""
    message = "initial stock m must be an integer >= 1 and below 2^53, got {}"
    try:
        levels = np.asarray(stock_levels, dtype=float)
    except OverflowError:  # an int past the float range
        raise ValueError(message.format(max(np.ravel(stock_levels).tolist()))) from None
    bad = ~np.isfinite(levels) | (levels < 1) | (levels != np.floor(levels)) | (levels >= 2.0**53)
    if bad.any():
        raise ValueError(message.format(f"{levels[bad][0]:.17g}"))
    return levels.astype(int)


def _level_lists(level_lists) -> tuple[np.ndarray, list]:
    """The stock levels of every model, checked at once and joined, and
    the slice of each model's levels."""
    sizes = [np.size(lv) for lv in level_lists]
    levels = _stock_levels(np.concatenate([np.ravel(lv) for lv in level_lists]) if sizes else [])
    bounds = np.cumsum([0, *sizes]).tolist()
    return levels, [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _head(values: np.ndarray) -> np.ndarray:
    # up to the last non-zero entry, keeping one, so convolutions skip a vanishing tail
    nonzero = np.flatnonzero(values)
    return values[: nonzero[-1] + 1 if nonzero.size else 1]


def _band_law(alphas: np.ndarray, start: int, top: int) -> tuple:
    """``_advance``'s entry for the day law ``alphas`` cut at ``top``,
    whose sold-units mass is ``mass[start : start + top]``: the start, the
    first and last unit counts with mass below the top, the end of the
    mass, and the day masses between those counts in reverse."""
    atoms = np.flatnonzero(alphas[:top])
    if not atoms.size:  # every day sells the top or more: no mass is left after day 1
        return start, top, top, start + top, alphas[:0]
    first, last = int(atoms[0]), int(atoms[-1])
    return start, first, last, start + top, alphas[first : last + 1][::-1].copy()


def _advance(mass: np.ndarray, laws, day: int) -> None:
    """Carry each law's sold-units mass in ``mass`` from the end of day
    ``day`` to the end of the next day, in place. A law that sells
    ``first`` to ``last`` units a day holds mass only on its band
    ``[day * first, day * last]``, so the day is one convolution of that
    band with the law's atoms (``np.correlate`` with them reversed, which
    skips ``np.convolve``'s argument checks), written ``first`` units up
    and cut at the top. A band past the top has no mass left."""
    for start, first, last, end, reversed_atoms in laws:
        lo = start + day * first
        if lo >= end:
            continue
        hi = start + day * last + 1
        if hi > end:
            hi = end
        if lo + first >= end:
            mass[lo:hi] = 0.0
            continue
        band = np.correlate(mass[lo:hi], reversed_atoms, "full")
        if first:
            mass[lo : lo + first] = 0.0
        if hi + last <= end:
            mass[lo + first : hi + last] = band
        else:
            mass[lo + first : end] = band[: end - lo - first]


def _curve(kernel, model: DemandModel, m: int, horizon: int) -> StockoutCurve:
    """The curve of stock ``m`` from the rows of ``m`` and ``m + 1`` of
    ``kernel``, a stockout-row block kernel. A sale is frustrated on day
    ``k`` when ``S_{k-1} < m < S_k``, ``S_k`` the demand over ``k`` days,
    so with ``alpha_0`` the zero-sale probability
    ``P_F(k) = P(S_k >= m+1) - (1 - alpha_0) P(S_{k-1} >= m) - alpha_0 P(S_{k-1} >= m+1)``."""
    m, horizon = int(_stock_levels(m)), _horizon(horizon)
    if m + 1 >= 2**53:
        raise ValueError(f"a curve also reads stock m + 1, so initial stock m must be below 2^53 - 1, got {m}")
    # column k is day k; day 0 has S_0 = 0, below every stock
    rows = np.pad(kernel([model], [[m, m + 1]], horizon), ((0, 0), (1, 0)))
    alpha0 = model.alpha(0)
    pf = rows[1, 1:] - (1.0 - alpha0) * rows[0, :-1] - alpha0 * rows[1, :-1]
    # a real customer count can leave the identity outside any probability
    escaped = np.flatnonzero(~((pf >= -_UNIT_SLACK) & (pf <= 1.0 + _UNIT_SLACK)))
    if escaped.size:
        day = int(escaped[0])
        raise ConvergenceError(f"frustrated-sales probability escaped [0, 1] on day {day + 1}: {float(pf[day])!r}")
    # roundoff below zero is clamped to 0
    pf = np.r_[0.0, np.where(pf < 0.0, 0.0, pf)]
    return StockoutCurve(m=m, horizon=horizon, p0=rows[0], pf=pf)


def solve_recursive(model: DemandModel, m: int, horizon: int) -> StockoutCurve:
    """The recursion's curve, ``_curve`` read off ``stockout_rows_block``,
    with its full O(m * horizon) lattice swept from P(n, 0) = 1{n = m}.
    The daily law is ``model.mass_arrays(m + 1)``, so a real customer
    count ``c`` takes stocks ``m < c``."""
    curve = _curve(stockout_rows_block, model, m, horizon)
    m, horizon = curve.m, curve.horizon
    lattice = np.zeros((m + 1, horizon + 1))
    lattice[0], lattice[m, 0] = curve.p0, 1.0
    laws = [_band_law(model.mass_arrays(m + 1)[0], 0, m)]
    for k in range(horizon):
        # stock n holds the mass of m - n units sold
        lattice[1:, k + 1] = lattice[1:, k]
        _advance(lattice[:0:-1, k + 1], laws, k)
    return StockoutCurve(m=m, horizon=horizon, p0=curve.p0, pf=curve.pf, lattice=lattice)


def stockout_rows_block(models, level_lists, horizon: int) -> np.ndarray:
    """``P(0, k | m)`` for ``k = 1..horizon``, one row per level of each
    model in turn, stacked: each row is ``solve_recursive(model, m,
    horizon).p0[1:]``, up to roundoff. Each model's sold-units mass is
    swept alone up to its largest level; each day, every pair's increment
    is the window of that mass below its level weighed by the model's
    tails and summed over the pair's own window, so a model's rows do not
    depend on the other models of the block."""
    horizon = _horizon(horizon)
    levels, slices = _level_lists(level_lists)
    laws, index, weight, widths, offset = [], [], [], [], 0
    for model, at in zip(models, slices):
        if at.start == at.stop:
            continue
        top = int(levels[at].max())
        alphas, tails = model.mass_arrays(top)
        laws.append(_band_law(alphas, offset, top))
        tails = _head(tails)
        # having sold s, demand of m - s units or more empties stock m: s = m - 1 - j for tail j
        width = np.minimum(levels[at], tails.size)
        j = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
        index.append(np.repeat(offset + levels[at] - 1, width) - j)
        weight.append(tails[j])
        widths.append(width)
        offset += top
    increments = np.empty((levels.size, horizon))
    if laws:
        index, weight, widths = map(np.concatenate, (index, weight, widths))
        starts = np.cumsum(widths) - widths
        mass = np.zeros(offset)
        mass[[law[0] for law in laws]] = 1.0
        for k in range(horizon):
            increments[:, k] = np.add.reduceat(mass[index] * weight, starts)
            if k + 1 < horizon:
                _advance(mass, laws, k)
    return np.cumsum(increments, axis=1)


def frustrated_sales_via_pfk(model: DemandModel, dist: StockoutCurve) -> np.ndarray:
    """Frustrated sales recomputed from stockout increments.

    Uses P_F(k) = P(0,k) - P(0,k-1) - sum_n alpha_n P(n,k-1), which must
    agree with the two-stock identity of ``_curve`` that
    ``solve_recursive`` returns; kept as an independent cross-check, not
    a production path.
    """
    m, horizon = dist.m, dist.horizon
    alphas = model.mass_arrays(m + 1)[0]
    out = np.zeros(horizon + 1)
    for k in range(1, horizon + 1):
        drained = float(alphas[1 : m + 1] @ dist.lattice[1 : m + 1, k - 1])
        value = dist.p0[k] - dist.p0[k - 1] - drained
        # roundoff below zero is clamped to 0
        out[k] = 0.0 if -_UNIT_SLACK <= value < 0.0 else value
    return out


def monte_carlo_oracle(
    model: DemandModel,
    m: int,
    horizon: int,
    trials: int,
    seed: int,
) -> StockoutCurve:
    """Empirical stockout curve from simulated daily demand draws.

    Stock follows S_k = max(0, S_{k-1} - D_k) from S_0 = m; a trial
    counts as frustrated on day k when S_{k-1} >= 1 and D_k > S_{k-1}.
    Draws follow ``model.mass_arrays(m + 1)``, as in ``solve_recursive``.
    Deterministic for a fixed seed.
    """
    m, horizon = int(_stock_levels(m)), _horizon(horizon)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    # demand beyond m+1 units behaves identically to m+1, so the draw is
    # capped there and the tail mass lumped into the last cell
    alphas, tails = model.mass_arrays(m + 1)
    cum = np.cumsum(np.r_[alphas, tails[-1]])
    cum[-1] = 1.0

    rng = np.random.default_rng(seed)
    zero_counts = np.zeros(horizon + 1, dtype=np.int64)
    frus_counts = np.zeros(horizon + 1, dtype=np.int64)
    remaining = int(trials)
    while remaining > 0:
        size = min(_MC_BATCH, remaining)
        stock = np.full(size, m, dtype=np.int64)
        for k in range(1, horizon + 1):
            draws = np.searchsorted(cum, rng.random(size), side="right")
            frus_counts[k] += int(np.count_nonzero((stock >= 1) & (draws > stock)))
            stock = np.maximum(stock - draws, 0)
            zero_counts[k] += int(np.count_nonzero(stock == 0))
        remaining -= size

    return StockoutCurve(
        m=m,
        horizon=horizon,
        p0=zero_counts / trials,
        pf=frus_counts / trials,
    )
