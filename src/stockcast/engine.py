"""Exact recursive computation of the stock-level distribution.

Given a demand model and an initial stock of ``m`` units, the lattice
``P(n, k)`` is the probability of holding ``n`` units at the end of day
``k``. A stock ``n >= 1`` means exactly ``m - n`` units were sold, so the
lattice is one sweep of the sold-units mass, convolved each day with the
demand mass and cut at ``m`` (a truncated convolution power, Panjer 1981).
The sweep also absorbs the stockout probability ``P(0, k)`` and the
frustrated-sales probability ``P_F(k)`` (demand exceeding a still-positive
stock), and one sweep cut at the largest of several stocks serves each.
Models whose daily demand takes few values share one sweep: their masses
stacked in a matrix and convolved by shift-and-add.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .demand import DemandModel

__all__ = [
    "DegenerateDemandWarning",
    "StockoutCurve",
    "solve_recursive",
    "stockout_rows_block",
    "sweep_blocks",
    "frustrated_sales_via_pfk",
    "monte_carlo_oracle",
]

_PF_SLACK = 1e-12  # frustrated-sales roundoff clamped to 0
_MAX_SUPPORT = 16  # longest daily mass or tail swept together with other models
_MAX_CELLS = 1 << 15  # cells of one block's working grid, bounding its memory


class DegenerateDemandWarning(UserWarning):
    """Zero-sale probability of 0 or 1: the dynamics are still computed,
    but the strict-monotonicity facts become vacuous."""


@dataclass(frozen=True)
class StockoutCurve:
    """Stockout and frustrated-sales probabilities over a horizon.

    ``p0[k]`` is the probability of having stocked out by day ``k`` and
    ``pf[k]`` the probability of frustrated sales on day ``k``; both run
    over ``k = 0 .. horizon`` with ``p0[0] = pf[0] = 0``. ``lattice``,
    kept only on request, holds in ``lattice[n, k]`` the probability of
    ``n`` units in stock on day ``k`` for ``0 <= n <= m``.
    """

    m: int
    horizon: int
    p0: np.ndarray
    pf: np.ndarray
    lattice: np.ndarray | None = None


def _clamp_pf(value: float) -> float:
    """A frustrated-sales value with its roundoff below zero clamped to 0."""
    if -_PF_SLACK <= value < 0.0:
        return 0.0
    return value


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


def _daily(model: DemandModel, top: int) -> tuple[np.ndarray, np.ndarray]:
    """``alpha(0 .. top - 1)`` and ``beta(1 .. top)``, each cut after its
    last non-zero entry."""
    alphas, tails = model.mass_arrays(top)
    return _head(alphas), _head(tails)


def _sold_units(alphas: np.ndarray, top: int):
    """The sold-units mass at the end of day k = 0, 1, ...: entry ``s``
    is the probability of having sold exactly ``s < top`` units."""
    mass = np.zeros(top)
    mass[0] = 1.0
    while True:
        yield mass
        mass = np.convolve(mass, alphas)[:top]


def solve_recursive(
    model: DemandModel,
    m: int,
    horizon: int,
    keep_lattice: bool = False,
) -> StockoutCurve:
    """Run the day-by-day recursion from the initial column P(n, 0) = 1{n = m}.

    Memory is O(m) with one sold-units column unless ``keep_lattice``
    asks for the full O(m * horizon) lattice. The daily law is
    ``model.mass_arrays(m + 1)``, so a real customer count ``c`` takes
    stocks ``m < c``.
    """
    m, horizon = int(_stock_levels(m)), _horizon(horizon)
    alphas, tails = model.mass_arrays(m + 1)
    if alphas[0] in (0.0, 1.0):
        message = f"degenerate zero-sale probability alpha_0={alphas[0]}"
        warnings.warn(message, DegenerateDemandWarning, stacklevel=2)
    # having sold s, demand of m - s units empties the stock; one more frustrates a sale
    stockout, frustration = _head(tails[:m]), _head(tails[1:])
    increments, pf = np.zeros(horizon + 1), np.zeros(horizon + 1)
    lattice = np.zeros((m + 1, horizon + 1)) if keep_lattice else None
    sweep = _sold_units(_head(alphas[:m]), m)
    for k in range(1, horizon + 1):
        mass = next(sweep)
        if lattice is not None:
            lattice[1:, k - 1] = mass[::-1]
        increments[k] = np.convolve(mass, stockout)[m - 1]
        pf[k] = _clamp_pf(float(np.convolve(mass, frustration)[m - 1]))
    p0 = np.cumsum(increments)
    if lattice is not None:
        lattice[1:, horizon] = next(sweep)[::-1]
        lattice[0] = p0
    return StockoutCurve(m=m, horizon=horizon, p0=p0, pf=pf, lattice=lattice)


def stockout_rows_block(models, level_lists, horizon: int) -> np.ndarray:
    """``P(0, k | m)`` for ``k = 1..horizon``, one row per level of each
    model in turn, stacked: each row is ``solve_recursive(model, m,
    horizon).p0[1:]``, up to roundoff. Models whose daily mass and tail
    have at most ``_MAX_SUPPORT`` terms share one sold-units sweep up to
    their largest level; any other model is swept alone by convolution.
    A model's rows do not depend on the other models of the block."""
    horizon = _horizon(horizon)
    levels, slices = _level_lists(level_lists)
    rows = np.empty((levels.size, horizon))
    narrow = []
    for model, at in zip(models, slices):
        if at.start == at.stop:
            continue
        top = int(levels[at].max())
        alphas, tails = _daily(model, top)
        if max(alphas.size, tails.size) <= _MAX_SUPPORT:
            narrow.append((at, alphas, tails))
            continue
        increments = np.empty((at.stop - at.start, horizon))
        for k, mass in zip(range(horizon), _sold_units(alphas, top)):
            increments[:, k] = np.convolve(mass, tails)[levels[at] - 1]
        rows[at] = np.cumsum(increments, axis=1)
    if narrow:
        at, alphas, tails = zip(*narrow)
        rows[np.r_[at]] = _shared_sweep(alphas, tails, [levels[i] for i in at], horizon)
    return rows


def _shared_sweep(alphas, tails, levels, horizon: int) -> np.ndarray:
    """Rows of several models from one sweep: their sold-units masses
    stacked in a (model, top) matrix and convolved by shift-and-add over
    the daily support, each pair's daily increment read by gather. Every
    entry adds its terms in the same order, padding adding exact zeros,
    so a model's rows do not depend on the other rows of the matrix."""
    n, top = len(levels), max(int(lv.max()) for lv in levels)
    # rows 0 .. n - 1 weigh the mass by the tails, rows n .. 2n - 1 by the daily mass
    weights = np.zeros((2 * n, max(max(map(len, alphas)), max(map(len, tails)))))
    for row, (a, t) in enumerate(zip(alphas, tails)):
        weights[row, : t.size], weights[n + row, : a.size] = t, a
    owner = np.repeat(np.arange(n), [lv.size for lv in levels])
    at = np.concatenate(levels) - 1
    mass = np.zeros((2 * n, top))
    mass[:, 0] = 1.0
    increments = np.empty((at.size, horizon))
    for k in range(horizon):
        conv = weights[:, :1] * mass
        for j in range(1, weights.shape[1]):
            conv[:, j:] += weights[:, j : j + 1] * mass[:, : top - j]
        # having sold s, demand of m - s units or more empties stock m
        increments[:, k] = conv[owner, at]
        mass[:n] = mass[n:] = conv[n:]
    return np.cumsum(increments, axis=1)


def sweep_blocks(models, tops) -> list[list[int]]:
    """The positions of ``models``, to be swept up to ``tops``, cut into
    blocks for ``stockout_rows_block``: models of one support class, by
    top, with at most ``_MAX_CELLS`` cells of sweep matrix per block. The
    class of a daily mass and tail of at most ``s`` terms is the bit
    length of ``s - 1``; a model past ``_MAX_SUPPORT`` is a block of its
    own."""
    classes = []
    for model, top in zip(models, tops):
        support = max(map(len, _daily(model, top)))
        classes.append((support - 1).bit_length() if support <= _MAX_SUPPORT else None)
    # a model takes two rows of the sweep matrix, one per weight
    return _blocks(classes, tops, [2] * len(tops))


def _blocks(classes, widths, rows) -> list[list[int]]:
    """Positions sorted by (class, width) and cut into blocks of one
    class whose rows, each counted at the block's widest width, hold at
    most ``_MAX_CELLS`` cells. An item of class None, or past the cap
    alone, is a block of its own."""
    order = sorted(range(len(widths)), key=lambda i: (classes[i] is None, classes[i] or 0, widths[i]))
    blocks, cls, count = [], None, 0
    for i in order:
        if classes[i] is not None and classes[i] == cls and (count + rows[i]) * widths[i] <= _MAX_CELLS:
            blocks[-1].append(i)
            count += rows[i]
        else:
            blocks.append([i])
            cls, count = classes[i], rows[i]
    return blocks


def frustrated_sales_via_pfk(model: DemandModel, dist: StockoutCurve) -> np.ndarray:
    """Frustrated sales recomputed from stockout increments.

    Uses P_F(k) = P(0,k) - P(0,k-1) - sum_n alpha_n P(n,k-1), which must
    agree with the tail-weighted form produced by ``solve_recursive``;
    kept as an independent cross-check, not a production path.
    """
    m, horizon = dist.m, dist.horizon
    alphas = model.mass_arrays(m + 1)[0]
    out = np.zeros(horizon + 1)
    for k in range(1, horizon + 1):
        drained = float(alphas[1 : m + 1] @ dist.lattice[1 : m + 1, k - 1])
        out[k] = _clamp_pf(dist.p0[k] - dist.p0[k - 1] - drained)
    return out


def monte_carlo_oracle(
    model: DemandModel,
    m: int,
    horizon: int,
    trials: int,
    seed: int,
    chunk_size: int = 250_000,
) -> StockoutCurve:
    """Empirical stockout curve from simulated daily demand draws.

    Stock follows S_k = max(0, S_{k-1} - D_k) from S_0 = m; a trial
    counts as frustrated on day k when S_{k-1} >= 1 and D_k > S_{k-1}.
    Draws follow ``model.mass_arrays(m + 1)``, as in ``solve_recursive``.
    Deterministic for a fixed seed (and chunk size).
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
        size = min(chunk_size, remaining)
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
