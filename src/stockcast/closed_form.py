"""Analytic stock distributions for the parametric demand families.

Each routine evaluates the closed-form counterpart of the recursion for
deterministic, Poisson, Binomial, and Negative Binomial daily demand.

The stockout probability is ``P(0, k | m) = P(S_k >= m)``, where ``S_k``
is the demand over ``k`` days. The three families are closed under
convolution, so ``S_k`` is Poisson(k*lam), NB(k*r, p) or Binomial(k*c, p)
(Panjer 1981). ``stockout_tail_block`` builds one pmf of ``S_k`` per day,
from its log-ratio recurrence summed outward from the mean, and reads
every stock level of a SKU off its sums, adding only non-negative terms,
smallest first: no ``1 - Q`` cancellation and no series cap. For a real
customer count ``c`` the specified value stays ``I_p(m, kc - m + 1)``;
with ``J = floor(kc) + 1`` it equals
``sum_{j=m}^{J-1} C(kc, j) p^j q^(kc-j) + I_p(J, kc - J + 1)``, so one
incomplete-beta remainder per day closes the positive terms (DiDonato &
Morris 1992), and it is 0 for an integer ``kc``. A negative binomial
tail too slow to truncate is closed the same way, by ``I_q(M, k*r)``
past the largest level. The pmfs of a block of models of one family
share one (model x day, support) grid, each row with the bits its model
alone would get.

``closed_form_curve`` reads the kernel's rows at the two levels ``m``
and ``m + 1`` through ``engine._curve``, the reader the recursion shares,
which forms the frustrated-sales curve ``P_F(k)`` from them.
``cf_pnk`` reads the lattice cell as one mass of ``model.over(k)``, the
law of ``S_k``, whose ``alpha`` works in log space and exponentiates
last, since the effective parameters (k*c, k*r, k*lam) grow with the
horizon.

The empirical (frequentist) model has no closed form: ``over`` and
``_support`` refuse it, pointing to the recursive engine.
``stockout_tail_block`` hands its empirical models to
``engine.stockout_rows_block`` as one more family, and ``tail_blocks``
plans them for that sweep, so the choice of kernel is made here alone.
"""

from __future__ import annotations

import numpy as np

from .demand import (
    BinomialDemand,
    DemandModel,
    DeterministicDemand,
    FrequentistDemand,
    NegativeBinomialDemand,
    PoissonDemand,
    _remainder,
    _support,
)
from . import engine
from .engine import StockoutCurve, _horizon, _level_lists
from .special import ConvergenceError

__all__ = [
    "stockout_tail_block",
    "tail_blocks",
    "cf_pnk",
    "closed_form_curve",
]

_MAX_CELLS = 1 << 15  # cells of one block's working grid, bounding its memory
_UNDERFLOW = 740.0  # log-weights below -_UNDERFLOW stay 0, not subnormal


def stockout_tail_block(models, level_lists, horizon: int) -> np.ndarray:
    """``P(0, k | m) = P(S_k >= m)`` for ``k = 1..horizon``, one row per
    level of each model in turn, stacked; ``S_k`` is the demand over ``k``
    days. One (model x day, support) pmf grid per parametric family, and
    the empirical models swept by ``engine.stockout_rows_block``; each row
    the same bits whatever the other models of the block."""
    days = np.arange(1, _horizon(horizon) + 1)
    levels, slices = _level_lists(level_lists)
    rows = np.empty((levels.size, days.size))
    families: dict = {}
    for model, at in zip(models, slices):
        if isinstance(model, DeterministicDemand):
            rows[at] = days * model.h >= levels[at, None]
        elif _indicator(model):
            # every customer buys: the same step as I_1(m, kc - m + 1)
            rows[at] = days * model.c - levels[at, None] + 1.0 > 0.0
        elif at.start < at.stop:
            families.setdefault(type(model), []).append((model, at))
    for family, members in families.items():
        fits, slices = zip(*members)
        at = np.r_[slices]
        if family is FrequentistDemand:
            rows[at] = engine.stockout_rows_block(fits, [levels[s] for s in slices], days.size)
            continue
        owner = np.repeat(np.arange(len(fits)), [s.stop - s.start for s in slices])
        rows[at] = _grid_rows(fits, levels[at], owner, days.size)
    return rows


def tail_blocks(models, tops, horizon: int) -> list[list[int]]:
    """The positions of ``models``, each read up to its level in ``tops``,
    cut into blocks for ``stockout_tail_block``: models of one family,
    sorted by width, with at most ``_MAX_CELLS`` cells per block, each
    row counted at the block's widest width. A parametric model has a row
    per day as wide as its support; an empirical one has one row of sold
    units as wide as its top. A model past the cap alone is a block of
    its own, and so is one whose support cannot be bounded: its width is
    infinite."""
    widths, rows = [], []
    for model, top in zip(models, tops):
        if isinstance(model, FrequentistDemand):
            widths.append(top)
            rows.append(1)
            continue
        try:
            widths.append(1 if _indicator(model) else _support(model, float(horizon), top)[0])
        except ConvergenceError:
            widths.append(np.inf)
        rows.append(horizon)
    order = sorted(range(len(widths)), key=lambda i: (models[i].kind, widths[i]))
    blocks, kind, count = [], None, 0
    for i in order:
        if models[i].kind == kind and (count + rows[i]) * widths[i] <= _MAX_CELLS:
            blocks[-1].append(i)
            count += rows[i]
        else:
            blocks.append([i])
            kind, count = models[i].kind, rows[i]
    return blocks


def _indicator(model: DemandModel) -> bool:
    """Whether every ``S_k`` is certain, so that each row is a step."""
    return isinstance(model, DeterministicDemand) or (isinstance(model, BinomialDemand) and model.p == 1.0)


def _grid_rows(models, levels: np.ndarray, owner: np.ndarray, horizon: int) -> np.ndarray:
    """The rows of the pairs (``owner``, ``levels``) of models of one
    family, owner after owner, from one pmf grid: a row per (model, day),
    in chunks of at most ``_MAX_CELLS`` cells, one column wider than the
    widest support. Each grid row is anchored and summed at its model's
    support width; the columns past it hold the pmf's continuation and
    are never read, so every value is the one the model alone would get."""
    n = len(models)
    tops = np.maximum.reduceat(levels, np.searchsorted(owner, np.arange(n)))
    supports = [_support(model, float(horizon), top) for model, top in zip(models, tops.tolist())]
    widths = np.array([width for width, _ in supports])
    # a binomial level past its support reads the support's last column, a zero
    levels = np.minimum(levels, widths[owner] - 1)
    grid_width = int(widths.max()) + 1
    # the segment starts of model i: 0, its distinct levels, then its width
    # to the end of the row; the segment of a level is its start's column
    distinct, inverse = np.unique(owner * grid_width + levels, return_inverse=True)
    cut_owner, cuts = np.divmod(distinct, grid_width)
    column = np.arange(cuts.size) - np.searchsorted(cut_owner, cut_owner) + 1
    starts = np.repeat(widths[:, None], column.max() + 2, axis=1)
    starts[:, 0] = 0
    starts[cut_owner, column] = cuts
    params = np.array([_params(model) for model in models])
    tails = np.empty((n * horizon, starts.shape[1]))
    chunk = max(1, _MAX_CELLS // grid_width)
    for lo in range(0, n * horizon, chunk):
        row_model, row_day = np.divmod(np.arange(lo, min(lo + chunk, n * horizon)), horizon)
        row_day += 1
        weights = _weights(type(models[0]), params[row_model], row_day, widths[row_model], grid_width)
        _close(weights, models, supports, widths, row_model, row_day)
        # every segment sum of the chunk from one reduceat; a segment that
        # starts at its row's width (one term, if repeated) is dropped
        row_starts = starts[row_model]
        sums = np.add.reduceat(weights.ravel(), (row_starts + grid_width * np.arange(row_model.size)[:, None]).ravel())
        segments = np.where(row_starts < widths[row_model, None], sums.reshape(row_starts.shape), 0.0)
        # P(S >= m) adds the smallest segments first; past one half, 1 - P(S < m) does
        upper = np.cumsum(segments[:, ::-1], axis=1)[:, ::-1]
        below = np.cumsum(segments, axis=1) - segments
        total = upper[:, :1]
        tails[lo : lo + row_model.size] = np.where(upper < 0.5 * total, upper / total, 1.0 - below / total)
    # each pair reads its model's grid rows in its level's segment
    return tails[owner[:, None] * horizon + np.arange(horizon), column[inverse][:, None]]


def _params(model: DemandModel) -> tuple[float, float]:
    if isinstance(model, PoissonDemand):
        return model.lam, 0.0
    if isinstance(model, NegativeBinomialDemand):
        return model.r, model.p
    return model.c, model.p


def _weights(family: type, params: np.ndarray, days: np.ndarray, widths: np.ndarray, width: int) -> np.ndarray:
    """The pmf of ``S_k`` on ``0 .. width - 1`` up to a factor per row, one
    row per day ``k`` of ``days`` and model parameters in ``params``, all
    of one family. Log-ratios log(pmf(j + 1) / pmf(j)) are summed outward
    from the mean, or from the last column of the row's own width in
    ``widths`` if that comes first, so every partial sum stays near the
    size of the log-pmf it yields, whatever the size of ``k*lam``, ``k*r``
    or ``k*c``, and a row's bits do not depend on ``width``."""
    j = np.arange(width - 1, dtype=float)
    if family is PoissonDemand:
        means = days * params[:, 0]
        ratios = means[:, None] / (j + 1.0)
    elif family is NegativeBinomialDemand:
        shapes, p = days * params[:, 0], params[:, 1]
        q = 1.0 - p
        means = shapes * q / p
        ratios = q[:, None] * (shapes[:, None] + j) / (j + 1.0)
    else:
        kc, p = days * params[:, 0], params[:, 1]
        means = kc * p
        # C(kc, j) p^j q^(kc - j) for j < J = floor(kc) + 1, the only terms kept
        ratios = (p / (1.0 - p))[:, None] * np.maximum(kc[:, None] - j, 0.0) / (j + 1.0)
    # a binomial ratio of 0 ends the support: its log is -inf
    with np.errstate(divide="ignore"):
        log_ratios = np.log(ratios, out=ratios)
    # sums run outward from each row's anchor: up from it, and down from
    # below it over the first columns, where every anchor lies
    floors = np.minimum(np.floor(means), widths - 1)[:, None]
    lower = int(floors.max()) + 1
    below = j[:lower] < floors
    down = np.where(below, log_ratios[:, :lower], 0.0)
    np.copyto(log_ratios[:, :lower], 0.0, where=below)
    log_w = np.empty((days.size, width))
    log_w[:, 0] = 0.0
    np.cumsum(log_ratios, axis=1, out=log_w[:, 1:])
    del ratios, log_ratios
    log_w[:, :lower] -= np.cumsum(down[:, ::-1], axis=1)[:, ::-1]
    # weights that would be subnormal or zero are left zero: subnormals are slow
    kept = log_w > -_UNDERFLOW
    # past a row's own width its continuation, never read, may overflow
    with np.errstate(over="ignore"):
        weights = np.exp(log_w, out=log_w, where=kept)
    weights[~kept] = 0.0
    return weights


def _close(
    weights: np.ndarray, models, supports, widths: np.ndarray, row_model: np.ndarray, row_day: np.ndarray
) -> None:
    """Puts the incomplete-beta remainder R at column J of each row whose
    support it closes, and scales the terms below J to 1 - R. Only rows
    of a binomial, or of a closed negative binomial, can have one."""
    if isinstance(models[0], BinomialDemand):
        c = np.array([model.c for model in models])
        rows = np.flatnonzero(np.floor(row_day * c[row_model]) + 1 < widths[row_model])
    else:
        rows = np.flatnonzero(np.array([closed for _, closed in supports], dtype=bool)[row_model])
    owners, days = row_model[rows].tolist(), row_day[rows].tolist()
    closings = [_remainder(models[i], day, *supports[i]) for i, day in zip(owners, days)]
    # the rows of one model share its width, so each model's rows close at once
    for i in np.unique(row_model[rows]).tolist():
        mine = row_model[rows] == i
        J, remainder = np.array([closings[k] for k in np.flatnonzero(mine)]).T
        J = J.astype(int)
        terms = weights[rows[mine], : widths[i]]
        terms[np.arange(widths[i]) >= J[:, None]] = 0.0
        terms *= ((1.0 - remainder) / terms.sum(axis=1))[:, None]
        terms[np.arange(J.size), J] = remainder
        weights[rows[mine], : widths[i]] = terms


def cf_pnk(model: DemandModel, m: int, n: int, k: int) -> float:
    """Closed-form P(n, k): probability of n units in stock on day k,
    starting from m, for 1 <= n <= m: the mass of the ``k``-day law at
    the ``m - n`` units sold."""
    if not 1 <= n <= m:
        raise ValueError(f"need 1 <= n <= m, got n={n!r}, m={m!r}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k!r}")
    if k == 0:
        return 1.0 if n == m else 0.0
    return model.over(k).alpha(m - n)


def closed_form_curve(model: DemandModel, m: int, horizon: int) -> StockoutCurve:
    """Stockout curve read off the tail kernel at stocks ``m`` and
    ``m + 1`` by ``engine._curve``, as ``solve_recursive`` reads its own."""
    return engine._curve(stockout_tail_block, model, m, horizon)
