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
past the largest level. A block of models of one family has one pmf
row per (model, day), as wide as that day's own support; the rows are
computed in chunks of similar widths, and every remainder of the block
comes from one batched continued-fraction pass (Lentz 1976), each row
with the bits its model alone would get.

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

_MAX_CELLS = 1 << 15  # cells of one working grid: a chunk of tail rows, or an empirical block
_MAX_ROWS = 1 << 10  # (model, day) rows of one parametric block, bounding its memory
_UNDERFLOW = 740.0  # log-weights below -_UNDERFLOW stay 0, not subnormal


def stockout_tail_block(models, level_lists, horizon: int) -> np.ndarray:
    """``P(0, k | m) = P(S_k >= m)`` for ``k = 1..horizon``, one row per
    level of each model in turn, stacked; ``S_k`` is the demand over ``k``
    days. One pmf grid row per (model, day) of each parametric family, and
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
        _grid_rows(fits, levels[at], owner, rows, at)
    return rows


def tail_blocks(models, tops, horizon: int) -> list[list[int]]:
    """The positions of ``models``, each read up to its level in ``tops``,
    cut into blocks for ``stockout_tail_block``: models of one family,
    sorted by width. A parametric model has a row per day, and a block
    holds at most ``_MAX_ROWS`` of them, since its grid is walked in
    chunks of cells; an empirical one has one row of sold units as wide
    as its top, and a block holds at most ``_MAX_CELLS`` of its cells. A
    model past its cap alone is a block of its own, and so is one whose
    support cannot be bounded: its width is infinite."""
    widths, rows, families = [], [], {}
    for i, (model, top) in enumerate(zip(models, tops)):
        empirical = isinstance(model, FrequentistDemand)
        widths.append(top if empirical else 1)
        rows.append(1 if empirical else horizon)
        if not (empirical or _indicator(model)):
            families.setdefault(type(model), []).append(i)
    for at in families.values():
        for i, width in zip(at, _horizon_widths([models[i] for i in at], [tops[i] for i in at], horizon)):
            widths[i] = width
    order = sorted(range(len(widths)), key=lambda i: (models[i].kind, widths[i]))
    blocks, kind, count = [], None, 0
    for i in order:
        if kind == "frequentist":
            fits = (count + rows[i]) * widths[i] <= _MAX_CELLS
        else:
            fits = count + rows[i] <= _MAX_ROWS and widths[i] < np.inf
        if models[i].kind == kind and fits:
            blocks[-1].append(i)
            count += rows[i]
        else:
            blocks.append([i])
            kind, count = models[i].kind, rows[i]
    return blocks


def _horizon_widths(models, tops, horizon: int) -> list:
    """The support widths of models of one family on the last day, each
    read up to its top, and infinite for one that cannot be bounded."""
    try:
        return _support(models, [horizon], tops)[0][:, 0].tolist()
    except ConvergenceError:
        if len(models) == 1:
            return [np.inf]
        return [width for model, top in zip(models, tops) for width in _horizon_widths([model], [top], horizon)]


def _indicator(model: DemandModel) -> bool:
    """Whether every ``S_k`` is certain, so that each row is a step."""
    return isinstance(model, DeterministicDemand) or (isinstance(model, BinomialDemand) and model.p == 1.0)


def _grid_rows(models, levels: np.ndarray, owner: np.ndarray, out: np.ndarray, at: np.ndarray) -> None:
    """Writes the rows of the pairs (``owner``, ``levels``) of models of
    one family, owner after owner, into rows ``at`` of ``out``, one column
    per day, from a pmf grid row per (model, day), each as wide as that
    day's own support. The grid rows are sorted by width and computed in
    chunks of at most ``_MAX_CELLS`` cells, each chunk one column wider
    than its widest row, and each chunk's values go straight to the pairs
    that read them. Each grid row is anchored and summed at its own width;
    the columns past it hold the pmf's continuation and are never read, so
    every value is the one the model alone would get."""
    n, horizon = len(models), out.shape[1]
    # the pairs of model i are first[i] .. first[i + 1] - 1
    first = np.searchsorted(owner, np.arange(n + 1))
    tops = np.maximum.reduceat(levels, first[:-1])
    widths, closed = (column.ravel() for column in _support(models, np.arange(1, horizon + 1), tops))
    row_model, row_day = np.divmod(np.arange(n * horizon), horizon)
    row_day += 1
    # every remainder of the block from one pass; J is a row's width where none closes it
    J, remainders = _remainder(models, row_model, row_day.astype(float), widths, closed)
    # a binomial level past a support reads its last column, a zero
    span = int(widths.max())
    levels = np.minimum(levels, span - 1)
    # the segment starts of model i: 0, its distinct levels, then each row's
    # width to the end of the row; the segment of a level is its start's column
    distinct, inverse = np.unique(owner * span + levels, return_inverse=True)
    cut_owner, cuts = np.divmod(distinct, span)
    column = np.arange(cuts.size) - np.searchsorted(cut_owner, cut_owner) + 1
    starts = np.full((n, column.max() + 2), span)
    starts[:, 0] = 0
    starts[cut_owner, column] = cuts
    segment = column[inverse]
    params = np.array([_params(model) for model in models])
    order = np.argsort(widths, kind="stable")
    end = order.size
    while end:
        # the widest rows left, as many as the cap allows at the widest one's width
        count = min(end, max(1, _MAX_CELLS // (int(widths[order[end - 1]]) + 1)))
        rows = order[end - count : end]
        end -= count
        width = widths[rows]
        grid_width = int(width[-1]) + 1
        weights = _weights(type(models[0]), params[row_model[rows]], row_day[rows], width, grid_width)
        _close(weights, J[rows], remainders[rows], width)
        # every segment sum of the chunk from one reduceat; a level cut by the
        # row's width starts at its last column, and a segment that starts at
        # the width (one term, if repeated) is dropped
        row_starts = starts[row_model[rows]]
        row_starts = np.where(row_starts == span, width[:, None], np.minimum(row_starts, width[:, None] - 1))
        flat = (row_starts + grid_width * np.arange(rows.size)[:, None]).ravel()
        sums = np.add.reduceat(weights.ravel(), flat).reshape(row_starts.shape)
        segments = np.where(row_starts < width[:, None], sums, 0.0)
        # P(S >= m) adds the smallest segments first; past one half, 1 - P(S < m) does
        upper = np.cumsum(segments[:, ::-1], axis=1)[:, ::-1]
        below = np.cumsum(segments, axis=1) - segments
        total = upper[:, :1]
        tails = np.where(upper < 0.5 * total, upper / total, 1.0 - below / total)
        # each pair of a row's model reads the row in its level's segment
        lo, reads = first[row_model[rows]], np.diff(first)[row_model[rows]]
        reader = np.repeat(np.arange(rows.size), reads)
        pair = np.arange(reader.size) + np.repeat(lo - np.cumsum(reads) + reads, reads)
        out[at[pair], row_day[rows][reader] - 1] = tails[reader, segment[pair]]


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
    # the ratios, their logs and then the log-weights share one array
    log_w = np.empty((days.size, width))
    log_w[:, 0] = 0.0
    ratios = log_w[:, 1:]
    if family is PoissonDemand:
        means = days * params[:, 0]
        np.divide(means[:, None], j + 1.0, out=ratios)
    elif family is NegativeBinomialDemand:
        shapes, p = days * params[:, 0], params[:, 1]
        q = 1.0 - p
        means = shapes * q / p
        np.multiply(q[:, None], shapes[:, None] + j, out=ratios)
        ratios /= j + 1.0
    else:
        kc, p = days * params[:, 0], params[:, 1]
        means = kc * p
        # C(kc, j) p^j q^(kc - j) for j < J = floor(kc) + 1, the only terms kept
        np.maximum(kc[:, None] - j, 0.0, out=ratios)
        np.multiply((p / (1.0 - p))[:, None], ratios, out=ratios)
        ratios /= j + 1.0
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
    np.cumsum(log_ratios, axis=1, out=log_ratios)
    np.cumsum(down[:, ::-1], axis=1, out=down[:, ::-1])
    log_w[:, :lower] -= down
    # weights that would be subnormal or zero are left zero: subnormals are slow
    kept = log_w > -_UNDERFLOW
    # past a row's own width its continuation, never read, may overflow
    with np.errstate(over="ignore"):
        weights = np.exp(log_w, out=log_w, where=kept)
    weights[~kept] = 0.0
    return weights


def _close(weights: np.ndarray, J: np.ndarray, remainders: np.ndarray, widths: np.ndarray) -> None:
    """Puts the incomplete-beta remainder at column ``J`` of each row whose
    support it closes (``J`` inside the row's width), and scales the terms
    below ``J`` to 1 minus it. Only rows of a binomial, or of a closed
    negative binomial, can have one."""
    rows = np.flatnonzero(J < widths)
    if not rows.size:
        return
    J, remainders, widths = J[rows], remainders[rows], widths[rows]
    terms = weights[rows]
    terms[np.arange(terms.shape[1]) >= J[:, None]] = 0.0
    # each row is summed over its own width, as it is alone
    sums = np.empty(rows.size)
    for width in np.unique(widths).tolist():
        mine = widths == width
        sums[mine] = terms[mine, :width].sum(axis=1)
    terms *= ((1.0 - remainders) / sums)[:, None]
    terms[np.arange(rows.size), J] = remainders
    weights[rows] = terms


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
