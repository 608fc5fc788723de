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

``cf_p0k``, ``cf_pf`` and ``closed_form_curve`` read the kernel. A sale
is frustrated on day ``k`` when ``S_{k-1} < m < S_k``, so with
``alpha_0`` the zero-sale probability,
``P_F(k) = P(S_k >= m+1) - (1 - alpha_0) P(S_{k-1} >= m) - alpha_0 P(S_{k-1} >= m+1)``:
the rows of the two levels ``m`` and ``m + 1`` give the whole curve.
``cf_pnk`` reads the lattice cell as one mass of ``model.over(k)``, the
law of ``S_k``, whose ``alpha`` works in log space and exponentiates
last, since the effective parameters (k*c, k*r, k*lam) grow with the
horizon.

The empirical (frequentist) model has no closed form: ``over`` and
``_support`` refuse it, pointing to the recursive engine.
"""

from __future__ import annotations

import numpy as np

from .demand import (
    BinomialDemand,
    DemandModel,
    DeterministicDemand,
    NegativeBinomialDemand,
    PoissonDemand,
    _remainder,
    _support,
)
from .engine import _MAX_CELLS, _PF_SLACK, StockoutCurve, _blocks, _clamp_pf, _horizon, _level_lists, _stock_levels
from .special import ConvergenceError

__all__ = [
    "stockout_tail_block",
    "tail_blocks",
    "cf_pnk",
    "cf_p0k",
    "cf_pf",
    "closed_form_curve",
]

_UNDERFLOW = 740.0  # log-weights below -_UNDERFLOW stay 0, not subnormal


def stockout_tail_block(models, level_lists, horizon: int) -> np.ndarray:
    """``P(0, k | m) = P(S_k >= m)`` for ``k = 1..horizon``, one row per
    level of each model in turn, stacked; ``S_k`` is the demand over ``k``
    days. The parametric twin of ``engine.stockout_rows_block``: one
    (model x day, support) pmf grid per family, each row the same bits
    whatever the other models of the block."""
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
    for members in families.values():
        fits, slices = zip(*members)
        at = np.r_[slices]
        owner = np.repeat(np.arange(len(fits)), [s.stop - s.start for s in slices])
        rows[at] = _grid_rows(fits, levels[at], owner, days.size)
    return rows


def tail_blocks(models, tops, horizon: int) -> list[list[int]]:
    """The positions of ``models``, each read up to its level in ``tops``,
    cut into blocks for ``stockout_tail_block``: models of one family, by
    support width, with at most ``_MAX_CELLS`` (model x day, support)
    cells per block. A model past the cap alone, or whose support cannot
    be bounded, is a block of its own."""
    kinds, widths = [], []
    for model, top in zip(models, tops):
        try:
            width = 1 if _indicator(model) else _support(model, float(horizon), top)[0]
        except ConvergenceError:
            kinds.append(None)
            widths.append(0)
            continue
        kinds.append(model.kind)
        widths.append(width)
    return _blocks(kinds, widths, [horizon] * len(widths))


def _indicator(model: DemandModel) -> bool:
    """Whether every ``S_k`` is certain, so that each row is a step."""
    return isinstance(model, DeterministicDemand) or (isinstance(model, BinomialDemand) and model.p == 1.0)


def _grid_rows(models, levels: np.ndarray, owner: np.ndarray, horizon: int) -> np.ndarray:
    """The rows of the pairs (``owner``, ``levels``) of models of one
    family, owner after owner, from one pmf grid: a row per (model, day),
    in chunks of at most ``_MAX_CELLS`` cells. Each grid row keeps its
    model's support width: its zero padding sums in a segment of its own,
    and its row sum stops at its width, so every value is the one the
    model alone would get."""
    n = len(models)
    tops = np.maximum.reduceat(levels, np.searchsorted(owner, np.arange(n)))
    supports = [_support(model, float(horizon), top) for model, top in zip(models, tops.tolist())]
    widths = np.array([width for width, _ in supports])
    # a binomial level past its support reads the support's last column, a zero
    levels = np.minimum(levels, widths[owner] - 1)
    grid_width = int(widths.max())
    # model i's support splits at each distinct level: [0, m_1), [m_1, m_2),
    # ..., [m_last, width), then its padding [width, grid_width) if any
    distinct, inverse = np.unique(owner * (int(tops.max()) + 1) + levels, return_inverse=True)
    cut_owner, cuts = np.divmod(distinct, int(tops.max()) + 1)
    n_segments = np.bincount(cut_owner, minlength=n) + 1
    first_cut = np.cumsum(n_segments - 1) - (n_segments - 1)
    segment = inverse - first_cut[owner] + 1
    padded = widths < grid_width
    n_starts = n_segments + padded
    first_start = np.cumsum(n_starts) - n_starts
    starts = np.zeros(n_starts.sum(), dtype=np.int64)
    starts[first_start[cut_owner] + np.arange(cuts.size) - first_cut[cut_owner] + 1] = cuts
    starts[(first_start + n_segments)[padded]] = widths[padded]
    params = np.array([_params(model) for model in models])
    tails = np.empty((n * horizon, n_segments.max()))
    chunk = max(1, _MAX_CELLS // grid_width)
    for lo in range(0, n * horizon, chunk):
        row_model, row_day = np.divmod(np.arange(lo, min(lo + chunk, n * horizon)), horizon)
        row_day += 1
        weights = _weights(type(models[0]), params[row_model], row_day, grid_width)
        _close(weights, models, supports, row_model, row_day)
        # the segment sums of every row of the chunk, from one flat reduceat
        counts = n_starts[row_model]
        ends = np.cumsum(counts)
        at = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
        row = np.repeat(np.arange(row_model.size), counts)
        sums = np.add.reduceat(weights.ravel(), row * grid_width + starts[first_start[row_model][row] + at])
        own = at < n_segments[row_model][row]
        segments = np.zeros((row_model.size, n_segments.max()))
        segments[row[own], at[own]] = sums[own]
        # P(S >= m) adds the smallest segments first; past one half, 1 - P(S < m) does
        upper = np.cumsum(segments[:, ::-1], axis=1)[:, ::-1]
        below = np.cumsum(segments, axis=1) - segments
        total = upper[:, :1]
        tails[lo : lo + row_model.size] = np.where(upper < 0.5 * total, upper / total, 1.0 - below / total)
    # each pair reads its model's grid rows in its level's segment
    return tails[owner[:, None] * horizon + np.arange(horizon), segment[:, None]]


def _params(model: DemandModel) -> tuple[float, float]:
    if isinstance(model, PoissonDemand):
        return model.lam, 0.0
    if isinstance(model, NegativeBinomialDemand):
        return model.r, model.p
    return model.c, model.p


def _weights(family: type, params: np.ndarray, days: np.ndarray, width: int) -> np.ndarray:
    """The pmf of ``S_k`` on ``0 .. width - 1`` up to a factor per row, one
    row per day ``k`` of ``days`` and model parameters in ``params``, all
    of one family. Log-ratios log(pmf(j + 1) / pmf(j)) are summed outward
    from the mean, so every partial sum stays near the size of the
    log-pmf it yields, whatever the size of ``k*lam``, ``k*r`` or ``k*c``."""
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
    # sums run outward from the mean: up from floor(mean), and down from
    # below it over the first columns, where every row's mean lies
    floors = np.floor(means)[:, None]
    lower = min(width - 1, int(floors.max()) + 1)
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
    weights = np.exp(log_w, out=log_w, where=kept)
    weights[~kept] = 0.0
    return weights


def _close(weights: np.ndarray, models, supports, row_model: np.ndarray, row_day: np.ndarray) -> None:
    """Puts the incomplete-beta remainder R at column J of each row whose
    support it closes, and scales the terms below J to 1 - R. Only rows
    of a binomial, or of a closed negative binomial, can have one."""
    widths = np.array([width for width, _ in supports])
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


def cf_p0k(model: DemandModel, m: int, k: int) -> float:
    """Closed-form stockout probability P(0, k), read off the tail kernel."""
    m = int(_stock_levels(m))
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k!r}")
    if k == 0:
        return 0.0
    return float(stockout_tail_block([model], [[m]], k)[0, -1])


def cf_pf(model: DemandModel, m: int, k: int) -> float:
    """Closed-form frustrated-sales probability P_F(k) for day k >= 1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k!r}")
    return float(closed_form_curve(model, m, k).pf[k])


def closed_form_curve(model: DemandModel, m: int, horizon: int) -> StockoutCurve:
    """Stockout curve read off the tail kernel at stocks ``m`` and
    ``m + 1``, mirroring the shape returned by the recursive engine."""
    # column k is day k; day 0 has S_0 = 0, below every stock
    rows = np.pad(stockout_tail_block([model], [[m, m + 1]], horizon), ((0, 0), (1, 0)))
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
