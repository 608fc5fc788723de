"""Block kernels against the per-model arithmetic they replace: the tail
rows of a block of parametric fits, the sold-units sweep of a block of
empirical fits, the column fits of ``evaluate``, and the
failures that must stay with the SKU that raised them."""

from __future__ import annotations

import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import empirical, sku_rows, write_jsonl
from stockcast import closed_form, demand
from stockcast.closed_form import _MAX_CELLS, stockout_tail_block
from stockcast.demand import (
    _MAX_WIDTH,
    BinomialDemand,
    DeterministicDemand,
    FrequentistDemand,
    NegativeBinomialDemand,
    PoissonDemand,
    _remainder,
    _support,
    fit_columns,
    moments_from_sums,
    select_bnbp,
)
from stockcast.engine import solve_recursive, stockout_rows_block
from stockcast.harness import Window, evaluate, ingest
from stockcast.metrics import rps_rows
from stockcast.special import ConvergenceError

FEB = Window.parse("2021-02")
MAR = Window.parse("2021-03")
HORIZON = 31


def reference_tail_rows(model, levels, horizon) -> np.ndarray:
    """``stockout_tail_block`` of one model alone, one day at a time: the
    arithmetic that every row of a block grid must repeat bit for bit."""
    levels, days = np.asarray(levels, dtype=int), np.arange(1, horizon + 1)
    if isinstance(model, DeterministicDemand):
        return (days * model.h >= levels[:, None]).astype(float)
    if isinstance(model, BinomialDemand) and model.p == 1.0:
        return (days * model.c - levels[:, None] + 1.0 > 0.0).astype(float)
    widths, closed = (v[0] for v in _support([model], days, [levels.max()]))
    rows = np.empty((levels.size, horizon))
    for k, day in enumerate(days.tolist()):
        # each day at its own width; a binomial level past it reads its last column, a zero
        width = int(widths[k])
        cuts = np.unique(np.minimum(levels, width - 1))
        j = np.arange(width - 1, dtype=float)
        if isinstance(model, PoissonDemand):
            mean = day * model.lam
            ratios = mean / (j + 1.0)
        elif isinstance(model, NegativeBinomialDemand):
            shape, q = day * model.r, 1.0 - model.p
            mean = shape * q / model.p
            ratios = q * (shape + j) / (j + 1.0)
        else:
            kc, p = day * model.c, model.p
            mean = kc * p
            ratios = p / (1.0 - p) * np.maximum(kc - j, 0.0) / (j + 1.0)
        log_ratios = np.full_like(ratios, -np.inf)
        np.log(ratios, out=log_ratios, where=ratios > 0.0)
        above = j >= math.floor(mean)
        log_w = np.zeros(width)
        np.cumsum(np.where(above, log_ratios, 0.0), out=log_w[1:])
        log_w[:-1] -= np.cumsum(np.where(above, 0.0, log_ratios)[::-1])[::-1]
        weights = np.zeros(width)
        np.exp(log_w, out=weights, where=log_w > -740.0)
        row = slice(k, k + 1)
        (J,), (remainder,) = _remainder([model], np.zeros(1, int), days[row].astype(float), widths[row], closed[row])
        if J < width:
            weights[J:] = 0.0
            weights *= (1.0 - remainder) / weights.sum()
            weights[J] = remainder
        sums = np.add.reduceat(weights, np.r_[0, cuts])
        upper = np.cumsum(sums[::-1])[::-1]
        below = np.cumsum(sums) - sums
        tails = np.where(upper < 0.5 * upper[0], upper / upper[0], 1.0 - below / upper[0])
        rows[:, k] = tails[np.searchsorted(cuts, np.minimum(levels, width - 1)) + 1]
    return rows


def reference_sweep_rows(model, levels, horizon) -> np.ndarray:
    """``stockout_rows_block`` of one model alone, by convolution: the block
    sweep adds the same terms in another order."""
    levels = np.asarray(levels, dtype=int)
    top = int(levels.max())
    alphas = np.array([model.alpha(j) for j in range(top)])
    tails = np.array([model.beta(n) for n in range(1, top + 1)])
    mass = np.zeros(top)
    mass[0] = 1.0
    increments = np.zeros((levels.size, horizon))
    for k in range(horizon):
        increments[:, k] = np.convolve(mass, tails)[levels - 1]
        mass = np.convolve(mass, alphas)[:top]
    return np.cumsum(increments, axis=1)


levels_st = st.lists(st.integers(1, 300), min_size=1, max_size=5)
rates_st = st.floats(1e-2, 30.0)
parametric_st = st.one_of(
    st.builds(PoissonDemand, lam=rates_st),
    # the shape that puts the daily mean at rate
    st.builds(lambda rate, p: NegativeBinomialDemand(r=rate * p / (1.0 - p), p=p), rates_st, st.floats(0.05, 0.95)),
    # q near 1: a support closed by an incomplete-beta remainder
    st.builds(NegativeBinomialDemand, r=st.floats(0.05, 3.0), p=st.floats(1e-5, 1e-3)),
    st.builds(BinomialDemand, c=st.floats(0.5, 40.0), p=st.floats(0.01, 0.99)),
    st.builds(BinomialDemand, c=st.integers(1, 40).map(float), p=st.floats(0.01, 0.99)),
    st.builds(DeterministicDemand, h=st.integers(1, 9)),
)
# supports past the cell cap: its grid runs in day chunks
WIDE = PoissonDemand(lam=60.0)
# q near 1: a slow tail closed by an incomplete-beta remainder
SLOW = NegativeBinomialDemand(r=0.2, p=2e-4)


def split(rows: np.ndarray, level_lists) -> list:
    return np.split(rows, np.cumsum([len(levels) for levels in level_lists])[:-1])


class TestTailBlock:
    def test_wide_model_passes_the_cell_cap(self):
        assert _support([WIDE], np.arange(1, HORIZON + 1), [300])[0].sum() > _MAX_CELLS

    @settings(max_examples=40, deadline=None)
    @given(block=st.lists(st.tuples(parametric_st, levels_st), min_size=1, max_size=6), wide=st.booleans())
    def test_rows_are_the_bits_of_each_model_alone(self, block, wide):
        if wide:
            block = [*block, (WIDE, [2000, 1900, 1700])]
        models, level_lists = zip(*block)
        rows = split(stockout_tail_block(models, level_lists, HORIZON), level_lists)
        for model, levels, got in zip(models, level_lists, rows):
            np.testing.assert_array_equal(got, reference_tail_rows(model, levels, HORIZON))
            np.testing.assert_array_equal(got, stockout_tail_block([model], [levels], HORIZON))
        # the same model in another block, at another place, gets the same bits
        alone = split(stockout_tail_block(models[::-1], level_lists[::-1], HORIZON), level_lists[::-1])[::-1]
        for got, again in zip(rows, alone):
            np.testing.assert_array_equal(got, again)

    @pytest.mark.parametrize(
        "models, level_lists, horizon",
        [
            ([SLOW, NegativeBinomialDemand(r=2.0, p=0.4), SLOW], [[5, 40], [3, 9, 9], [40]], 7),
            # a closed support narrower than the mean: its rows are summed from its
            # own last column, not from one past it that a wider model brings
            ([NegativeBinomialDemand(r=0.2, p=1e-4), NegativeBinomialDemand(r=2.0, p=0.4)], [[5, 40], [9]], HORIZON),
            # a shape past the ratio bound, whose unread columns overflow
            ([NegativeBinomialDemand(r=1e34, p=0.5), NegativeBinomialDemand(r=2.0, p=0.4)], [[2], [300]], HORIZON),
        ],
        ids=["slow", "narrower-than-its-mean", "huge-shape"],
    )
    def test_closed_negative_binomial_in_a_block(self, models, level_lists, horizon):
        rows = split(stockout_tail_block(models, level_lists, horizon), level_lists)
        for model, levels, got in zip(models, level_lists, rows):
            np.testing.assert_array_equal(got, reference_tail_rows(model, levels, horizon))
            np.testing.assert_array_equal(got, stockout_tail_block([model], [levels], horizon))

    @pytest.mark.parametrize(
        "model", [PoissonDemand(lam=1e35), BinomialDemand(c=1e35, p=0.5)], ids=lambda m: m.kind
    )
    def test_a_mean_past_the_ratio_bound_needs_too_wide_a_support(self, model):
        # the pmf ratio rounds to 1 and bounds no tail: log1p(-1) used to fail
        with pytest.raises(ConvergenceError, match="support terms"):
            _support([model], [1], [2])

    def test_a_negative_binomial_past_the_ratio_bound_is_closed(self):
        # the ratio rounds to 1 past r of about 5e33 at p = 0.5: the incomplete-beta
        # remainder closes the support, as for any tail too slow to truncate
        model = NegativeBinomialDemand(r=1e34, p=0.5)
        assert [v.tolist() for v in _support([model], [1], [2])] == [[[4]], [[True]]]
        levels, days = np.array([1, 2, 3, 40]), np.arange(1, 5)
        expected = stats.nbinom.sf(levels[:, None] - 1, days * model.r, model.p)
        np.testing.assert_allclose(stockout_tail_block([model], [levels], 4), expected, rtol=1e-12, atol=0)

    def test_unbounded_support_raises_for_the_block(self):
        with pytest.raises(ConvergenceError):
            stockout_tail_block([PoissonDemand(lam=1.0), PoissonDemand(lam=1.0)], [[3], [2 * _MAX_WIDTH]], HORIZON)


class TestCellCost:
    """The cells the tail kernel computes against the per-day widths its
    rows need: each grid row is sized at its own day's support, and only
    the chunks the cell cap cuts a block into pad a row past it."""

    BLOCKS = {
        # the cap cuts 31 rows of about 4,100 cells into chunks of 7
        "poisson-100": (PoissonDemand(lam=100.0), list(range(100, 4001, 100))),
        # supports of 27 cells on day 1 to 93 on day 31: one chunk
        "poisson-0.5": (PoissonDemand(lam=0.5), [1, 5, 14]),
        # a real count, whose rows are closed by incomplete-beta remainders
        "binomial": (BinomialDemand(c=7.3, p=0.4), [1, 20, 60]),
    }

    @pytest.mark.parametrize("case", BLOCKS)
    def test_rows_take_their_own_days_width(self, monkeypatch, case):
        model, levels = self.BLOCKS[case]
        calls = []

        def spy(family, params, days, widths, width, kernel=closed_form._weights):
            calls.append((days.copy(), widths.copy(), width))
            return kernel(family, params, days, widths, width)

        monkeypatch.setattr(closed_form, "_weights", spy)
        stockout_tail_block([model], [levels], HORIZON)
        own = _support([model], np.arange(1, HORIZON + 1), [max(levels)])[0][0]
        for days, widths, width in calls:
            np.testing.assert_array_equal(widths, own[days - 1])
            assert width == widths.max() + 1
        assert sorted(np.concatenate([days for days, _, _ in calls]).tolist()) == list(range(1, HORIZON + 1))
        cells = sum(days.size * width for days, _, width in calls)
        if len(calls) > 1:
            assert all(days.size * width <= _MAX_CELLS for days, _, width in calls)
            assert cells <= 1.1 * own.sum()
        else:
            # a block under the cap is one chunk, as wide as its widest day
            assert cells == HORIZON * (own.max() + 1)


# day counts of a short dense support, or of a sparse one up to 250 terms wide
counts_st = st.one_of(
    st.lists(st.integers(0, 5), min_size=1, max_size=20).filter(lambda c: sum(c) > 0),
    st.dictionaries(st.integers(0, 249), st.integers(1, 5), min_size=1, max_size=6).map(
        lambda days: [days.get(q, 0) for q in range(max(days) + 1)]
    ),
)


class TestSweepBlock:
    @settings(max_examples=60, deadline=None)
    @given(block=st.lists(st.tuples(counts_st, levels_st), min_size=1, max_size=6))
    def test_rows_match_the_convolution(self, block):
        models = [FrequentistDemand(counts) for counts, _ in block]
        level_lists = [levels for _, levels in block]
        rows = split(stockout_rows_block(models, level_lists, HORIZON), level_lists)
        for model, levels, got in zip(models, level_lists, rows):
            np.testing.assert_allclose(got, reference_sweep_rows(model, levels, HORIZON), rtol=0, atol=1e-15)
            np.testing.assert_array_equal(got, stockout_rows_block([model], [levels], HORIZON))
            for m in levels:
                expected = reference_sweep_rows(model, [m], HORIZON)[0]
                np.testing.assert_allclose(solve_recursive(model, m, HORIZON).p0[1:], expected, rtol=0, atol=1e-15)
        alone = split(stockout_rows_block(models[::-1], level_lists[::-1], HORIZON), level_lists[::-1])[::-1]
        for got, again in zip(rows, alone):
            np.testing.assert_array_equal(got, again)

    # days of 40, 42, 43 and 45 units: the mass passes the top of 300 by day 8
    FIRST_40 = (FrequentistDemand([0] * 40 + [3, 0, 5, 2, 0, 1]), [5, 100, 300])
    # every day sells 50 or 51 units, past the top: no mass is left after day 1
    PAST_TOP = (FrequentistDemand([0] * 50 + [4, 1]), [10, 20])

    @pytest.mark.parametrize(
        "block",
        [
            [FIRST_40],
            [PAST_TOP],
            [FIRST_40, (FrequentistDemand([2, 1, 0, 3]), [3, 7]), PAST_TOP, (FrequentistDemand([0, 0, 4, 1]), [1, 50])],
        ],
        ids=["first-count-40", "no-mass-below-the-top", "mixed-first-counts"],
    )
    def test_a_band_past_zero(self, block):
        models, level_lists = zip(*block)
        rows = split(stockout_rows_block(models, level_lists, HORIZON), level_lists)
        alone = split(stockout_rows_block(models[::-1], level_lists[::-1], HORIZON), level_lists[::-1])[::-1]
        for model, levels, got, again in zip(models, level_lists, rows, alone):
            np.testing.assert_allclose(got, reference_sweep_rows(model, levels, HORIZON), rtol=0, atol=1e-15)
            np.testing.assert_array_equal(got, stockout_rows_block([model], [levels], HORIZON))
            np.testing.assert_array_equal(got, again)

    def test_the_recursion_takes_the_same_band(self):
        model, levels = self.FIRST_40
        rows = stockout_rows_block([model], [levels], HORIZON)
        # every level is reached by day 8, and past it no mass is left to sell
        np.testing.assert_allclose(rows[:, 7], 1.0, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(rows[:, 8:], np.repeat(rows[:, 7:8], HORIZON - 8, axis=1))
        for m in levels:
            expected = reference_sweep_rows(model, [m], HORIZON)[0]
            np.testing.assert_allclose(solve_recursive(model, m, HORIZON).p0[1:], expected, rtol=0, atol=1e-15)


class TestBlockPlan:
    @settings(max_examples=60, deadline=None)
    @given(tops=st.lists(st.one_of(st.integers(1, 5000), st.integers(_MAX_CELLS, 2 * _MAX_CELLS)), max_size=40))
    def test_empirical_fits_are_cut_by_top(self, tops):
        # one row of sold units per fit, as wide as its top: sorted by top,
        # a new block wherever one more row of the widest top passes the cap
        expected, count = [], 0
        for i in sorted(range(len(tops)), key=tops.__getitem__):
            if expected and (count + 1) * tops[i] <= _MAX_CELLS:
                expected[-1].append(i)
                count += 1
            else:
                expected.append([i])
                count = 1
        assert closed_form.tail_blocks([FrequentistDemand([1, 1])] * len(tops), tops, HORIZON) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        fits=st.lists(
            st.tuples(st.one_of(parametric_st, counts_st.map(FrequentistDemand)), st.integers(1, 300)),
            min_size=1,
            max_size=12,
        )
    )
    def test_a_mixed_list_keeps_one_family_per_block(self, fits):
        models, tops = map(list, zip(*fits))
        blocks = closed_form.tail_blocks(models, tops, HORIZON)
        assert sorted(sum(blocks, [])) == list(range(len(models)))
        assert all(len({models[i].kind for i in block}) == 1 for block in blocks)
        # the empirical fits are cut as they are alone
        at = [i for i, model in enumerate(models) if isinstance(model, FrequentistDemand)]
        alone = closed_form.tail_blocks([models[i] for i in at], [tops[i] for i in at], HORIZON)
        assert [block for block in blocks if block[0] in at] == [[at[i] for i in block] for block in alone]


def _training_file(path, quantities: dict):
    """One row per training day and SKU, and one March sale each."""
    rows = []
    for sku, values in quantities.items():
        rows += sku_rows(sku, date(2021, 2, 1), values) + sku_rows(sku, date(2021, 3, 1), [1])
    write_jsonl(path, rows)
    return ingest(path)


class TestColumnFits:
    QUANTITIES = {
        1: [0, 2, 1, 0, 3],
        2: [2**31 - 1] * 28,  # an int64 sum of squares would wrap
        3: [4],  # one recorded day: no variance under ddof 1
        4: [1, 1, 1],
        5: [0, 0, 7] + [2**31 - 1] * 2,
    }

    @pytest.mark.parametrize("ddof", [0, 1])
    def test_moments_match_the_exact_sums(self, ddof):
        columns = list(self.QUANTITIES.values())
        fits, moments = fit_columns(sum(columns, []), list(map(len, columns)), ("poisson", "bnbp"), ddof)
        assert "nfq" not in fits
        for i, values in enumerate(columns):
            sums = len(values), sum(values), sum(q * q for q in values)
            assert fits["poisson"][i] == PoissonDemand(lam=sums[1] / sums[0])
            if len(values) > ddof:
                assert moments[i] == moments_from_sums(*sums, ddof)
                assert fits["bnbp"][i] == select_bnbp(moments[i])
            else:
                assert fits["bnbp"][i] is None and moments[i] is None

    def test_evaluate_gathers_each_skus_training_rows(self, tmp_path):
        dataset = _training_file(tmp_path / "sales.jsonl", self.QUANTITIES)
        records = evaluate(dataset, FEB, MAR, models=("bnbp",), moment_ddof=1)
        columns = list(self.QUANTITIES.values())
        fits = fit_columns(sum(columns, []), list(map(len, columns)), ("bnbp",), 1)[0]["bnbp"]
        assert [r.branch for r in records] == [None if fit is None else fit.kind for fit in fits]
        assert [r.sku for r in records if r.reason == "estimation_degenerate"] == [3]

    def test_counts_give_the_empirical_fit(self):
        columns = [[0, 2, 1, 0, 3], [5], [0, 0, 0, 1], [9, 0, 9, 2]]
        fits = fit_columns(sum(columns, []), list(map(len, columns)), ("nfq",), 0, [9] * 4)[0]["nfq"]
        for values, fit in zip(columns, fits):
            expected = empirical(values)
            np.testing.assert_array_equal(fit.masses, expected.masses)
            np.testing.assert_array_equal(fit._tails, expected._tails)

    def test_empirical_counts_stop_at_the_largest_level(self, tmp_path, monkeypatch):
        rows = sku_rows(1, date(2021, 2, 1), [0, 2, 1, 0, 3, 2**31 - 1]) + sku_rows(1, date(2021, 3, 1), [1, 0, 2])
        rows += sku_rows(2, date(2021, 2, 1), [0, 10**5, 1, 0, 1]) + sku_rows(2, date(2021, 3, 1), [2, 1])
        write_jsonl(tmp_path / "sales.jsonl", rows)
        dataset = ingest(tmp_path / "sales.jsonl")
        sizes = []
        init = FrequentistDemand.__init__

        def spy(model, counts):
            sizes.append(len(counts))
            init(model, counts)

        monkeypatch.setattr(FrequentistDemand, "__init__", spy)
        records = evaluate(dataset, FEB, MAR, models=("nfq",))
        # both SKUs are read up to m = 3: alpha(0 .. 2) and beta(1 .. 3)
        assert sizes == [4, 4]
        assert [r.status for r in records] == ["scored"] * 4
        # the SKU with a day of 10**5 units scores as its full empirical fit does
        full = empirical([0, 10**5, 1, 0, 1])
        assert full.masses.size == 10**5 + 1
        expected = stockout_rows_block([full], [np.array([2, 3])], HORIZON)
        mine = [r for r in records if r.sku == 2]
        assert [r.p0_at_d for r in mine] == expected[:, -1].tolist()
        assert [r.rps for r in mine] == rps_rows(expected, np.array([1, 2])).tolist()


def _failing_file(path):
    rows = []
    for sku in (1, 2, 3):
        # under-dispersed: binomial bnbp fits of one block
        rows += sku_rows(sku, date(2021, 2, 1), [1, 2, 1, 2, 2, 1, 2, 1, 1, 2 + sku % 2])
        rows += sku_rows(sku, date(2021, 3, 1), [1, 2, 2, 1])
    # over-dispersed, with March sales past any bounded support, which raises
    rows += sku_rows(4, date(2021, 2, 1), [0, 0, 5]) + sku_rows(4, date(2021, 3, 1), [2 * _MAX_WIDTH, 1])
    write_jsonl(path, rows)
    return ingest(path)


class TestFailures:
    def test_a_support_past_the_bound_skips_only_its_sku(self, tmp_path):
        dataset = _failing_file(tmp_path / "sales.jsonl")
        training = [[1, 2, 1, 2, 2, 1, 2, 1, 1, 2 + sku % 2] for sku in (1, 2, 3)] + [[0, 0, 5]]
        fitted = fit_columns(sum(training, []), [10, 10, 10, 3], ("poisson",))[0]["poisson"]
        # SKU 4's support cannot be bounded: its width is infinite, past the cap, so it is a block of its own
        blocks = closed_form.tail_blocks(fitted, [6, 6, 6, 2 * _MAX_WIDTH + 1], HORIZON)
        assert [3] in blocks
        records = evaluate(dataset, FEB, MAR, models=("poisson", "bnbp"))
        failed = {(r.sku, r.model) for r in records if r.reason == "estimation_degenerate"}
        assert failed == {(4, "poisson"), (4, "bnbp")}
        assert all(r.status != "skipped" for r in records if r.sku != 4)

    def test_a_failing_remainder_skips_only_its_sku(self, tmp_path, monkeypatch):
        dataset = _failing_file(tmp_path / "sales.jsonl")
        before = evaluate(dataset, FEB, MAR, models=("bnbp",))
        fits = {r.sku: r.branch for r in before}
        assert fits[1] == fits[2] == fits[3] == "binomial"
        training = [[1, 2, 1, 2, 2, 1, 2, 1, 1, 2 + sku % 2] for sku in (1, 2, 3)]
        fitted = fit_columns(sum(training, []), [10] * 3, ("bnbp",))[0]["bnbp"]
        # SKUs 1 to 3 share one block: SKU 2's failure reruns them one at a time
        assert len(closed_form.tail_blocks(fitted, [6, 6, 6], HORIZON)) == 1
        target = fitted[1]
        reg_inc_beta_lanes = demand.reg_inc_beta_lanes

        def fails_for_sku_2(x, a, b):
            # one pass holds every remainder of the block: a lane of SKU 2 fails it
            if (x == target.p).any():
                raise ConvergenceError("beta continued fraction stalled")
            return reg_inc_beta_lanes(x, a, b)

        monkeypatch.setattr(demand, "reg_inc_beta_lanes", fails_for_sku_2)
        after = evaluate(dataset, FEB, MAR, models=("bnbp",))
        assert {r.sku for r in after if r.reason == "estimation_degenerate"} == {2, 4}
        for old, new in zip(before, after):
            if new.sku != 2:
                assert new == old
