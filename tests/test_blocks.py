"""Block kernels against the per-model arithmetic they replace: the tail
rows of a block of parametric fits, the shared sold-units sweep of a
block of empirical fits, the column fits of ``evaluate``, and the
failures that must stay with the SKU that raised them."""

from __future__ import annotations

import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sku_rows, write_jsonl
from stockcast import closed_form, demand, harness
from stockcast.closed_form import stockout_tail_block
from stockcast.demand import (
    _MAX_WIDTH,
    BinomialDemand,
    DeterministicDemand,
    FrequentistDemand,
    NegativeBinomialDemand,
    PoissonDemand,
    fit_frequentist,
    _remainder,
    _support,
    moments_from_quantities,
    select_bnbp,
)
from stockcast.engine import _MAX_CELLS, solve_recursive, stockout_rows_block
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
    width, closed = _support(model, float(horizon), int(levels.max()))
    # a binomial level past the support reads its last column, a zero
    levels = np.minimum(levels, width - 1)
    cuts = np.unique(levels)
    rows = np.empty((levels.size, horizon))
    for k, day in enumerate(days.tolist()):
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
        closing = _remainder(model, day, width, closed)
        if closing is not None:
            J, remainder = closing
            weights[J:] = 0.0
            weights *= (1.0 - remainder) / weights.sum()
            weights[J] = remainder
        sums = np.add.reduceat(weights, np.r_[0, cuts])
        upper = np.cumsum(sums[::-1])[::-1]
        below = np.cumsum(sums) - sums
        tails = np.where(upper < 0.5 * upper[0], upper / upper[0], 1.0 - below / upper[0])
        rows[:, k] = tails[np.searchsorted(cuts, levels) + 1]
    return rows


def reference_sweep_rows(model, levels, horizon) -> np.ndarray:
    """``stockout_rows_block`` of one model alone, by convolution: the shared
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
    st.builds(BinomialDemand, c=st.floats(0.5, 40.0), p=st.floats(0.01, 0.99)),
    st.builds(BinomialDemand, c=st.integers(1, 40).map(float), p=st.floats(0.01, 0.99)),
    st.builds(DeterministicDemand, h=st.integers(1, 9)),
)
# one support past the cell cap: its grid runs in day chunks
WIDE = PoissonDemand(lam=60.0)


def split(rows: np.ndarray, level_lists) -> list:
    return np.split(rows, np.cumsum([len(levels) for levels in level_lists])[:-1])


class TestTailBlock:
    def test_wide_model_passes_the_cell_cap(self):
        assert HORIZON * _support(WIDE, float(HORIZON), 300)[0] > _MAX_CELLS

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

    def test_closed_negative_binomial_in_a_block(self):
        # q near 1: the slow tail is closed by an incomplete-beta remainder
        slow = NegativeBinomialDemand(r=0.2, p=2e-4)
        models = [slow, NegativeBinomialDemand(r=2.0, p=0.4), slow]
        level_lists = [[5, 40], [3, 9, 9], [40]]
        rows = split(stockout_tail_block(models, level_lists, 7), level_lists)
        for model, levels, got in zip(models, level_lists, rows):
            np.testing.assert_array_equal(got, reference_tail_rows(model, levels, 7))

    @pytest.mark.parametrize(
        "model",
        [PoissonDemand(lam=1e35), NegativeBinomialDemand(r=1e34, p=0.5), BinomialDemand(c=1e35, p=0.5)],
        ids=lambda m: m.kind,
    )
    def test_a_mean_past_the_ratio_bound_needs_too_wide_a_support(self, model):
        # the pmf ratio rounds to 1 and bounds no tail: log1p(-1) used to fail
        with pytest.raises(ConvergenceError, match="support terms"):
            _support(model, 1.0, 2)

    def test_unbounded_support_raises_for_the_block(self):
        with pytest.raises(ConvergenceError):
            stockout_tail_block([PoissonDemand(lam=1.0), PoissonDemand(lam=1.0)], [[3], [2 * _MAX_WIDTH]], HORIZON)


counts_st = st.lists(st.integers(0, 5), min_size=1, max_size=20).filter(lambda c: sum(c) > 0)


class TestSweepBlock:
    @settings(max_examples=40, deadline=None)
    @given(block=st.lists(st.tuples(counts_st, levels_st), min_size=1, max_size=6))
    def test_rows_match_the_convolution(self, block):
        models = [FrequentistDemand.from_counts(counts) for counts, _ in block]
        level_lists = [levels for _, levels in block]
        rows = split(stockout_rows_block(models, level_lists, HORIZON), level_lists)
        for model, levels, got in zip(models, level_lists, rows):
            np.testing.assert_allclose(got, reference_sweep_rows(model, levels, HORIZON), rtol=0, atol=1e-15)
            np.testing.assert_array_equal(got, stockout_rows_block([model], [levels], HORIZON))
        alone = split(stockout_rows_block(models[::-1], level_lists[::-1], HORIZON), level_lists[::-1])[::-1]
        for got, again in zip(rows, alone):
            np.testing.assert_array_equal(got, again)

    def test_wide_support_keeps_the_convolution(self):
        # 40 units on some days: past the shared sweep's support bound
        wide = FrequentistDemand.from_counts([3, 1] + [0] * 37 + [2])
        narrow = FrequentistDemand.from_counts([2, 1, 1])
        rows = stockout_rows_block([narrow, wide], [[4, 90], [50, 120, 7]], HORIZON)
        np.testing.assert_array_equal(rows[2:], reference_sweep_rows(wide, [50, 120, 7], HORIZON))
        for m, row in zip([50, 120, 7], rows[2:]):
            np.testing.assert_allclose(row, solve_recursive(wide, m, HORIZON).p0[1:], rtol=0, atol=1e-15)


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
    def test_moments_match_moments_from_quantities(self, tmp_path, ddof):
        dataset = _training_file(tmp_path / "sales.jsonl", self.QUANTITIES)
        lo, hi = dataset._window_bounds(FEB)
        fits = harness._column_fits(dataset, lo, hi, ("poisson", "bnbp"), ddof, hi - lo)
        assert "nfq" not in fits
        for i, values in enumerate(self.QUANTITIES.values()):
            assert fits["poisson"][0][i] == PoissonDemand(lam=moments_from_quantities(values).mean)
            if len(values) > ddof:
                fit = select_bnbp(moments_from_quantities(values, ddof))
                assert fits["bnbp"][0][i] == fit
                assert fits["bnbp"][1][i] == harness._CODES["branch"][fit.kind]
            else:
                assert fits["bnbp"][0][i] is None
                assert fits["bnbp"][2][i] == harness._DEGENERATE

    def test_counts_give_the_empirical_fit(self, tmp_path):
        quantities = {1: [0, 2, 1, 0, 3], 2: [5], 3: [0, 0, 0, 1], 4: [9, 0, 9, 2]}
        dataset = _training_file(tmp_path / "sales.jsonl", quantities)
        lo, hi = dataset._window_bounds(FEB)
        fits = harness._column_fits(dataset, lo, hi, ("nfq",), 0, np.full(lo.size, 9))["nfq"][0]
        for sku, fit in zip(quantities, fits):
            expected = fit_frequentist(dataset.series(sku, FEB))
            np.testing.assert_array_equal(fit.masses, expected.masses)
            np.testing.assert_array_equal(fit._tails, expected._tails)


    def test_empirical_counts_stop_at_the_largest_level(self, tmp_path, monkeypatch):
        rows = sku_rows(1, date(2021, 2, 1), [0, 2, 1, 0, 3, 2**31 - 1]) + sku_rows(1, date(2021, 3, 1), [1, 0, 2])
        rows += sku_rows(2, date(2021, 2, 1), [0, 10**5, 1, 0, 1]) + sku_rows(2, date(2021, 3, 1), [2, 1])
        write_jsonl(tmp_path / "sales.jsonl", rows)
        dataset = ingest(tmp_path / "sales.jsonl")
        sizes = []
        from_counts = FrequentistDemand.from_counts.__func__

        def spy(cls, counts):
            sizes.append(len(counts))
            return from_counts(cls, counts)

        monkeypatch.setattr(FrequentistDemand, "from_counts", classmethod(spy))
        records = evaluate(dataset, FEB, MAR, models=("nfq",))
        # both SKUs are read up to m = 3: alpha(0 .. 2) and beta(1 .. 3)
        assert sizes == [4, 4]
        assert [r.status for r in records] == ["scored"] * 4
        # the SKU with a day of 10**5 units scores as its full empirical fit does
        full = fit_frequentist(dataset.series(2, FEB))
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
    # over-dispersed, with March sales past any bounded support: a block of its own, which raises
    rows += sku_rows(4, date(2021, 2, 1), [0, 0, 5]) + sku_rows(4, date(2021, 3, 1), [2 * _MAX_WIDTH, 1])
    write_jsonl(path, rows)
    return ingest(path)


class TestFailures:
    def test_a_support_past_the_bound_skips_only_its_sku(self, tmp_path):
        dataset = _failing_file(tmp_path / "sales.jsonl")
        records = evaluate(dataset, FEB, MAR, models=("poisson", "bnbp"))
        failed = {(r.sku, r.model) for r in records if r.reason == "estimation_degenerate"}
        assert failed == {(4, "poisson"), (4, "bnbp")}
        assert all(r.status != "skipped" for r in records if r.sku != 4)

    def test_a_failing_remainder_skips_only_its_sku(self, tmp_path, monkeypatch):
        dataset = _failing_file(tmp_path / "sales.jsonl")
        before = evaluate(dataset, FEB, MAR, models=("bnbp",))
        fits = {r.sku: r.branch for r in before}
        assert fits[1] == fits[2] == fits[3] == "binomial"
        fitted = [select_bnbp(moments_from_quantities([1, 2, 1, 2, 2, 1, 2, 1, 1, 2 + sku % 2])) for sku in (1, 2, 3)]
        # SKUs 1 to 3 share one block: SKU 2's failure reruns them one at a time
        assert len(closed_form.tail_blocks(fitted, [6, 6, 6], HORIZON)) == 1
        target = fitted[1]
        reg_inc_beta = demand.reg_inc_beta

        def fails_for_sku_2(x, a, b):
            if x == target.p:
                raise ConvergenceError("beta continued fraction stalled")
            return reg_inc_beta(x, a, b)

        monkeypatch.setattr(demand, "reg_inc_beta", fails_for_sku_2)
        after = evaluate(dataset, FEB, MAR, models=("bnbp",))
        assert {r.sku for r in after if r.reason == "estimation_degenerate"} == {2, 4}
        for old, new in zip(before, after):
            if new.sku != 2:
                assert new == old
