"""Demand distributions: fitted values, tails, moment estimation, and
family selection, checked against hand computations and finite-sum
oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sps

from conftest import FEB_538100
from stockcast.demand import (
    BinomialDemand,
    DeterministicDemand,
    FrequentistDemand,
    MomentEstimates,
    NegativeBinomialDemand,
    PoissonDemand,
    ZeroMeanError,
    fit_columns,
    select_bnbp,
)


def fitted(quantities):
    """The nfq model of one SKU's daily quantities, with a top past every count."""
    return fit_columns(quantities, [len(quantities)], ("nfq",), tops=[max(quantities) + 1])[0]["nfq"][0]


def moments_of(quantities, ddof: int = 0) -> MomentEstimates | None:
    """The moments that choose one SKU's bnbp family."""
    return fit_columns(quantities, [len(quantities)], ("bnbp",), ddof)[1][0]


def tail_by_summation(model, n: int) -> float:
    """Oracle: beta_n = 1 - sum_{j<n} alpha_j."""
    return 1.0 - math.fsum(model.alpha(j) for j in range(n))


class TestFrequentist:
    def test_reference_sku_masses(self):
        model = fitted(FEB_538100)
        assert model.alpha(0) == pytest.approx(17 / 28)
        assert model.alpha(1) == pytest.approx(7 / 28)
        assert model.alpha(2) == pytest.approx(4 / 28)
        assert model.alpha(3) == 0.0

    def test_reference_sku_tail(self):
        model = fitted(FEB_538100)
        assert model.beta(0) == 1.0
        assert model.beta(1) == pytest.approx(1 - 17 / 28, abs=1e-15)
        assert model.beta(3) == 0.0

    def test_all_zero_series(self):
        model = fitted([0] * 10)
        assert model.alpha(0) == 1.0
        assert model.beta(1) == 0.0

    def test_gapped_support(self):
        model = fitted([3, 3, 1])
        assert model.alpha(1) == pytest.approx(1 / 3)
        assert model.alpha(3) == pytest.approx(2 / 3)
        assert model.alpha(0) == 0.0
        assert model.alpha(2) == 0.0

    def test_exact_tail_beyond_support(self):
        model = fitted(FEB_538100)
        assert model.beta(4) == 0.0
        assert model.beta(100) == 0.0

    def test_counts_validate(self):
        # a count is a number of days: 2.7 days is refused, not truncated to 2
        with pytest.raises(ValueError, match=r"^count 2\.7 is not a whole number of days$"):
            FrequentistDemand([2.7, 1])
        with pytest.raises(ValueError, match="^counts must be non-negative$"):
            FrequentistDemand([5, -1, 6])
        np.testing.assert_array_equal(FrequentistDemand([2.0, 1]).masses, FrequentistDemand([2, 1]).masses)


class TestParametricMasses:
    def test_deterministic_delta(self):
        model = DeterministicDemand(h=2)
        assert model.alpha(2) == 1.0
        assert model.alpha(0) == model.alpha(1) == model.alpha(3) == 0.0
        assert model.beta(3) == 0.0
        assert model.beta(2) == 1.0

    def test_poisson_zero_mass(self):
        assert PoissonDemand(lam=1.0).alpha(0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_binomial_mass_matches_comb(self):
        model = BinomialDemand(c=5.0, p=0.3)
        for l in range(6):
            expected = math.comb(5, l) * 0.3**l * 0.7 ** (5 - l)
            assert model.alpha(l) == pytest.approx(expected, rel=1e-12)
        assert model.alpha(6) == 0.0

    def test_negative_binomial_mass(self):
        model = NegativeBinomialDemand(r=2.0, p=0.5)
        # C(r-1+l, l) p^r q^l with r = 2: (l+1) / 2^(l+2)
        for l in range(6):
            assert model.alpha(l) == pytest.approx((l + 1) / 2 ** (l + 2), rel=1e-12)

    def test_beta_zero_is_one_for_every_kind(self):
        models = [
            fitted(FEB_538100),
            DeterministicDemand(h=3),
            PoissonDemand(lam=0.4),
            BinomialDemand(c=3.5, p=0.2),
            NegativeBinomialDemand(r=0.7, p=0.6),
        ]
        for model in models:
            assert model.beta(0) == 1.0


PROPER_MODELS = [
    DeterministicDemand(h=2),
    PoissonDemand(lam=0.3),
    PoissonDemand(lam=3.0),
    BinomialDemand(c=4.0, p=0.35),
    BinomialDemand(c=1.0, p=0.8),
    NegativeBinomialDemand(r=0.6, p=0.35),
    NegativeBinomialDemand(r=2.5, p=0.7),
]


class TestDistributionInvariants:
    @pytest.mark.parametrize("model", PROPER_MODELS, ids=lambda m: f"{m.kind}-{m}")
    def test_mass_sums_to_one(self, model):
        # truncate where the tail drops below 1e-14
        upper = 1
        while model.beta(upper) > 1e-14:
            upper += 1
            assert upper < 10_000
        total = math.fsum(model.alpha(l) for l in range(upper))
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("model", PROPER_MODELS, ids=lambda m: f"{m.kind}-{m}")
    def test_tail_increments_are_masses(self, model):
        for n in range(25):
            assert model.beta(n) - model.beta(n + 1) == pytest.approx(model.alpha(n), abs=1e-12)

    @pytest.mark.parametrize("model", PROPER_MODELS, ids=lambda m: f"{m.kind}-{m}")
    def test_analytic_tail_matches_summation(self, model):
        for n in range(1, 30):
            assert model.beta(n) == pytest.approx(tail_by_summation(model, n), abs=1e-10)

    @pytest.mark.parametrize("model", PROPER_MODELS, ids=lambda m: f"{m.kind}-{m}")
    @pytest.mark.parametrize("k", [2, 5])
    def test_law_over_days_is_the_convolution_power(self, model, k):
        top = 40
        day = model.mass_arrays(top)[0]
        power = np.r_[1.0, np.zeros(top - 1)]
        for _ in range(k):
            power = np.convolve(power, day)[:top]
        np.testing.assert_allclose(model.over(k).mass_arrays(top)[0], power, rtol=0, atol=1e-13)

    def test_frequentist_tail_matches_summation(self):
        model = fitted(FEB_538100)
        for n in range(1, 6):
            assert model.beta(n) == pytest.approx(tail_by_summation(model, n), abs=1e-12)

    def test_generalized_binomial_tail_continuation(self):
        # real customer count: below c + 1 the tail telescopes onto the mass;
        # past it the mass is signed, and the tail points to the closed form
        model = BinomialDemand(c=2.5, p=0.3)
        for n in range(3):
            assert model.beta(n) - model.beta(n + 1) == pytest.approx(model.alpha(n), abs=1e-12)
        for n in (4, 5, 11):
            with pytest.raises(ValueError, match="closed_form_curve"):
                model.beta(n)

    @pytest.mark.parametrize(
        ("model", "top", "tail", "rtol"),
        [
            # 1 - Q(316, 190) rounded beta(316) = 4.48e-17 to 0
            (PoissonDemand(lam=190.0), 4751, lambda n: sps.gammainc(n, 190.0), 1e-11),
            (NegativeBinomialDemand(r=20.0, p=0.1), 4501, lambda n: sps.betainc(n, 20.0, 0.9), 1e-11),
            # beta(21) is the remainder I_p(21, 0.5) alone
            (BinomialDemand(c=20.5, p=0.3), 21, lambda n: sps.betainc(n, 20.5 - n + 1.0, 0.3), 1e-13),
        ],
        ids=["poisson-190", "negbinomial-20-0.1", "binomial-20.5-0.3"],
    )
    def test_tails_match_scipy(self, model, top, tail, rtol):
        n = np.arange(1, top + 1)
        expected = tail(n.astype(float))
        betas = model.mass_arrays(top)[1]
        # scipy underflows somewhere below 1e-300
        resolved = expected > 1e-300
        np.testing.assert_allclose(betas[resolved], expected[resolved], rtol=rtol, atol=0)
        assert np.all(betas[~resolved] < 1e-290)
        for i in np.flatnonzero(resolved)[::97].tolist() + [top - 1]:
            assert model.beta(int(n[i])) == betas[i]


def poisson_cdf_oracle(a: int, x: float) -> float:
    """Brute-force Q(a, x) = P(N < a) for N ~ Poisson(x): sum_{j<a} x^j e^-x / j!."""
    return math.fsum(math.exp(j * math.log(x) - x - math.lgamma(j + 1)) for j in range(a))


class TestPoissonTail:
    """``PoissonDemand(x).beta(a)`` is the regularized lower incomplete
    gamma P(a, x) = 1 - Q(a, x) at integer ``a``, so the values and
    identities once checked on ``Q`` hold for the reverse-summed tail."""

    def test_exponential_special_case(self):
        assert PoissonDemand(lam=2.0).beta(1) == pytest.approx(-math.expm1(-2.0), rel=1e-12)

    def test_at_zero_is_one(self):
        model = PoissonDemand(lam=3.0)
        assert model.beta(0) == 1.0
        assert model.beta(-2) == 1.0

    def test_integer_two_by_series_oracle(self):
        beta = PoissonDemand(lam=1.0).beta(2)
        assert beta == pytest.approx(1.0 - poisson_cdf_oracle(2, 1.0), rel=1e-12)
        assert beta == pytest.approx(1.0 - 2.0 * math.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("a", [1, 2, 3, 7, 20, 50])
    @pytest.mark.parametrize("x", [0.01, 0.5, 1.0, 5.0, 19.5, 80.0])
    def test_integer_a_matches_brute_force(self, a, x):
        assert PoissonDemand(lam=x).beta(a) == pytest.approx(1.0 - poisson_cdf_oracle(a, x), abs=1e-10)

    @given(
        a=st.integers(min_value=0, max_value=80),
        x=st.floats(min_value=0.05, max_value=200.0),
    )
    @settings(max_examples=200)
    def test_recurrence_shift(self, a, x):
        # P(a+1, x) = P(a, x) - x^a e^-x / Gamma(a+1)
        model = PoissonDemand(lam=x)
        bump = math.exp(a * math.log(x) - x - math.lgamma(a + 1.0))
        assert model.beta(a + 1) == pytest.approx(model.beta(a) - bump, abs=1e-10)

    @given(
        a=st.integers(min_value=1, max_value=80),
        x=st.floats(min_value=0.05, max_value=150.0),
        dx=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=200)
    def test_non_decreasing_in_x(self, a, x, dx):
        assert PoissonDemand(lam=x + dx).beta(a) >= PoissonDemand(lam=x).beta(a) - 1e-14

    @given(
        a=st.integers(min_value=1, max_value=120),
        x=st.floats(min_value=0.05, max_value=300.0),
    )
    @settings(max_examples=300)
    def test_against_scipy(self, a, x):
        assert PoissonDemand(lam=x).beta(a) == pytest.approx(float(sps.gammainc(a, x)), rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, -math.inf, math.nan, math.inf])
    def test_domain_errors(self, x):
        with pytest.raises(ValueError):
            PoissonDemand(lam=x)


class TestMoments:
    def test_reference_sku(self):
        moments = moments_of(FEB_538100)
        assert moments.n_days == 28
        assert moments.mean == pytest.approx(15 / 28, abs=1e-15)
        assert moments.variance == pytest.approx(23 / 28 - (15 / 28) ** 2, abs=1e-14)

    def test_constant_series(self):
        moments = moments_of([2, 2, 2])
        assert moments.mean == 2.0
        assert moments.variance == 0.0

    def test_two_point_series(self):
        moments = moments_of([0, 4])
        assert moments.mean == 2.0
        assert moments.variance == 4.0

    def test_ddof_one(self):
        moments = moments_of([0, 4], ddof=1)
        assert moments.variance == 8.0

    def test_ddof_flips_reference_sku_family(self):
        # the n vs n-1 divisor flips the fitted family for this SKU
        with_n = select_bnbp(moments_of(FEB_538100, ddof=0))
        with_n_minus_1 = select_bnbp(moments_of(FEB_538100, ddof=1))
        assert with_n.kind == "binomial"
        assert with_n_minus_1.kind == "negative_binomial"

    def test_no_variance_without_more_days_than_ddof(self):
        assert moments_of([4], ddof=1) is None
        assert moments_of([4], ddof=0) == MomentEstimates(mean=4.0, variance=0.0, n_days=1)


class TestSelectBnbp:
    def test_underdispersed_picks_binomial(self):
        model = select_bnbp(MomentEstimates(mean=2.0, variance=1.0, n_days=10))
        assert isinstance(model, BinomialDemand)
        assert model.p == pytest.approx(0.5)
        assert model.c == pytest.approx(4.0)
        assert model.mean() == pytest.approx(2.0)
        assert model.variance() == pytest.approx(1.0)

    def test_overdispersed_picks_negative_binomial(self):
        model = select_bnbp(MomentEstimates(mean=1.0, variance=2.0, n_days=10))
        assert isinstance(model, NegativeBinomialDemand)
        assert model.p == pytest.approx(0.5)
        assert model.r == pytest.approx(1.0)
        assert model.mean() == pytest.approx(1.0)
        assert model.variance() == pytest.approx(2.0)

    def test_equidispersed_picks_poisson(self):
        model = select_bnbp(MomentEstimates(mean=3.0, variance=3.0, n_days=10))
        assert isinstance(model, PoissonDemand)
        assert model.lam == 3.0

    def test_zero_variance_picks_deterministic(self):
        model = select_bnbp(MomentEstimates(mean=2.0, variance=0.0, n_days=3))
        assert isinstance(model, DeterministicDemand)
        assert model.h == 2

    def test_zero_mean_rejected(self):
        with pytest.raises(ZeroMeanError):
            select_bnbp(MomentEstimates(mean=0.0, variance=0.0, n_days=5))

    @given(
        mean=st.floats(min_value=0.05, max_value=50.0),
        ratio=st.floats(min_value=0.05, max_value=20.0),
    )
    @settings(max_examples=200)
    def test_moment_round_trip(self, mean, ratio):
        variance = mean * ratio
        model = select_bnbp(MomentEstimates(mean=mean, variance=variance, n_days=30))
        assert model.mean() == pytest.approx(mean, rel=1e-9)
        if model.kind != "poisson":
            assert model.variance() == pytest.approx(variance, rel=1e-9)


class TestFitColumns:
    def test_each_sku_is_fitted_as_it_is_alone(self):
        skus = [FEB_538100, [0, 2**31 - 1, 5], [7], [0, 0, 0], [1, 1, 1, 2], [3, 3, 1]]
        qty = [q for quantities in skus for q in quantities]
        tags = ("nfq", "poisson", "bnbp")
        fits, moments = fit_columns(qty, [len(q) for q in skus], tags, tops=[40] * len(skus))
        for i, quantities in enumerate(skus):
            alone = fit_columns(quantities, [len(quantities)], tags, tops=[40])
            assert moments[i] == alone[1][0]
            assert fits["poisson"][i] == alone[0]["poisson"][0]
            assert fits["bnbp"][i] == alone[0]["bnbp"][0]
            np.testing.assert_array_equal(fits["nfq"][i].masses, alone[0]["nfq"][0].masses)

    def test_nfq_needs_a_top(self):
        with pytest.raises(ValueError, match="nfq needs a top stock level per SKU"):
            fit_columns([0, 1], [2], ("nfq",))
        # the moment fits read no top
        assert fit_columns([0, 1], [2], ("bnbp",))[0]["bnbp"][0] == select_bnbp(moments_of([0, 1]))

    def test_degenerate_moments_have_no_model(self):
        fits, moments = fit_columns([0, 0, 3], [2, 1], ("nfq", "poisson", "bnbp"), ddof=1, tops=[1, 4])
        # no sales: the empirical law sits at 0, and no rate or family exists
        assert fits["nfq"][0].alpha(0) == 1.0
        assert fits["poisson"][0] is None and fits["bnbp"][0] is None
        assert moments[0] == MomentEstimates(mean=0.0, variance=0.0, n_days=2)
        # one recorded day: a rate, but no variance under ddof 1
        assert fits["poisson"][1] == PoissonDemand(lam=3.0)
        assert fits["bnbp"][1] is None and moments[1] is None
