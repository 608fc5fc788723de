"""Special-function values against independent oracles (closed forms,
Pascal's triangle, scipy) and the identities they must satisfy. Poisson
tails need no incomplete gamma: they are reverse sums of the day law,
checked against scipy in ``test_demand.py``."""

from __future__ import annotations

import math

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special as sps

from stockcast.special import reg_inc_beta, signed_log_gen_binomial


def pascal_triangle(rows: int) -> list[list[int]]:
    triangle = [[1]]
    for _ in range(rows - 1):
        prev = triangle[-1]
        triangle.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    return triangle


class TestRegIncBeta:
    def test_boundaries(self):
        assert reg_inc_beta(0.0, 2.0, 3.0) == 0.0
        assert reg_inc_beta(1.0, 2.0, 3.0) == 1.0

    def test_uniform_cdf(self):
        assert reg_inc_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_power_tail_oracle(self):
        # I_p(1, n) = 1 - (1 - p)^n by direct integration
        assert reg_inc_beta(0.3, 1.0, 4.0) == pytest.approx(1.0 - 0.7**4, rel=1e-12)

    @given(
        # keep x away from the endpoints: forming 1 - x rounds the input,
        # and for a < 1 the slope there turns that ulp into > 1e-12
        # (scipy shows the same effect)
        x=st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
        a=st.floats(min_value=0.05, max_value=60.0),
        b=st.floats(min_value=0.05, max_value=60.0),
    )
    @settings(max_examples=300)
    def test_symmetry(self, x, a, b):
        assert reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_at_exact_complements(self):
        # dyadic x makes 1 - x exact, so the identity must hold even at extremes
        for x in (2.0**-30, 0.25, 0.5, 0.9375, 1.0 - 2.0**-30):
            for a, b in ((0.25, 1.0), (3.0, 7.5), (40.0, 0.3)):
                total = reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a)
                assert total == pytest.approx(1.0, abs=1e-12)

    @given(
        x=st.floats(min_value=0.0, max_value=1.0),
        a=st.floats(min_value=0.05, max_value=200.0),
        b=st.floats(min_value=0.05, max_value=200.0),
    )
    @settings(max_examples=300)
    def test_against_scipy(self, x, a, b):
        assert reg_inc_beta(x, a, b) == pytest.approx(float(sps.betainc(a, b, x)), rel=1e-11, abs=1e-13)

    def test_a_large_shape_keeps_its_digits(self):
        # lgamma(a + b) - lgamma(a) from two values near 8.2e4 lost 1.6e-9 relative here
        x, a, b = 1.0 - 5.6e-5, 10001.0, 0.5 / 31
        with mpmath.workdps(30):
            expected = float(mpmath.betainc(a, b, 0, x, regularized=True))
        assert expected == pytest.approx(8.027465074436462e-3, rel=1e-15)
        assert reg_inc_beta(x, a, b) == pytest.approx(expected, rel=1e-12)

    @given(
        a=st.floats(min_value=8.0, max_value=1e5),
        b=st.floats(min_value=1e-3, max_value=2.0),
        spread=st.floats(min_value=1e-2, max_value=1e2),
    )
    @settings(max_examples=200, deadline=None)
    def test_large_a_small_b_against_mpmath(self, a, b, spread):
        # 1 - x at spread times b / a, the scale of 1 - X for X ~ Beta(a, b), so
        # I_x(a, b) is not negligible; the tolerance is the continued fraction's
        # own rounding next to the branch switch (up to about 1e-11 at a = 1e5)
        x = 1.0 - spread * b / a
        assume(x > 0.0)
        with mpmath.workdps(30):
            expected = float(mpmath.betainc(a, b, 0, x, regularized=True))
        assert reg_inc_beta(x, a, b) == pytest.approx(expected, rel=5e-11)

    @pytest.mark.parametrize("x,a,b", [(-0.1, 1.0, 1.0), (1.1, 1.0, 1.0), (0.5, 0.0, 1.0), (0.5, 1.0, -2.0)])
    def test_domain_errors(self, x, a, b):
        with pytest.raises(ValueError):
            reg_inc_beta(x, a, b)


class TestSignedLogGenBinomial:
    def test_known_values(self):
        assert signed_log_gen_binomial(5.0, 2) == (1.0, pytest.approx(math.log(10.0), rel=1e-12))
        assert signed_log_gen_binomial(7.0, 0) == (1.0, 0.0)
        assert signed_log_gen_binomial(2.5, 2) == (1.0, pytest.approx(math.log(1.875), rel=1e-12))

    def test_integer_grid_matches_pascal(self):
        triangle = pascal_triangle(40)
        for n in range(40):
            for r in range(n + 1):
                sign, log_mag = signed_log_gen_binomial(float(n), r)
                assert sign == 1.0
                assert math.exp(log_mag) == pytest.approx(triangle[n][r], rel=1e-12)

    def test_large_integer_exact_enough(self):
        sign, log_mag = signed_log_gen_binomial(170.0, 80)
        assert sign == 1.0
        assert math.exp(log_mag) == pytest.approx(math.comb(170, 80), rel=1e-12)

    def test_vanishing_integer_coefficient(self):
        assert signed_log_gen_binomial(0.0, 3) == (0.0, -math.inf)
        assert signed_log_gen_binomial(4.0, 9) == (0.0, -math.inf)
        assert signed_log_gen_binomial(3.0, 5)[0] == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            signed_log_gen_binomial(5.0, -1)
        with pytest.raises(ValueError):
            signed_log_gen_binomial(-3.0, 2)

    def test_tracks_sign(self):
        # falling factorial: 2.5 * 1.5 * 0.5 * (-0.5) / 4! = -0.0390625
        sign, log_mag = signed_log_gen_binomial(2.5, 4)
        assert sign == -1.0
        assert math.exp(log_mag) == pytest.approx(0.0390625, rel=1e-12)
