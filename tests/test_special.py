"""Special-function values against independent oracles (closed forms,
Pascal's triangle, scipy) and the identities they must satisfy. Poisson
tails need no incomplete gamma: they are reverse sums of the day law,
checked against scipy in ``test_demand.py``."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special as sps

from stockcast import special
from stockcast.special import ConvergenceError, reg_inc_beta, reg_inc_beta_lanes, signed_log_gen_binomial


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


# next to the branch switch at a large a, where the continued fraction's own
# rounding is left open (about 6.5e-12 and 1.5e-10 relative against mpmath)
NEAR_SWITCH = [
    (0.9999732010253147, 42978.521913891505, 0.0012730355570551221),
    (0.9999986253279929, 952665.863293639, 0.018603638388552852),
]
shapes_st = st.one_of(st.floats(0.05, 60.0), st.floats(60.0, 1e4))


def scalar_reg_inc_beta(x: float, a: float, b: float) -> float:
    """I_x(a, b) as one scalar loop: the modified-Lentz fraction that every
    lane of ``reg_inc_beta_lanes`` must repeat bit for bit."""
    if x in (0.0, 1.0):
        return x
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - special._log_beta(a, b))
    lower = x < (a + 1.0) / (a + b + 2.0)
    if front == 0.0:
        return 0.0 if lower else 1.0
    if not lower:
        x, a, b = 1.0 - x, b, a
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c, d = 1.0, 1.0 / guarded(1.0 - qab * x / qap)
    h = d
    for m in range(1, special._MAX_ITER + 1):
        aa = m * (b - m) * x / ((qam + 2 * m) * (a + 2 * m))
        d, c = 1.0 / guarded(1.0 + aa * d), guarded(1.0 + aa / c)
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + 2 * m) * (qap + 2 * m))
        d, c = 1.0 / guarded(1.0 + aa * d), guarded(1.0 + aa / c)
        h *= d * c
        if abs(d * c - 1.0) < special._EPS:
            value = front * h / a
            return min(max(value if lower else 1.0 - value, 0.0), 1.0)
    raise ConvergenceError("stalled")


def guarded(value: float) -> float:
    return special._TINY if abs(value) < special._TINY else value


class TestLanes:
    @given(
        lanes=st.lists(st.tuples(st.floats(0.0, 1.0), shapes_st, shapes_st), max_size=30),
        at=st.integers(0, 30),
    )
    @settings(max_examples=150, deadline=None)
    def test_each_lane_is_its_scalar_value(self, lanes, at):
        # lanes that converge early drop out without touching the others
        lanes[at:at] = NEAR_SWITCH
        expected = []
        for lane in lanes:
            try:
                expected.append(scalar_reg_inc_beta(*lane))
            except ConvergenceError:
                expected.append(None)
        x, a, b = (np.array(column) for column in zip(*lanes))
        if None in expected:
            with pytest.raises(ConvergenceError):
                reg_inc_beta_lanes(x, a, b)
        else:
            assert reg_inc_beta_lanes(x, a, b).tolist() == expected
            assert [reg_inc_beta(*lane) for lane in lanes] == expected

    def test_one_stalled_lane_raises_for_all(self):
        # a = b = 1e7 at the switch needs thousands of steps; the other lanes converge
        with pytest.raises(ConvergenceError, match="stalled for a=10000000.0, b=10000000.0, x=0.5"):
            reg_inc_beta_lanes([0.3, 0.5, 0.7], [2.0, 1e7, 3.0], [5.0, 1e7, 1.5])
        assert reg_inc_beta_lanes([0.3, 0.7], [2.0, 3.0], [5.0, 1.5]).tolist() == [
            reg_inc_beta(0.3, 2.0, 5.0),
            reg_inc_beta(0.7, 3.0, 1.5),
        ]

    def test_no_lanes(self):
        assert reg_inc_beta_lanes([], [], []).shape == (0,)

    def test_a_bad_lane_is_named(self):
        with pytest.raises(ValueError, match=r"shape parameters must be positive, got a=0.0, b=1.0"):
            reg_inc_beta_lanes([0.5, 0.5], [1.0, 0.0], [1.0, 1.0])


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
