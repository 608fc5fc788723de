"""Scalar special functions backing the analytic stock solutions.

The regularized incomplete beta comes from its continued fraction, by
the modified Lentz scheme, on whichever side of its symmetry converges
fastest, with ``log B(a, b)`` for a large shape from a Stirling-corrected
difference; it closes the binomial and slow negative binomial tails. All
functions are pure and safe to call from any number of threads.
"""

from __future__ import annotations

import math

__all__ = [
    "ConvergenceError",
    "reg_inc_beta",
    "signed_log_gen_binomial",
]

_MAX_ITER = 500
_TINY = 1e-300  # Lentz guard against vanishing denominators
_EPS = 1e-15
_UNIT_SLACK = 1e-12  # roundoff tolerated past [0, 1], or in a CDF's order


class ConvergenceError(ArithmeticError):
    """An iterative expansion failed to converge or produced a value
    outside its guaranteed range; partial results are never returned."""


def _clamp_unit(value: float) -> float:
    if value < 0.0:
        if value < -_UNIT_SLACK:
            raise ConvergenceError(f"probability escaped [0, 1]: {value!r}")
        return 0.0
    if value > 1.0:
        if value > 1.0 + _UNIT_SLACK:
            raise ConvergenceError(f"probability escaped [0, 1]: {value!r}")
        return 1.0
    return value


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b).

    Continued-fraction evaluation on whichever side of the symmetry
    I_x(a, b) = 1 - I_{1-x}(b, a) converges fastest.
    """
    if not (math.isfinite(x) and math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"arguments must be finite, got x={x!r}, a={a!r}, b={b!r}")
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be positive, got a={a!r}, b={b!r}")
    if x < 0.0 or x > 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b))
    lower = x < (a + 1.0) / (a + b + 2.0)
    if front == 0.0:  # the fraction would only be scaled by zero
        return 0.0 if lower else 1.0
    if lower:
        return _clamp_unit(front * _beta_cf(a, b, x) / a)
    return _clamp_unit(1.0 - front * _beta_cf(b, a, 1.0 - x) / b)


def _log_beta(a: float, b: float) -> float:
    """log B(a, b). Past a shape of 8, ``lgamma(big + small) -
    lgamma(big)`` is taken as one Stirling-corrected difference
    (DiDonato & Morris 1992, ``algdiv``), not from two large ``lgamma``
    values that cancel."""
    small, big = sorted((a, b))
    if big < 8.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    total = big + small
    rise = (big - 0.5) * math.log1p(small / big) + small * math.log(total) - small
    return math.lgamma(small) - (rise + _stirling_rest(total) - _stirling_rest(big))


def _stirling_rest(z: float) -> float:
    """lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2) for z >= 8, from
    the asymptotic series, which is below 1e-15 past its seventh term."""
    w = 1.0 / (z * z)
    series = 0.0
    for c in (1.0 / 156.0, -691.0 / 360360.0, 1.0 / 1188.0, -1.0 / 1680.0, 1.0 / 1260.0, -1.0 / 360.0, 1.0 / 12.0):
        series = series * w + c
    return series / z


def _beta_cf(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ConvergenceError(f"beta continued fraction stalled for a={a}, b={b}, x={x}")


def signed_log_gen_binomial(top: float, r: int) -> tuple[float, float]:
    """Sign and log magnitude of the generalized binomial coefficient C(top, r).

    Returns (sign, ln|C|) with sign in {-1.0, 0.0, 1.0}; sign 0.0 marks a
    coefficient that is exactly zero (integer top below r).
    """
    if r != int(r) or r < 0:
        raise ValueError(f"r must be a non-negative integer, got {r!r}")
    if not math.isfinite(top):
        raise ValueError(f"top must be finite, got {top!r}")
    r = int(r)
    if r == 0:
        return 1.0, 0.0
    if top - r + 1.0 > 0.0:
        return 1.0, math.lgamma(top + 1.0) - math.lgamma(r + 1.0) - math.lgamma(top - r + 1.0)
    if top >= 0.0 and float(top).is_integer():
        # integer top strictly below r: a Gamma pole in the denominator
        # kills the coefficient exactly
        return 0.0, -math.inf
    if top < 0.0 and float(top).is_integer():
        raise ValueError(f"coefficient undefined at negative integer top={top!r}")
    # real top at or below r - 1: falling factorial with sign tracking
    sign = 1.0
    log_mag = -math.lgamma(r + 1.0)
    for j in range(r):
        factor = top - j
        if factor == 0.0:
            return 0.0, -math.inf
        if factor < 0.0:
            sign = -sign
        log_mag += math.log(abs(factor))
    return sign, log_mag
