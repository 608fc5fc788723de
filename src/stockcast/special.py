"""Scalar special functions backing the analytic stock solutions.

Regularized incomplete gamma and beta values are computed with the
classic series / continued-fraction split; continued fractions use the
modified Lentz scheme. All functions are pure and safe to call from
any number of threads.
"""

from __future__ import annotations

import math

__all__ = [
    "ConvergenceError",
    "reg_upper_gamma",
    "reg_inc_beta",
    "signed_log_gen_binomial",
]

_MAX_ITER = 500
_TINY = 1e-300  # Lentz guard against vanishing denominators
_EPS = 1e-15
_UNIT_SLACK = 1e-12  # tolerated overshoot past the [0, 1] boundary


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


def reg_upper_gamma(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = Gamma(a, x) / Gamma(a).

    Q(a, 0) = 1 and Q(a, x) -> 0 as x -> inf. Uses the lower series for
    x < a + 1 and the continued fraction otherwise.
    """
    if not (math.isfinite(a) and math.isfinite(x)):
        raise ValueError(f"arguments must be finite, got a={a!r}, x={x!r}")
    if a <= 0.0 or x < 0.0:
        raise ValueError(f"domain requires a > 0 and x >= 0, got a={a!r}, x={x!r}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return _clamp_unit(1.0 - _lower_gamma_series(a, x))
    return _clamp_unit(_upper_gamma_cf(a, x))


def _log_gamma_front(a: float, x: float) -> float:
    """log(x^a e^-x / Gamma(a)). Near x = a the three terms of
    a log x - x - lgamma(a) cancel to rounding of their size, which can
    make Q rise with x; there the part that varies with x is taken about
    x = a, where x - a is exact."""
    if not a / 2.0 <= x <= 2.0 * a:
        return a * math.log(x) - x - math.lgamma(a)
    return a * math.log1p((x - a) / a) - (x - a) + (a * math.log(a) - a - math.lgamma(a))


def _lower_gamma_series(a: float, x: float) -> float:
    # P(a, x) = x^a e^-x / Gamma(a) * sum_n x^n / (a (a+1) ... (a+n))
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * math.exp(_log_gamma_front(a, x))
    raise ConvergenceError(f"gamma series did not converge for a={a}, x={x}")


def _upper_gamma_cf(a: float, x: float) -> float:
    # Q(a, x) = x^a e^-x / Gamma(a) * 1/(x+1-a- 1(1-a)/(x+3-a- ...))
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h * math.exp(_log_gamma_front(a, x))
    raise ConvergenceError(f"gamma continued fraction stalled for a={a}, x={x}")


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
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return _clamp_unit(front * _beta_cf(a, b, x) / a)
    return _clamp_unit(1.0 - front * _beta_cf(b, a, 1.0 - x) / b)


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
