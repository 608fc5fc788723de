"""Special functions backing the analytic stock solutions.

The regularized incomplete beta comes from its continued fraction, by
the modified Lentz scheme, on whichever side of its symmetry converges
fastest, with ``log B(a, b)`` for a large shape from a Stirling-corrected
difference; it closes the binomial and slow negative binomial tails.
``reg_inc_beta_lanes`` evaluates many arguments in one pass over numpy
lanes, each lane with the bits it gets alone, and ``reg_inc_beta`` is
its one-lane call. All functions are pure and safe to call from any
number of threads.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ConvergenceError",
    "reg_inc_beta",
    "reg_inc_beta_lanes",
    "signed_log_gen_binomial",
]

_MAX_ITER = 500
_TINY = 1e-300  # Lentz guard against vanishing denominators
_EPS = 1e-15
_UNIT_SLACK = 1e-12  # roundoff tolerated past [0, 1], or in a CDF's order


class ConvergenceError(ArithmeticError):
    """An iterative expansion failed to converge or produced a value
    outside its guaranteed range; partial results are never returned."""


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b): one lane of
    ``reg_inc_beta_lanes``."""
    return float(reg_inc_beta_lanes([x], [a], [b])[0])


def reg_inc_beta_lanes(x, a, b) -> np.ndarray:
    """Regularized incomplete beta I_x(a, b) of every lane of the arrays
    ``x``, ``a`` and ``b``, from one continued-fraction pass over them all,
    each lane on whichever side of the symmetry I_x(a, b) = 1 - I_{1-x}(b, a)
    converges fastest. A lane's value does not depend on the other lanes:
    its front factor comes from the ``math`` functions, and the fraction
    only adds, multiplies and divides."""
    x, a, b = (v.ravel() for v in np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, a, b))))
    for bad, message in (
        (~(np.isfinite(x) & np.isfinite(a) & np.isfinite(b)), "arguments must be finite, got x={}, a={}, b={}"),
        ((a <= 0.0) | (b <= 0.0), "shape parameters must be positive, got a={1}, b={2}"),
        ((x < 0.0) | (x > 1.0), "x must lie in [0, 1], got {0}"),
    ):
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise ValueError(message.format(repr(x[i].item()), repr(a[i].item()), repr(b[i].item())))
    values = np.where(x < 0.5, 0.0, 1.0)  # the value at x = 0 and at x = 1
    inner = np.flatnonzero((x > 0.0) & (x < 1.0))
    x, a, b = x[inner], a[inner], b[inner]
    front = np.array([_front(*lane) for lane in zip(x.tolist(), a.tolist(), b.tolist())])
    lower = x < (a + 1.0) / (a + b + 2.0)
    # a front factor of exactly 0.0 would only scale the fraction: 0 or 1
    values[inner] = np.where(lower, 0.0, 1.0)
    live = front != 0.0
    shape = np.where(lower, a, b)[live]
    fraction = _beta_cf(shape, np.where(lower, b, a)[live], np.where(lower, x, 1.0 - x)[live])
    head = front[live] * fraction / shape
    values[inner[live]] = np.where(lower[live], head, 1.0 - head)
    escaped = (values < -_UNIT_SLACK) | (values > 1.0 + _UNIT_SLACK)
    if escaped.any():
        raise ConvergenceError(f"probability escaped [0, 1]: {values[escaped][0].item()!r}")
    return np.where(values < 0.0, 0.0, np.where(values > 1.0, 1.0, values))


def _front(x: float, a: float, b: float) -> float:
    """x^a (1 - x)^b / B(a, b), from the ``math`` functions: numpy's own
    log and exp may differ from them in the last bit."""
    return math.exp(a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b))


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


def _beta_cf(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The continued fraction of I_x(a, b) of every lane by the modified
    Lentz scheme (Lentz 1976; Numerical Recipes ``betacf``), each lane in
    the scalar order of operations; a lane that has converged drops out,
    and any lane still open after ``_MAX_ITER`` steps raises."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    fraction = np.empty(a.size)
    lanes = np.arange(a.size)
    c = np.ones(a.size)
    d = _guarded(1.0 - qab * x / qap)
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        if not lanes.size:
            return fraction
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / _guarded(1.0 + aa * d)
        c = _guarded(1.0 + aa / c)
        h = h * (d * c)
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / _guarded(1.0 + aa * d)
        c = _guarded(1.0 + aa / c)
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < _EPS
        if done.any():
            fraction[lanes[done]] = h[done]
            going = ~done
            lanes, a, b, x, qab, qap, qam, c, d, h = (v[going] for v in (lanes, a, b, x, qab, qap, qam, c, d, h))
    if not lanes.size:
        return fraction
    raise ConvergenceError(f"beta continued fraction stalled for a={a[0].item()}, b={b[0].item()}, x={x[0].item()}")


def _guarded(value: np.ndarray) -> np.ndarray:
    """Lentz's guard against vanishing denominators."""
    return np.where(np.abs(value) < _TINY, _TINY, value)


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
