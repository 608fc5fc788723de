"""The verification matrix shared by ``stockcast selftest`` and the
acceptance suite.

Each check runs on the grid and tolerance its caller gives and returns
``(passed, detail)``. The routes under test are looked up through their
modules at call time, so a perturbed route is the one checked.
"""

from __future__ import annotations

import math

import numpy as np

from . import closed_form as _closed_form
from . import engine as _engine
from . import metrics as _metrics

__all__ = [
    "closed_form_vs_recursion",
    "lattice_normalization",
    "frustrated_sales_dual_route",
    "monte_carlo_bands",
    "score_identities",
]


def _lattices(models, m_values, horizon):
    for model in models:
        for m in m_values:
            yield model, m, _engine.solve_recursive(model, m, horizon)


def closed_form_vs_recursion(models, m_values, horizon: int, tolerance: float) -> tuple[bool, str]:
    """Every lattice cell, stockout and frustrated-sales value of the
    recursion against its closed form."""
    worst = 0.0
    for model, m, dist in _lattices(models, m_values, horizon):
        curve = _closed_form.closed_form_curve(model, m, horizon)
        worst = max(worst, float(np.abs(dist.p0 - curve.p0).max()), float(np.abs(dist.pf - curve.pf).max()))
        for k in range(horizon + 1):
            for n in range(1, m + 1):
                worst = max(worst, abs(dist.lattice[n, k] - _closed_form.cf_pnk(model, m, n, k)))
    return worst <= tolerance, f"max |closed form - recursion| = {worst:.3e}"


def lattice_normalization(models, m_values, horizon: int, tolerance: float) -> tuple[bool, str]:
    """Lattice columns sum to 1, the stockout curve never decreases, and
    the full-stock row follows alpha_0^k."""
    worst = 0.0
    for model, m, dist in _lattices(models, m_values, horizon):
        worst = max(worst, float(np.abs(dist.lattice.sum(axis=0) - 1.0).max()))
        if np.any(np.diff(dist.p0) < 0.0):
            return False, f"stockout curve decreased for {model}, m={m}"
        powers = model.alpha(0) ** np.arange(horizon + 1)
        full = float(np.abs(dist.lattice[m, :] - powers).max())
        if full > tolerance:
            return False, f"full-stock row off alpha_0^k by {full:.3e} for {model}, m={m}"
    return worst <= tolerance, f"max |column sum - 1| = {worst:.3e}"


def frustrated_sales_dual_route(models, m_values, horizon: int, tolerance: float) -> tuple[bool, str]:
    """The recursion's two-stock P_F(k) against the one recomputed
    from stockout increments and the lattice."""
    worst = 0.0
    for model, _, dist in _lattices(models, m_values, horizon):
        alt = _engine.frustrated_sales_via_pfk(model, dist)
        worst = max(worst, float(np.abs(alt[1:] - dist.pf[1:]).max()))
    return worst <= tolerance, f"max dual-route gap = {worst:.3e}"


def monte_carlo_bands(cases, horizon: int, trials: int, seed: int, z_max: float) -> tuple[bool, str]:
    """Simulated P(0,k) and P_F(k) within ``z_max`` binomial standard
    errors of the exact curve, for each ``(model, m)`` case."""
    worst_z = 0.0
    for model, m in cases:
        reference = _closed_form.closed_form_curve(model, m, horizon)
        empirical = _engine.monte_carlo_oracle(model, m, horizon, trials, seed=seed)
        for k in range(1, horizon + 1):
            for emp, ref in (
                (empirical.p0[k], reference.p0[k]),
                (empirical.pf[k], reference.pf[k]),
            ):
                sigma = math.sqrt(max(ref, 0.0) * max(1.0 - ref, 0.0) / trials)
                if sigma == 0.0:
                    if emp != ref:
                        return False, f"{model}, m={m}, day {k}: {emp} != {ref} with zero variance"
                    continue
                worst_z = max(worst_z, abs(emp - ref) / sigma)
    return worst_z <= z_max, f"max |z| = {worst_z:.2f} over {z_max:g}-sigma bands"


def score_identities(point_horizon: int, baseline_horizon: int, tolerance: float) -> tuple[bool, str]:
    """A point forecast scores exactly its distance in days, and the
    uniform baseline is (d/6, d^2/180)."""
    d = point_horizon
    u, u0 = np.indices((d, d)).reshape(2, -1) + 1  # every (u, u0) pair
    got = _metrics.rps_rows(np.arange(1, d + 1) >= u0[:, None], u)
    miss = np.flatnonzero(got != np.abs(u - u0))
    if miss.size:
        i = miss[0]
        return False, f"point forecast mismatch at u={u[i]}, u0={u0[i]}: {got[i]}"
    d = baseline_horizon
    mean, variance = _metrics.baseline_uniform(d)
    if abs(mean - d / 6.0) > tolerance or abs(variance - d * d / 180.0) > tolerance:
        return False, "uniform baseline constants off"
    return True, "point-forecast and baseline identities hold"
