"""Checkable sufficient conditions for non-explosion and uniqueness-in-law.

Three groups of checks:

* the smallest constant of a log-modulated quadratic growth bound that holds
  on a grid (controls explosion),
* declared-exponent arithmetic: the regularity regime that the uniqueness
  results need, with the companion exponent's window,
* routing of the degeneracy-occupation requirement: either the inverse weight
  never vanishes (nothing to check on paths) or a path-integrability probe is
  required.

All checks operate on a :class:`~sdelab.coefficients.CoefficientSet`; the
growth bound evaluates coefficients only off the degeneracy set, where the
inverse weight is available as a finite positive number.
"""

from __future__ import annotations

import math

import numpy as np

from .coefficients import CoefficientSet, companion_ok
from .grids import BoxGrid, squared_norm
from .reporting import DiagnosticReport


class ConditionError(ValueError):
    """Raised for invalid inputs to a condition check."""


def _growth_lhs(c: CoefficientSet, x: np.ndarray) -> np.ndarray:
    """Vectorized left side of the dissipativity bound (finite off the null set)."""
    a = c.A(x)
    g = c.G(x)
    w = c.inv_weight(x)
    r2 = squared_norm(x)
    ax_x = np.einsum("...ij,...j,...i->...", a, x, x)
    tr = np.trace(a, axis1=-2, axis2=-1)
    return -ax_x * w / (r2 + 1.0) + 0.5 * tr * w + np.sum(g * x, axis=-1)


def _growth_rhs(x: np.ndarray) -> np.ndarray:
    r2 = squared_norm(x)
    return (r2 + 1.0) * (np.log(r2 + 1.0) + 1.0)


def min_M_on_grid(c: CoefficientSet, bounds, resolution: int) -> float:
    """Smallest nonnegative growth constant ``M`` for which the bound holds on a grid.

    The bound compares the weighted quadratic-form and trace terms plus the
    radial drift component against ``M (|x|^2+1)(ln(|x|^2+1)+1)``.  This
    evaluates the dissipativity quotient on every non-degenerate node of a
    vertex grid over ``bounds`` and returns ``max(0, max lhs/denominator)``.
    Degeneracy-set nodes are skipped (the bound is almost-everywhere).
    """
    grid = BoxGrid(bounds, resolution)
    if grid.dim != c.dim:
        raise ConditionError("bounds dimension does not match the coefficients")
    x = grid.flat_points()
    keep = ~c.inv_weight.null_set_indicator(x)
    x = x[keep]
    if x.size == 0:
        raise ConditionError("all grid nodes lie in the degeneracy set")
    lhs = _growth_lhs(c, x)
    denom = _growth_rhs(x)
    return float(max(0.0, np.max(lhs / denom)))


def a4prime_check(c: CoefficientSet) -> DiagnosticReport:
    """Audit the declared exponents against the uniqueness regime.

    Clauses: ``p = 2d+2`` exactly; ``q > 2d+2``; nonempty companion window for
    ``s`` (reported as the interval ``(d/2, (2/d - 1/q)^{-1})``); declared
    local boundedness of the drift.
    """
    d = c.dim
    e = c.exponents
    rep = DiagnosticReport(
        check="uniqueness_regime_exponents",
        meta={"dim": d, "p": e.p, "q": e.q, "s": e.s, "family": c.family},
    )
    p_target = 2.0 * d + 2.0
    rep.add(
        "p_matches_regime",
        e.p == p_target,
        value=e.p,
        threshold=p_target,
        detail=f"need p = 2d+2 = {p_target:g}",
    )
    rep.add(
        "q_above_regime_floor",
        e.q > p_target,
        value=(math.inf if math.isinf(e.q) else e.q),
        threshold=p_target,
        detail="need q > 2d+2",
    )
    inv_q = 0.0 if math.isinf(e.q) else 1.0 / e.q
    s_lo = d / 2.0
    s_hi = math.inf if 2.0 / d - inv_q <= 0 else 1.0 / (2.0 / d - inv_q)
    # an admissible companion s exists iff 1/q < 2/d (s = inf always works then)
    rep.add(
        "companion_exponent_window_nonempty",
        inv_q < 2.0 / d,
        value=s_hi,
        threshold=s_lo,
        detail=(
            "any s > d/2 works (q essentially infinite)"
            if math.isinf(e.q)
            else f"window ({s_lo:g}, {s_hi:g})"
        ),
    )
    rep.add(
        "declared_s_admissible",
        companion_ok(e.q, e.s, d),
        value=(math.inf if math.isinf(e.s) else e.s),
        detail="need s > d/2 and 1/q + 1/s < 2/d",
    )
    rep.add(
        "drift_locally_bounded",
        c.drift_locally_bounded,
        detail="declared metadata",
    )
    return rep


def occupation_condition_route(c: CoefficientSet) -> str:
    """How to certify that paths spend zero time on the degeneracy set.

    ``strictly_positive``: the chosen version of the inverse weight never
    vanishes, so the requirement holds trivially.  ``integrability_probe``:
    the version has zeros, so a path-functional probe (expected weighted
    occupation of bounded sets stays finite) is required.
    """
    return "integrability_probe" if c.inv_weight.has_zeros else "strictly_positive"
