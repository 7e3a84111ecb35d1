"""Condition-check tests.

Both sides of the growth bound are frozen from hand arithmetic; the grid
minimizer for the growth constant is checked against the analytic maximizer
of the dissipativity quotient (the origin, for the identity families).
"""

import dataclasses
import math

import numpy as np
import pytest

from sdelab import builtin_family
from sdelab.coefficients import Exponents
from sdelab.conditions import (
    ConditionError,
    _growth_lhs,
    _growth_rhs,
    a4prime_check,
    min_M_on_grid,
    occupation_condition_route,
)


def _growth_at(c, x):
    """Both sides of the dissipativity bound at one point, for ``M = 1``."""
    x = np.asarray([x], dtype=float)
    return float(_growth_lhs(c, x)[0]), float(_growth_rhs(x)[0])


class TestGrowthMargin:
    def test_ou_margin_frozen(self, ou2):
        # x = (1,0), M = 1: lhs = -1/2 + 1 - 1 = -1/2, rhs = 2(ln 2 + 1)
        lhs, rhs = _growth_at(ou2, [1.0, 0.0])
        assert np.isclose(lhs, -0.5, atol=1e-14)
        assert np.isclose(rhs, 2.0 * (math.log(2.0) + 1.0), atol=1e-14)
        assert np.isclose(rhs - lhs, 2.0 * (math.log(2.0) + 1.0) + 0.5, atol=1e-14)
        assert rhs - lhs > 0

    def test_brownian_closed_form(self, brownian2):
        # lhs = 1 - r^2/(r^2+1) for the planar identity diffusion
        for x in ([0.0, 0.0], [1.0, 1.0], [-2.0, 0.5]):
            r2 = float(np.dot(x, x))
            lhs, _ = _growth_at(brownian2, x)
            assert np.isclose(lhs, 1.0 - r2 / (r2 + 1.0), atol=1e-13)

    def test_cubic_drift_fails_far_out(self):
        c = builtin_family("brownian", 2, drift="cubic_outward")
        got_lhs, got_rhs = _growth_at(c, [10.0, 0.0])
        # lhs = -100/101 + 1 + 10^4; rhs = 101 (ln 101 + 1)
        lhs = -100.0 / 101.0 + 1.0 + 1.0e4
        rhs = 101.0 * (math.log(101.0) + 1.0)
        assert np.isclose(got_lhs, lhs, rtol=1e-13)
        assert np.isclose(got_rhs, rhs, rtol=1e-13)
        assert got_rhs - got_lhs < 0


class TestMinM:
    def test_brownian_exact_one(self, brownian2):
        # quotient is 1 at the origin and strictly below 1 elsewhere
        got = min_M_on_grid(brownian2, [[-2, 2], [-2, 2]], 65)
        assert abs(got - 1.0) <= 1e-12

    def test_brownian_one_on_other_boxes(self, brownian2):
        got = min_M_on_grid(brownian2, [[-5, 5], [-5, 5]], 81)
        assert abs(got - 1.0) <= 1e-12

    def test_ou_at_most_one(self, ou2):
        assert min_M_on_grid(ou2, [[-4, 4], [-4, 4]], 81) <= 1.0 + 1e-12

    def test_radial_skips_origin(self, radial2):
        got = min_M_on_grid(radial2, [[-2, 2], [-2, 2]], 65)
        assert np.isfinite(got) and got >= 0.0

    def test_strong_inward_drift_clips_to_zero(self):
        def g(x):
            return -10.0 * x

        c = builtin_family("ornstein_uhlenbeck", 2, rate=10.0)
        # lhs <= 1 - 10 r^2 + r^2/(r^2+1): positive near 0, so still > 0
        got = min_M_on_grid(c, [[-3, 3], [-3, 3]], 61)
        assert 0.0 <= got <= 1.0

    def test_dimension_mismatch(self, brownian2):
        with pytest.raises(ConditionError):
            min_M_on_grid(brownian2, [[-1, 1]] * 3, 11)


class TestRegimeCheck:
    def _with_exponents(self, dim, p, q, s):
        fam = builtin_family("brownian", dim)
        return dataclasses.replace(fam, exponents=Exponents(p=p, q=q, s=s))

    def test_planar_pass(self):
        rep = a4prime_check(self._with_exponents(2, 6.0, 7.0, 2.0))
        assert rep.passed
        c = rep.clause("companion_exponent_window_nonempty")
        assert np.isclose(c.threshold, 1.0) and np.isclose(c.value, 7.0 / 6.0)

    def test_planar_fail_q(self):
        rep = a4prime_check(self._with_exponents(2, 6.0, 6.0, 2.0))
        assert not rep.passed
        assert not rep.clause("q_above_regime_floor").passed
        assert rep.clause("p_matches_regime").passed

    def test_three_dimensional_window(self):
        rep = a4prime_check(self._with_exponents(3, 8.0, 9.0, 2.0))
        assert rep.passed
        c = rep.clause("companion_exponent_window_nonempty")
        assert np.isclose(c.threshold, 1.5) and np.isclose(c.value, 1.8)

    def test_wrong_p_fails(self):
        rep = a4prime_check(self._with_exponents(2, 7.0, 8.0, 2.0))
        assert not rep.clause("p_matches_regime").passed

    def test_builtin_radial_passes(self, radial2):
        assert a4prime_check(radial2).passed

    def test_unbounded_q_passes(self, brownian2):
        assert a4prime_check(brownian2).passed


class TestOccupationRoute:
    def test_routes(self, brownian2, radial2, piecewise2):
        assert occupation_condition_route(brownian2) == "strictly_positive"
        assert occupation_condition_route(piecewise2) == "strictly_positive"
        assert occupation_condition_route(radial2) == "integrability_probe"

    def test_origin_version_route(self):
        c = builtin_family("radial_degenerate", 2, alpha=0.25, gamma=1.0)
        assert occupation_condition_route(c) == "strictly_positive"
