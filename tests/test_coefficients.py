"""Coefficient-model tests.

Expected values are frozen from hand arithmetic (identity algebra, power
laws); the matrix row divergence is checked against an analytic formula.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdelab.coefficients import (
    CoefficientError,
    CoefficientSet,
    DegenerateMatrixError,
    DiffusionMatrix,
    DispersionFactor,
    Exponents,
    InverseWeight,
    builtin_family,
    check_factorization,
    estimate_ellipticity,
)


def _points(*pts):
    return np.asarray(pts, dtype=float)


class TestSigmaHat:
    def test_radial_on_unit_sphere_is_identity(self, radial2):
        # |x|^{alpha/2} = 1 on the unit sphere, any alpha
        s = radial2.sigma_hat(_points([1.0, 0.0]))
        np.testing.assert_allclose(s[0], np.eye(2), atol=1e-15)

    def test_radial_vanishes_at_origin(self, radial2):
        s = radial2.sigma_hat(_points([0.0, 0.0]))
        np.testing.assert_array_equal(s[0], np.zeros((2, 2)))

    def test_origin_version_value(self):
        c = builtin_family("radial_degenerate", 2, alpha=0.25, gamma=0.5)
        s = c.sigma_hat(_points([0.0, 0.0]))
        np.testing.assert_allclose(s[0], 0.5 * np.eye(2), atol=1e-15)
        assert not c.inv_weight.has_zeros
        assert not bool(c.inv_weight.null_set_indicator(np.zeros(2)))

    def test_radial_scaling_law(self, radial2):
        x = _points([2.0, 0.0])
        s = radial2.sigma_hat(x)
        np.testing.assert_allclose(s[0], 2.0**0.125 * np.eye(2), rtol=1e-14)

    def test_batch_shape(self, brownian2):
        x = np.zeros((3, 4, 2))
        assert brownian2.sigma_hat(x).shape == (3, 4, 2, 2)

    @settings(max_examples=30)
    @given(st.floats(-3, 3), st.floats(-3, 3))
    def test_sigma_hat_consistent_with_sqrt_weight(self, jump2, x0, x1):
        x = _points([x0, x1])
        s = jump2.sigma_hat(x)[0]
        w = float(jump2.inv_weight(x)[0])
        np.testing.assert_allclose(s, np.sqrt(w) * np.eye(2), rtol=1e-14)


class TestFactorization:
    def test_identity_passes(self, brownian2):
        rep = check_factorization(brownian2)
        assert rep.passed
        assert rep.clause("factorization_gap").value <= 1e-15

    def test_scaled_factor_fails_with_gap_three(self):
        base = builtin_family("brownian", 2)
        bad = dataclasses.replace(
            base,
            factor=DispersionFactor(
                2, 2, lambda x: np.broadcast_to(2.0 * np.eye(2), x.shape[:-1] + (2, 2))
            ),
        )
        rep = check_factorization(bad)
        assert not rep.passed
        # |I - 4I| has worst entry 3
        assert np.isclose(rep.clause("factorization_gap").value, 3.0)

    def test_asymmetric_matrix_reported(self):
        base = builtin_family("brownian", 2)
        m = np.array([[1.0, 0.5], [0.0, 1.0]])
        bad = dataclasses.replace(
            base,
            matrix=DiffusionMatrix(
                2, lambda x: np.broadcast_to(m, x.shape[:-1] + (2, 2))
            ),
        )
        rep = check_factorization(bad)
        assert not rep.clause("matrix_symmetry").passed


class TestEllipticity:
    def test_identity_exact(self, brownian2):
        est = estimate_ellipticity(brownian2, [0.0, 0.0], 1.0, n_samples=512, seed=3)
        assert abs(est.lambda_min - 1.0) <= 1e-15
        assert abs(est.lambda_max - 1.0) <= 1e-15

    def test_diagonal_1_4_brackets(self):
        a = np.diag([1.0, 4.0])
        c = dataclasses.replace(
            builtin_family("brownian", 2),
            matrix=DiffusionMatrix(
                2, lambda x: np.broadcast_to(a, x.shape[:-1] + (2, 2))
            ),
        )
        est = estimate_ellipticity(c, [0.0, 0.0], 1.0, n_samples=200_000, seed=5)
        assert 1.0 <= est.lambda_min <= 1.01
        assert 3.99 <= est.lambda_max <= 4.0

    def test_state_dependent_bounds(self):
        def a_fn(x):
            scale = 1.0 + np.sum(x * x, axis=-1)
            return scale[..., None, None] * np.eye(2)

        c = dataclasses.replace(
            builtin_family("brownian", 2), matrix=DiffusionMatrix(2, a_fn)
        )
        est = estimate_ellipticity(c, [0.0, 0.0], 1.0, n_samples=50_000, seed=7)
        assert 1.0 <= est.lambda_min <= 1.001
        assert 1.9 <= est.lambda_max <= 2.0

    def test_degenerate_raises(self):
        def a_fn(x):
            return np.zeros(x.shape[:-1] + (2, 2))

        c = dataclasses.replace(
            builtin_family("brownian", 2), matrix=DiffusionMatrix(2, a_fn)
        )
        with pytest.raises(DegenerateMatrixError):
            estimate_ellipticity(c, [0.0, 0.0], 1.0, n_samples=64, seed=0)

    @pytest.mark.parametrize("name, value", [
        ("center", [np.nan, 0.0]),
        ("center", [0.0, np.inf]),
        ("center", [0.0, 0.0, 0.0]),
        ("radius", -1.0),
        ("radius", 0.0),
        ("radius", np.nan),
        ("n_samples", 0),
        ("n_samples", 2.5),
        ("seed", -1),
    ])
    def test_malformed_inputs_rejected(self, brownian2, name, value):
        args = {"center": [0.0, 0.0], "radius": 1.0, "n_samples": 64, "seed": 0}
        with pytest.raises(CoefficientError, match=f"^{name} must"):
            estimate_ellipticity(brownian2, **{**args, name: value})

    def test_deterministic_given_seed(self, brownian2):
        e1 = estimate_ellipticity(brownian2, [0.0, 0.0], 2.0, 128, seed=11)
        e2 = estimate_ellipticity(brownian2, [0.0, 0.0], 2.0, 128, seed=11)
        assert e1 == e2


class TestRowDivergence:
    def test_fd_matches_analytic(self):
        # A = diag(1 + x1^2, 1): row divergence (2 x1, 0)
        def a_fn(x):
            out = np.zeros(x.shape[:-1] + (2, 2))
            out[..., 0, 0] = 1.0 + x[..., 0] ** 2
            out[..., 1, 1] = 1.0
            return out

        m = DiffusionMatrix(2, a_fn)
        x = _points([0.7, -1.2], [2.0, 0.3], [0.0, 0.0])
        got = m.row_divergence(x)
        expect = np.stack([2.0 * x[:, 0], np.zeros(3)], axis=-1)
        np.testing.assert_allclose(got, expect, atol=1e-8)

    def test_analytic_override_used(self, brownian2):
        x = np.random.default_rng(0).normal(size=(10, 2))
        np.testing.assert_array_equal(brownian2.matrix.row_divergence(x), 0.0)


class TestFamilies:
    def test_unknown_name(self):
        with pytest.raises(CoefficientError, match="unknown family"):
            builtin_family("wiener", 2)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 2.0, 2.5, True, float("nan")])
    def test_radial_alpha_range(self, alpha):
        with pytest.raises(CoefficientError):
            builtin_family("radial_degenerate", 2, alpha=alpha)

    def test_radial_gamma_must_be_positive(self):
        with pytest.raises(CoefficientError):
            builtin_family("radial_degenerate", 2, alpha=0.25, gamma=0.0)

    def test_piecewise_requires_positive_values(self):
        with pytest.raises(CoefficientError, match="locally integrable"):
            builtin_family(
                "piecewise_weight",
                2,
                cells=[{"bounds": [[0, 1], [0, 1]], "value": 0.0}],
            )

    @pytest.mark.parametrize("cell, match", [
        ({"bounds": [[0, 1], [0, 1]], "value": np.nan}, "cell value must be a finite"),
        ({"bounds": [[0, 1], [0, 1]], "value": 1e309}, "cell value must be a finite"),
        ({"bounds": [[0, 1], [0, 1]], "value": True}, "cell value must be a finite"),
        ({"bounds": [[np.nan, 1], [0, 1]], "value": 0.5}, "cell bounds must be a finite"),
        ({"bounds": [[0, np.inf], [0, 1]], "value": 0.5}, "cell bounds must be a finite"),
        ({"bounds": [[1, 0], [0, 1]], "value": 0.5}, "upper cell bounds must exceed"),
        ({"bounds": [[0, 0], [0, 1]], "value": 0.5}, "upper cell bounds must exceed"),
        ({"bounds": [[0, 1], [0]], "value": 0.5}, r"cell bounds must be a \(d, 2\) array"),
        ({"bounds": 1.0, "value": 0.5}, r"cell bounds must be a \(d, 2\) array"),
        ({"bounds": [[0, 1]], "value": 0.5}, r"cell bounds must have shape \(2, 2\)"),
        ({"value": 0.5}, "'bounds' and 'value'"),
        ({"bounds": [[0, 1], [0, 1]]}, "'bounds' and 'value'"),
        ([[0, 1], [0, 1]], "'bounds' and 'value'"),
    ])
    def test_piecewise_cells_are_checked_where_parsed(self, cell, match):
        # a non-finite value or bound, or an empty cell, used to pass and
        # leave the weight silently wrong; a missing key raised KeyError
        with pytest.raises(CoefficientError, match=match):
            builtin_family("piecewise_weight", 2, cells=[cell])

    def test_piecewise_weight_values(self, piecewise2):
        x = _points([-0.5, -0.5], [0.5, 0.5], [3.0, 3.0])
        np.testing.assert_allclose(piecewise2.inv_weight(x), [0.25, 4.0, 1.0])

    def test_hyperplane_jump_sides(self, jump2):
        x = _points([-0.1, 0.0], [0.0, 0.0], [0.1, 0.0])
        np.testing.assert_allclose(jump2.inv_weight(x), [0.25, 4.0, 4.0])
        np.testing.assert_allclose(jump2.G(x)[0], [0.3, 0.0])
        np.testing.assert_allclose(jump2.G(x)[1], [-0.2, 0.1])
        # psi * G = G / w on each side
        np.testing.assert_allclose(jump2.psi_G(x)[0], [0.3 / 0.25, 0.0])

    def test_brownian_constant_drift(self):
        c = builtin_family("brownian", 2, drift=[1.0, 0.0])
        x = np.zeros((4, 2))
        np.testing.assert_array_equal(c.G(x), np.tile([1.0, 0.0], (4, 1)))

    @pytest.mark.parametrize("name, params", [
        ("brownian", {}), ("radial_degenerate", {"alpha": 0.25}),
    ])
    @pytest.mark.parametrize("drift", [
        [np.nan, 0.0], [0.0, np.inf], [1.0, 0.0, 0.0], [[1.0], [0.0]], 1.0,
    ])
    def test_constant_drift_must_be_finite_vector(self, name, params, drift):
        with pytest.raises(CoefficientError, match="^drift must"):
            builtin_family(name, 2, drift=drift, **params)

    @pytest.mark.parametrize("side", ["drift_left", "drift_right"])
    @pytest.mark.parametrize("drift", [[np.nan, 0.0], [-np.inf, 0.0], [0.3]])
    def test_jump_drifts_must_be_finite_vectors(self, side, drift):
        with pytest.raises(CoefficientError, match=f"^{side} must"):
            builtin_family("hyperplane_jump", 2, **{side: drift})

    def test_cubic_drift(self):
        c = builtin_family("brownian", 2, drift="cubic_outward")
        g = c.G(_points([3.0, 4.0]))[0]
        np.testing.assert_allclose(g, [75.0, 100.0])

    def test_ou_drift_and_psi_drift_agree(self, ou2):
        x = np.random.default_rng(1).normal(size=(6, 2))
        np.testing.assert_array_equal(ou2.G(x), -x)
        np.testing.assert_array_equal(ou2.psi_G(x), -x)

    def test_dimension_three(self):
        c = builtin_family("ornstein_uhlenbeck", 3)
        assert c.dim == 3 and c.noise_dim == 3
        assert c.exponents.p == 8.0

    def test_exponent_validation(self):
        base = builtin_family("brownian", 2)
        with pytest.raises(CoefficientError, match="p > d"):
            dataclasses.replace(base, exponents=Exponents(p=2.0, q=np.inf, s=2.0))
        with pytest.raises(CoefficientError, match="1/q \\+ 1/s"):
            dataclasses.replace(base, exponents=Exponents(p=6.0, q=2.0, s=2.0))

    def test_family_metadata_serializable(self, radial2):
        import json

        assert json.dumps(radial2.family)

    def test_declared_q_inside_window(self, radial2):
        # alpha = 0.25, d = 2: window (6, 8), declared midpoint 7
        assert radial2.exponents.q == 7.0
        assert radial2.exponents.p == 6.0


# the origin (both signs), points whose squared norm underflows to 0, and
# points off the degeneracy set, one of them with an overflowing norm
_NULL_SET_PROBES = _points(
    [0.0, 0.0], [-0.0, 0.0], [1e-170, 0.0], [0.0, -1e-170], [1e-150, 0.0],
    [0.3, -0.2], [-1.0, 0.0], [0.0, 1.0], [2.5, 1e3], [1e200, 0.0],
)


@pytest.mark.parametrize("name, params", [
    ("brownian", {}),
    ("brownian", {"drift": "cubic_outward"}),
    ("ornstein_uhlenbeck", {}),
    ("radial_degenerate", {"alpha": 0.25}),
    ("radial_degenerate", {"alpha": 1.5}),
    ("radial_degenerate", {"alpha": 0.25, "gamma": 0.5}),
    ("radial_degenerate", {"alpha": 1.5, "gamma": 1e-3}),
    ("piecewise_weight", {"cells": [{"bounds": [[-1.0, 0.0], [-1.0, 0.0]], "value": 0.5}]}),
    ("hyperplane_jump", {}),
])
def test_degeneracy_set_is_the_zero_set_of_the_weight(name, params):
    c = builtin_family(name, 2, **params)
    with np.errstate(over="ignore"):
        w = c.inv_weight(_NULL_SET_PROBES)
        np.testing.assert_array_equal(
            c.inv_weight.null_set_indicator(_NULL_SET_PROBES), w == 0.0
        )
        for x, wx in zip(_NULL_SET_PROBES, w):
            assert bool(c.inv_weight.null_set_indicator(x)) == (wx == 0.0)
