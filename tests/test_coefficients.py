"""Coefficient-model tests.

Expected values are frozen from hand arithmetic (identity algebra, power
laws); the diffusion matrix is checked against an independently formed
``sigma sigma^T``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdelab.coefficients import (
    CoefficientError,
    CoefficientSet,
    DispersionFactor,
    Exponents,
    InverseWeight,
    builtin_family,
)
from sdelab.density import DensityError, solve_density


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


_BUILTINS = [
    ("brownian", {}),
    ("ornstein_uhlenbeck", {}),
    ("radial_degenerate", {"alpha": 0.25}),
    ("piecewise_weight", {}),
    ("hyperplane_jump", {}),
]


def _coupled_factor(x):
    """A d = 2, m = 3 factor with off-diagonal entries; dyadic on dyadic
    points, so every product and sum of ``sigma sigma^T`` is exact."""
    one = np.ones(x.shape[:-1])
    return np.stack([np.stack([one, 0.5 * x[..., 1], 0.25 * one], -1),
                     np.stack([0.5 * one, one, x[..., 0]], -1)], -2)


class TestDiffusionFromFactor:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("name, params", _BUILTINS)
    def test_builtin_matrix_is_exact_identity(self, name, params, d):
        # the report bytes rest on A = I bit for bit, 1.0 on the diagonal
        # and +0.0 (no sign bit) off it, and on a +0.0 row divergence
        c = builtin_family(name, d, **params)
        x = np.random.default_rng(d).normal(size=(50, d))
        x[0] = 0.0
        a = c.A(x)
        np.testing.assert_array_equal(a, np.broadcast_to(np.eye(d), a.shape))
        assert not np.signbit(a).any()
        div = c.row_div_A(x)
        np.testing.assert_array_equal(div, np.zeros(x.shape))
        assert not np.signbit(div).any()

    def test_general_factor_gives_sigma_sigma_t(self, brownian2):
        c = dataclasses.replace(brownian2, factor=DispersionFactor(2, 3, _coupled_factor))
        axis = np.arange(-16, 17) / 8.0
        x = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
        s = _coupled_factor(x)
        expect = np.array([[[sum(p[i, k] * p[j, k] for k in range(3)) for j in range(2)]
                            for i in range(2)] for p in s])
        a = c.A(x)
        assert a.shape == (len(x), 2, 2) and np.any(a[:, 0, 1] != 0.0)
        np.testing.assert_array_equal(a, expect)
        with pytest.raises(DensityError, match="diagonal diffusion matrices only"):
            solve_density(c, ((-2.0, 2.0), (-2.0, 2.0)), 17)

    def test_scaled_factor_scales_matrix(self, brownian2):
        # sigma = 2 I gives A = 4 I exactly: no separate A can disagree
        two = DispersionFactor(
            2, 2, lambda x: np.broadcast_to(2.0 * np.eye(2), x.shape[:-1] + (2, 2)))
        c = dataclasses.replace(brownian2, factor=two)
        a = c.A(np.zeros((3, 2)))
        np.testing.assert_array_equal(a, np.broadcast_to(4.0 * np.eye(2), (3, 2, 2)))

    def test_matrix_symmetric_for_any_factor(self, brownian2):
        # a_ij and a_ji sum the same products in the same order, so even a
        # non-symmetric factor gives a bitwise symmetric, nonnegative A
        s = np.random.default_rng(4).normal(size=(40, 2, 3))
        c = dataclasses.replace(
            brownian2, factor=DispersionFactor(2, 3, lambda x: s.copy()))
        a = c.A(np.zeros((40, 2)))
        np.testing.assert_array_equal(a, np.swapaxes(a, -1, -2))
        assert np.linalg.eigvalsh(a).min() > -1e-12

    @pytest.mark.parametrize("shape", [(2,), (5, 2), (3, 4, 2)])
    def test_matrix_batch_shape(self, brownian2, shape):
        c = dataclasses.replace(brownian2, factor=DispersionFactor(2, 3, _coupled_factor))
        x = (np.arange(np.prod(shape)) / 8.0).reshape(shape)
        a = c.A(x)
        assert a.shape == shape[:-1] + (2, 2)
        flat = c.A(x.reshape(-1, 2))
        np.testing.assert_array_equal(a.reshape(-1, 2, 2), flat)

    def test_factor_shape_checked(self, brownian2):
        # declared m = 3, but the callable returns a d x d factor
        bad = DispersionFactor(
            2, 3, lambda x: np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)))
        c = dataclasses.replace(brownian2, factor=bad)
        with pytest.raises(CoefficientError, match="sigma returned shape"):
            c.A(np.zeros((4, 2)))
        with pytest.raises(CoefficientError, match="sigma returned shape"):
            solve_density(c, ((-2.0, 2.0), (-2.0, 2.0)), 17)

    def test_points_must_match_factor_dim(self, brownian2):
        assert brownian2.dim == brownian2.factor.dim == 2
        with pytest.raises(CoefficientError, match="trailing dimension 2"):
            brownian2.A(np.zeros((4, 3)))


class TestRowDivergence:
    def test_row_divergence_is_required(self, brownian2):
        kwargs = {f.name: getattr(brownian2, f.name) for f in dataclasses.fields(brownian2)}
        del kwargs["row_div"]
        with pytest.raises(TypeError, match="row_div"):
            CoefficientSet(**kwargs)

    def test_row_divergence_shape_checked(self, brownian2):
        c = dataclasses.replace(brownian2, row_div=lambda x: np.zeros(x.shape[:-1]))
        with pytest.raises(CoefficientError, match="row divergence returned shape"):
            c.row_div_A(np.zeros((4, 2)))
        with pytest.raises(CoefficientError, match="row divergence returned shape"):
            solve_density(c, ((-2.0, 2.0), (-2.0, 2.0)), 17)

    def test_analytic_override_used(self, brownian2):
        x = np.random.default_rng(0).normal(size=(10, 2))
        np.testing.assert_array_equal(brownian2.row_div_A(x), 0.0)


def test_inverse_weight_shape_checked(brownian2):
    # a trailing axis would broadcast psi G to (5, 5, 2) and sigma_hat to (5, 5, 2, 2)
    w = InverseWeight(lambda x: np.ones(x.shape[:-1] + (1,)), has_zeros=False)
    c = dataclasses.replace(brownian2, inv_weight=w)
    for evaluate in (c.inv_weight, c.psi_G, c.sigma_hat):
        with pytest.raises(CoefficientError,
                           match=r"inverse weight returned shape \(5, 1\), expected \(5,\)"):
            evaluate(np.zeros((5, 2)))


# every builtin family, with drifts where it takes them; ``params(d)`` are
# the family parameters in dimension d
_PSI_G_CASES = [
    ("brownian", lambda d: {}),
    ("brownian", lambda d: {"drift": np.linspace(-1.0, 0.5, d).tolist()}),
    ("brownian", lambda d: {"drift": "cubic_outward"}),
    ("ornstein_uhlenbeck", lambda d: {"rate": 1.5}),
    ("radial_degenerate", lambda d: {"alpha": 0.25}),
    ("radial_degenerate", lambda d: {"alpha": 1.5, "drift": [0.3] * d}),
    ("radial_degenerate", lambda d: {"alpha": 0.25, "drift": "cubic_outward"}),
    ("radial_degenerate", lambda d: {"alpha": 0.25, "gamma": 0.5, "drift": [0.3] * d}),
    ("radial_degenerate", lambda d: {"alpha": 1.5, "gamma": 1e-3,
                                     "drift": "cubic_outward"}),
    ("piecewise_weight", lambda d: {"cells": [{"bounds": [[-1.0, 0.0]] * d, "value": 0.5}],
                                    "background": 3.0}),
    ("hyperplane_jump", lambda d: {"weight_left": 1e-3, "weight_right": 3.0,
                                   "drift_left": [0.3] * d, "drift_right": [-0.2] * d}),
]
_PSI_G_IDS = ["brownian", "brownian-const", "brownian-cubic", "ou", "radial",
              "radial-const", "radial-cubic", "radial-gamma-const", "radial-gamma-cubic",
              "piecewise", "jump"]


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

    @pytest.mark.parametrize("name, params", [
        ("hyperplane_jump", {"weight_left": 1e200}),
        ("hyperplane_jump", {"weight_right": 10**200}),
        ("hyperplane_jump", {"weight_left": 1e-200}),
        ("hyperplane_jump", {"weight_right": 1e-160}),  # w subnormal, 1/w = inf
        ("radial_degenerate", {"alpha": 0.25, "gamma": 1e-200}),
        ("radial_degenerate", {"alpha": 0.25, "gamma": 1e155}),
        ("piecewise_weight", {"cells": [{"bounds": [[0, 1], [0, 1]], "value": 1e-200}]}),
        ("piecewise_weight", {"cells": [{"bounds": [[0, 1], [0, 1]], "value": 1e200}]}),
        ("piecewise_weight", {"background": 1e-200}),
        ("piecewise_weight", {"background": 1e155}),
    ])
    def test_root_weight_whose_square_leaves_the_floats(self, name, params):
        # the square overflowed into a traceback, or underflowed to a zero
        # of a weight declared to have none
        with pytest.raises(CoefficientError, match="w and 1/w must be finite positive"):
            builtin_family(name, 2, **params)

    def test_root_weights_keep_their_squares(self):
        # each family squares its roots as it always has: ** for the jump
        # (a libm pow, which on glibc gives 1.34984**2 one ulp below
        # 1.34984 * 1.34984), * for gamma, numpy squares for cells
        x = _points([-1.0, 0.0], [1.0, 0.0])
        c = builtin_family("hyperplane_jump", 2, weight_left=0.1, weight_right=1.34984)
        np.testing.assert_array_equal(c.inv_weight(x), [0.1**2, 1.34984**2])
        r = builtin_family("radial_degenerate", 2, alpha=0.25, gamma=1.34984)
        assert r.inv_weight(np.zeros(2)) == 1.34984 * 1.34984
        p = builtin_family("piecewise_weight", 2, background=1.34984,
                           cells=[{"bounds": [[0, 2], [-1, 1]], "value": 0.1}])
        np.testing.assert_array_equal(p.inv_weight(x), np.array([1.34984, 0.1]) ** 2)

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

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("name, params", _PSI_G_CASES, ids=_PSI_G_IDS)
    def test_psi_G_is_G_over_w_and_0_on_the_null_set(self, name, params, d):
        # grid nodes, face midpoints (quarter steps) and the origin, plus
        # scattered points; G / w is formed here by an independent division
        axis = np.arange(-8, 9) / 4.0
        nodes = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), -1).reshape(-1, d)
        x = np.concatenate([nodes, np.random.default_rng(d).normal(size=(200, d))])
        c = builtin_family(name, d, **params(d))
        g, w = c.G(x), c.inv_weight(x)
        expect = np.divide(g, w[:, None], out=np.zeros_like(g), where=w[:, None] > 0)
        np.testing.assert_array_equal(c.psi_G(x), expect)
        np.testing.assert_array_equal(c.psi_G(x[7]), expect[7])  # unbatched point
        assert np.any(w == 0.0) == c.inv_weight.has_zeros  # the origin is a node

    def test_ou_drift_is_minus_x(self, ou2):
        x = np.random.default_rng(1).normal(size=(6, 2))
        np.testing.assert_array_equal(ou2.G(x), -x)
        np.testing.assert_array_equal(ou2.psi_G(x), -x)

    def test_psi_G_follows_a_replaced_drift(self, jump2):
        c = dataclasses.replace(jump2, drift=lambda x: np.ones(x.shape))
        x = _points([-0.1, 0.0], [0.1, 0.0])
        np.testing.assert_array_equal(c.psi_G(x), [[4.0, 4.0], [0.25, 0.25]])

    def test_psi_G_is_not_a_field(self):
        # a set supplies sigma, row_div, w and G; A and psi * G are computed
        assert [f.name for f in dataclasses.fields(CoefficientSet)] == [
            "factor", "row_div", "inv_weight", "drift", "exponents", "family",
            "drift_locally_bounded"]

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
