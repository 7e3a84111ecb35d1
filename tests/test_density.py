import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdelab.coefficients import (
    CoefficientSet,
    DispersionFactor,
    Exponents,
    InverseWeight,
    builtin_family,
)
from sdelab.density import (
    DensityError,
    _bernoulli,
    _FaceScheme,
    _psi_weights,
    patch_nonfinite,
    solve_density,
    verify_divergence_free,
    verify_preinvariance,
    weak_defect,
)
from sdelab.grids import BoxGrid, SmoothBump, default_bump_dictionary
from sdelab.semigroup import evolve

BOX2 = ((-2.0, 2.0), (-2.0, 2.0))
BOX4 = ((-4.0, 4.0), (-4.0, 4.0))


def _residual_norm(dens):
    return verify_divergence_free(dens).meta["residual_norm"]


def _affine_diag_set():
    """sigma = diag(sqrt(1 + x1^2), 1), so A = diag(1 + x1^2, 1), psi = 1,
    no drift; analytic row divergence."""

    def row_div(x):
        out = np.zeros(x.shape)
        out[..., 0] = 2.0 * x[..., 0]
        return out

    def sigma(x):
        out = np.zeros(x.shape + (2,))
        out[..., 0, 0] = np.sqrt(1.0 + x[..., 0] ** 2)
        out[..., 1, 1] = 1.0
        return out

    return CoefficientSet(
        factor=DispersionFactor(2, 2, sigma),
        row_div=row_div,
        inv_weight=InverseWeight(
            fn=lambda x: np.ones(x.shape[:-1]),
            has_zeros=False,
        ),
        drift=lambda x: np.zeros(x.shape),
        exponents=Exponents(p=6.0, q=np.inf, s=2.0),
        family={"name": "affine_diag", "dim": 2, "params": {}},
    )


class TestBernoulli:
    def test_value_at_zero(self):
        assert _bernoulli(np.array([0.0]))[0] == 1.0

    def test_large_arguments(self):
        t = np.array([800.0, -800.0])
        b = _bernoulli(t)
        assert b[0] == 0.0
        assert b[1] == 800.0

    @given(st.floats(min_value=-50.0, max_value=50.0))
    @settings(max_examples=200, deadline=None)
    def test_difference_identity(self, t):
        b = _bernoulli(np.array([t, -t]))
        assert b[0] > 0.0
        assert abs((b[1] - b[0]) - t) <= 1e-10 * (1.0 + abs(t))


class TestSolveDensity:
    def test_brownian_constant(self, brownian2):
        dens = solve_density(brownian2, BOX2, 65)
        assert np.max(np.abs(dens.rho.values - 1.0)) <= 1e-12
        assert _residual_norm(dens) <= 1e-10
        assert np.max(np.abs(dens.rho.gradient())) <= 1e-11

    def test_anchor_value_exact(self, ou2):
        dens = solve_density(ou2, BOX4, 65)
        assert np.allclose(dens.grid.points()[32, 32], [0.0, 0.0])
        assert dens.rho.values[32, 32] == 1.0

    @pytest.mark.parametrize(
        "bounds, n", [(BOX4, 32), (((0.0, 3.0), (-1.0, 2.5)), 20)], ids=["tie", "off_center"]
    )
    def test_anchor_is_a_node_nearest_center(self, ou2, bounds, n):
        # no node sits at the center here; with n even on BOX4 four nodes tie
        dens = solve_density(ou2, bounds, n)
        grid = dens.grid
        dist = np.linalg.norm(grid.points() - np.asarray(grid.center), axis=-1)
        anchored = dens.rho.values == 1.0
        assert dist.min() > 0.0
        assert anchored.sum() == 1
        assert dist[anchored][0] <= dist.min() * (1.0 + 1e-12)

    def test_ou_matches_gaussian(self, ou2):
        dens = solve_density(ou2, BOX4, 129)
        pts = dens.grid.points()
        exact = np.exp(-np.sum(pts**2, axis=-1))
        inner = np.all(np.abs(pts) <= 2.0, axis=-1)
        rel = np.abs(dens.rho.values - exact) / exact
        # the face flux is exact for Gaussian kernels, far below the 1%
        # accuracy this solve is sized for
        assert np.max(rel[inner]) <= 1e-6

    def test_ou_beta_is_minus_x(self, ou2):
        # beta = grad(rho) / (2 rho) for A = I and psi = 1, and -x for OU
        dens = solve_density(ou2, BOX4, 129)
        pts = dens.grid.points()
        inner = np.all(np.abs(pts) <= 2.0, axis=-1)
        beta = dens.rho.gradient() / (2.0 * dens.rho.values[..., None])
        assert np.max(np.abs(beta + pts)[inner]) <= 0.03

    def test_radial_constant(self, radial2):
        dens = solve_density(radial2, BOX2, 65)
        assert np.max(np.abs(dens.rho.values - 1.0)) <= 1e-12
        assert _residual_norm(dens) <= 1e-8

    def test_piecewise_weight_constant(self, piecewise2):
        dens = solve_density(piecewise2, BOX2, 49)
        assert np.max(np.abs(dens.rho.values - 1.0)) <= 1e-12
        assert _residual_norm(dens) <= 1e-10

    def test_hyperplane_pure_axis_drift_profile(self):
        c = builtin_family(
            "hyperplane_jump",
            dim=2,
            weight_left=0.5,
            weight_right=2.0,
            drift_left=(0.3, 0.0),
            drift_right=(-0.2, 0.0),
        )
        dens = solve_density(c, BOX2, 65)
        x1 = dens.grid.points()[..., 0]
        # zero-flux kernel: rho'/rho = 2 psi g1 per side, continuous at 0
        exact = np.where(x1 < 0, np.exp(2.4 * x1), np.exp(-0.1 * x1))
        assert np.max(np.abs(dens.rho.values - exact) / exact) <= 1e-10

    def test_dimension_mismatch(self, ou2):
        with pytest.raises(DensityError, match="dimension"):
            solve_density(ou2, ((-1, 1),), 17)

    @pytest.mark.parametrize("n", [2, 3])
    def test_grid_too_coarse_for_test_dictionary(self, ou2, n):
        # the solve reads no test function; on these grids one is 0 at every
        # node, so stationarity would pass at 0 against a threshold of 0 and
        # the divergence audit would divide by a zero gradient norm
        dens = solve_density(ou2, BOX4, n)
        assert np.all(dens.rho.values > 0.0)
        for audit in (verify_preinvariance, verify_divergence_free):
            with pytest.raises(DensityError, match="cannot resolve the test dictionary"):
                audit(dens)
        assert issubclass(DensityError, ValueError)

    def test_solve_evaluates_no_test_function(self, jump2, monkeypatch):
        calls = []
        gradient = SmoothBump.gradient

        def counting_gradient(self, x):
            calls.append(self)
            return gradient(self, x)

        monkeypatch.setattr(SmoothBump, "gradient", counting_gradient)
        dens = solve_density(jump2, BOX2, 17)
        assert len(calls) == 0
        verify_preinvariance(dens)
        assert len(calls) == 3
        verify_divergence_free(dens)
        assert len(calls) == 3 + 6

    def test_off_diagonal_matrix_rejected(self):
        # the constant sigma = [[1, .3], [.3, 1]] gives A off-diagonal
        # entries 0.6 and, like the brownian base, zero row divergence
        s = np.array([[1.0, 0.3], [0.3, 1.0]])
        c = dataclasses.replace(
            builtin_family("brownian", 2),
            factor=DispersionFactor(
                2, 2, lambda x: np.broadcast_to(s, x.shape[:-1] + (2, 2)).copy()),
            family={"name": "coupled", "dim": 2, "params": {}},
        )
        with pytest.raises(DensityError, match="diagonal"):
            solve_density(c, BOX2, 17)

    def test_vanishing_diagonal_rejected(self):
        # sigma = diag(x1, 1) gives A = diag(x1^2, 1), zero on {x1 = 0}, with
        # the base's row divergence (2 x1, 0)
        def sigma(x):
            out = np.zeros(x.shape + (2,))
            out[..., 0, 0] = x[..., 0]
            out[..., 1, 1] = 1.0
            return out

        c = dataclasses.replace(
            _affine_diag_set(),
            factor=DispersionFactor(2, 2, sigma),
            family={"name": "pinched", "dim": 2, "params": {}},
        )
        with pytest.raises(DensityError, match="positive"):
            solve_density(c, BOX2, 17)

    def test_residual_decays_under_refinement(self, jump2):
        res = [_residual_norm(solve_density(jump2, BOX2, n)) for n in (17, 33, 65)]
        floor = 5e-8
        assert res[1] <= max(0.5 * res[0], floor)
        assert res[2] <= max(0.5 * res[1], floor)


class TestFluxMatrix:
    @pytest.mark.parametrize("family", ["ou2", "jump2", "radial2"])
    def test_column_sums_vanish(self, family, request):
        c = request.getfixturevalue(family)
        grid = BoxGrid(BOX2, 17)
        K = _FaceScheme(c, grid).assemble()
        col = np.asarray(np.abs(K.sum(axis=0))).ravel()
        assert np.max(col) <= 1e-12 * max(1.0, np.max(np.abs(K.data)))

    def test_generator_sign_structure(self, jump2):
        grid = BoxGrid(BOX2, 17)
        K = _FaceScheme(c=jump2, grid=grid).assemble().tocoo()
        diag = K.row == K.col
        assert np.all(K.data[diag] <= 0.0)
        assert np.all(K.data[~diag] >= 0.0)


class TestFaceSchemeReuse:
    def test_built_once_per_solve(self, radial2, monkeypatch):
        built = []
        init = _FaceScheme.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(_FaceScheme, "__init__", counting_init)
        dens = solve_density(radial2, BOX2, 17)
        assert len(built) == 1 and dens.faces is built[0]
        verify_divergence_free(dens)
        evolve(dens, np.ones(dens.grid.shape), 0.02, 1e-2)
        assert len(built) == 1

    def test_density_keeps_its_equation(self, radial2):
        # the audits and the parabolic solve read c and psi from the density
        dens = solve_density(radial2, BOX2, 17)
        assert dens.c is radial2
        np.testing.assert_array_equal(dens.psi, _psi_weights(radial2, dens.grid))
        u = evolve(dens, np.ones(dens.grid.shape), 0.02, 1e-2)
        assert u.values.shape == (3,) + dens.grid.shape


class TestPreinvariance:
    def test_brownian_quadrature_level(self, brownian2):
        dens = solve_density(brownian2, BOX2, 65)
        rep = verify_preinvariance(dens)
        assert rep.passed
        for cl in rep.clauses:
            assert cl.value <= 1e-8

    def test_ou_solved_density(self, ou2):
        dens = solve_density(ou2, BOX4, 129)
        rep = verify_preinvariance(dens)
        assert rep.passed

    def test_radial_quadrature_level(self, radial2):
        dens = solve_density(radial2, BOX2, 65)
        rep = verify_preinvariance(dens)
        assert rep.passed and len(rep.clauses) == 3
        for cl in rep.clauses:
            assert cl.value <= 1e-8

    def test_split_sums_to_residual(self, jump2):
        dens = solve_density(jump2, BOX2, 65)
        rep = verify_preinvariance(dens)
        for cl, s, b in zip(
            rep.clauses, rep.meta["symmetric_part"], rep.meta["leftover_part"]
        ):
            assert abs(abs(s + b) - cl.value) <= 1e-12


class TestDivergenceFree:
    def test_brownian_exact(self, brownian2):
        dens = solve_density(brownian2, BOX2, 65)
        rep = verify_divergence_free(dens)
        assert rep.passed
        for cl in rep.clauses:
            assert cl.value <= 1e-10

    def test_ou_tight_tolerance(self, ou2):
        dens = solve_density(ou2, BOX4, 129)
        rep = verify_divergence_free(dens)
        # the threshold is 1e-3 sup|grad u|; the values sit below 1e-6 sup|grad u|
        for cl in rep.clauses:
            assert cl.value <= 1e-3 * cl.threshold

    def test_hyperplane_fine_grid(self, jump2):
        dens = solve_density(jump2, BOX2, 257)
        rep = verify_divergence_free(dens)
        assert rep.passed
        assert len(rep.meta["field_defect"]) == len(rep.clauses)
        assert all(np.isfinite(v) for v in rep.meta["field_defect"])

    def test_residual_norm_is_the_scaled_headline_defect(self, jump2):
        # the largest weak defect of the scheme's flux over the test gradient's
        # L2 norm, recomputed here to the last bit
        dens = solve_density(jump2, BOX2, 33)
        grid = dens.grid
        flux = dens.faces.node_flux_field(dens.rho.values)
        expect = 0.0
        for u in default_bump_dictionary(grid):
            val, grad_l2, _ = weak_defect(grid, flux, u)
            expect = max(expect, abs(val) / grad_l2)
        assert expect > 0.0
        assert verify_divergence_free(dens).meta["residual_norm"] == expect

    def test_radial_null_set_field_defect_finite(self, radial2):
        # psi = 1 / |x|^alpha is infinite at the origin node; rho psi B stays finite
        dens = solve_density(radial2, BOX2, 65)
        rep = verify_divergence_free(dens)
        assert rep.passed and len(rep.clauses) == 3
        assert all(abs(v) <= 1e-10 for v in rep.meta["field_defect"])

    @pytest.mark.parametrize("family", ["jump2", "affine"])
    def test_field_defect_pairs_rho_psi_B(self, family, request):
        # the nodal field is rho psi B with B = G - beta and
        # beta = (row-div A) w / 2 + (A grad rho) w / (2 rho), w = 1 / psi
        c = _affine_diag_set() if family == "affine" else request.getfixturevalue(family)
        dens = solve_density(c, BOX2, 33)
        grid = dens.grid
        pts = grid.points()
        rho = dens.rho.values[..., None]
        w = c.inv_weight(pts)[..., None]
        a_grad = np.einsum("...kl,...l->...k", c.A(pts), dens.rho.gradient())
        beta = 0.5 * c.row_div_A(pts) * w + a_grad * w / (2.0 * rho)
        field = rho / w * (c.G(pts) - beta)
        expect = [weak_defect(grid, field, u)[0] for u in default_bump_dictionary(grid)]
        got = verify_divergence_free(dens).meta["field_defect"]
        np.testing.assert_allclose(got, expect, rtol=1e-9, atol=1e-14)


class TestPatching:
    def test_isolated_singularity_filled(self):
        grid = BoxGrid(BOX2, 17)
        v = np.ones(grid.shape)
        v[8, 8] = np.inf
        out = patch_nonfinite(v, grid.dim, "test data")
        assert np.isfinite(out).all()
        assert out[8, 8] == 1.0

    def test_clustered_singularity_raises(self):
        grid = BoxGrid(BOX2, 17)
        v = np.full(grid.shape, np.nan)
        with pytest.raises(DensityError, match="clustered"):
            patch_nonfinite(v, grid.dim, "test data")

    def test_radial_psi_patched_at_origin(self, radial2):
        psi = solve_density(radial2, BOX2, 65).psi
        assert np.isfinite(psi).all()
        assert psi[32, 32] > 0
