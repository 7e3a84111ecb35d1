import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdelab.coefficients import (
    CoefficientSet,
    DiffusionMatrix,
    DispersionFactor,
    Exponents,
    InverseWeight,
    builtin_family,
)
from sdelab.density import (
    DensityError,
    _bernoulli,
    _FaceScheme,
    compute_beta,
    patch_nonfinite,
    psi_weights,
    solve_density,
    verify_divergence_free,
    verify_preinvariance,
)
from sdelab.grids import BoxGrid, GridField, SmoothBump
from sdelab.semigroup import evolve

BOX2 = ((-2.0, 2.0), (-2.0, 2.0))
BOX4 = ((-4.0, 4.0), (-4.0, 4.0))


def _affine_diag_set():
    """A = diag(1 + x1^2, 1), psi = 1, no drift; analytic row divergence."""

    def a_fn(x):
        out = np.zeros(x.shape + (2,))
        out[..., 0, 0] = 1.0 + x[..., 0] ** 2
        out[..., 1, 1] = 1.0
        return out

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
        matrix=DiffusionMatrix(2, a_fn, row_div_fn=row_div),
        factor=DispersionFactor(2, 2, sigma),
        inv_weight=InverseWeight(
            fn=lambda x: np.ones(x.shape[:-1]),
            has_zeros=False,
        ),
        drift=lambda x: np.zeros(x.shape),
        psi_drift=lambda x: np.zeros(x.shape),
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
        assert dens.residual_norm <= 1e-10
        assert np.max(np.abs(dens.grad_rho.values)) <= 1e-11

    def test_anchor_value_exact(self, ou2):
        dens = solve_density(ou2, BOX4, 65)
        idx = tuple(dens.meta["anchor_index"])
        assert dens.rho.values[idx] == 1.0
        assert np.allclose(dens.anchor_point, [0.0, 0.0])

    def test_ou_matches_gaussian(self, ou2):
        dens = solve_density(ou2, BOX4, 129)
        pts = dens.grid.points()
        exact = np.exp(-np.sum(pts**2, axis=-1))
        inner = np.all(np.abs(pts) <= 2.0, axis=-1)
        rel = np.abs(dens.rho.values - exact) / exact
        # the face flux is exact for Gaussian kernels, far below the 1%
        # accuracy this solve is sized for
        assert np.max(rel[inner]) <= 1e-6

    def test_radial_constant(self, radial2):
        dens = solve_density(radial2, BOX2, 65)
        assert np.max(np.abs(dens.rho.values - 1.0)) <= 1e-12
        assert dens.residual_norm <= 1e-8

    def test_piecewise_weight_constant(self, piecewise2):
        dens = solve_density(piecewise2, BOX2, 49)
        assert np.max(np.abs(dens.rho.values - 1.0)) <= 1e-12
        assert dens.residual_norm <= 1e-10

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

    def test_mass_normalization(self, ou2):
        dens = solve_density(ou2, BOX4, 65, normalization="mass")
        grid = dens.grid
        psi = psi_weights(ou2, grid)
        mass = float(np.sum(grid.trapezoid_weights() * dens.rho.values * psi))
        assert abs(mass - 1.0) <= 1e-12

    def test_custom_anchor(self, ou2):
        dens = solve_density(ou2, BOX4, 65, anchor=(1.0, 1.0))
        idx = tuple(dens.meta["anchor_index"])
        assert dens.rho.values[idx] == 1.0
        assert np.allclose(dens.anchor_point, [1.0, 1.0])

    def test_dimension_mismatch(self, ou2):
        with pytest.raises(DensityError, match="dimension"):
            solve_density(ou2, ((-1, 1),), 17)

    @pytest.mark.parametrize("n", [2, 3])
    def test_grid_too_coarse_for_test_dictionary(self, ou2, n):
        with pytest.raises(DensityError, match="cannot resolve the test dictionary"):
            solve_density(ou2, BOX4, n)
        assert issubclass(DensityError, ValueError)

    def test_unknown_normalization(self, ou2):
        with pytest.raises(DensityError, match="normalization"):
            solve_density(ou2, BOX4, 33, normalization="sup")

    def test_off_diagonal_matrix_rejected(self):
        base = _affine_diag_set()

        def a_fn(x):
            out = np.zeros(x.shape + (2,))
            out[..., 0, 0] = 1.0
            out[..., 1, 1] = 1.0
            out[..., 0, 1] = out[..., 1, 0] = 0.3
            return out

        c = CoefficientSet(
            matrix=DiffusionMatrix(2, a_fn),
            factor=base.factor,
            inv_weight=base.inv_weight,
            drift=base.drift,
            psi_drift=base.psi_drift,
            exponents=base.exponents,
            family={"name": "coupled", "dim": 2, "params": {}},
        )
        with pytest.raises(DensityError, match="diagonal"):
            solve_density(c, BOX2, 17)

    def test_vanishing_diagonal_rejected(self):
        base = _affine_diag_set()

        def a_fn(x):
            out = np.zeros(x.shape + (2,))
            out[..., 0, 0] = x[..., 0] ** 2
            out[..., 1, 1] = 1.0
            return out

        c = CoefficientSet(
            matrix=DiffusionMatrix(2, a_fn),
            factor=base.factor,
            inv_weight=base.inv_weight,
            drift=base.drift,
            psi_drift=base.psi_drift,
            exponents=base.exponents,
            family={"name": "pinched", "dim": 2, "params": {}},
        )
        with pytest.raises(DensityError, match="positive"):
            solve_density(c, BOX2, 17)

    def test_residual_decays_under_refinement(self, jump2):
        res = [solve_density(jump2, BOX2, n).residual_norm for n in (17, 33, 65)]
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
        verify_divergence_free(radial2, dens)
        evolve(radial2, dens, lambda x: np.ones(x.shape[:-1]), 0.02, 1e-2)
        assert len(built) == 1


class TestComputeBeta:
    def test_brownian_trivial(self, brownian2):
        dens = solve_density(brownian2, BOX2, 65)
        dec = compute_beta(brownian2, dens)
        assert np.max(np.abs(dec.beta.values)) <= 1e-11
        assert np.max(np.abs(dec.B.values)) <= 1e-11
        assert not dec.null_mask.any()

    def test_ou_beta_is_minus_x(self, ou2):
        dens = solve_density(ou2, BOX4, 129)
        dec = compute_beta(ou2, dens)
        pts = dens.grid.points()
        inner = np.all(np.abs(pts) <= 2.0, axis=-1)
        err = np.abs(dec.beta.values + pts)
        assert np.max(err[inner]) <= 0.03
        assert np.max(np.abs(dec.B.values)[inner]) <= 0.03

    def test_beta_plus_B_recovers_G(self, jump2):
        dens = solve_density(jump2, BOX2, 33)
        dec = compute_beta(jump2, dens)
        g = jump2.G(dens.grid.points())
        assert np.max(np.abs(dec.beta.values + dec.B.values - g)) <= 1e-12

    def test_affine_matrix_gradient_term(self):
        c = _affine_diag_set()
        grid = BoxGrid(BOX2, 33)
        rho = GridField(grid, np.ones(grid.shape))
        from sdelab.density import DensityField

        dens = DensityField(
            rho=rho,
            grad_rho=rho.gradient(),
            anchor_point=np.zeros(2),
            normalization="anchor",
            residual_norm=0.0,
            meta={},
            faces=_FaceScheme(c, grid),
        )
        dec = compute_beta(c, dens)
        pts = grid.points()
        expected = np.stack([pts[..., 0], np.zeros(grid.shape)], axis=-1)
        assert np.max(np.abs(dec.beta.values - expected)) <= 1e-12
        assert np.max(np.abs(dec.B.values + expected)) <= 1e-12

    def test_null_set_flagged_and_zeroed(self, radial2):
        dens = solve_density(radial2, BOX2, 65)
        dec = compute_beta(radial2, dens)
        origin = (32, 32)
        assert dec.null_mask[origin]
        assert dec.null_mask.sum() == 1
        assert np.all(dec.beta.values[origin] == 0.0)

    def test_rho_psi_B_matches_product(self, jump2):
        dens = solve_density(jump2, BOX2, 33)
        dec = compute_beta(jump2, dens)
        grid = dens.grid
        psi = 1.0 / jump2.inv_weight(grid.points())
        prod = dens.rho.values[..., None] * psi[..., None] * dec.B.values
        assert np.max(np.abs(dec.rho_psi_B.values - prod)) <= 1e-12


class TestPreinvariance:
    def test_brownian_quadrature_level(self, brownian2):
        dens = solve_density(brownian2, BOX2, 65)
        rep = verify_preinvariance(brownian2, dens, tol=1e-8)
        assert rep.passed
        for cl in rep.clauses:
            assert cl.value <= 1e-8

    def test_ou_solved_density(self, ou2):
        dens = solve_density(ou2, BOX4, 129)
        rep = verify_preinvariance(ou2, dens, tol=1e-4)
        assert rep.passed

    def test_radial_bump_off_origin(self, radial2):
        dens = solve_density(radial2, BOX2, 65)
        bump = SmoothBump(center=(0.5, 0.5), radius=0.1)
        rep = verify_preinvariance(radial2, dens, test_functions=[bump], tol=1e-8)
        assert rep.passed and len(rep.clauses) == 1

    def test_boundary_support_rejected(self, ou2):
        dens = solve_density(ou2, BOX4, 33)
        wide = SmoothBump(center=(0.0, 0.0), radius=0.6)
        with pytest.raises(DensityError, match="support"):
            verify_preinvariance(ou2, dens, test_functions=[wide])

    def test_split_sums_to_residual(self, jump2):
        dens = solve_density(jump2, BOX2, 65)
        rep = verify_preinvariance(jump2, dens)
        for cl, s, b in zip(
            rep.clauses, rep.meta["symmetric_part"], rep.meta["leftover_part"]
        ):
            assert abs(abs(s + b) - cl.value) <= 1e-12


class TestDivergenceFree:
    def test_brownian_exact(self, brownian2):
        dens = solve_density(brownian2, BOX2, 65)
        rep = verify_divergence_free(brownian2, dens, tol=1e-10)
        assert rep.passed

    def test_ou_tight_tolerance(self, ou2):
        dens = solve_density(ou2, BOX4, 129)
        rep = verify_divergence_free(ou2, dens, tol=1e-6)
        assert rep.passed

    def test_hyperplane_fine_grid(self, jump2):
        dens = solve_density(jump2, BOX2, 257)
        rep = verify_divergence_free(jump2, dens, tol=1e-3)
        assert rep.passed
        assert len(rep.meta["field_defect"]) == len(rep.clauses)
        assert all(np.isfinite(v) for v in rep.meta["field_defect"])

    def test_explicit_decomposition_matches_default(self, ou2):
        dens = solve_density(ou2, BOX4, 65)
        dec = compute_beta(ou2, dens)
        r1 = verify_divergence_free(ou2, dens)
        r2 = verify_divergence_free(ou2, dens, dec=dec)
        assert [c.value for c in r1.clauses] == [c.value for c in r2.clauses]


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
        grid = BoxGrid(BOX2, 65)
        psi = psi_weights(radial2, grid)
        assert np.isfinite(psi).all()
        assert psi[32, 32] > 0
