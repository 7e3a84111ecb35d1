import re

import numpy as np
import pytest
import scipy.sparse as sp

import sdelab.semigroup
from sdelab.density import solve_density
from sdelab.grids import BoxGrid, GridField, SmoothBump
from sdelab.semigroup import (
    SemigroupError,
    SpaceTimeField,
    _check_m_matrix,
    evolve,
    semigroup_contraction_check,
)

BOX2 = ((-2.0, 2.0), (-2.0, 2.0))
BOX4 = ((-4.0, 4.0), (-4.0, 4.0))


def _gaussian_datum(s2=0.25):
    return lambda x: np.exp(-np.sum(x**2, axis=-1) / (2.0 * s2))


class TestSpaceTimeField:
    def test_times_must_increase(self):
        grid = BoxGrid(BOX2, 9)
        with pytest.raises(SemigroupError, match="increasing"):
            SpaceTimeField(grid, np.array([0.0, 0.0]), np.zeros((2,) + grid.shape))

    def test_shape_mismatch(self):
        grid = BoxGrid(BOX2, 9)
        with pytest.raises(SemigroupError, match="shape"):
            SpaceTimeField(grid, np.array([0.0, 1.0]), np.zeros((3,) + grid.shape))

    def test_nonfinite_rejected(self):
        grid = BoxGrid(BOX2, 9)
        vals = np.zeros((2,) + grid.shape)
        vals[1, 4, 4] = np.nan
        with pytest.raises(SemigroupError, match="finite"):
            SpaceTimeField(grid, np.array([0.0, 1.0]), vals)


class TestEvolveValidation:
    def test_bad_dt(self, brownian2):
        dens = solve_density(brownian2, BOX2, 17)
        with pytest.raises(SemigroupError, match="dt"):
            evolve(dens, dens.grid.points()[..., 0], 1.0, -0.1)

    def test_horizon_not_multiple(self, brownian2):
        dens = solve_density(brownian2, BOX2, 17)
        with pytest.raises(SemigroupError, match="multiple"):
            evolve(dens, dens.grid.points()[..., 0], 1.0, 0.3)

    def test_bad_callable_shape(self, brownian2):
        dens = solve_density(brownian2, BOX2, 17)
        with pytest.raises(SemigroupError, match="shape"):
            evolve(dens, dens.grid.points(), 0.1, 0.05)

    def test_values_of_another_grid_refused(self, brownian2, monkeypatch):
        dens = solve_density(brownian2, BOX2, 17)
        monkeypatch.setattr(sdelab.semigroup, "_assemble_operator", None)
        with pytest.raises(SemigroupError, match=re.escape(
                "datum has shape (33, 33) on a grid of shape (17, 17)")):
            evolve(dens, np.ones((33, 33)), 0.1, 0.05)

    @pytest.mark.parametrize("datum, got", [
        (lambda x: np.ones(x.shape[:-1]), "function"),
        (GridField(BoxGrid(BOX2, 17), np.ones((17, 17))), "GridField"),
        (np.ones((17, 17)).tolist(), "list"),
        (np.ones((17, 17), dtype=complex), "complex128"),
        (np.ones((17, 17), dtype=object), "object"),
    ], ids=["callable", "GridField", "list", "complex", "object"])
    def test_non_array_datum_refused(self, brownian2, monkeypatch, datum, got):
        # the datum is node values only: a callable or a GridField was once
        # evaluated or unwrapped here, and no non-array may escape as TypeError
        dens = solve_density(brownian2, BOX2, 17)
        monkeypatch.setattr(sdelab.semigroup, "_assemble_operator", None)
        with pytest.raises(SemigroupError, match=re.escape(
                f"datum must be an array of real node values, got {got}")):
            evolve(dens, datum, 0.1, 0.05)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_datum_refused_before_the_solve(self, brownian2, monkeypatch, bad):
        # the datum used to be assembled, factorised and stepped before the
        # slice check reported it
        dens = solve_density(brownian2, BOX2, 17)
        values = np.zeros(dens.grid.shape)
        values[8, 3] = bad
        monkeypatch.setattr(sdelab.semigroup, "_assemble_operator", None)
        with pytest.raises(SemigroupError, match="datum is non-finite at 1 of 289 nodes"):
            evolve(dens, values, 0.1, 0.05)


class TestKeptSlices:
    """An evolve that keeps only some slices holds the full stack's slices at
    those times, bit for bit."""

    def test_kept_slices_equal_the_full_stack(self, jump2):
        dens = solve_density(jump2, BOX2, 17)
        datum = _gaussian_datum()(dens.grid.points())
        full = evolve(dens, datum, 0.5, 0.05)
        kept = evolve(dens, datum, 0.5, 0.05, t_keep=(0.0, 0.15, 0.5))
        np.testing.assert_array_equal(kept.times, full.times[[0, 3, 10]])
        np.testing.assert_array_equal(kept.values, full.values[[0, 3, 10]])
        final = evolve(dens, datum, 0.5, 0.05, t_keep=(0.5,))
        assert final.values.shape == (1,) + dens.grid.shape
        np.testing.assert_array_equal(final.values[0], full.values[-1])

    @pytest.mark.parametrize("t_keep, match", [
        ((), "t_keep is empty"),
        ((0.5, 0.1), "not increasing"),
        ((0.1, 0.1), "names a step more than once"),
        ((0.125,), "off the step grid"),
        ((0.55,), "outside the simulated horizon"),
        (0.5, "sequence of times"),
    ])
    def test_bad_t_keep_rejected(self, brownian2, t_keep, match):
        dens = solve_density(brownian2, BOX2, 9)
        with pytest.raises(SemigroupError, match=match):
            evolve(dens, _gaussian_datum()(dens.grid.points()), 0.5, 0.05, t_keep=t_keep)


class TestClosedForms:
    def test_heat_kernel_convolution(self, brownian2):
        s2 = 0.25
        dens = solve_density(brownian2, BOX4, 129)
        u = evolve(dens, _gaussian_datum(s2)(dens.grid.points()), 0.1, 1e-3)
        pts = dens.grid.points()
        T = 0.1
        exact = (s2 / (s2 + T)) * np.exp(-np.sum(pts**2, axis=-1) / (2 * (s2 + T)))
        inner = np.all(np.abs(pts) <= 2.0, axis=-1)
        err = np.max(np.abs(u.values[-1] - exact)[inner]) / np.max(exact)
        assert err <= 0.02

    def test_ou_linear_datum(self, ou2):
        dens = solve_density(ou2, BOX4, 129)
        u = evolve(dens, dens.grid.points()[..., 0], 0.5, 1e-3)
        pts = dens.grid.points()
        exact = np.exp(-0.5) * pts[..., 0]
        inner = np.all(np.abs(pts) <= 2.0, axis=-1)
        err = np.max(np.abs(u.values[-1] - exact)[inner])
        assert err <= 0.03 * np.max(np.abs(exact[inner]))


class TestSubMarkov:
    @pytest.mark.parametrize(
        "family,bounds", [
            ("brownian2", BOX2),
            ("ou2", BOX4),
            ("radial2", BOX2),
            ("piecewise2", BOX2),
            ("jump2", BOX2),
        ],
    )
    def test_unit_interval_and_contraction(self, family, bounds, request):
        c = request.getfixturevalue(family)
        dens = solve_density(c, bounds, 49)
        bump = SmoothBump(center=(0.0, 0.0), radius=0.12)
        u = evolve(dens, bump(dens.grid.points()), 0.05, 5e-3)
        rep = semigroup_contraction_check(u, dens)
        assert rep.passed, rep.summary()
        assert np.min(u.values) >= -1e-12
        assert np.max(u.values) <= 1.0 + 1e-12

    def test_constant_one_datum(self, radial2):
        dens = solve_density(radial2, BOX2, 33)
        u = evolve(dens, np.ones(dens.grid.shape), 0.05, 1e-2)
        assert np.min(u.values) >= 0.0
        assert np.max(u.values) <= 1.0 + 1e-12
        sup = [np.max(np.abs(s)) for s in u.values]
        assert all(b <= a + 1e-12 for a, b in zip(sup, sup[1:]))

    def test_zero_datum_stays_zero(self, ou2):
        dens = solve_density(ou2, BOX4, 33)
        u = evolve(dens, np.zeros(dens.grid.shape), 0.05, 1e-2)
        assert np.max(np.abs(u.values)) == 0.0
        rep = semigroup_contraction_check(u, dens)
        assert rep.passed


class TestStructure:
    def test_comparison_principle(self, brownian2):
        dens = solve_density(brownian2, BOX2, 33)
        f0 = _gaussian_datum()
        g0 = lambda x: np.minimum(f0(x) + 0.3, 1.0)
        pts = dens.grid.points()
        ua = evolve(dens, f0(pts), 0.02, 5e-3)
        ub = evolve(dens, g0(pts), 0.02, 5e-3)
        assert np.min(ub.values - ua.values) >= -1e-12

    def test_linearity(self, jump2):
        dens = solve_density(jump2, BOX2, 33)
        f0 = _gaussian_datum()
        g0 = lambda x: np.cos(x[..., 0])
        pts = dens.grid.points()
        ua = evolve(dens, f0(pts), 0.02, 5e-3)
        ub = evolve(dens, g0(pts), 0.02, 5e-3)
        mixed = evolve(dens, 2.0 * f0(pts) - 0.5 * g0(pts), 0.02, 5e-3)
        err = np.max(np.abs(mixed.values - (2.0 * ua.values - 0.5 * ub.values)))
        assert err <= 1e-10

    def test_mass_duality(self, brownian2):
        dens = solve_density(brownian2, BOX2, 65)
        bump = SmoothBump(center=(0.0, 0.0), radius=0.1)
        u = evolve(dens, bump(dens.grid.points()), 0.02, 5e-3)
        grid = dens.grid
        w = grid.trapezoid_weights() * dens.rho.values * dens.psi
        masses = [float(np.sum(w * s)) for s in u.values]
        assert all(b <= a + 1e-12 for a, b in zip(masses, masses[1:]))
        assert masses[-1] >= masses[0] * (1.0 - 1e-6)

    def test_m_matrix_guard(self):
        bad = sp.csr_matrix(np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(SemigroupError, match="M-matrix"):
            _check_m_matrix(bad)


class TestContractionReport:
    def test_detects_rising_norms(self, brownian2):
        dens = solve_density(brownian2, BOX2, 17)
        grid = dens.grid
        vals = np.stack([np.ones(grid.shape), 2.0 * np.ones(grid.shape)])
        u = SpaceTimeField(grid, np.array([0.0, 1.0]), vals)
        rep = semigroup_contraction_check(u, dens)
        assert not rep.passed

    def test_meta_norm_sequences(self, brownian2):
        dens = solve_density(brownian2, BOX2, 33)
        u = evolve(dens, _gaussian_datum()(dens.grid.points()), 0.02, 1e-2)
        rep = semigroup_contraction_check(u, dens)
        assert len(rep.meta["l1_norms"]) == len(u.times)
        assert len(rep.meta["sup_norms"]) == len(u.times)

    @pytest.mark.parametrize("bounds, n, other", [
        (BOX2, 17, "[17, 17] nodes on [[-2.0, 2.0], [-2.0, 2.0]]"),
        (((-2.0, 2.0), (-2.5, 2.0)), 9, "[9, 9] nodes on [[-2.0, 2.0], [-2.5, 2.0]]"),
    ])
    def test_slices_from_another_grid_rejected(self, brownian2, bounds, n, other):
        # another node count, or the same count on another box, would pair
        # the slices with the wrong rho, psi and volumes
        dens = solve_density(brownian2, BOX2, 9)
        u = evolve(dens, _gaussian_datum()(dens.grid.points()), 0.02, 1e-2)
        with pytest.raises(SemigroupError, match=re.escape(
                "slices on [9, 9] nodes on [[-2.0, 2.0], [-2.0, 2.0]] do not lie on "
                f"the density's grid, {other}")):
            semigroup_contraction_check(u, solve_density(brownian2, bounds, n))
