"""Grid, quadrature and test-function tests.

Derivative values are checked against central finite differences and the
1-d bump integral against adaptive quadrature, both independent of the
package implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sdelab.grids import (
    BoxGrid,
    GridError,
    GridField,
    SmoothBump,
    default_bump_dictionary,
)


BOX2 = [[-2.0, 2.0], [-1.0, 3.0]]


class TestBoxGrid:
    def test_axes_and_spacing(self):
        g = BoxGrid(BOX2, 5)
        assert g.shape == (5, 5)
        np.testing.assert_allclose(g.spacing, [1.0, 1.0])
        np.testing.assert_allclose(g.axes()[0], [-2, -1, 0, 1, 2])
        np.testing.assert_allclose(g.center, [0.0, 1.0])

    def test_odd_grid_contains_center(self):
        g = BoxGrid([[-4, 4], [-4, 4]], 129)
        pts = g.flat_points()
        assert np.any(np.all(pts == 0.0, axis=1))

    def test_trapezoid_weights_sum_to_volume(self):
        g = BoxGrid(BOX2, (7, 9))
        assert np.isclose(g.trapezoid_weights().sum(), 16.0)

    def test_axis_weights_build_trapezoid_weights(self):
        g = BoxGrid(BOX2, (7, 9))
        wx, wy = g.axis_weights()
        assert np.isclose(wx.sum(), 4.0) and np.isclose(wy.sum(), 4.0)
        assert wx[0] == wx[-1] == 0.5 * wx[1]
        np.testing.assert_array_equal(g.trapezoid_weights(), np.outer(wx, wy))

    def test_coarsen_is_nested(self):
        f = BoxGrid(BOX2, (9, 5))
        g = f.coarsen()
        assert g.n == (5, 3)
        for fine, coarse in zip(f.axes(), g.axes()):
            np.testing.assert_array_equal(fine[::2], coarse)
        with pytest.raises(GridError, match="odd"):
            BoxGrid(BOX2, 8).coarsen()
        # every coarse node is the fine node it sits on, bit for bit, on
        # awkward boxes too: the coarse step is the fine one doubled exactly
        rng = np.random.default_rng(0)
        boxes = [([[-np.pi, np.e], [0.1, 0.7]], (399, 41)),
                 ([[1e-3, 2.0 / 3.0], [-1e5, 0.3], [0.3, 0.30000001]], (21, 47, 7))]
        for d, n_max in ((2, 399), (3, 41)):
            for _ in range(100):
                lo = rng.uniform(-10.0, 10.0, d) * 10.0 ** rng.integers(-3, 4, d)
                hi = lo + rng.uniform(1e-6, 20.0, d)
                n = 2 * rng.integers(1, n_max // 2 + 1, d) + 1  # odd, 3 .. n_max
                boxes.append((np.stack([lo, hi], axis=1), n))
        for bounds, n in boxes:
            f = BoxGrid(bounds, n)
            every_other = (slice(None, None, 2),) * f.dim
            np.testing.assert_array_equal(f.points()[every_other], f.coarsen().points())

    def test_bad_inputs(self):
        with pytest.raises(GridError):
            BoxGrid([[1.0, -1.0], [0.0, 1.0]], 5)
        with pytest.raises(GridError):
            BoxGrid(BOX2, 1)
        with pytest.raises(GridError):
            BoxGrid([[0.0, np.inf], [0.0, 1.0]], 4)

    @pytest.mark.parametrize("bounds, n, spacing", [
        ([[-1e308, 1e308], [0.0, 1.0]], 5, r"\[inf, 0\.25\]"),
        ([[0.0, 5e-324], [0.0, 1.0]], (3, 5), r"\[0\.0, 0\.25\]"),
    ])
    def test_spacing_must_be_finite_and_positive(self, bounds, n, spacing):
        # finite bounds whose difference overflows, or whose spacing underflows
        with pytest.raises(GridError, match=rf"^bounds .* give the node spacing {spacing}"):
            BoxGrid(bounds, n)

    def test_sizes_no_array_can_have(self):
        # refused by shape arithmetic alone: nothing is allocated
        with pytest.raises(GridError, match=r"1\.000e30 x 1\.000e30 x 2 cannot be a numpy"):
            BoxGrid(BOX2, 10**30)
        with pytest.raises(GridError, match="65 axes, more than numpy allows"):
            BoxGrid([[0.0, 1.0]] * 64, 2)
        assert BoxGrid(BOX2, 10**8).n == (10**8, 10**8)  # representable, never built

    @given(st.integers(2, 20), st.integers(2, 20))
    def test_point_count(self, n0, n1):
        g = BoxGrid(BOX2, (n0, n1))
        pts = g.flat_points()
        assert pts.shape == (n0 * n1, 2)
        assert np.all((pts >= g.lo) & (pts <= g.hi))


class TestGridField:
    def test_interpolation_exact_for_multilinear(self):
        g = BoxGrid(BOX2, 17)
        pts = g.points()
        vals = 2.0 + 3.0 * pts[..., 0] - 1.5 * pts[..., 1]
        f = GridField(g, vals)
        rng = np.random.default_rng(1)
        x = rng.uniform([-2, -1], [2, 3], size=(50, 2))
        expect = 2.0 + 3.0 * x[:, 0] - 1.5 * x[:, 1]
        np.testing.assert_allclose(f.interpolate(x), expect, atol=1e-12)

    def test_integrate_constant(self):
        g = BoxGrid(BOX2, 11)
        assert np.isclose(np.sum(g.trapezoid_weights() * 2.5), 2.5 * 16.0)

    def test_gradient_of_linear(self):
        g = BoxGrid(BOX2, 9)
        pts = g.points()
        f = GridField(g, pts[..., 0] - 4.0 * pts[..., 1])
        grad = f.gradient()
        np.testing.assert_allclose(grad[..., 0], 1.0, atol=1e-12)
        np.testing.assert_allclose(grad[..., 1], -4.0, atol=1e-12)

    @pytest.mark.parametrize("bounds, n", [
        ([[-2.0, 2.0]], 9),
        (BOX2, (17, 11)),
        ([[-1.0, 1.0], [0.0, 2.5], [-3.0, -1.0]], (5, 7, 6)),
    ])
    def test_gradient_is_exact_on_affine_fields(self, bounds, n):
        # shape grid.shape + (d,) in every dimension, d = 1 included
        g = BoxGrid(bounds, n)
        slope = np.array([1.0, -4.0, 0.5])[:g.dim]
        f = GridField(g, 2.0 + g.points() @ slope)
        grad = f.gradient()
        assert grad.shape == g.shape + (g.dim,)
        np.testing.assert_allclose(grad, np.broadcast_to(slope, grad.shape), atol=1e-12)

    def test_shape_mismatch_rejected(self):
        g = BoxGrid(BOX2, 5)
        with pytest.raises(GridError):
            GridField(g, np.zeros((4, 5)))
        with pytest.raises(GridError):  # a field holds scalars only
            GridField(g, np.zeros((5, 5, 2)))


def _scipy_linear(f: GridField, x: np.ndarray) -> np.ndarray:
    # the reference only: sdelab itself must not import scipy.interpolate
    from scipy.interpolate import RegularGridInterpolator

    itp = RegularGridInterpolator(f.grid.axes(), f.values, method="linear",
                                  bounds_error=False, fill_value=None)
    return itp(x)


def _probe_points(g: BoxGrid, rng) -> np.ndarray:
    """Interior points, the nodes and their neighbouring floats, points on
    each upper face, and points up to half a box width outside it."""
    d, lo, hi = g.dim, g.lo, g.hi
    pad = 0.5 * (hi - lo)
    nodes = g.flat_points()
    face = rng.uniform(lo, hi, size=(d * 50, d))
    for k in range(d):
        face[k * 50:(k + 1) * 50, k] = hi[k]
    return np.concatenate([
        rng.uniform(lo, hi, size=(2000, d)),
        nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf),
        face, [hi], [lo],
        rng.uniform(lo - pad, hi + pad, size=(2000, d)), [lo - pad], [hi + pad],
    ])


_BOX3 = [[-1.0, 1.0], [0.0, 2.5], [-3.0, -1.0]]


class TestInterpolationMatchesScipy:
    @pytest.mark.parametrize("bounds, n", [
        ([[-2.0, 2.0]], 9),
        (BOX2, (17, 11)),
        (_BOX3, (5, 7, 6)),
    ])
    @pytest.mark.parametrize("fill", ["random", "signed_zeros", "negative_zero"])
    def test_bit_for_bit(self, bounds, n, fill):
        g = BoxGrid(bounds, n)
        rng = np.random.default_rng(12)
        vals = rng.normal(size=g.shape)
        if fill == "signed_zeros":
            vals.flat[::3] = 0.0
            vals.flat[1::5] = -0.0
        elif fill == "negative_zero":
            vals[...] = -0.0
        f = GridField(g, vals)
        x = _probe_points(g, rng)
        got, ref = f.interpolate(x), _scipy_linear(f, x)
        assert got.shape == ref.shape == (len(x),)
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
        # any leading shape, and a single point
        np.testing.assert_array_equal(
            f.interpolate(x[:2000].reshape(40, 50, g.dim)),
            got[:2000].reshape(40, 50))
        np.testing.assert_array_equal(f.interpolate(x[0]), got[0])

    @pytest.mark.parametrize("bounds, n", [([[-2.0, 2.0]], 9), (BOX2, 9), (_BOX3, 5)])
    def test_nan_coordinate_gives_nan(self, bounds, n):
        g = BoxGrid(bounds, n)
        f = GridField(g, np.random.default_rng(3).normal(size=g.shape))
        x = np.tile(g.center, (g.dim + 1, 1))
        for k in range(g.dim):
            x[k, k] = np.nan
        x[-1] = np.nan
        got, ref = f.interpolate(x), _scipy_linear(f, x)
        assert np.all(np.isnan(got)) and np.all(np.isnan(ref))

    def test_points_must_match_the_dimension(self):
        f = GridField(BoxGrid(BOX2, 5), np.zeros((5, 5)))
        with pytest.raises(GridError, match="trailing dimension 2"):
            f.interpolate(np.zeros((4, 3)))


class TestBumpFunction:
    @pytest.mark.parametrize("center, radius", [
        ([], 1.0),  # no coordinate
        ((np.nan, 0.0), 1.0),
        ((True, 0.0), 1.0),  # a bool is not a coordinate
        ((0.0, 0.0), np.nan),
        ((0.0, 0.0), np.inf),
    ])
    def test_malformed_arguments_refused(self, center, radius):
        with pytest.raises(GridError):
            SmoothBump(center, radius)

    def test_peak_and_support(self):
        b = SmoothBump([0.5, -0.5], [1.0, 2.0])
        assert b(np.array([0.5, -0.5])) == 1.0
        assert b(np.array([8.6, -0.5])) == 0.0
        assert b(np.array([0.5, 15.6])) == 0.0
        assert b(np.array([8.4, 15.4])) > 0.0

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_value_is_the_product_of_axis_profiles_bit_for_bit(self, d):
        # the per-coordinate product below 8 axes must equal np.prod over the
        # per-axis profiles, which the derivatives read, on points inside,
        # outside and on a batch of any shape
        b = SmoothBump(np.linspace(-0.2, 0.3, d), np.linspace(0.1, 0.5, d))
        x = np.random.default_rng(5).normal(scale=0.6, size=(7, 131, d))
        for pts in (x, x[0], x[0, 0]):
            want = np.prod(b._axis_terms(pts)[0], axis=-1)
            np.testing.assert_array_equal(b(pts), want)
            assert np.shape(b(pts)) == pts.shape[:-1]

    def test_hessian_matches_finite_differences(self):
        b = SmoothBump([0.0, 0.0], [1.0, 1.5])
        rng = np.random.default_rng(3)
        x = rng.uniform(-0.6, 0.6, size=(20, 2))
        h = 1e-4
        hess = b.hessian(x)
        for k in range(2):
            for l in range(2):
                xpp = x.copy(); xpp[:, k] += h; xpp[:, l] += h
                xpm = x.copy(); xpm[:, k] += h; xpm[:, l] -= h
                xmp = x.copy(); xmp[:, k] -= h; xmp[:, l] += h
                xmm = x.copy(); xmm[:, k] -= h; xmm[:, l] -= h
                fd = (b(xpp) - b(xpm) - b(xmp) + b(xmm)) / (4 * h * h)
                np.testing.assert_allclose(hess[:, k, l], fd, atol=2e-5)

    def test_1d_profile_integral_against_quad(self):
        # independent oracle: adaptive quadrature of the single-axis profile
        b = SmoothBump([0.0, 0.0], [1.0, 1.0])
        oracle, err = quad(
            lambda t: np.exp(-0.5 * t * t + 1.0 - 1.0 / (1.0 - (t / 8.0) ** 2))
            if abs(t) < 8 else 0.0,
            -8.0,
            8.0,
        )
        g = BoxGrid([[-8.0, 8.0], [-8.0, 8.0]], 201)
        approx = np.sum(g.trapezoid_weights() * b(g.points()))
        assert np.isclose(approx, oracle**2, rtol=1e-8)

    def test_smooth_bump_laplacian_integral_near_machine_zero(self):
        # the Gaussian-core profile makes coarse trapezoid sums near exact
        b = SmoothBump([0.0, 0.0], [0.4, 0.4])
        g = BoxGrid([[-4.0, 4.0], [-4.0, 4.0]], 129)
        lap = np.trace(b.hessian(g.points()), axis1=-2, axis2=-1)
        assert abs(np.sum(g.trapezoid_weights() * lap)) < 1e-11

    def test_smooth_bump_derivatives_match_finite_differences(self):
        b = SmoothBump([0.2, -0.1], [0.5, 0.7])
        rng = np.random.default_rng(4)
        x = rng.uniform(-1.5, 1.5, size=(30, 2))
        h = 1e-6
        for k in range(2):
            xp = x.copy(); xp[:, k] += h
            xm = x.copy(); xm[:, k] -= h
            fd = (b(xp) - b(xm)) / (2 * h)
            np.testing.assert_allclose(b.gradient(x)[:, k], fd, atol=5e-7)
        assert np.isclose(b(np.array([0.2, -0.1])), 1.0)
        assert b(np.array([0.2 + 4.1, -0.1])) == 0.0

    @settings(max_examples=25)
    @given(
        st.floats(-0.5, 0.5),
        st.floats(-0.5, 0.5),
        st.floats(0.2, 2.0),
    )
    def test_bounded_by_one_and_nonnegative(self, cx, cy, r):
        b = SmoothBump([cx, cy], r)
        x = np.linspace(-16, 16, 31)
        pts = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1)
        v = b(pts)
        assert np.all(v >= 0.0) and np.all(v <= 1.0 + 1e-15)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 3),
        st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
        st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=3),
    )
    def test_default_dictionary_inside_box(self, d, offsets, widths):
        # the weak-form audits integrate by parts with no boundary term
        bounds = [[o, o + w] for o, w in zip(offsets[:d], widths[:d])]
        g = BoxGrid(bounds, 5)
        bumps = default_bump_dictionary(g)
        assert len(bumps) >= 3
        for b in bumps:
            # the support is the open box center +- 8 radius per axis
            c, r = np.array(b.center), 8.0 * np.array(b.radius)
            assert np.all(c - r > g.lo) and np.all(c + r < g.hi)
