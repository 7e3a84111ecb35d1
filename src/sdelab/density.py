"""Stationary reference density of the weighted generator.

Solves the conservation form ``div( (1/2) A grad(rho) + c rho ) = 0`` with
``c = (1/2) (row-div A) - psi G``, natural (zero-flux) boundary conditions and
value 1 at the node nearest the box center.  The weight enters the solve only
through the datum ``psi G``, which :meth:`CoefficientSet.psi_G` computes as
``G / w`` and sets to 0 on the degeneracy set, so the system stays finite even
where the inverse weight vanishes.

Discretization: vertex-centered finite volumes on a box grid.  Each dual face
carries a Scharfetter-Gummel two-point flux with harmonically averaged
diagonal diffusion and the advective coefficient evaluated at the face
midpoint, so piecewise coefficients with interfaces on grid planes are seen
one-sidedly by every face.  The resulting matrix has positive off-diagonal
entries, nonpositive diagonal and exactly zero column sums, so it is the
transpose of a Markov generator: existence, uniqueness up to scale and strict
positivity of the discrete solution follow structurally.  The flux is exact
on each face for densities of the form ``exp(linear potential)``, so constant
and Gaussian kernels are reproduced at machine precision.

The drift splits as ``G = beta + B``, with ``beta`` the symmetric part
determined by ``(rho, A, psi)``; the weighted flux ``rho psi B`` of the
leftover must be weakly divergence free.  Audits measure weak-form defects
against the smooth compactly supported test functions of
:func:`default_bump_dictionary`, whose supports lie inside the box; the
divergence audit pairs the scheme's own face fluxes with analytic test
gradients, which is zero to rounding whenever the discrete kernel is exact
and decays at the scheme's order otherwise.  The solve evaluates no test
function; both audits refuse a grid on which one has zero gradient at every
node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet
from .grids import BoxGrid, GridField, allocating, default_bump_dictionary
from .reporting import DiagnosticReport


class DensityError(ValueError):
    """Raised when the discrete density problem is ill-posed or leaves the
    guaranteed regime (sign change, singularity beyond the one-dimensional
    kernel, unsupported coefficient structure)."""


def _bernoulli(t: np.ndarray) -> np.ndarray:
    """B(t) = t / (e^t - 1), stable near 0 and for large |t|."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    small = np.abs(t) < 1e-5
    ts = t[small]
    out[small] = 1.0 - ts / 2.0 + ts * ts / 12.0
    tl = t[~small]
    with np.errstate(over="ignore"):
        out[~small] = np.where(tl > 700.0, 0.0, tl / np.expm1(tl))
    return out


def patch_nonfinite(values: np.ndarray, lattice_dim: int, what: str) -> np.ndarray:
    """Replace non-finite entries by the mean of finite axis neighbours.

    Data defined only almost everywhere (weights, ``psi G``) can be singular
    on isolated lattice points; those get the face-averaged value.  The first
    ``lattice_dim`` axes are treated as the lattice.  Raises if whole regions
    are non-finite.
    """
    v = np.array(values, dtype=float)
    for _ in range(3):
        bad = ~np.isfinite(v)
        if not bad.any():
            return v
        acc = np.zeros_like(v)
        cnt = np.zeros(v.shape, dtype=float)
        for k in range(lattice_dim):
            for shift in (1, -1):
                nb = np.roll(v, shift, axis=k)
                edge = [slice(None)] * v.ndim
                edge[k] = 0 if shift == 1 else -1
                nb[tuple(edge)] = np.nan
                good = np.isfinite(nb) & bad
                acc[good] += nb[good]
                cnt[good] += 1.0
        fix = bad & (cnt > 0)
        v[fix] = acc[fix] / cnt[fix]
    if not np.isfinite(v).all():
        raise DensityError(f"{what} is non-finite on clustered lattice points")
    return v


def _diagonal_entries(c: CoefficientSet, pts: np.ndarray, dim: int) -> np.ndarray:
    """Values of diag(A), verifying the matrix is diagonal at the points."""
    a = c.A(pts)
    diag = np.einsum("...kk->...k", a)
    off = a - (diag[..., None] * np.eye(dim))
    scale = max(1.0, float(np.max(np.abs(diag))))
    if np.max(np.abs(off)) > 1e-12 * scale:
        raise DensityError(
            "the box solver supports diagonal diffusion matrices only; "
            f"found off-diagonal entries up to {np.max(np.abs(off)):.3e}"
        )
    if np.min(diag) <= 0:
        raise DensityError("diagonal diffusion entries must be positive")
    return diag


def _node_psi_g(c: CoefficientSet, pts: np.ndarray, lattice_dim: int) -> np.ndarray:
    """Values of ``psi G`` at lattice points, patched where singular."""
    with np.errstate(divide="ignore", invalid="ignore"):
        psi_g = c.psi_G(pts)
    return patch_nonfinite(psi_g, lattice_dim, "psi * G")


def _psi_weights(c: CoefficientSet, grid: BoxGrid) -> np.ndarray:
    """Node values of the weight ``psi = 1 / w``, face-averaged on the null set."""
    w = c.inv_weight(grid.points())
    with np.errstate(divide="ignore"):
        psi = np.where(w > 0, 1.0 / np.where(w > 0, w, 1.0), np.inf)
    return patch_nonfinite(psi, grid.dim, "the weight")


class _FaceScheme:
    """Face geometry of a box grid with its Scharfetter-Gummel coefficients.

    The one place that knows the faces: the faces along axis k join the
    nodes ``sides[k][0]`` (left) and ``sides[k][1]`` (right), index tuples
    into node arrays.  ``area[k]`` holds the dual-face areas (products of
    transverse trapezoid weights), ``node_diag`` the node values of
    ``diag(A)``, and ``w_left``/``w_right`` the two-point flux
    ``J = w_right rho_R - w_left rho_L`` per unit dual-face area.
    """

    L, R = 0, 1  # the two end nodes of a face, by increasing coordinate

    def __init__(self, c: CoefficientSet, grid: BoxGrid):
        self.grid = grid
        self.sides = []
        self.w_left = []
        self.w_right = []
        self.area = []
        pts = grid.points()
        self.node_diag = _diagonal_entries(c, pts, grid.dim)
        axis_w = grid.axis_weights()
        h = grid.spacing
        d = grid.dim
        for k in range(d):
            sl_l = [slice(None)] * d
            sl_r = [slice(None)] * d
            sl_l[k] = slice(0, -1)
            sl_r[k] = slice(1, None)
            sl_l, sl_r = tuple(sl_l), tuple(sl_r)
            self.sides.append((sl_l, sl_r))
            a_l = 0.5 * self.node_diag[sl_l + (k,)]
            a_r = 0.5 * self.node_diag[sl_r + (k,)]
            d_face = 2.0 * a_l * a_r / (a_l + a_r)

            mid = pts[sl_l].copy()
            mid[..., k] += 0.5 * h[k]
            # the advective coefficient c = (1/2) row-div A - psi G
            v_face = (0.5 * c.row_div_A(mid) - _node_psi_g(c, mid, d))[..., k]

            lam = v_face * h[k] / d_face
            self.w_right.append(d_face / h[k] * _bernoulli(-lam))
            self.w_left.append(d_face / h[k] * _bernoulli(lam))

            area = np.ones(())
            for j in range(d):
                vec = np.ones(grid.shape[j] - 1) if j == k else axis_w[j]
                area = np.multiply.outer(area, vec)
            self.area.append(area)

    def face_fluxes(self, rho: np.ndarray) -> list:
        """Per-axis SG fluxes of a node field, per unit area."""
        return [
            self.w_right[k] * rho[sl_r] - self.w_left[k] * rho[sl_l]
            for k, (sl_l, sl_r) in enumerate(self.sides)
        ]

    def node_flux_field(self, rho: np.ndarray) -> np.ndarray:
        """Flux vector field at nodes, averaging the adjacent face fluxes.

        Outer boundary faces carry zero flux by the boundary condition, so
        boundary nodes average the single interior face with zero.
        """
        field = np.zeros(self.grid.shape + (self.grid.dim,))
        for k, flux in enumerate(self.face_fluxes(rho)):
            sl_l, sl_r = self.sides[k]
            field[sl_r + (k,)] += 0.5 * flux
            field[sl_l + (k,)] += 0.5 * flux
        return field

    def two_point_matrix(self, couplings):
        """Node matrix, a ``scipy.sparse`` CSR matrix, from face couplings.

        ``couplings(k)`` lists ``(row, col, values)`` entries for the faces
        along axis k: ``row`` and ``col`` are :attr:`L` or :attr:`R`, and
        ``values`` holds one number per face.  Duplicate entries are summed
        in the order given.
        """
        import scipy.sparse as sp
        n_nodes = int(np.prod(self.grid.shape))
        flat = np.arange(n_nodes).reshape(self.grid.shape)
        rows, cols, data = [], [], []
        for k, (sl_l, sl_r) in enumerate(self.sides):
            ends = (flat[sl_l].ravel(), flat[sl_r].ravel())
            for i, j, values in couplings(k):
                rows.append(ends[i])
                cols.append(ends[j])
                data.append(values)
        return sp.coo_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n_nodes, n_nodes),
        ).tocsr()

    def assemble(self):
        """Finite-volume CSR matrix with ``(K rho)_i ~ vol_i div(F(rho))_i``.

        Exactly zero column sums (discrete conservation) and the sign
        structure of a transposed Markov generator.
        """
        L, R = self.L, self.R

        def couplings(k):
            fr = (self.area[k] * self.w_right[k]).ravel()
            fl = (self.area[k] * self.w_left[k]).ravel()
            # flux J = w_r rho_R - w_l rho_L enters row L with +, row R with -
            return [(L, R, fr), (L, L, -fl), (R, L, fl), (R, R, -fr)]

        return self.two_point_matrix(couplings)


@dataclass
class DensityField:
    """Solved stationary density on a grid.

    ``rho`` is strictly positive with value 1 at the node nearest the box
    center.  ``c`` is the coefficient set it was solved from, ``psi`` the
    node values of its weight and ``faces`` its face scheme; the audits and
    the parabolic solve read all three from here, so a density belongs to
    one equation.
    """

    rho: GridField
    c: CoefficientSet
    psi: np.ndarray
    faces: _FaceScheme

    @property
    def grid(self) -> BoxGrid:
        return self.rho.grid


_PREINVARIANCE_TOL = 1e-4
_DIVERGENCE_TOL = 1e-3


def weak_defect(grid: BoxGrid, flux_values: np.ndarray, bump) -> tuple:
    """(integral of <flux, grad(bump)>, L2 and sup norms of grad(bump))."""
    pts = grid.points()
    gu = bump.gradient(pts)
    w = grid.trapezoid_weights()
    defect = float(np.sum(w * np.sum(flux_values * gu, axis=-1)))
    grad_l2 = float(np.sqrt(np.sum(w * np.sum(gu * gu, axis=-1))))
    grad_sup = float(np.max(np.abs(gu)))
    return defect, grad_l2, grad_sup


def solve_density(c: CoefficientSet, bounds, n) -> DensityField:
    """Solve the stationary density problem on a box grid.

    Fixes value 1 at the node nearest the box center.  Raises
    :class:`DensityError` if the anchored system is singular (kernel
    dimension above one), the solution changes sign (enlarge the box or
    refine the grid) or its arrays cannot be allocated.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    grid = BoxGrid(bounds, n)
    if grid.dim != c.dim:
        raise DensityError("bounds dimension does not match the coefficients")

    # the node points are the first of the scheme's arrays
    with allocating(f"the points of {math.prod(grid.n)} nodes", grid.n + (grid.dim,),
                    DensityError):
        faces = _FaceScheme(c, grid)
        K = faces.assemble()

    anchor = tuple(int(np.argmin(np.abs(ax - x))) for ax, x in zip(grid.axes(), grid.center))
    anchor_flat = int(np.ravel_multi_index(anchor, grid.shape))

    # the anchor row of the flux matrix becomes the identity row
    coo = K.tocoo()
    keep = coo.row != anchor_flat
    A_sys = sp.csr_matrix(
        (
            np.append(coo.data[keep], 1.0),
            (np.append(coo.row[keep], anchor_flat), np.append(coo.col[keep], anchor_flat)),
        ),
        shape=K.shape,
    )
    rhs = np.zeros(K.shape[0])
    rhs[anchor_flat] = 1.0
    sol = spla.spsolve(A_sys, rhs)
    if not np.all(np.isfinite(sol)):
        raise DensityError(
            "anchored system is singular: the flux matrix kernel has dimension "
            "above one on this grid"
        )

    rho = sol.reshape(grid.shape)
    if np.min(rho) <= 0.0:
        raise DensityError(
            f"density changes sign on the grid (min {np.min(rho):.3e}); "
            "enlarge the box or refine the grid"
        )

    return DensityField(GridField(grid, rho), c, _psi_weights(c, grid), faces)


def _unresolved(grid: BoxGrid) -> DensityError:
    """The audits' refusal of a grid on which a test function is flat."""
    return DensityError(
        f"grid {list(grid.n)} cannot resolve the test dictionary: a test "
        "function has zero gradient at every node; refine the grid"
    )


def verify_preinvariance(dens: DensityField) -> DiagnosticReport:
    """Stationarity audit: the weighted measure kills the generator.

    For each ``f`` of the test dictionary the quadrature of
    ``(1/2) rho tr(A Hess f) + rho <psi G, grad f>`` over the box must vanish
    up to ``1e-4 * sup|Hess f|``.  The inverse weight cancels against the
    weight in this form, so degenerate nodes need no special handling.  The
    report meta tracks the split of each residual into the symmetric part
    (stationary flux of ``rho`` paired with the test gradient) and the
    leftover-drift part; the two parts sum to the residual exactly.
    """
    tol = _PREINVARIANCE_TOL
    c, grid = dens.c, dens.grid
    pts = grid.points()
    rho = dens.rho.values
    diag_a = dens.faces.node_diag
    psi_g = _node_psi_g(c, pts, grid.dim)
    row_div = c.row_div_A(pts)
    sym_flux = 0.5 * rho[..., None] * row_div + 0.5 * diag_a * dens.rho.gradient()
    quad_w = grid.trapezoid_weights()

    rep = DiagnosticReport(
        check="preinvariance",
        meta={"tol": tol, "n": list(grid.n), "family": c.family,
              "symmetric_part": [], "leftover_part": []},
    )
    for i, f in enumerate(default_bump_dictionary(grid)):
        grad_f = f.gradient(pts)
        if not grad_f.any():
            raise _unresolved(grid)
        hess = f.hessian(pts)
        tr_term = 0.5 * rho * np.sum(diag_a * np.einsum("...kk->...k", hess), axis=-1)
        drift_term = rho * np.sum(psi_g * grad_f, axis=-1)
        integral = float(np.sum(quad_w * (tr_term + drift_term)))
        scale = float(np.max(np.abs(hess)))
        sym = float(np.sum(quad_w * (tr_term + np.sum(sym_flux * grad_f, axis=-1))))
        rep.meta["symmetric_part"].append(sym)
        rep.meta["leftover_part"].append(integral - sym)
        rep.add(
            f"stationarity_bump_{i}",
            abs(integral) <= tol * scale,
            value=abs(integral),
            threshold=tol * scale,
            detail=f"center={np.asarray(f.center).tolist()}",
        )
    return rep


def verify_divergence_free(dens: DensityField) -> DiagnosticReport:
    """Audit that the weighted leftover flux ``rho psi B`` is divergence free.

    The headline value per test function pairs the scheme's face-flux
    representation of ``rho psi B`` (minus the stationary flux of ``rho``)
    with the analytic test gradient; it vanishes to rounding whenever the
    discrete density is an exact kernel element, and decays at the scheme's
    order otherwise.  Pass threshold: ``1e-3 * sup|grad u|``.  Meta carries
    ``residual_norm``, the largest headline value scaled by the test
    gradient's L2 norm (a discrete dual norm), and ``field_defect``, the
    defect of the nodal ``rho psi B`` field, limited by the accuracy of the
    centered density gradient.
    """
    tol = _DIVERGENCE_TOL
    c, grid = dens.c, dens.grid
    pts = grid.points()
    rho = dens.rho.values[..., None]
    row_div = c.row_div_A(pts)
    a_grad = dens.faces.node_diag * dens.rho.gradient()
    # rho psi B = rho (psi G) - rho (row-div A)/2 - (A grad rho)/2, finite
    # even where the weight psi is not
    rho_psi_b = rho * _node_psi_g(c, pts, grid.dim) - 0.5 * rho * row_div - 0.5 * a_grad
    flux = -dens.faces.node_flux_field(dens.rho.values)
    rep = DiagnosticReport(
        check="divergence_free",
        meta={"tol": tol, "n": list(grid.n), "family": c.family,
              "residual_norm": 0.0, "field_defect": []},
    )
    for i, u in enumerate(default_bump_dictionary(grid)):
        val, grad_l2, grad_sup = weak_defect(grid, flux, u)
        if grad_l2 == 0.0:
            raise _unresolved(grid)
        rep.meta["residual_norm"] = max(rep.meta["residual_norm"], abs(val) / grad_l2)
        nodal, _, _ = weak_defect(grid, rho_psi_b, u)
        rep.meta["field_defect"].append(nodal)
        rep.add(
            f"weighted_flux_bump_{i}",
            abs(val) <= tol * grad_sup,
            value=abs(val),
            threshold=tol * grad_sup,
            detail=f"center={np.asarray(u.center).tolist()}",
        )
    return rep
