"""Transition semigroup action by implicit solution of the weighted equation.

``evolve`` integrates ``rho psi du/dt = div((1/2) rho A grad u) + rho psi <B, grad u>``
on a box with homogeneous Dirichlet boundary, which is the backward equation
of the diffusion written against the reference measure: dividing by
``rho psi`` recovers ``du/dt = (1/2) (1/psi) tr(A Hess u) + <G, grad u>``.

Because ``rho psi B`` is (weakly) divergence free, the advective term equals
``div(u rho psi B)``; it is discretized in that conservative form with the
face representation ``rho psi B = -(stationary flux of rho)`` taken from the
density solve, whose discrete divergence vanishes identically, and with
first-order upwinding of the face value of ``u`` by the sign of ``B``.  This
makes the discrete evolution exactly mass-conservative up to Dirichlet
leakage, exactly sub-Markovian, and an exact weighted-L1 contraction on
every family, not just where ``B = 0``.  Backward Euler keeps all of this
unconditional; the M-matrix sign pattern is asserted at assembly.  The
faces, their areas, the node values of ``diag(A)``, the stationary face
fluxes and the node weights ``psi`` are those kept on the
:class:`DensityField`, so both solves share one equation and one
discretization, and none of it is rebuilt here.

The per-slice fields feed one audit: monotonicity of the weighted L1 and sup
norms in time.  A caller that reads only some slices names their times
(``t_keep``), and only those slices are stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .density import DensityField
from .grids import BoxGrid, allocating, array_shape, kept_steps, node_values, step_count
from .reporting import DiagnosticReport


_SLACK = 1e-10  # rounding allowed in the contraction audit's monotone norms


class SemigroupError(ValueError):
    """Raised for ill-posed evolution setups."""


@dataclass
class SpaceTimeField:
    """Dense stack of time slices of a scalar field on a box grid.

    ``values`` has shape ``(len(times),) + grid.shape``; slice 0 is the
    initial datum, later slices carry the Dirichlet boundary.
    """

    grid: BoxGrid
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or len(t) < 1 or np.any(np.diff(t) <= 0):
            raise SemigroupError("times must be strictly increasing")
        if self.values.shape != (len(t),) + self.grid.shape:
            raise SemigroupError(
                f"values shape {self.values.shape} does not match "
                f"{(len(t),) + self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise SemigroupError("non-finite slice values")


def _assemble_operator(dens: DensityField) -> tuple:
    """Full-grid matrices (S, m) with ``m du/dt = -S u`` before restriction.

    ``S`` is minus the discrete generator: diffusion through two-point face
    fluxes of ``(1/2) rho A`` with harmonic averaging, advection through the
    conservative face fluxes ``-(stationary flux of rho) * u_upwind``.  ``m``
    is the lumped weight ``rho psi`` times the dual-cell volume.
    """
    grid = dens.grid
    faces = dens.faces
    h = grid.spacing
    rho = dens.rho.values
    coeff = 0.5 * rho[..., None] * faces.node_diag
    m = (rho * dens.psi * grid.trapezoid_weights()).ravel()
    adv_fluxes = faces.face_fluxes(rho)
    L, R = faces.L, faces.R

    def couplings(k):
        sl_l, sl_r = faces.sides[k]
        c_l = coeff[sl_l + (k,)]
        c_r = coeff[sl_r + (k,)]
        d_face = 2.0 * c_l * c_r / (c_l + c_r)
        cond = (faces.area[k] * d_face / h[k]).ravel()
        # conservative upwind advection with the face values of rho psi B;
        # a positive face value carries state from the right node
        phi = -(faces.area[k] * adv_fluxes[k]).ravel()
        phi_pos = np.maximum(phi, 0.0)
        phi_neg = np.minimum(phi, 0.0)
        return [
            # diffusion: S gets +cond on both diagonals, -cond on the couplings
            (L, L, cond), (R, R, cond), (L, R, -cond), (R, L, -cond),
            # S contribution is minus the divergence of (phi u_upwind)
            (L, R, -phi_pos), (L, L, -phi_neg), (R, L, phi_neg), (R, R, phi_pos),
        ]

    return faces.two_point_matrix(couplings), m


def _check_m_matrix(S) -> None:
    coo = S.tocoo()
    on_diag = coo.row == coo.col
    scale = max(1.0, float(np.max(np.abs(coo.data)))) if coo.nnz else 1.0
    if coo.nnz and (
        np.min(coo.data[on_diag], initial=0.0) < -1e-12 * scale
        or np.max(coo.data[~on_diag], initial=0.0) > 1e-12 * scale
    ):
        raise SemigroupError(
            "assembled operator violates the M-matrix sign pattern"
        )


def slices_shape(grid: BoxGrid, t_final, dt, error=ValueError) -> tuple:
    """Shape of the slices :func:`evolve` stores for ``t_final`` in steps of
    ``dt``, checked to be a shape numpy can represent."""
    n_steps = step_count(t_final, dt, error)
    return array_shape((n_steps + 1,) + grid.shape, "time slices", error)


def evolve(
    dens: DensityField,
    u0: np.ndarray,
    t_final: float,
    dt: float,
    t_keep: Sequence[float] | None = None,
) -> SpaceTimeField:
    """Backward-Euler solution of the weighted parabolic equation.

    ``u0`` is an array of node values on the density's grid, checked by
    :func:`~sdelab.grids.node_values` before anything is assembled (a
    callable or other non-array is a :class:`SemigroupError`).
    ``t_keep = None`` stores every time slice; a sequence of increasing
    times stores only the slices at those times, each on the step grid
    within the horizon (the solve is the same either way).  A stack that
    cannot be allocated is a :class:`SemigroupError`.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    grid = dens.grid
    # the whole stack's shape, checked whatever is kept, as at config load
    n_slices = slices_shape(grid, t_final, dt, SemigroupError)[0]
    steps = None
    if t_keep is not None:
        steps = kept_steps(t_keep, dt, n_slices - 1, SemigroupError)
        if np.any(np.diff(steps) < 0):
            raise SemigroupError(f"t_keep {list(t_keep)} is not increasing")
    u0 = node_values(u0, grid, SemigroupError)

    S, m = _assemble_operator(dens)

    interior = np.flatnonzero(grid.interior_mask().ravel())
    S_int = S[interior][:, interior]
    _check_m_matrix(S_int)
    m_int = m[interior]
    system = sp.diags(m_int) + dt * S_int
    solver = spla.splu(system.tocsc())

    shape = (n_slices if steps is None else len(steps),) + grid.shape
    with allocating("time slices", shape, SemigroupError):
        values = np.zeros(shape)
    if steps is None:
        steps = np.arange(n_slices)
    kept = dict(zip(steps.tolist(), values.reshape(len(steps), -1)))  # step -> its slice
    if 0 in kept:
        kept[0][:] = u0.ravel()
    u = u0.ravel()[interior]
    for k in range(1, n_slices):
        u = solver.solve(m_int * u)
        if k in kept:
            kept[k][interior] = u

    return SpaceTimeField(grid=grid, times=dt * steps, values=values)


def semigroup_contraction_check(u: SpaceTimeField, dens: DensityField) -> DiagnosticReport:
    """Monotonicity of the weighted L1 norm and the sup norm along slices.

    Checks ``t -> ||u(t)||_{L1(rho psi dx)}`` and ``t -> ||u(t)||_sup`` are
    non-increasing up to a slack of ``1e-10`` (absolute, scaled by the
    initial norm).  When the initial datum sits in [0, 1], also checks every
    slice does, to the same slack.  The slices must lie on the density's grid.
    """
    grid = u.grid
    if grid != dens.grid:
        where = [f"{list(g.n)} nodes on {np.array(g.bounds).tolist()}" for g in (grid, dens.grid)]
        raise SemigroupError(f"slices on {where[0]} do not lie on the density's grid, {where[1]}")
    w = grid.trapezoid_weights() * dens.rho.values * dens.psi
    l1 = np.array([float(np.sum(w * np.abs(s))) for s in u.values])
    sup = np.array([float(np.max(np.abs(s))) for s in u.values])

    rep = DiagnosticReport(
        check="contraction",
        meta={
            "l1_norms": [float(v) for v in l1],
            "sup_norms": [float(v) for v in sup],
            "slack": _SLACK,
        },
    )
    tol1 = _SLACK * (1.0 + l1[0])
    tol_inf = _SLACK * (1.0 + sup[0])
    rise_l1 = float(np.max(np.diff(l1), initial=0.0))
    rise_sup = float(np.max(np.diff(sup), initial=0.0))
    rep.add(
        "l1_weighted_non_increasing",
        rise_l1 <= tol1,
        value=rise_l1,
        threshold=tol1,
    )
    rep.add(
        "sup_non_increasing",
        rise_sup <= tol_inf,
        value=rise_sup,
        threshold=tol_inf,
    )
    if np.min(u.values[0]) >= 0.0 and np.max(u.values[0]) <= 1.0:
        low = float(np.min(u.values))
        high = float(np.max(u.values))
        rep.add(
            "unit_interval_preserved",
            low >= -_SLACK and high <= 1.0 + _SLACK,
            value=max(-low, high - 1.0),
            threshold=_SLACK,
            detail=f"range [{low:.3e}, {high:.3e}]",
        )
    return rep
