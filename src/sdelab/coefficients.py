"""Coefficient fields for Ito equations with a degenerate scalar dispersion scaling.

The model class: ``dX = sigma_hat(X) dW + G(X) dt`` where the dispersion
factors as ``sigma_hat = sqrt(w) * sigma`` with

* ``sigma`` a continuous, locally uniformly elliptic d x m factor with
  ``A = sigma sigma^T`` symmetric and Sobolev-regular,
* ``w`` a pointwise-chosen Borel version of a nonnegative inverse weight that
  may vanish on a Lebesgue-null set Z and may be discontinuous.

The inverse weight is the reciprocal of a locally integrable weight ``psi``
(``psi = 1/w`` where ``w > 0``, extended by ``+inf`` on Z).  Several audits
need ``psi * G`` as a single locally p-integrable datum.  It is computed as
``G / w``, never stored, and taken as 0 on Z, so the PDE solvers read the same
drift as the path simulator.

The dispersion factor is the one source of the diffusion: ``A`` is computed
as ``sigma sigma^T``, never stored, so the PDE solvers and the path simulator
always describe the same equation.  The row divergence ``(sum_j d_j a_ij)_i``
of that ``A`` cannot be read off a black-box factor, so each coefficient set
supplies it.

All evaluation callables are vectorized over a leading batch axis:
points ``x`` of shape ``(..., d)`` map to ``A -> (..., d, d)``,
``sigma -> (..., d, m)``, ``w -> (...,)``, ``G -> (..., d)`` and the row
divergence ``-> (..., d)``.
Instances are frozen and hold pure functions, so sharing across threads is safe.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grids import box_bounds, finite_point, finite_real, squared_norm


class CoefficientError(ValueError):
    """Raised for invalid coefficient definitions or parameters."""


def _batchpoints(x, d: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (d,):
        raise CoefficientError(f"points must have trailing dimension {d}, got {x.shape}")
    return x


# -- building blocks ----------------------------------------------------------

@dataclass(frozen=True)
class InverseWeight:
    """Pointwise-defined Borel version of the inverse weight ``w = 1/psi``.

    ``fn`` evaluates ``w >= 0``.  The degeneracy set of this version is its
    zero set ``Z = {w = 0}``, decided by exact evaluation (no tolerance).
    Versions that differ only on a Lebesgue-null set induce the same equation
    class but distinct simulators, which is exactly what the law diagnostics
    compare.  ``has_zeros`` declares whether Z is nonempty for this version;
    it cannot be inferred from a black-box callable and drives the
    occupation-condition routing.
    """

    fn: Callable
    has_zeros: bool

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        v = np.asarray(self.fn(x), dtype=float)
        if v.shape != x.shape[:-1]:
            raise CoefficientError(
                f"inverse weight returned shape {v.shape}, expected {x.shape[:-1]}"
            )
        return v

    def null_set_indicator(self, x) -> np.ndarray:
        """Whether each point lies in the degeneracy set ``{w = 0}``."""
        return self(x) == 0.0


@dataclass(frozen=True)
class DispersionFactor:
    """Continuous d x m dispersion factor ``sigma`` with ``A = sigma sigma^T``.

    ``identity`` declares that ``fn`` is the d x d identity at every point
    (so ``m == d``).  Like :attr:`InverseWeight.has_zeros` it is declared,
    never inferred from the callable; the path simulator then scales the
    noise by ``sqrt(w)`` directly instead of contracting a d x d factor.
    """

    dim: int
    m: int
    fn: Callable
    identity: bool = False

    def __post_init__(self):
        if self.dim < 2:
            raise CoefficientError("state dimension must be at least 2")
        if self.m < 1:
            raise CoefficientError("noise dimension must be at least 1")
        if self.identity and self.m != self.dim:
            raise CoefficientError("an identity factor needs m == dim")

    def __call__(self, x) -> np.ndarray:
        x = _batchpoints(x, self.dim)
        s = np.asarray(self.fn(x), dtype=float)
        if s.shape != x.shape[:-1] + (self.dim, self.m):
            raise CoefficientError(
                f"sigma returned shape {s.shape}, expected (..., {self.dim}, {self.m})"
            )
        return s


@dataclass(frozen=True)
class Exponents:
    """Declared local integrability exponents ``(p, q, s)``.

    ``p`` governs the matrix entries and ``psi*G``; ``q`` the weight ``psi``;
    ``s`` is the companion exponent tied to ``q`` by ``1/q + 1/s < 2/d``.
    ``math.inf`` encodes essentially bounded.
    """

    p: float
    q: float
    s: float


def companion_ok(q: float, s: float, d: int) -> bool:
    """Whether ``(q, s)`` satisfies ``s > d/2`` and ``1/q + 1/s < 2/d``."""
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    inv_s = 0.0 if math.isinf(s) else 1.0 / s
    return s > d / 2.0 and inv_q + inv_s < 2.0 / d


@dataclass(frozen=True)
class CoefficientSet:
    """Complete coefficient bundle for one equation.

    The diffusion matrix ``A = sigma sigma^T`` is computed from ``factor``;
    ``row_div`` evaluates its row divergence ``(sum_j d_j a_ij)_i``.
    ``psi * G``, the datum of the density equation, is computed as ``G / w``
    (:meth:`psi_G`), so a set supplies ``sigma``, ``row_div``, ``w`` and ``G``.
    ``drift_locally_bounded`` is declared metadata used by the condition
    checks (boundedness of a black-box callable is not decidable).
    """

    factor: DispersionFactor
    row_div: Callable
    inv_weight: InverseWeight
    drift: Callable
    exponents: Exponents
    family: dict = field(default_factory=dict)
    drift_locally_bounded: bool = True

    def __post_init__(self):
        d = self.dim
        e = self.exponents
        if not e.p > d:
            raise CoefficientError(f"need p > d, got p={e.p}, d={d}")
        if not e.q > d / 2:
            raise CoefficientError(f"need q > d/2, got q={e.q}")
        if not e.s > d / 2:
            raise CoefficientError(f"need s > d/2, got s={e.s}")
        if not companion_ok(e.q, e.s, d):
            raise CoefficientError("need 1/q + 1/s < 2/d")

    @property
    def dim(self) -> int:
        return self.factor.dim

    @property
    def noise_dim(self) -> int:
        return self.factor.m

    @property
    def name(self) -> str:
        """The family name that reports carry, ``"custom"`` if none is given."""
        return self.family.get("name", "custom")

    def A(self, x) -> np.ndarray:
        """Diffusion matrix ``sigma sigma^T`` at points ``x``."""
        s = self.factor(x)
        return np.einsum("...ik,...jk->...ij", s, s)

    def _vector_field(self, fn: Callable, x, what: str) -> np.ndarray:
        x = _batchpoints(x, self.dim)
        g = np.asarray(fn(x), dtype=float)
        if g.shape != x.shape:
            raise CoefficientError(f"{what} returned shape {g.shape}")
        return g

    def row_div_A(self, x) -> np.ndarray:
        """Row divergence ``(sum_j d_j a_ij)_i`` of ``A`` at points ``x``."""
        return self._vector_field(self.row_div, x, "row divergence")

    def G(self, x) -> np.ndarray:
        return self._vector_field(self.drift, x, "drift")

    def psi_G(self, x) -> np.ndarray:
        """``psi * G = G / w`` at points ``x``; if the batch meets ``{w = 0}``,
        its non-finite quotients are 0 (a null set carries no datum)."""
        g = self.G(x)
        w = self.inv_weight(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = g / w[..., None]
        return np.where(np.isfinite(out), out, 0.0) if np.any(w == 0) else out

    def sigma_hat(self, x) -> np.ndarray:
        """Effective dispersion ``sqrt(w) * sigma`` at points ``x``.

        Rows vanish identically on the degeneracy set because ``sqrt(w) = 0``
        there; no special casing.
        """
        x = _batchpoints(x, self.dim)
        root = np.sqrt(self.inv_weight(x))
        return root[..., None, None] * self.factor(x)


# -- builtin families ---------------------------------------------------------

def _family(d: int, name: str, params: dict, inv_weight: InverseWeight, drift,
            q: float = math.inf) -> CoefficientSet:
    """A builtin family: identity ``sigma`` (so ``A = I`` with zero row
    divergence), ``p = 2d+2``, and the companion ``s`` with
    ``1/s = (2/d - 1/q)/2``, strictly inside its window."""
    eye = np.eye(d)

    def identity(x):
        return np.broadcast_to(eye, x.shape[:-1] + (d, d)).copy()

    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    return CoefficientSet(
        factor=DispersionFactor(d, d, identity, identity=True),
        row_div=lambda x: np.zeros(x.shape),
        inv_weight=inv_weight,
        drift=drift,
        exponents=Exponents(p=2 * d + 2, q=q, s=2.0 / (2.0 / d - inv_q)),
        family={"name": name, "dim": d, "params": params},
    )


_UNIT_WEIGHT = InverseWeight(lambda x: np.ones(x.shape[:-1]), has_zeros=False)


def _root_square(root, name: str, square=lambda v: v * v) -> float:
    """``w = square(root)`` where ``sqrt(w) = root``, by the squaring its family
    has always used; ``w`` and ``psi = 1/w`` must be finite positive floats, so
    no ``w`` overflows or underflows to a zero of a weight declared to have none."""
    finite_real(root, name, CoefficientError, positive=True)
    try:
        with np.errstate(over="ignore"):
            w = float(square(root))
    except OverflowError:
        w = math.inf
    if not (0.0 < w < math.inf and 1.0 / w < math.inf):
        raise CoefficientError(f"{name}={root!r} gives the inverse weight w={w!r}; "
                               "w and 1/w must be finite positive floats")
    return w


def _drift_field(drift, d: int):
    """Normalize a drift spec (None | const vector | named).

    Returns ``(fn, spec)`` where ``spec`` is the JSON-serializable form used
    in family metadata.
    """
    if drift is None:
        return (lambda x: np.zeros(x.shape)), None
    if isinstance(drift, str):
        if drift == "cubic_outward":
            def fn(x):
                return x * squared_norm(x)[..., None]

            return fn, "cubic_outward"
        raise CoefficientError(f"unknown named drift {drift!r}")
    g = finite_point(drift, d, "drift", CoefficientError)

    def fn(x):
        return np.broadcast_to(g, x.shape).copy()

    return fn, g.tolist()


def _brownian(d: int, drift=None) -> CoefficientSet:
    g, spec = _drift_field(drift, d)
    return _family(d, "brownian", {"drift": spec}, _UNIT_WEIGHT, g)


def _ornstein_uhlenbeck(d: int, rate: float = 1.0) -> CoefficientSet:
    finite_real(rate, "mean-reversion rate", CoefficientError, positive=True)

    def g(x):
        return -rate * x

    return _family(d, "ornstein_uhlenbeck", {"rate": rate}, _UNIT_WEIGHT, g)


def _radial_degenerate(
    d: int, alpha: float, gamma: float | None = None, drift=None
) -> CoefficientSet:
    """Power-law degenerate weight: ``w = |x|^alpha``.

    Needs ``0 < alpha < 2`` so the weight ``psi`` stays locally integrable to
    some power above ``d/2``.  ``gamma`` selects the version with value
    ``gamma^2`` at the origin (empty degeneracy set); the default version
    vanishes exactly at the origin.
    """
    finite_real(alpha, "alpha", CoefficientError)
    if not 0.0 < alpha < 2.0:
        raise CoefficientError(
            f"alpha={alpha} out of admissible range (0, 2) for a locally "
            "integrable weight with q > d/2"
        )
    g, spec = _drift_field(drift, d)
    if gamma is None:
        iw = InverseWeight(lambda x: squared_norm(x) ** (alpha / 2.0), has_zeros=True)
    else:
        w0 = _root_square(gamma, "gamma")

        def fn(x):
            r2 = squared_norm(x)
            return np.where(r2 == 0.0, w0, r2 ** (alpha / 2.0))

        iw = InverseWeight(fn, has_zeros=False)

    q_low, q_high = 2.0 * d + 2.0, d / alpha
    if q_high > q_low:
        q = min(q_low + 2.0, 0.5 * (q_low + q_high))
    else:
        q = 0.5 * (d / 2.0 + q_high)

    params = {"alpha": alpha, "gamma": gamma, "drift": spec}
    return _family(d, "radial_degenerate", params, iw, g, q)


def _piecewise_weight(d: int, cells=None, background: float = 1.0) -> CoefficientSet:
    """Piecewise-constant ``sqrt(w)``: value ``v_i`` on box cell i, else background.

    Cell values must be positive: a zero on a set of positive measure would
    make the weight non-integrable there.
    """
    parsed = []
    for cell in cells or []:
        if not isinstance(cell, Mapping) or not {"bounds", "value"} <= cell.keys():
            raise CoefficientError(
                f"each cell must be a mapping with 'bounds' and 'value', got {cell!r}")
        b = box_bounds(cell["bounds"], "cell bounds", CoefficientError)
        v = finite_real(cell["value"], "cell value", CoefficientError)
        if b.shape != (d, 2):
            raise CoefficientError(f"cell bounds must have shape ({d}, 2)")
        if v <= 0.0:
            raise CoefficientError(
                "cell value must be positive so the weight stays locally integrable"
            )
        parsed.append((b, v, _root_square(v, "cell value")))
    w_out = _root_square(float(background), "background value")

    def fn(x):
        out = np.full(x.shape[:-1], w_out)
        for b, _, w in parsed:
            inside = np.all((x >= b[:, 0]) & (x < b[:, 1]), axis=-1)
            out = np.where(inside, w, out)
        return out

    iw = InverseWeight(fn, has_zeros=False)

    spec_cells = [{"bounds": b.tolist(), "value": v} for b, v, _ in parsed]
    params = {"cells": spec_cells, "background": background}
    return _family(d, "piecewise_weight", params, iw, lambda x: np.zeros(x.shape))


def _hyperplane_jump(
    d: int,
    weight_left: float = 0.5,
    weight_right: float = 2.0,
    drift_left=None,
    drift_right=None,
) -> CoefficientSet:
    """Weight and drift jump across the hyperplane ``{x_1 = 0}``.

    ``sqrt(w)`` takes the left value for ``x_1 < 0`` and the right value for
    ``x_1 >= 0``; the constant drift vectors jump the same way.  The elliptic
    factor stays the identity (the matrix must remain Sobolev-regular, so the
    discontinuity lives entirely in the weight and drift).
    """
    w_left = _root_square(weight_left, "weight_left", lambda v: v**2)
    w_right = _root_square(weight_right, "weight_right", lambda v: v**2)
    gl = np.zeros(d) if drift_left is None else finite_point(
        drift_left, d, "drift_left", CoefficientError)
    gr = np.zeros(d) if drift_right is None else finite_point(
        drift_right, d, "drift_right", CoefficientError)

    def side(x):
        return x[..., 0] >= 0.0

    iw = InverseWeight(lambda x: np.where(side(x), w_right, w_left), has_zeros=False)

    def g(x):
        return np.where(side(x)[..., None], gr, gl)

    params = {
        "weight_left": weight_left,
        "weight_right": weight_right,
        "drift_left": gl.tolist(),
        "drift_right": gr.tolist(),
    }
    return _family(d, "hyperplane_jump", params, iw, g)


_FAMILIES = {
    "brownian": _brownian,
    "ornstein_uhlenbeck": _ornstein_uhlenbeck,
    "radial_degenerate": _radial_degenerate,
    "piecewise_weight": _piecewise_weight,
    "hyperplane_jump": _hyperplane_jump,
}


def builtin_family(name: str, dim: int = 2, **params) -> CoefficientSet:
    """Construct a builtin coefficient family by name.

    Known names: ``brownian``, ``ornstein_uhlenbeck``, ``radial_degenerate``,
    ``piecewise_weight``, ``hyperplane_jump``.
    """
    try:
        builder = _FAMILIES[name]
    except KeyError:
        raise CoefficientError(
            f"unknown family {name!r}; known: {sorted(_FAMILIES)}"
        ) from None
    try:
        return builder(dim, **params)
    except TypeError as exc:
        raise CoefficientError(f"bad parameters for family {name!r}: {exc}") from None
