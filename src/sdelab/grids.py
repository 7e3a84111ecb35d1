"""Regular box grids, grid-sampled fields and smooth compactly supported test functions.

Everything downstream (density solves, parabolic stepping, quadrature audits)
works on vertex-centered tensor grids over a closed box.  Fields carry their
grid so that interpolation and gradients need no extra bookkeeping.  The
input rules every owner applies to its own arguments live here too; each
raises the caller's error class.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np


class GridError(ValueError):
    """Raised for malformed boxes, resolutions or shape mismatches."""


def finite_real(value, name: str, error=ValueError, positive: bool = False) -> float:
    """``float(value)``, checked finite, not a bool, and above 0 if ``positive``."""
    if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
        raise error(f"{name} must be a finite number, got {value!r}")
    if positive and value <= 0:
        raise error(f"{name} must be positive, got {value!r}")
    return float(value)


def integer(value, name: str, error=ValueError, minimum: int = 0) -> int:
    """``value``, checked to be an integer (not a bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise error(f"{name} must be an integer of at least {minimum}, got {value!r}")
    return int(value)


def finite_point(x, dim: int, name: str = "x0", error=ValueError) -> np.ndarray:
    """``x`` as a float vector after checking it lists ``dim`` finite numbers."""
    values = [finite_real(v, name, error) for v in x] if np.iterable(x) else []
    if len(values) != dim:
        raise error(f"{name} must list {dim} finite coordinates, got {x!r}")
    return np.array(values)


def finite_values(values, shape: tuple, name: str, where: str, error=ValueError,
                  reason: str = "") -> np.ndarray:
    """``values`` as a float array, checked to have ``shape`` and finite
    entries; a fault names ``name`` and ``where`` the values were taken, and
    a non-finite value adds ``reason``."""
    v = np.asarray(values, dtype=float)
    if v.shape != shape:
        raise error(f"{name} returned shape {v.shape} {where}, expected {shape}")
    if not np.all(np.isfinite(v)):
        raise error(f"{name} is non-finite {where}{reason}")
    return v


def step_count(t, dt, error=ValueError, t_name="t_final", dt_name="dt") -> int:
    """Number of steps of size ``dt`` in ``t``, the one step-grid rule: both
    finite and positive, ``t`` a whole multiple of ``dt`` to a relative 1e-9."""
    n = finite_real(t, t_name, error, True) / finite_real(dt, dt_name, error, True)
    k = round(n) if math.isfinite(n) else 0
    if k < 1 or abs(n - k) > 1e-9 * max(1.0, n):
        raise error(f"{t_name}={t} is off the step grid: "
                    f"not an integer multiple of {dt_name}={dt}")
    return k


def grid_step(t, dt, n_steps: int, error=ValueError, dt_name="dt") -> int:
    """The step of time ``t`` on the grid of ``dt``, at most ``n_steps``."""
    k = 0 if t == 0 else step_count(t, dt, error, "t", dt_name)
    if k > n_steps:
        raise error(f"t={t} outside the simulated horizon")
    return k


def kept_steps(t_keep, dt, n_steps: int, error=ValueError, t_name="t_keep",
               dt_name="dt") -> np.ndarray:
    """The steps of the times ``t_name`` in ``t_keep`` (:func:`grid_step` of
    step ``dt_name``), in its order; not empty, and no two on one step."""
    try:
        times = list(t_keep)
    except TypeError:
        raise error(f"{t_name} must be a sequence of times, got {t_keep!r}") from None
    steps = [grid_step(t, dt, n_steps, error, dt_name) for t in times]
    if not steps:
        raise error(f"{t_name} is empty: name at least one time")
    if len(set(steps)) < len(steps):
        raise error(f"{t_name} {times} names a step more than once "
                    f"on the grid of {dt_name}={dt}")
    return np.array(steps)


def squared_norm(x: np.ndarray) -> np.ndarray:
    """``np.sum(x * x, axis=-1)``, bit for bit.

    numpy adds fewer than 8 terms in order, so for a last axis that short,
    accumulating the squared coordinates column by column is the same sum,
    without a short-axis reduce (several times slower on many points).
    """
    if x.shape[-1] >= 8:
        return np.sum(x * x, axis=-1)
    s = x[..., 0] * x[..., 0]
    for j in range(1, x.shape[-1]):
        s += x[..., j] * x[..., j]
    return s


_INTP_MAX = int(np.iinfo(np.intp).max)


def _dims(shape) -> str:
    digits = map(str, shape)
    return " x ".join(s if len(s) <= 12 else f"{s[0]}.{s[1:4]}e{len(s) - 1}" for s in digits)


def array_shape(shape, what: str, error=ValueError) -> tuple:
    """``shape`` if numpy can represent a float64 array of it, else ``error``.

    Representable means no more axes than numpy allows and at most
    ``np.intp`` max bytes.  Whether that much memory can be had is left to
    the allocation, under :func:`allocating`.
    """
    shape = tuple(int(v) for v in shape)
    try:
        np.empty((0,) * len(shape))  # allocates nothing; raises past numpy's axis limit
    except ValueError:
        raise error(f"{what} would have {len(shape)} axes, "
                    "more than numpy allows") from None
    if math.prod(shape) * 8 > _INTP_MAX:
        raise error(f"{what} of shape {_dims(shape)} cannot be a numpy array "
                    f"(more than {_INTP_MAX} bytes)")
    return shape


@contextmanager
def allocating(what: str, shape: tuple, error=ValueError):
    """Run the block, turning a ``MemoryError`` into ``error`` that names
    ``what`` is allocated, a float64 array of ``shape``, and its size."""
    try:
        yield
    except MemoryError:
        raise error(f"{what} of shape {_dims(shape)} need "
                    f"{math.prod(shape) * 8 / 2**30:.4g} GiB, more than can be "
                    "allocated") from None


def box_bounds(bounds, name: str, error=ValueError) -> np.ndarray:
    """``bounds`` as a ``(d, 2)`` float array, checked to list finite
    ``[lo, hi]`` rows with ``lo < hi``."""
    try:
        rows = [[finite_real(v, name, error) for v in r] for r in bounds]
    except TypeError:  # not a nested sequence
        rows = []
    if not rows or any(len(r) != 2 for r in rows):
        raise error(f"{name} must be a (d, 2) array, got {bounds!r}")
    b = np.array(rows)
    if not np.all(b[:, 1] > b[:, 0]):
        raise error(f"upper {name} must exceed lower {name}")
    return b


@dataclass(frozen=True)
class BoxGrid:
    """Vertex-centered tensor grid on a closed box.

    Axis ``k`` holds ``n[k]`` equally spaced nodes from ``bounds[k,0]`` to
    ``bounds[k,1]`` inclusive, so the spacing is ``(hi-lo)/(n-1)``, which must
    be a finite positive float.  Odd node counts place the box center exactly
    on the grid.

    Parameters
    ----------
    bounds : (d, 2) array_like
        Per-axis closed intervals ``[lo, hi]``.
    n : int or sequence of int
        Nodes per axis (scalar broadcasts to every axis).  At least 2.
    """

    bounds: tuple = field(repr=True)
    n: tuple = field(repr=True)

    def __init__(self, bounds, n):
        b = box_bounds(bounds, "bounds", GridError)
        d = b.shape[0]
        nn = (n,) * d if np.ndim(n) == 0 else tuple(n)
        if len(nn) != d:
            raise GridError(f"n has {len(nn)} entries for a {d}-dimensional box")
        nn = tuple(integer(v, "n", GridError, minimum=2) for v in nn)
        array_shape(nn + (d,), "grid points", GridError)
        object.__setattr__(self, "bounds", tuple(map(tuple, b)))
        object.__setattr__(self, "n", nn)
        with np.errstate(over="ignore"):
            h = self.spacing
        if not np.all(np.isfinite(h) & (h > 0)):
            raise GridError(f"bounds {b.tolist()} with n={list(nn)} give the node "
                            f"spacing {h.tolist()}, which must be finite and positive")

    @property
    def dim(self) -> int:
        return len(self.n)

    @property
    def shape(self) -> tuple:
        return self.n

    @property
    def lo(self) -> np.ndarray:
        return np.array([b[0] for b in self.bounds])

    @property
    def hi(self) -> np.ndarray:
        return np.array([b[1] for b in self.bounds])

    @property
    def spacing(self) -> np.ndarray:
        return (self.hi - self.lo) / (np.array(self.n) - 1)

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def axes(self) -> list:
        return [
            np.linspace(b[0], b[1], m) for b, m in zip(self.bounds, self.n)
        ]

    def points(self) -> np.ndarray:
        """All nodes as an array of shape ``(*shape, d)``."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack(mesh, axis=-1)

    def flat_points(self) -> np.ndarray:
        return self.points().reshape(-1, self.dim)

    def axis_weights(self) -> list:
        """Per-axis trapezoid weight vectors (half spacing at the two ends)."""
        out = []
        for b, m in zip(self.bounds, self.n):
            h = (b[1] - b[0]) / (m - 1)
            wk = np.full(m, h)
            wk[0] = wk[-1] = 0.5 * h
            out.append(wk)
        return out

    def trapezoid_weights(self) -> np.ndarray:
        """Tensor-product trapezoid quadrature weights, shape ``(*shape,)``."""
        w = np.ones(())
        for wk in self.axis_weights():
            w = np.multiply.outer(w, wk)
        return w

    def interior_mask(self) -> np.ndarray:
        m = np.ones(self.n, dtype=bool)
        for k in range(self.dim):
            sl = [slice(None)] * self.dim
            sl[k] = 0
            m[tuple(sl)] = False
            sl[k] = -1
            m[tuple(sl)] = False
        return m

    def coarsen(self) -> "BoxGrid":
        """Nested coarsening: node count ``n -> (n + 1) / 2`` (doubles the
        spacing); requires every ``n`` odd."""
        if any(m % 2 == 0 for m in self.n):
            raise GridError("coarsen needs odd node counts per axis")
        return BoxGrid(self.bounds, tuple((m + 1) // 2 for m in self.n))


@dataclass(frozen=True)
class GridField:
    """Scalar field sampled on a :class:`BoxGrid`; ``values`` has shape
    ``grid.shape``."""

    grid: BoxGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise GridError(
                f"values shape {v.shape} incompatible with grid {self.grid.shape}"
            )
        object.__setattr__(self, "values", v)

    def interpolate(self, x) -> np.ndarray:
        """Multilinear interpolation at points ``x`` of shape ``(..., d)``.

        Outside the box the value extrapolates linearly from the nearest
        cell; a NaN coordinate gives NaN.  The arithmetic, in its order, is
        that of scipy's ``RegularGridInterpolator(method="linear",
        fill_value=None)``, so the values equal it bit for bit: a 2-d field
        sums the four corners as its compiled fast path does, a field in any
        other dimension as its generic path does.
        """
        d = self.grid.dim
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (d,):
            raise GridError(f"points must have trailing dimension {d}, got {x.shape}")
        pts = x.reshape(-1, d)
        cells, local = [], []
        for k, a in enumerate(self.grid.axes()):
            i = np.clip(np.searchsorted(a, pts[:, k], side="right") - 1, 0, len(a) - 2)
            cells.append(i)
            local.append((pts[:, k] - a[i]) / (a[i + 1] - a[i]))
        v = self.values
        if d == 2:
            (i0, i1), (y0, y1) = cells, local
            out = 0.0 + v[i0, i1] * (1 - y0) * (1 - y1)
            out = out + v[i0, i1 + 1] * (1 - y0) * y1
            out = out + v[i0 + 1, i1] * y0 * (1 - y1)
            out = out + v[i0 + 1, i1 + 1] * y0 * y1
        else:
            out = 0.0
            for corner in itertools.product((0, 1), repeat=d):
                weight = math.prod(y if c else 1 - y for c, y in zip(corner, local))
                term = v[tuple(i + c for i, c in zip(cells, corner))]
                out = out + term * weight
        return out.reshape(x.shape[:-1])

    def gradient(self) -> np.ndarray:
        """Centered-difference gradient (one-sided at the boundary), an array
        of shape ``grid.shape + (d,)``."""
        g = np.gradient(self.values, *self.grid.axes())
        return np.stack(g if self.grid.dim > 1 else [g], axis=-1)  # 1-d: one array


# -- smooth compactly supported test functions --------------------------------

def node_values(values, grid: BoxGrid, error=ValueError) -> np.ndarray:
    """The real array ``values`` as floats, checked to hold one finite value
    per node of ``grid``."""
    if not isinstance(values, np.ndarray) or values.dtype.kind not in "biuf":
        got = getattr(values, "dtype", type(values).__name__)
        raise error(f"datum must be an array of real node values, got {got}")
    values = values.astype(float, copy=False)
    if values.shape != grid.shape:
        raise error(f"datum has shape {values.shape} on a grid of shape {grid.shape}")
    if not np.all(np.isfinite(values)):
        raise error(f"datum is non-finite at {np.sum(~np.isfinite(values))} of "
                    f"{values.size} nodes")
    return values


def payload_node_values(values, grid: BoxGrid, error=ValueError) -> np.ndarray:
    """:func:`node_values` of a payload, refused when 0 at every node."""
    values = node_values(values, grid, error)
    if not np.any(values):  # rho, psi and the cell volumes are positive
        raise error("payload is 0 at every node of the grid, so it carries no mass "
                    "on the box")
    return values


def grid_values(f0, grid: BoxGrid, error=ValueError) -> np.ndarray:
    """:func:`payload_node_values` of the payload callable ``f0`` at the nodes of
    ``grid``."""
    if not callable(f0):
        raise error(f"payload must be a callable, got {type(f0).__name__}")
    with allocating(f"the points of {math.prod(grid.n)} nodes", grid.n + (grid.dim,),
                    error):
        return payload_node_values(np.asarray(f0(grid.points())), grid, error)


_SMOOTH_CUTOFF = 8.0


def _profile(ui: np.ndarray) -> np.ndarray:
    """``exp(-u^2/2 + 1 - 1/(1-(u/8)^2))`` at points ``|u| < 8``."""
    t = ui / _SMOOTH_CUTOFF
    one = 1.0 - t * t
    return np.exp(-0.5 * ui * ui + 1.0 - 1.0 / one)


def _windowed(u: np.ndarray) -> np.ndarray:
    """The profile at ``u``, 0 outside ``|u| < 8``."""
    b = np.zeros_like(u)
    inside = np.abs(u) < _SMOOTH_CUTOFF
    b[inside] = _profile(u[inside])
    return b


@dataclass(frozen=True)
class SmoothBump:
    """Gaussian-core compactly supported test function.

    ``f(x) = prod_k b((x_k - c_k)/r_k)`` with the windowed profile
    ``b(u) = exp(-u^2/2 + 1 - 1/(1-(u/8)^2))`` on ``(-8, 8)``, 0 elsewhere:
    ``radius`` is the per-axis Gaussian scale, the support is the open box
    ``prod_k (c_k - 8 r_k, c_k + 8 r_k)``, and the peak value is 1 at the
    center.  The profile is C-infinity, and its high derivatives near the
    support edge are crushed by the Gaussian factor (~e^{-18} beyond
    ``|u| = 6``), so trapezoid sums on grids resolving the core converge to
    near machine precision.  Value, gradient and Hessian are analytic.
    """

    center: tuple
    radius: tuple

    def __init__(self, center, radius):
        c = np.atleast_1d(np.asarray(center, dtype=float))
        r = np.asarray(radius, dtype=float)
        if r.ndim == 0:
            r = np.full(c.shape, float(r))
        if r.shape != c.shape or np.any(r <= 0):
            raise GridError("radius must be positive and match center shape")
        object.__setattr__(self, "center", tuple(c))
        object.__setattr__(self, "radius", tuple(r))

    @property
    def dim(self) -> int:
        return len(self.center)

    def _scaled(self, x):
        u = (np.asarray(x, dtype=float) - np.array(self.center)) / np.array(self.radius)
        return u, np.abs(u) < _SMOOTH_CUTOFF

    def __call__(self, x) -> np.ndarray:
        if self.dim >= 8:
            return np.prod(_windowed(self._scaled(x)[0]), axis=-1)
        # numpy multiplies fewer than 8 factors in order (see squared_norm):
        # 1-D profiles multiplied in turn give its bits, with no short-axis pass
        x, out = np.asarray(x, dtype=float), None
        for k, (c, r) in enumerate(zip(self.center, self.radius)):
            b = _windowed((x[..., k] - c) / r)
            out = b if out is None else out * b
        return out

    def _axis_terms(self, x):
        """Per-axis profile values with their first and second derivatives."""
        u, inside = self._scaled(x)
        ui = u[inside]
        t = ui / _SMOOTH_CUTOFF
        one = 1.0 - t * t
        s1 = -ui - (2.0 * t / one**2) / _SMOOTH_CUTOFF
        s2 = -1.0 - 2.0 * (1.0 + 3.0 * t * t) / (one**3 * _SMOOTH_CUTOFF**2)
        v = _profile(ui)
        b = np.zeros_like(u)
        bp = np.zeros_like(u)
        bpp = np.zeros_like(u)
        b[inside] = v
        bp[inside] = s1 * v
        bpp[inside] = (s2 + s1 * s1) * v
        return b, bp, bpp, np.array(self.radius)

    def gradient(self, x) -> np.ndarray:
        b, bp, _, r = self._axis_terms(x)
        d = self.dim
        out = np.empty(b.shape)
        for k in range(d):
            others = np.prod(np.delete(b, k, axis=-1), axis=-1)
            out[..., k] = bp[..., k] / r[k] * others
        return out

    def hessian(self, x) -> np.ndarray:
        b, bp, bpp, r = self._axis_terms(x)
        d = self.dim
        out = np.empty(b.shape[:-1] + (d, d))
        for k in range(d):
            for l in range(d):
                if k == l:
                    others = np.prod(np.delete(b, k, axis=-1), axis=-1)
                    out[..., k, k] = bpp[..., k] / r[k] ** 2 * others
                else:
                    keep = np.prod(np.delete(b, [k, l], axis=-1), axis=-1)
                    out[..., k, l] = (
                        bp[..., k] / r[k] * bp[..., l] / r[l] * keep
                    )
        return out


def default_bump_dictionary(grid: BoxGrid) -> list:
    """Smooth test functions at three centers/scales, supports inside the box.

    Used by the weak-form audits; fixed for reproducibility.
    """
    lo, hi = grid.lo, grid.hi
    half = 0.5 * (hi - lo)
    c = grid.center
    return [
        SmoothBump(c, 0.100 * half),
        SmoothBump(c + 0.15 * half, 0.056 * half),
        SmoothBump(c - 0.18 * half, 0.044 * half),
    ]
