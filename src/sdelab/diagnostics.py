"""Law-level verification on top of the path and PDE layers.

Three kinds of checks live here.  Two-sample tests compare fixed-time
marginals of path ensembles: a Kolmogorov-Smirnov statistic per coordinate
plus one joint energy-distance statistic, Bonferroni-combined at the declared
level.  The variant probe runs these tests across coefficient representatives
that differ only on the degeneracy set (or across step sizes), where equality
in law is expected; it also records the discrete occupation of the degeneracy
set, since the comparison is only meaningful when paths never sit on it.  The
occupation-functional audit bounds Monte-Carlo estimates of
``E[integral_0^{T ^ D_R} f(X_s, s) ds]`` against the mixed space-time norm
``L^{2d+2}`` in space, ``L^{d+1}`` in time of ``f`` on the ball, reporting the
empirical ratio.  Finally the cross-check compares a Monte-Carlo terminal
expectation with the parabolic solve of the same quantity, with an error
budget built from the Monte-Carlo standard error and Richardson differences
of the PDE value in space and time.

Each audit returns the :class:`DiagnosticReport` its report file carries,
and the two-sample test a plain dict.  One function checks each audit's
inputs (``uniqueness_configs``, ``krylov_config``, ``feynman_kac_config``),
and the config load calls it too, so what an audit refuses is refused at load.

All randomness beyond the ensembles themselves (permutations, subsampling) is
seeded from content digests of the inputs, so repeated runs and swapped
argument orders produce identical numbers.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Callable, Generator, Sequence

import numpy as np

from .coefficients import CoefficientSet
from .density import solve_density
from .grids import (
    BoxGrid, GridField, finite_point, finite_real, finite_values,
    grid_values, integer, kept_steps, payload_node_values, step_count,
)
from .reporting import DiagnosticReport
from .rng import derive_seed, permutation_rng
from .semigroup import evolve, slices_shape
from .simulate import SCHEME, SimConfig, _simulate_levels, simulate_ensemble, start_inside

_PERMUTATIONS = 199
_ENERGY_SUBSAMPLE = 1024
_ASYMPTOTIC_MIN = 1000
_HOMOGENEITY_SCALE = 3.7  # the factor each Krylov payload is rescaled by
_HOMOGENEITY_TOL = 1e-12  # relative defect allowed of the rescaled estimate
_QUAD_SPACE = 65  # midpoint cells per axis of the Krylov mixed-norm quadrature
_QUAD_TIME = 64  # and its midpoint time steps
_PAIRWISE_BLOCK = 128  # numpy's pairwise-summation block (PW_BLOCKSIZE)
_PANEL = 256  # columns of the energy test's distance matrix held at a time
_ROWS = 64  # rows of a distance panel built, or transposed, per step


class DiagnosticsError(ValueError):
    """Raised for invalid diagnostic inputs."""


# -- two-sample marginal test -------------------------------------------------

def _sample_digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _pair_seed(h1: str, h2: str) -> int:
    lo, hi = sorted((h1, h2))
    return int(hashlib.sha256(f"{lo}:{hi}".encode()).hexdigest()[:16], 16)


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample sup distance between empirical CDFs (tie-safe)."""
    a = np.sort(a)
    b = np.sort(b)
    grid = np.concatenate([a, b])
    ca = np.searchsorted(a, grid, side="right") / len(a)
    cb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.abs(ca - cb).max())


def _ks_asymptotic_critical(n1: int, n2: int, alpha: float) -> float:
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c * math.sqrt((n1 + n2) / (n1 * n2))


def _perm_quantile(stats: np.ndarray, alpha: float) -> float:
    """Critical value of a permutation test: reject when obs > quantile.

    With B permutations the achievable levels are multiples of 1/(B+1); an
    ``alpha`` below that resolution yields an infinite critical value (the
    test cannot reject at that level).
    """
    b = len(stats)
    k = math.ceil((1.0 - alpha) * (b + 1))
    if k > b:
        return math.inf
    return float(np.sort(stats)[k - 1])


class _BlockSum:
    """``block.sum()`` of a strided ``(rows, cols)`` block, bit for bit, from
    its rows added in order: numpy sums ``np.getbufsize() // cols`` whole rows
    per buffer, each buffer pairwise, and adds the buffers in order."""

    def __init__(self, cols: int):
        self._run = np.getbufsize() // cols
        self._rows = np.empty((0, cols))
        self._total = 0.0

    def add(self, rows: np.ndarray) -> None:
        rows = np.concatenate([self._rows, rows]) if len(self._rows) else rows
        full = len(rows) - len(rows) % self._run
        for start in range(0, full, self._run):
            self._total += rows[start:start + self._run].sum()
        self._rows = rows[full:].copy()

    def sum(self) -> float:
        return float(self._total + self._rows.sum())


def _distance_panel(a: np.ndarray, s: int, panel: np.ndarray) -> np.ndarray:
    """Fills ``panel``, ``(n, w)`` with rows of unit stride, with columns
    ``s:s + w`` of the distance matrix of the rows of the ``(n, d)`` array
    ``a``, bit for bit ``scipy.spatial.distance.cdist(a, a)[:, s:s + w]``: the
    squared coordinate differences summed from coordinate 0 on, then the
    square root.  Returns ``panel``."""
    n, d = a.shape
    e = s + panel.shape[1]
    x = np.ascontiguousarray(a.T)  # one contiguous row per coordinate
    squares, part = np.empty((2, min(n, _ROWS), e - s))
    with np.errstate(over="ignore"):  # a square past the float range is inf, as in cdist
        for start in range(0, n, _ROWS):
            stop = min(start + _ROWS, n)
            acc, tmp = squares[:stop - start], part[:stop - start]
            np.copyto(acc, x[0, s:e])  # column minus row point: same squares, faster
            acc -= x[0, start:stop, None]
            np.square(acc, out=acc)
            for k in range(1, d):
                np.copyto(tmp, x[k, s:e])
                tmp -= x[k, start:stop, None]
                acc += np.square(tmp, out=tmp)
            np.sqrt(acc, out=panel[start:stop])
    return panel


def _energy_stats(
    pooled: np.ndarray, n1: int, rng: np.random.Generator, b: int
) -> tuple[float, np.ndarray]:
    """The energy statistic of the first ``n1`` rows of ``pooled`` against
    the rest and its ``b`` values under label permutation, bit for bit those
    of the whole distance matrix D, which is never held.

    For a relabelling with first-group indicator z the block sums follow
    from ``z' D z``, ``z' D 1`` and the total, so all permutations cost one
    product with D.  Each panel of ``_PANEL`` columns (the last takes the
    remainder) gives its columns of ``z @ D``, whose bits a split into
    panels that wide keeps on one BLAS thread, and, transposed ``_ROWS`` at
    a time (D is symmetric), rows of D for ``D.sum(axis=1)`` and for the
    raw statistic's block sums.
    """
    n = len(pooled)
    n2 = n - n1
    z = np.zeros((b, n))
    for i in range(b):
        z[i, rng.permutation(n)[:n1]] = 1.0
    zdist, row_sums = np.empty((b, n)), np.empty(n)
    blocks = _BlockSum(n1), _BlockSum(n2), _BlockSum(n2)  # D_xx, D_xy, D_yy
    rows = np.empty((min(n, _ROWS), n))
    starts = range(0, n, _PANEL)[:max(1, n // _PANEL)]
    # the last panel is the widest; a cache line of row padding keeps a
    # column's reads off a few crowded cache sets (BLAS bits unchanged)
    panels = np.empty((n, n - starts[-1] + 8))
    for s, e in zip(starts, [*starts[1:], n]):
        panel = _distance_panel(pooled, s, panels[:, :e - s])
        np.matmul(z, panel, out=zdist[:, s:e])
        for j in range(s, e, _ROWS):  # rows j.. of D: columns of the panel
            r = rows[:min(_ROWS, e - j)]
            np.copyto(r, panel[:, j - s:j - s + len(r)].T)
            row_sums[j:j + len(r)] = r.sum(axis=1)
            c = min(max(n1 - j, 0), len(r))
            for block, part in zip(blocks, (r[:c, :n1], r[:c, n1:], r[c:, n1:])):
                block.add(part)

    def energy(s_xx, s_xy, s_yy):
        return 2.0 * s_xy / (n1 * n2) - s_xx / n1**2 - s_yy / n2**2

    s_tot, t = float(row_sums.sum()), z @ row_sums
    s_xx = np.einsum("bn,bn->b", zdist, z)
    raw = energy(*(block.sum() for block in blocks))
    return raw, energy(s_xx, t - s_xx, s_tot - 2.0 * t + s_xx)


def _check_level(level) -> None:
    if not 0.0 < finite_real(level, "level", DiagnosticsError) < 1.0:
        raise DiagnosticsError("level must lie in (0, 1)")


def _normalized(raw: float, critical: float) -> float:
    if raw == 0.0:
        return 0.0
    if critical == 0.0:
        return math.inf
    return raw / critical


def _marginal_sample(sample, name: str) -> np.ndarray:
    """``sample`` as a float ``(n, d)`` array: 2-D, non-empty and finite."""
    try:
        arr = np.asarray(sample, dtype=float)
    except (TypeError, ValueError):
        raise DiagnosticsError(f"{name} is not a numeric array") from None
    if arr.ndim != 2 or arr.size == 0:
        raise DiagnosticsError(
            f"{name} must be a non-empty (n, d) array, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise DiagnosticsError(f"{name} has non-finite entries")
    return arr


def marginal_two_sample(x, y, level: float = 0.01) -> dict:
    """Test equality of the laws behind two marginal samples.

    ``x`` and ``y`` are ``(n, d)`` samples, for example ``e.state_at(t)``
    of two ensembles.  Runs one Kolmogorov-Smirnov test per coordinate and
    one joint energy-distance test, each at ``level / (d + 1)``.  Returns
    ``{"statistic", "reject", "breakdown"}``: the largest ``normalized``
    quotient of a component's raw statistic by its critical value, whether
    it exceeds 1, and every component.  KS critical
    values are asymptotic for sample sizes of at least 1000 and
    permutation-calibrated below that; the energy test is always
    permutation-calibrated (199 permutations, at most 1024 points subsampled
    per sample).  Its distances are computed in numpy in
    ``scipy.spatial.distance.cdist``'s order, so they are cdist's bits, and
    256 columns of the distance matrix at a time, so a test holds
    ``O(256 n)`` floats for ``n`` pooled points, never the ``n x n`` matrix.
    Permutation and subsampling streams are seeded from digests of the two
    samples, symmetrically, so swapping the arguments changes nothing.
    """
    x = _marginal_sample(x, "first sample")
    y = _marginal_sample(y, "second sample")
    if x.shape[1] != y.shape[1]:
        raise DiagnosticsError(
            f"samples have different dimensions {x.shape[1]} and {y.shape[1]}"
        )
    _check_level(level)
    n1, n2 = len(x), len(y)
    d = x.shape[1]
    alpha = level / (d + 1)

    hx, hy = _sample_digest(x), _sample_digest(y)
    seed = _pair_seed(hx, hy)
    # canonical internal order so the pooled data, and with it every
    # permutation draw, is invariant under swapping the arguments
    if hy < hx:
        (x, y), (hx, hy) = (y, x), (hy, hx)
    m1 = len(x)

    breakdown = []
    use_asymptotic = min(n1, n2) >= _ASYMPTOTIC_MIN
    for j in range(d):
        raw = _ks_statistic(x[:, j], y[:, j])
        if use_asymptotic:
            crit = _ks_asymptotic_critical(n1, n2, alpha)
            method = "asymptotic"
        else:
            pooled = np.concatenate([x[:, j], y[:, j]])
            rng = permutation_rng(derive_seed(seed, j))
            stats = np.empty(_PERMUTATIONS)
            for i in range(_PERMUTATIONS):
                perm = rng.permutation(len(pooled))
                stats[i] = _ks_statistic(pooled[perm[:m1]], pooled[perm[m1:]])
            crit = _perm_quantile(stats, alpha)
            method = "permutation"
        breakdown.append({"name": f"ks_coordinate_{j}", "statistic": raw, "critical": crit,
                          "normalized": _normalized(raw, crit), "method": method})

    xs = _subsample(x, hx)
    ys = _subsample(y, hy)
    pooled = np.concatenate([xs, ys], axis=0)
    rng = permutation_rng(derive_seed(seed, d))
    raw, stats = _energy_stats(pooled, len(xs), rng, _PERMUTATIONS)
    crit = _perm_quantile(stats, alpha)
    breakdown.append({"name": "energy", "statistic": raw, "critical": crit,
                      "normalized": _normalized(raw, crit), "method": "permutation",
                      "subsample": [len(xs), len(ys)]})

    statistic = max(entry["normalized"] for entry in breakdown)
    return {"statistic": statistic, "reject": statistic > 1.0, "breakdown": breakdown}


def _subsample(sample: np.ndarray, digest_hex: str) -> np.ndarray:
    n = len(sample)
    if n <= _ENERGY_SUBSAMPLE:
        return sample
    rng = permutation_rng(int(digest_hex[:16], 16))
    idx = np.sort(rng.choice(n, _ENERGY_SUBSAMPLE, replace=False))
    return sample[idx]


# -- uniqueness probe ---------------------------------------------------------

@dataclass(frozen=True)
class LawVariant:
    """One entry of a variant comparison.

    ``c`` overrides the base coefficients (a representative differing on the
    degeneracy set, say); ``dt`` overrides the base step size.  Unset fields
    fall back to the probe's base inputs.
    """

    label: str
    c: CoefficientSet | None = None
    dt: float | None = None


def uniqueness_configs(
    variants: Sequence[LawVariant], x0, t_checks, cfg: SimConfig, level: float = 0.01
) -> list:
    """Checked inputs of :func:`uniqueness_probe`: one ensemble config per
    variant, whose states numpy can represent.  Each variant is a
    :class:`LawVariant` whose ``c`` is unset or a :class:`CoefficientSet` of
    the dimension of ``x0``, and labels are distinct non-empty strings;
    ``cfg.t_final`` is a whole number of each variant's steps; ``x0`` lies
    inside ``cfg.r_exit``; ``t_checks`` is a list of times after 0 that
    every variant's ensemble can keep (:func:`~sdelab.grids.kept_steps`);
    ``level`` lies in ``(0, 1)``."""
    start_inside(x0, cfg.r_exit, "r_exit", DiagnosticsError)
    if len(variants) < 2:
        raise DiagnosticsError("need at least two variants to compare")
    if not isinstance(t_checks, (list, tuple, np.ndarray)):  # the probe reads it twice
        raise DiagnosticsError(f"t_checks must be a list of times, got {t_checks!r}")
    _check_level(level)
    labels = []
    for var in variants:
        c_ok = isinstance(getattr(var, "c", None), (CoefficientSet, type(None)))
        if not (isinstance(var, LawVariant) and c_ok):
            raise DiagnosticsError(f"variant {var!r} is not a LawVariant whose c is None "
                                   "or a CoefficientSet")
        if not isinstance(var.label, str) or not var.label:
            raise DiagnosticsError("variant label must be a non-empty string, "
                                   f"got {var.label!r}")
        if var.label in labels:
            raise DiagnosticsError(f"variant label {var.label!r} repeats")
        if var.c is not None and var.c.dim != len(x0):
            raise DiagnosticsError(f"variant {var.label!r} has dimension {var.c.dim}, "
                                   f"but x0 lists {len(x0)} coordinates")
        labels.append(var.label)
    configs = []
    for i, var in enumerate(variants):
        name = f"dt of {var.label}"
        dt = cfg.dt if var.dt is None else finite_real(var.dt, name, DiagnosticsError)
        step_count(cfg.t_final, dt, DiagnosticsError, "t_final", name)
        configs.append(replace(cfg, master_seed=derive_seed(cfg.master_seed, i), dt=dt))
        configs[-1].states_shape(len(x0))
        if not kept_steps(t_checks, dt, configs[-1].n_steps, DiagnosticsError,
                          "t_checks", name).all():  # a step 0 is time 0
            raise DiagnosticsError(f"t_checks {list(t_checks)} names t=0, the common start, "
                                   "where no comparison can reject")
    return configs


def uniqueness_probe(
    c_base: CoefficientSet,
    variants: Sequence[LawVariant],
    x0,
    t_checks: Sequence[float],
    cfg: SimConfig,
    level: float = 0.01,
    workers: int = 1,
) -> DiagnosticReport:
    """Compare fixed-time marginals across coefficient or step-size variants.

    Each variant is simulated with an independent master seed derived from
    the base configuration.  Every pair of variants is compared at every
    time in ``t_checks`` with :func:`marginal_two_sample` at the level
    ``level / (pairs * times)``, so the whole probe has familywise level
    ``level``; the report passes when no comparison rejects.

    The discrete occupation of the degeneracy set is recorded per variant.
    The comparison certifies equality in law only when that occupation is
    exactly zero for every variant; positive occupation is reported as a
    scope restriction, not as a failure of the probe itself.

    Each variant's ensemble keeps only its states at ``t_checks``, the
    marginals the comparisons read, so no variant's whole paths are held.
    """
    variants = list(variants)
    x0 = finite_point(x0, c_base.dim, "x0", DiagnosticsError)
    configs = uniqueness_configs(variants, x0, t_checks, cfg, level)
    t_checks = [float(t) for t in t_checks]

    marginals = []
    variant_meta = []
    for var, cfg_i in zip(variants, configs):
        c = var.c if var.c is not None else c_base
        ens = simulate_ensemble(c, x0, cfg_i, workers=workers, t_keep=t_checks)
        marginals.append(ens.states)
        variant_meta.append(
            {
                "label": var.label,
                "family": c.name,
                "dt": cfg_i.dt,
                "scheme": SCHEME,
                "master_seed": cfg_i.master_seed,
                "occupation_exact_max": float(np.max(ens.occupation_exact)),
                "occupation_exact_mean": float(np.mean(ens.occupation_exact)),
                "n_exploded": int(np.sum(ens.exploded)),
            }
        )

    n_pairs = len(variants) * (len(variants) - 1) // 2
    per_test = level / (n_pairs * len(t_checks))
    report = DiagnosticReport(
        check=f"uniqueness_probe[{c_base.name}]",
        meta={
            "level": level,
            "per_comparison_level": per_test,
            "x0": list(x0),
            "t_checks": t_checks,
            "base_config": cfg.to_dict(),
            "variants": variant_meta,
            "comparisons": [],
        },
    )

    for i in range(len(variants)):
        for j in range(i + 1, len(variants)):
            for k, t in enumerate(t_checks):
                res = marginal_two_sample(
                    marginals[i][:, k], marginals[j][:, k], level=per_test
                )
                worst = max(res["breakdown"], key=lambda e: e["normalized"])
                name = (
                    f"no_rejection[{variants[i].label}|{variants[j].label}]"
                    f"@t={t:g}"
                )
                report.add(name, not res["reject"], value=res["statistic"], threshold=1.0,
                           detail=f"worst component {worst['name']}")
                report.meta["comparisons"].append({
                    "pair": [variants[i].label, variants[j].label], "t": t,
                    "statistic": res["statistic"], "breakdown": res["breakdown"],
                })

    max_occ = max(v["occupation_exact_max"] for v in variant_meta)
    if max_occ == 0.0:
        detail = "degeneracy set never occupied; equal-law comparison applies"
    else:
        hit = [
            v["label"] for v in variant_meta if v["occupation_exact_max"] > 0
        ]
        detail = (
            f"occupation_exact > 0 for {hit}; marginal comparison reported "
            "but equality in law is not certified on this run"
        )
    report.add("occupation_route", True, value=max_occ, detail=detail)
    return report


# -- occupation-functional audit ----------------------------------------------

def _pairwise_sum(n: int) -> Generator[None, np.ndarray, np.ndarray]:
    """numpy's pairwise sum of ``n`` terms (arrays of one shape), sent one
    at a time after ``next``; returns it.  A run of fewer than 8 terms is
    summed in order; a run of at most ``_PAIRWISE_BLOCK`` fills 8 lanes in
    turn, sums them as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and adds its
    ``n % 8`` tail in order; a longer run is split at ``n // 2`` rounded
    down to a multiple of 8.  Only ``O(log n)`` partial sums are held."""
    if n > _PAIRWISE_BLOCK:
        half = n // 2 - (n // 2) % 8
        left = yield from _pairwise_sum(half)
        return left + (yield from _pairwise_sum(n - half))
    if n < 8:
        total = -0.0
        for _ in range(n):
            total = total + (yield)
        return total
    r = []
    for _ in range(8):
        r.append(np.array((yield), dtype=float))
    for i in range(8, n - n % 8):
        r[i % 8] += yield
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for _ in range(n % 8):
        total += yield
    return total


def _path_sum(n: int) -> Generator[np.ndarray | None, np.ndarray, None]:
    """The sum of ``n`` terms sent one at a time after ``next``, bit for bit
    ``np.add.reduce`` of them stacked along a contiguous last axis: ``0.0``
    plus :func:`_pairwise_sum`.  The send of the last term returns it."""
    total = yield from _pairwise_sum(n)
    yield 0.0 + total


class _PathIntegrals:
    """The step hook of :func:`krylov_audit`'s ensemble: per path, the
    trapezoid integral over ``[0, stop * dt]`` of each payload and of the
    payload times ``_HOMOGENEITY_SCALE``, rows ``j`` and ``p + j`` of
    ``sums`` for the ``j``-th of ``p`` payloads.

    At state ``k`` the weights are ``dt [0 < k < stop] + dt/2 [stop > 0 and
    (k = 0 or k = stop)]``, and ``f(x_k, t_k)``, ``t_k = k dt``, must be
    finite for every path, stopped or not.  Each path's terms are summed in
    the order ``np.sum`` of the whole weighted path takes (:func:`_path_sum`).
    """

    def __init__(self, payloads: Sequence[Callable], labels: list, cfg: SimConfig):
        self._payloads = list(zip(payloads, labels))
        self._cfg = cfg
        self.sums = np.empty((2 * len(payloads), cfg.n_paths))

    def __call__(self, sl: slice, k: int, x: np.ndarray, stop: np.ndarray) -> None:
        dt, n_steps, p = self._cfg.dt, self._cfg.n_steps, len(self._payloads)
        if k == 0:
            self._sum = _path_sum(n_steps + 1)
            next(self._sum)
        ends = (stop > 0) & ((k == 0) | (k == stop))
        weights = dt * ((0 < k) & (k < stop)) + 0.5 * dt * ends
        t = np.full(len(x), k * dt)
        terms = np.empty((2 * p, len(x)))
        for j, (f, label) in enumerate(self._payloads):
            vals = _payload_values(f, x, t, (len(x),), label, "on simulated paths")
            np.multiply(weights, vals, out=terms[j])
            np.multiply(weights, np.asarray(_HOMOGENEITY_SCALE * vals, dtype=float),
                        out=terms[p + j])
        total = self._sum.send(terms)
        if k == n_steps:
            self.sums[:, sl] = total


def _payload_values(f: Callable, x, t, shape: tuple, label: str, where: str) -> np.ndarray:
    """``f(x, t)``, checked to have ``shape`` and finite values."""
    return finite_values(f(x, t), shape, f"payload {label}", where, DiagnosticsError,
                         "; the audit needs functions bounded on the ball-time window")


def _quadrature_cell(radius: float, dim: int) -> tuple:
    """Side ``h`` and volume ``h**dim`` of a cell of the Krylov quadrature
    (the volume is inf or 0 where it overflows or underflows)."""
    h = 2.0 * radius / _QUAD_SPACE
    with np.errstate(over="ignore"):
        return h, np.float64(h) ** dim


def _mixed_norm(f: Callable, radius: float, t_final: float, dim: int, label: str) -> float:
    """Midpoint quadrature of the ``L^{2d+2}`` in space, ``L^{d+1}`` in time
    norm of ``f`` over the centered ball times ``(0, t_final)`` (not finite
    when the payload's powers overflow)."""
    q = 2 * dim + 2
    r = dim + 1
    h, cell = _quadrature_cell(radius, dim)
    t_axis = (np.arange(_QUAD_TIME) + 0.5) * (t_final / _QUAD_TIME)
    accum = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        axis = -radius + (np.arange(_QUAD_SPACE) + 0.5) * h
        mesh = np.meshgrid(*([axis] * dim), indexing="ij")
        pts = np.stack(mesh, axis=-1).reshape(-1, dim)
        pts = pts[np.linalg.norm(pts, axis=1) <= radius]
        for t in t_axis:
            vals = _payload_values(
                f, pts, np.full(len(pts), t), (len(pts),), label, "on quadrature points"
            )
            space = float(np.sum(np.abs(vals) ** q) * cell)
            accum += space ** (r / q) * (t_final / _QUAD_TIME)
    return accum ** (1.0 / r)


def krylov_config(
    x0, radius: float, t_final: float, f_dictionary: Sequence[Callable], cfg: SimConfig
) -> tuple[SimConfig, list[str]]:
    """Checked inputs of :func:`krylov_audit`: its ensemble config, absorbed
    at ``radius`` and run to ``t_final``, a whole number of steps ``cfg.dt``,
    whose states numpy can represent, and the payloads' labels (``__name__``,
    else ``f<i>`` for the i-th), no two alike; ``x0`` lies inside the ball,
    the payloads are a non-empty list of callables, and a quadrature cell's
    volume is a positive float."""
    radius = finite_real(radius, "radius", DiagnosticsError, positive=True)
    start_inside(x0, radius, "radius", DiagnosticsError)
    if not isinstance(f_dictionary, (list, tuple)) or not f_dictionary:  # read twice
        raise DiagnosticsError("payload dictionary must be a non-empty list, "
                               f"got {f_dictionary!r}")
    labels = []
    for i, f in enumerate(f_dictionary):
        if not callable(f):
            raise DiagnosticsError(f"payload {f!r} is not callable")
        label = getattr(f, "__name__", None) or f"f{i}"
        if label in labels:
            raise DiagnosticsError(f"payload label {label!r} repeats")
        labels.append(label)
    cell = _quadrature_cell(radius, len(x0))[1]
    if not 0.0 < cell < math.inf:
        raise DiagnosticsError(f"radius {radius} gives quadrature cells of volume {cell}: "
                               "the mixed norms need a finite positive volume")
    step_count(t_final, cfg.dt, DiagnosticsError, "t_final", "dt")
    cfg_run = replace(cfg, t_final=float(t_final), r_exit=radius)
    cfg_run.states_shape(len(x0))
    return cfg_run, labels


def krylov_audit(
    c: CoefficientSet,
    x0,
    radius: float,
    t_final: float,
    f_dictionary: Sequence[Callable],
    cfg: SimConfig,
    workers: int = 1,
) -> DiagnosticReport:
    """Audit the path-integral bound for each payload in the dictionary.

    One ensemble is simulated with absorption at ``radius``; every payload
    is integrated along the same paths by trapezoid up to the exit time, so
    the audits share their randomness.  ``meta["audits"]`` lists per payload
    the mean path integral ``estimate``, its ``stderr``, the mixed norm
    ``f_norm`` and their quotient ``ratio``, the empirical constant whose
    finite maximum is ``meta["c_hat"]``; clause ``homogeneity[label]``
    requires the payload scaled by 3.7 to scale the estimate to a relative
    1e-12.  A norm that is not finite, or is 0 under a nonzero estimate, is
    an error.  The integrals are summed while the ensemble steps, so only
    its terminal states are stored; each equals, bit for bit, ``np.sum`` of
    the weighted payload values along the whole stored path.
    """
    x0 = finite_point(x0, c.dim, "x0", DiagnosticsError)
    cfg_run, labels = krylov_config(x0, radius, t_final, f_dictionary, cfg)
    workers = integer(workers, "workers", DiagnosticsError, minimum=1)
    paths = _PathIntegrals(f_dictionary, labels, cfg_run)
    ens, = _simulate_levels(c, x0, [cfg_run], [1], workers, t_keep=(cfg_run.t_final,),
                            observe=paths)
    exit_fraction = float(np.mean(ens.exit_step >= 0))

    lam = _HOMOGENEITY_SCALE
    report = DiagnosticReport(check=f"krylov_audit[{c.name}]", meta={"audits": []})
    for j, (f, label) in enumerate(zip(f_dictionary, labels)):
        integrals, scaled = paths.sums[j], paths.sums[len(labels) + j]
        estimate = float(np.mean(integrals))
        stderr = float(np.std(integrals) / math.sqrt(len(integrals)))
        f_norm = _mixed_norm(f, cfg_run.r_exit, cfg_run.t_final, c.dim, label)
        if not math.isfinite(f_norm) or (f_norm == 0.0 and estimate != 0.0):
            raise DiagnosticsError(
                f"payload {label} has mixed norm {f_norm} against a path estimate "
                f"of {estimate}: the quadrature of the ball-time window cannot "
                "resolve it"
            )
        ratio = estimate / f_norm if f_norm > 0.0 else 0.0
        gap = abs(float(np.mean(scaled)) - lam * estimate) / (abs(lam * estimate) + 1e-300)
        report.add(f"ratio_finite[{label}]", math.isfinite(ratio), value=ratio)
        report.add(f"homogeneity[{label}]", gap <= _HOMOGENEITY_TOL, value=gap,
                   threshold=_HOMOGENEITY_TOL)
        report.meta["audits"].append({
            "label": label, "estimate": estimate, "stderr": stderr, "f_norm": f_norm,
            "ratio": ratio, "dt": cfg_run.dt, "exit_fraction": exit_fraction,
        })
    finite = (a["ratio"] for a in report.meta["audits"] if math.isfinite(a["ratio"]))
    report.meta["c_hat"] = max(finite, default=0.0)
    return report


# -- Monte-Carlo vs PDE cross-check -------------------------------------------

def _point_value(grid: BoxGrid, values: np.ndarray, x0: np.ndarray) -> float:
    return float(GridField(grid, values).interpolate(x0[None, :])[0])


def feynman_kac_config(
    grid: BoxGrid, f0, x0, t_final: float, cfg: SimConfig, pde_dt: float,
    f_vals=None,
) -> tuple:
    """Checked inputs of :func:`feynman_kac_crosscheck` on ``grid``: the
    payload's node values (:func:`~sdelab.grids.grid_values`; ``f_vals``,
    when given, are those this check returned before for ``f0``, checked
    again without evaluating ``f0``), the start point, the Monte-Carlo
    config (``t_final`` a whole number of its steps ``mc_dt``), whose states
    numpy can represent, and the once-coarsened grid of the spatial error
    estimate, so every node count is odd."""
    if not isinstance(grid, BoxGrid):
        raise DiagnosticsError(f"grid must be a BoxGrid, got {type(grid).__name__}")
    x0 = finite_point(x0, grid.dim, "x0", DiagnosticsError)
    margin = grid.spacing
    if np.any(x0 < grid.lo + margin) or np.any(x0 > grid.hi - margin):
        raise DiagnosticsError(
            "x0 must lie strictly inside the box, at least one spacing from "
            "every face"
        )
    if step_count(t_final, pde_dt, DiagnosticsError, "t_final", "pde_dt") % 2:
        raise DiagnosticsError(
            "t_final / pde_dt must be even: the temporal error is estimated "
            "at the doubled step"
        )
    if any(m % 2 == 0 for m in grid.n):
        raise DiagnosticsError(
            f"the grid needs odd node counts, got {list(grid.n)}: the spatial "
            "error is read on every other node"
        )
    slices_shape(grid, t_final, pde_dt, DiagnosticsError)
    step_count(t_final, cfg.dt, DiagnosticsError, "t_final", "mc_dt")
    # the comparison is defined for the free dynamics: a configured exit
    # radius would freeze Monte-Carlo paths the PDE side keeps evolving
    cfg_run = replace(cfg, t_final=float(t_final), r_exit=None)
    cfg_run.states_shape(grid.dim)
    if f_vals is None:
        f_vals = grid_values(f0, grid, DiagnosticsError)
    else:
        f_vals = payload_node_values(f_vals, grid, DiagnosticsError)
    return f_vals, x0, cfg_run, grid.coarsen()


def feynman_kac_crosscheck(
    c: CoefficientSet,
    grid: BoxGrid,
    f0,
    x0,
    t_final: float,
    cfg: SimConfig,
    pde_dt: float,
    workers: int = 1,
    f_vals=None,
) -> DiagnosticReport:
    """Cross-check ``E[f0(X_T)]`` against the parabolic solve at ``x0``.

    ``f0`` is a callable of points; anything else is a :class:`DiagnosticsError`.
    ``f_vals`` are its node values on ``grid`` as :func:`feynman_kac_config`
    returned them (a config load keeps them), so ``f0`` is not evaluated on
    the grid again; when ``None`` they are computed here.
    The Monte-Carlo side simulates ``cfg.n_paths`` paths from ``x0`` and
    averages ``f0``, which must be finite there, at the final states; any
    configured exit radius is ignored (both sides must see the free
    dynamics).  The PDE side solves the density of ``c`` on ``grid``,
    evolves ``f0`` backward there and reads the value at ``x0``; the
    grid-error budget is the Richardson difference against a once-coarsened
    grid plus the difference against a doubled time step.  The check passes
    when the two sides agree within ``3 * (stderr + spatial + temporal)``.

    A payload whose mass (against the stationary volume ``rho psi dx``)
    leaks more than 1 percent through the box boundary over the horizon
    makes the comparison inconclusive; the report then fails with an
    explicit instruction to enlarge the box.
    """
    f_vals, x0, cfg_run, grid_c = feynman_kac_config(grid, f0, x0, t_final, cfg, pde_dt,
                                                     f_vals)
    dens = solve_density(c, grid.bounds, grid.n)
    ens = simulate_ensemble(c, x0, cfg_run, workers=workers, t_keep=(t_final,))
    terminal = finite_values(f0(ens.state_at(t_final)), (cfg_run.n_paths,), "payload",
                             "at the Monte-Carlo terminal states", DiagnosticsError)
    mc = float(np.mean(terminal))
    stderr = float(np.std(terminal) / math.sqrt(len(terminal)))
    n_exploded = int(np.sum(ens.exploded))

    def final_slice(dens_k, values, dt: float):
        # only the last slice is read, so it is the only one stored
        return evolve(dens_k, values, t_final, dt, t_keep=(t_final,)).values[0]

    u_fine = final_slice(dens, f_vals, pde_dt)
    pde = _point_value(grid, u_fine, x0)

    u_half = final_slice(dens, f_vals, 2.0 * pde_dt)
    temporal = abs(pde - _point_value(grid, u_half, x0))

    dens_c = solve_density(c, grid.bounds, grid_c.n)
    # the coarse nodes are every other fine node, bit for bit
    f_coarse = f_vals[(slice(None, None, 2),) * grid.dim]
    u_coarse = final_slice(dens_c, f_coarse, pde_dt)
    pde_coarse = _point_value(grid_c, u_coarse, x0)
    spatial = abs(pde - pde_coarse)

    budget = 3.0 * (stderr + spatial + temporal)

    station = dens.rho.values * dens.psi * grid.trapezoid_weights()
    u_abs = u_fine if np.all(f_vals >= 0.0) else final_slice(dens, np.abs(f_vals), pde_dt)
    mass0 = float(np.sum(station * np.abs(f_vals)))
    mass_t = float(np.sum(station * u_abs))
    if mass0 <= 0.0:  # node values too small for their mass to be a float
        raise DiagnosticsError("payload mass on the box underflows to 0")
    leakage = 1.0 - mass_t / mass0

    report = DiagnosticReport(
        check=f"feynman_kac_crosscheck[{c.name}]",
        meta={
            "x0": list(x0),
            "t_final": float(t_final),
            "mc_estimate": mc,
            "mc_stderr": stderr,
            "mc_n_paths": cfg_run.n_paths,
            "mc_dt": cfg_run.dt,
            "mc_master_seed": cfg_run.master_seed,
            "mc_n_exploded": n_exploded,
            "pde_value": pde,
            "pde_coarse_value": pde_coarse,
            "pde_dt": float(pde_dt),
            "grid_n": list(grid.n),
            "spatial_error": spatial,
            "temporal_error": temporal,
            "budget": budget,
            "mass_leakage": leakage,
        },
    )
    report.add(
        "mc_pde_within_budget",
        abs(mc - pde) <= budget,
        value=abs(mc - pde),
        threshold=budget,
        detail=(
            f"budget = 3*(stderr {stderr:.3g} + spatial {spatial:.3g} "
            f"+ temporal {temporal:.3g})"
        ),
    )
    leak_ok = leakage <= 0.01
    report.add(
        "box_retains_payload_mass",
        leak_ok,
        value=leakage,
        threshold=0.01,
        detail="" if leak_ok else "inconclusive: enlarge the box",
    )
    if not leak_ok:
        report.meta["verdict"] = "inconclusive"
    return report
