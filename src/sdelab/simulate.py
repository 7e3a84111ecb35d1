"""Euler-Maruyama path ensembles with exit absorption and occupation tallies.

The chain is ``X_{k+1} = X_k + sigma_hat(X_k) sqrt(dt) xi_k + G(X_k) dt`` with
iid standard normal ``xi_k``; on the degeneracy set the dispersion rows vanish
so the noise switches off there exactly.  Paths are absorbed (frozen at the
crossing state) once they leave the ball of radius ``r_exit``, and frozen at
their last finite state if an update produces a non-finite value.

Per-path tallies track discrete occupation of the degeneracy set
(``dt * #{k < n_steps : w(X_k) = 0}``, left-endpoint rule) and of its
``eps``-neighbourhoods in weight value (``w(X_k) < eps``), for thresholds
named at simulate time.  The weight ``w(X_k)`` is evaluated once per state,
inside the step: the dispersion and every tally read that one array.  The
tallies are step counts of the smallest unsigned type that holds
``n_steps`` (one byte a path per threshold up to 255 steps), turned into
float64 times ``count * dt`` once, after the last block.  A
dispersion factor that declares itself the identity steps with
``sqrt(w) xi``, with no d x m product.  ``occupation_profile`` and
``exit_time_stats`` return the plain dicts the ``simulate`` report carries.

Paths are partitioned into fixed-size blocks; each block's states are a pure
function of the master seed and the block's path indices.  One engine steps
every run, on the calling thread.  It draws a block's noise in step chunks
of at most ``_NOISE_BUDGET`` normals, each read from its position in the
paths' counter-based streams, and steps every level of the run through a
chunk before it draws the next, so a block's working memory does not grow
with ``n_steps``.  An ensemble is a run of one level; the weak-order
study runs several on common noise, a level of step ``r dt`` on the sums of
``r`` fine normals over ``sqrt(r)``.  An ensemble stores every state of the
step grid, or only the states at the times its caller names (``t_keep``):
the chain, the noise and the tallies are the same either way.  A path
functional (the Krylov audit's integrals) is folded in while the engine
steps, through a hook it calls at every state, so it needs no stored paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Generator, Iterator, Sequence

import numpy as np

from .coefficients import CoefficientSet
from .grids import (
    allocating, array_shape, finite_point, finite_real, finite_values, grid_step, integer,
    kept_steps, squared_norm, step_count,
)
from .rng import block_normals

_BLOCK = 4096  # fixed path-block size; results must not depend on it
_NOISE_BUDGET = 2**20  # normals per noise chunk (8 MiB); results do not depend on it
SCHEME = "euler_maruyama"  # the one time-stepping scheme provided


class SimulationError(ValueError):
    """Raised for invalid simulation configuration or inputs."""


@dataclass(frozen=True)
class SimConfig:
    """Ensemble configuration, checked on construction.

    ``t_final`` must be an integer multiple of ``dt`` (within rounding); the
    counts are integers, and ``master_seed`` keys the per-path noise streams,
    so it must fit in an unsigned 64-bit integer.  ``r_exit = None``
    disables exit absorption.
    ``near_degeneracy_eps`` sets the weight threshold of the near-degeneracy
    tally.  The step is always Euler-Maruyama (:data:`SCHEME`).
    """

    dt: float
    t_final: float
    n_paths: int
    master_seed: int
    r_exit: float | None = None
    near_degeneracy_eps: float = 0.05

    def __post_init__(self):
        step_count(self.t_final, self.dt, SimulationError)
        integer(self.n_paths, "n_paths", SimulationError, minimum=1)
        if integer(self.master_seed, "master_seed", SimulationError) >= 2**64:
            raise SimulationError("master_seed must fit in an unsigned 64-bit "
                                  f"integer, got {self.master_seed}")
        if self.r_exit is not None:
            finite_real(self.r_exit, "r_exit", SimulationError, positive=True)
        eps = finite_real(self.near_degeneracy_eps, "near_degeneracy_eps", SimulationError)
        if eps < 0:
            raise SimulationError("near_degeneracy_eps must be nonnegative")

    @property
    def n_steps(self) -> int:
        return step_count(self.t_final, self.dt, SimulationError)

    def states_shape(self, dim: int) -> tuple:
        """``(n_paths, n_steps + 1, dim)``, checked to be a shape numpy can
        represent (not that the memory exists)."""
        return array_shape((self.n_paths, self.n_steps + 1, dim), "states", SimulationError)

    def to_dict(self) -> dict:
        return {
            "dt": self.dt,
            "t_final": self.t_final,
            "n_paths": self.n_paths,
            "master_seed": self.master_seed,
            "scheme": SCHEME,
            "r_exit": self.r_exit,
            "near_degeneracy_eps": self.near_degeneracy_eps,
        }


@dataclass
class PathEnsemble:
    """Simulated ensemble with per-path bookkeeping.

    ``states`` has shape ``(n_paths, len(steps), d)``; ``states[:, j]``
    holds the states at step ``steps[j]``.  By default ``steps`` is every
    step ``0 .. n_steps``, so ``states[:, 0]`` is the common start point; an
    ensemble simulated with ``t_keep`` holds only those steps, in that order.
    The bookkeeping below always covers the whole horizon.  ``exit_step[i]``
    is the first state index with ``|X| >= r_exit`` (``-1`` if never), after
    which the path is frozen; ``exploded_step`` likewise marks the first
    non-finite update (``-1`` if none), with the path frozen at its last
    finite state.  ``occupation[j]`` holds the float64 occupation times
    below ``occupation_eps[j]``: row 0 of ``w == 0``, row 1 of
    ``near_degeneracy_eps``, then those asked for at simulate time.  While
    the engine steps it holds integer step counts; they become times once
    the last block is stepped.
    """

    config: SimConfig
    states: np.ndarray
    steps: np.ndarray
    exit_step: np.ndarray
    exploded_step: np.ndarray
    occupation: np.ndarray
    occupation_eps: tuple

    occupation_exact = property(lambda self: self.occupation[0])
    occupation_near = property(lambda self: self.occupation[1])

    @property
    def times(self) -> np.ndarray:
        """The times of the kept states, ``steps * dt``."""
        return self.steps * self.config.dt

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[2]

    @property
    def exploded(self) -> np.ndarray:
        return self.exploded_step >= 0

    @property
    def stop_step(self) -> np.ndarray:
        """First exit or explosion step of each path, ``n_steps`` if neither
        (a stopped path has exactly one of the two)."""
        stopped = np.maximum(self.exit_step, self.exploded_step)
        return np.where(stopped >= 0, stopped, self.config.n_steps)

    def state_at(self, t: float) -> np.ndarray:
        """Marginal slice at a kept time of the step grid, shape ``(n_paths, d)``."""
        k = grid_step(t, self.config.dt, self.config.n_steps, SimulationError)
        kept = np.flatnonzero(self.steps == k)
        if not kept.size:
            raise SimulationError(f"the state at t={t} was not kept; kept times are "
                                  f"{self.times.tolist()}")
        return self.states[:, kept[0], :]


def _blocks(n_paths: int) -> Iterator[np.ndarray]:
    """The one path-block partition: consecutive runs of ``_BLOCK`` indices,
    each made as it is reached, so no index array outlives its block."""
    for start in range(0, n_paths, _BLOCK):
        yield np.arange(start, min(start + _BLOCK, n_paths), dtype=np.int64)


def outside_ball(x: np.ndarray, r_exit: float) -> np.ndarray:
    """The exit test ``|x| >= r_exit`` of each row of ``x``; a norm that
    overflows is outside."""
    with np.errstate(over="ignore"):
        return np.sqrt(squared_norm(x)) >= r_exit


def start_inside(x0, r_exit, name: str, error=ValueError) -> None:
    """Refuse a start :func:`outside_ball` of ``r_exit`` (called ``name``;
    None is no ball): every path would stop at step 0, so no audit could fail."""
    if r_exit is not None and outside_ball(np.asarray(x0, dtype=float)[None], r_exit)[0]:
        raise error(f"x0 {np.asarray(x0).tolist()} is not inside the exit ball "
                    f"({name} {r_exit}): every path would stop at step 0")


def _euler_maruyama(
    c: CoefficientSet, x0: np.ndarray, ens: PathEnsemble, sl: slice,
    observe: Callable | None = None,
) -> Generator[None, np.ndarray, None]:
    """The chain of paths ``sl`` of ``ens``, stepped by its caller: after
    ``next``, each ``send(xi_k)`` of the ``(b, m)`` normals of step ``k``
    steps every path once.

    The chain writes into ``ens`` what it owns of those paths: the state of
    each kept step into its ``states`` column, and the first state index at
    which a path is absorbed (``|X| >= r_exit``) or frozen at its last finite
    state (on a non-finite update) into ``exit_step`` / ``exploded_step``
    (``-1`` if never).  It holds no normals between steps.

    The weight ``w = c.inv_weight(x)`` is evaluated once per distinct block
    state, and a frozen block reuses the weight of its frozen state.  The
    dispersion ``sqrt(w) sigma`` reads it, and ``occupation`` row ``j``
    (integer counts while the engine steps) counts the states stepped from
    with ``w < occupation_eps[j]`` (row 0: ``w == 0``).  A factor declared
    the identity steps with ``sqrt(w) xi``, a coordinate column at a time;
    any other factor is contracted with ``xi``.

    ``observe``, when given, is called at every state ``k = 0 .. n_steps``
    as ``observe(sl, k, x, stop)``, before the chain steps from it: ``x`` is
    the ``(b, d)`` block state (to be read, not kept or written), and
    ``stop`` each path's exit or explosion step if it is at most ``k``,
    else ``n_steps``; so ``stop`` is :attr:`PathEnsemble.stop_step` for
    every path that has stopped by state ``k``.
    """
    cfg, eps = ens.config, ens.occupation_eps
    states, counts = ens.states[sl], ens.occupation[:, sl]
    exit_step, exploded_step = ens.exit_step[sl], ens.exploded_step[sl]
    column = dict(zip(ens.steps.tolist(), range(len(ens.steps))))  # step -> states column
    b = len(exit_step)
    root_dt = math.sqrt(cfg.dt)
    x = np.tile(x0, (b, 1))
    xn = np.empty((len(x0), b))  # the update, one contiguous column per coordinate
    exit_step[:] = -1
    exploded_step[:] = -1
    active = np.ones(b, dtype=bool)
    if cfg.r_exit is not None:
        out_now = outside_ball(x, cfg.r_exit)
        exit_step[out_now] = 0
        active &= ~out_now

    w = None  # the weight of x, once taken
    k = 0  # the step of x
    while True:
        kept = column.get(k)
        if kept is not None:
            states[:, kept] = x
        if observe is not None:
            stopped = np.maximum(exit_step, exploded_step)
            observe(sl, k, x, np.where(stopped >= 0, stopped, cfg.n_steps))
        xi_k = yield
        if w is None:
            with np.errstate(over="ignore", invalid="ignore"):
                w = c.inv_weight(x)
        counts[0] += w == 0.0
        for count, e in zip(counts[1:], eps[1:]):
            count += w < e
        if active.any():
            with np.errstate(over="ignore", invalid="ignore"):
                root = np.sqrt(w)
                if c.factor.identity:
                    g = c.G(x)
                    for j, nj in enumerate(xn):  # x + sqrt(dt) sqrt(w) xi + G dt
                        np.multiply(root, xi_k[:, j], out=nj)
                        nj += 0.0  # -0.0 -> 0.0, like the contraction's zero-started sum
                        nj *= root_dt
                        nj += x[:, j]
                        nj += g[:, j] * cfg.dt
                else:
                    factor = root[:, None, None] * c.factor(x)
                    kick = np.einsum("bij,bj->bi", factor, xi_k)
                    xn[:] = (x + root_dt * kick + c.G(x) * cfg.dt).T
            w = None
            if not np.isfinite(xn).all():
                bad = active & ~np.all(np.isfinite(xn), axis=0)
                exploded_step[bad] = k + 1
                active &= ~bad
            for j, nj in enumerate(xn):
                np.copyto(x[:, j], nj, where=active)
            if cfg.r_exit is not None:
                crossed = active & outside_ball(x, cfg.r_exit)
                exit_step[crossed] = k + 1
                active &= ~crossed
        k += 1
        del xi_k  # a caller's chunk is freed before it draws the next


def _simulate_levels(
    c: CoefficientSet, x0: np.ndarray, levels: Sequence[SimConfig], ratios: Sequence[int],
    occupation_eps: Sequence[float] = (), t_keep: Sequence[float] | None = None,
    observe: Callable | None = None,
) -> list[PathEnsemble]:
    """Step the ``levels`` of one run on common noise, finest last, the step
    of ``levels[i]`` being ``ratios[i]`` fine steps: one :class:`PathEnsemble`
    each.

    A block's fine chunks are a whole multiple of ``lcm(ratios)`` steps, and
    one level's aggregate of a chunk is held at a time.  Every ensemble
    tallies occupation below 0, ``near_degeneracy_eps`` and each of
    ``occupation_eps``, in counts of ``np.min_scalar_type(n_steps)`` that
    become times after the last block, and keeps its states at ``t_keep``
    (every state when ``None``).  ``observe`` is the finest level's step
    hook (see :func:`_euler_maruyama`), called block by block, state by
    state.
    """
    fine, d, m = levels[-1], c.dim, c.noise_dim
    n = fine.n_paths
    eps = (0.0, fine.near_degeneracy_eps)
    for e in occupation_eps:
        eps += () if e in eps else (float(e),)
    ensembles = []
    for cfg in levels:
        steps = None if t_keep is None else kept_steps(t_keep, cfg.dt, cfg.n_steps,
                                                       SimulationError)
        shape = (n, cfg.n_steps + 1 if steps is None else len(steps), d)
        with allocating("states", shape, SimulationError):
            states = np.empty(shape)
            exit_step = np.empty(n, dtype=np.int64)
            exploded_step = np.empty(n, dtype=np.int64)
            occupation = np.zeros((len(eps), n), dtype=np.min_scalar_type(cfg.n_steps))
        if steps is None:  # only now: it is no larger than the states
            steps = np.arange(cfg.n_steps + 1)
        ensembles.append(PathEnsemble(cfg, states, steps, exit_step, exploded_step,
                                      occupation, eps))
    span = math.lcm(*ratios)

    for idx in _blocks(n):
        b, sl = len(idx), slice(int(idx[0]), int(idx[-1]) + 1)
        chains = [_euler_maruyama(c, x0, ens, sl) for ens in ensembles[:-1]]
        chains.append(_euler_maruyama(c, x0, ensembles[-1], sl, observe))
        for chain in chains:
            next(chain)  # to state 0
        per = span * max(1, _NOISE_BUDGET // (b * m * span))
        for first in range(0, fine.n_steps, per):
            shape = (b, min(per, fine.n_steps - first), m)
            with allocating("block noise", shape, SimulationError):
                xi = block_normals(fine.master_seed, idx, shape[1], m, first)
            for chain, r in zip(chains, ratios):
                agg = xi if r == 1 else xi.reshape(b, -1, r, m).sum(axis=2) / math.sqrt(r)
                for xi_k in agg.transpose(1, 0, 2):
                    chain.send(xi_k)
                del agg, xi_k  # one aggregate alive at a time
            del xi  # the next chunk is drawn with this one freed
    for ens in ensembles:
        ens.occupation = ens.occupation * ens.config.dt  # counts -> occupation times
    return ensembles


def simulate_ensemble(
    c: CoefficientSet, x0, cfg: SimConfig, occupation_eps: Sequence[float] = (),
    t_keep: Sequence[float] | None = None,
) -> PathEnsemble:
    """Run the ensemble described by ``cfg`` from the common start ``x0``.

    The calling thread steps every block through its noise, drawn in step
    chunks.  Exploded paths are flagged and frozen, never dropped.  The step also
    tallies occupation below each (finite, nonnegative) ``occupation_eps``,
    for :func:`occupation_profile`.
    ``t_keep = None`` stores every state of the step grid; a sequence of
    times stores only the states at those times, in its order.  Each must
    lie on the step grid within the horizon, and no two on one step.
    """
    x0 = finite_point(x0, c.dim, "x0", SimulationError)
    if not np.iterable(occupation_eps):
        raise SimulationError(f"occupation_eps must be a sequence, got {occupation_eps!r}")
    for e in occupation_eps:
        if finite_real(e, "occupation_eps", SimulationError) < 0:
            raise SimulationError(f"occupation_eps must be nonnegative, got {e!r}")
    # the whole paths' shape, checked whatever is kept, so that this runs
    # exactly the ensembles a config load accepts; the noise is drawn in step
    # chunks, so only the kept states grow with n_steps
    cfg.states_shape(c.dim)
    return _simulate_levels(c, x0, [cfg], [1], occupation_eps, t_keep)[0]


def exit_time_stats(ens: PathEnsemble) -> dict:
    """Exit summary of an ensemble simulated with absorption: ``r_exit``,
    ``n_exited``, ``exit_fraction`` and ``quantiles`` (``q25`` ... ``q90``)
    of the exit time among exited paths, empty when none exited."""
    if ens.config.r_exit is None:
        raise SimulationError("ensemble was simulated without exit absorption")
    exited = ens.exit_step >= 0
    n_ex = int(np.sum(exited))
    qs = {}
    if n_ex:
        t_exit = ens.exit_step[exited] * ens.config.dt
        for q in (0.25, 0.5, 0.75, 0.9):
            qs[f"q{int(q * 100)}"] = float(np.quantile(t_exit, q))
    return {"r_exit": float(ens.config.r_exit), "n_exited": n_ex,
            "exit_fraction": n_ex / ens.n_paths, "quantiles": qs}


def occupation_profile(ens: PathEnsemble, eps_list: Sequence[float]) -> list:
    """Mean/max discrete occupation of weight sublevel sets per threshold:
    one ``{"eps", "mean", "max"}`` dict per entry of ``eps_list``.

    For ``eps > 0`` the tally counts states with ``w(X_k) < eps``; the
    ``eps = 0`` row is the exact-zero tally.  Rows are returned in the given
    order; occupation is monotone non-increasing as ``eps`` decreases.  The
    rows read the tallies the step took, so every ``eps`` other than 0 and
    ``near_degeneracy_eps`` must have been passed to
    :func:`simulate_ensemble` as ``occupation_eps``.
    """
    rows = []
    for eps in eps_list:
        if eps not in ens.occupation_eps:
            raise SimulationError(f"occupation below eps={eps!r} was not tallied; "
                                  "pass it to simulate_ensemble as occupation_eps")
        occ = ens.occupation[ens.occupation_eps.index(eps)]
        rows.append({"eps": float(eps), "mean": float(np.mean(occ)),
                     "max": float(np.max(occ))})
    return rows


def weak_error_study(
    c: CoefficientSet,
    x0,
    payoff: Callable,
    t_final: float,
    dt_list: Sequence[float],
    n_paths: int,
    master_seed: int,
) -> dict:
    """Terminal-payoff estimates at several step sizes with common randomness.

    All levels consume the same underlying increments: they are one run of
    the engine that steps every ensemble, keeping only terminal states, and
    a coarser level steps on sums of ``r`` fine normals over ``sqrt(r)``, so
    successive differences of the estimates expose the scheme's order with
    the Monte Carlo noise largely cancelled.  Every ``dt`` must be an
    integer multiple of the finest one, and each level is checked as a
    :class:`SimConfig`.  Block by block, level by level, a path that
    explodes is an error, and so is a payoff that does not map a block of
    ``b`` terminal states to ``b`` finite values.

    Returns a dict with ``dt`` (descending), ``estimates``, ``stderr`` and
    ``successive_diffs``.
    """
    x0 = finite_point(x0, c.dim, "x0", SimulationError)
    if not np.iterable(dt_list):
        raise SimulationError(f"dt_list must be a sequence, got {dt_list!r}")
    dts = sorted({finite_real(v, "dt_list", SimulationError) for v in dt_list}, reverse=True)
    if not dts:
        raise SimulationError("dt_list is empty")
    fine = SimConfig(dt=dts[-1], t_final=t_final, n_paths=n_paths, master_seed=master_seed)
    ratios = [step_count(v, fine.dt, SimulationError, "dt", "the finest dt") for v in dts]
    levels = [replace(fine, dt=v) for v in dts]
    ensembles = _simulate_levels(c, x0, levels, ratios, t_keep=(t_final,))

    sums, sq_sums = np.zeros((2, len(dts)))
    for idx in _blocks(n_paths):
        sl = slice(int(idx[0]), int(idx[-1]) + 1)
        for li, ens in enumerate(ensembles):
            n_exploded = np.sum(ens.exploded_step[sl] >= 0)
            if n_exploded:
                raise SimulationError(f"{n_exploded} paths of block {idx[0]}..{idx[-1]} "
                                      f"exploded (non-finite update) at dt={ens.config.dt}")
            where = f"at the terminal states of dt={ens.config.dt}"
            vals = finite_values(payoff(ens.states[sl, 0]), (len(idx),), "payoff", where,
                                 SimulationError)
            sums[li] += vals.sum()
            sq_sums[li] += np.sum(vals * vals)

    est = sums / n_paths
    var = np.maximum(sq_sums / n_paths - est**2, 0.0)
    stderr = np.sqrt(var / n_paths)
    return {
        "dt": dts,
        "estimates": est.tolist(),
        "stderr": stderr.tolist(),
        "successive_diffs": [float(est[i] - est[i + 1]) for i in range(len(dts) - 1)],
    }
