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
inside the step: the dispersion and every tally read that one array.  A
dispersion factor that declares itself the identity steps with
``sqrt(w) xi``, with no d x m product.  ``occupation_profile`` and
``exit_time_stats`` return the plain dicts the ``simulate`` report carries.

Paths are partitioned into fixed-size blocks; each block's states are a pure
function of the master seed and the block's path indices.  The calling thread
draws and steps the blocks in turn, and ``workers - 1`` helper threads only
convert its noise (elementwise, without the GIL), so any worker count
produces bitwise identical ensembles.  A block's noise is drawn in step
chunks of at most ``_NOISE_BUDGET`` normals, each read from its position in
the paths' counter-based streams, and stepped through as it arrives, so a
block's working memory does not grow with ``n_steps``.  An ensemble stores
every state of the step grid, or only the states at the times its caller
names (``t_keep``): the chain, the noise and the tallies are the same
either way.  The weak-order study steps the same chain on the same chunks.
Passes over a stored ensemble (path integrals) run over row blocks, so their
temporaries stay small; every per-path result is independent of that split.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .coefficients import CoefficientSet
from .grids import (
    allocating, array_shape, finite_point, finite_real, finite_values, grid_step, integer,
    kept_steps, squared_norm, step_count,
)
from .rng import block_normals

_BLOCK = 4096  # fixed path-block size; results must not depend on it
_NOISE_BUDGET = 2**20  # normals per noise chunk (8 MiB); results do not depend on it
_ROW_ELEMENTS = 2**18  # state entries per row block of a pass over an ensemble
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
    finite state.  ``occupation[j]`` holds occupation times below
    ``occupation_eps[j]``: row 0 of ``w == 0``, row 1 of
    ``near_degeneracy_eps``, then those asked for at simulate time.
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

    def row_blocks(self) -> Iterator[slice]:
        """Slices of consecutive paths holding about ``_ROW_ELEMENTS`` state
        entries each: the split for passes over the whole ensemble."""
        n, per_path = self.n_paths, self.states.shape[1] * self.states.shape[2]
        size = max(1, _ROW_ELEMENTS // per_path)
        return (slice(i, min(i + size, n)) for i in range(0, n, size))


def _blocks(n_paths: int) -> list:
    """The one path-block partition: consecutive runs of ``_BLOCK`` indices."""
    return np.split(np.arange(n_paths, dtype=np.int64), range(_BLOCK, n_paths, _BLOCK))


def _noise_chunks(
    master_seed: int, idx: np.ndarray, n_steps: int, m: int, pool, span: int = 1
) -> Iterator[np.ndarray]:
    """A block's normals in step chunks of at most ``_NOISE_BUDGET`` normals
    (a whole multiple of ``span`` steps each, at least one; ``span`` divides
    ``n_steps``), shape ``(len(idx), steps, m)``, in step order."""
    per = span * max(1, _NOISE_BUDGET // (len(idx) * m * span))
    for first in range(0, n_steps, per):
        shape = (len(idx), min(per, n_steps - first), m)
        with allocating("block noise", shape, SimulationError):
            chunk = block_normals(master_seed, idx, shape[1], m, pool, first)
        yield chunk
        del chunk  # the next chunk is drawn with this one freed


def outside_ball(x: np.ndarray, r_exit: float) -> np.ndarray:
    """The exit test ``|x| >= r_exit`` of each row of ``x``; a norm that
    overflows is outside."""
    with np.errstate(over="ignore"):
        return np.sqrt(squared_norm(x)) >= r_exit


def _euler_maruyama(
    c: CoefficientSet,
    x0: np.ndarray,
    noise: Iterable[np.ndarray],
    cfg: SimConfig,
    exit_step: np.ndarray,
    exploded_step: np.ndarray,
    counts: np.ndarray | None = None,
    eps: tuple = (),
) -> Iterator[np.ndarray]:
    """Yield a block's states along the chain, state 0 first.

    ``noise`` yields the block's normals for steps of ``cfg.dt``, in step
    order, as chunks of shape ``(b, steps, m)``; the chain drops each chunk
    before it asks for the next.  A path is absorbed once
    ``|X| >= cfg.r_exit`` and frozen at its last finite state on a
    non-finite update; the first such state index is written into
    ``exit_step`` / ``exploded_step`` (``-1`` if never).
    The chain updates one C-contiguous ``(b, d)`` array in place and yields
    it at every step, so a caller copies what it keeps.

    The weight ``w = c.inv_weight(x)`` is evaluated once per distinct block
    state, and a frozen block reuses the weight of its frozen state.  The
    dispersion ``sqrt(w) sigma`` reads it, and, when given, ``counts[0]``
    counts ``w == 0`` and each later ``counts[j]`` counts ``w < eps[j]`` over
    states ``0 .. n_steps - 1``.  A factor declared the identity steps with
    ``sqrt(w) xi``, a coordinate column at a time; any other factor is
    contracted with ``xi``.
    """
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
    yield x

    w = None  # the weight of x, once taken
    k = 0  # the step of x
    for xi in noise:
        for xi_k in xi.transpose(1, 0, 2):  # the (b, m) normals of step k
            if w is None:
                with np.errstate(over="ignore", invalid="ignore"):
                    w = c.inv_weight(x)
            if counts is not None:
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
            yield x
        del xi, xi_k  # the next chunk is drawn with this one freed


def simulate_ensemble(
    c: CoefficientSet, x0, cfg: SimConfig, workers: int = 1,
    occupation_eps: Sequence[float] = (), t_keep: Sequence[float] | None = None,
) -> PathEnsemble:
    """Run the ensemble described by ``cfg`` from the common start ``x0``.

    The calling thread steps every block through its noise, drawn in step
    chunks; ``workers - 1`` helper threads convert that noise.  The result is bitwise identical for any ``workers``.
    Exploded paths are flagged and frozen, never dropped.  The step also
    tallies occupation below each (finite, nonnegative) ``occupation_eps``,
    for :func:`occupation_profile`.
    ``t_keep = None`` stores every state of the step grid; a sequence of
    times stores only the states at those times, in its order.  Each must
    lie on the step grid within the horizon, and no two on one step.
    """
    x0 = finite_point(x0, c.dim, "x0", SimulationError)
    workers = integer(workers, "workers", SimulationError, minimum=1)
    eps = (0.0, cfg.near_degeneracy_eps)
    if not np.iterable(occupation_eps):
        raise SimulationError(f"occupation_eps must be a sequence, got {occupation_eps!r}")
    for e in occupation_eps:
        if finite_real(e, "occupation_eps", SimulationError) < 0:
            raise SimulationError(f"occupation_eps must be nonnegative, got {e!r}")
        eps += () if e in eps else (float(e),)

    n, n_steps, d = cfg.n_paths, cfg.n_steps, c.dim
    # the whole paths' shape, checked whatever is kept, so that this runs
    # exactly the ensembles a config load accepts; the noise is drawn in step
    # chunks, so only the kept states grow with n_steps
    cfg.states_shape(d)
    steps = None if t_keep is None else kept_steps(t_keep, cfg.dt, n_steps, SimulationError)
    shape = (n, n_steps + 1 if steps is None else len(steps), d)
    with allocating("states", shape, SimulationError):
        states = np.empty(shape)
        exit_step = np.empty(n, dtype=np.int64)
        exploded_step = np.empty(n, dtype=np.int64)
        occupation = np.zeros((len(eps), n))
    if steps is None:  # only now: it is no larger than the states
        steps = np.arange(n_steps + 1)
    column = dict(zip(steps.tolist(), range(len(steps))))  # step -> states column

    def run(idx: np.ndarray, pool) -> None:
        sl = slice(int(idx[0]), int(idx[-1]) + 1)
        noise = _noise_chunks(cfg.master_seed, idx, n_steps, c.noise_dim, pool)
        chain = _euler_maruyama(c, x0, noise, cfg, exit_step[sl], exploded_step[sl],
                                occupation[:, sl], eps)
        for k, x in enumerate(chain):
            j = column.get(k)
            if j is not None:
                states[sl, j] = x
        occupation[:, sl] *= cfg.dt  # counts -> occupation times

    # one chunk of one block's noise at a time; helpers only convert its raw words
    helpers = ThreadPoolExecutor(workers - 1) if workers > 1 else nullcontext()
    with helpers as pool:
        for idx in _blocks(n):
            run(idx, pool)

    return PathEnsemble(
        config=cfg,
        states=states,
        steps=steps,
        exit_step=exit_step,
        exploded_step=exploded_step,
        occupation=occupation,
        occupation_eps=eps,
    )


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

    All levels consume the same underlying increments: normals are generated
    at the finest level and aggregated (sums of ``r`` fine normals over
    ``sqrt(r)``) for coarser levels, so successive differences of the
    estimates expose the scheme's order with the Monte Carlo noise largely
    cancelled.  Every ``dt`` must be an integer multiple of the finest one.
    Each level is checked as a :class:`SimConfig` and steps the ensembles'
    chain; a path that explodes at any level is an error, and so is a payoff
    that does not map a block of ``b`` terminal states to ``b`` finite values.
    A block's fine noise arrives in the ensembles' step chunks, whole steps of
    every level, and the levels step through each chunk in lockstep.

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

    m, span = c.noise_dim, math.lcm(*ratios)
    chunk = [None]  # the block's current fine chunk, which every level reads

    def level_noise(r: int) -> Iterator[np.ndarray]:
        while True:  # the level's normals of each fine chunk, in turn
            xi = chunk[0]
            yield xi if r == 1 else xi.reshape(len(xi), -1, r, m).sum(axis=2) / math.sqrt(r)

    sums, sq_sums = np.zeros((2, len(dts)))
    for idx in _blocks(n_paths):
        b = len(idx)
        stops = np.empty((len(dts), 2, b), dtype=np.int64)  # exit and explosion steps
        chains = [_euler_maruyama(c, x0, level_noise(r), level, *stop)
                  for level, r, stop in zip(levels, ratios, stops)]
        terminal = [next(chain) for chain in chains]  # each chain steps its state in place
        for chunk[0] in _noise_chunks(master_seed, idx, fine.n_steps, m, None, span):
            for chain, r in zip(chains, ratios):
                for _ in range(chunk[0].shape[1] // r):
                    next(chain)
        for li, (level, x, (_, exploded_step)) in enumerate(zip(levels, terminal, stops)):
            if np.any(exploded_step >= 0):
                raise SimulationError(
                    f"{np.sum(exploded_step >= 0)} paths of block {idx[0]}..{idx[-1]} "
                    f"exploded (non-finite update) at dt={level.dt}"
                )
            where = f"at the terminal states of dt={level.dt}"
            vals = finite_values(payoff(x), (b,), "payoff", where, SimulationError)
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
