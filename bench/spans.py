"""Span tracing of sdelab's layers from outside the package.

``install`` replaces each layer entry point where its caller looks it up
(a module global of the calling module, or a method on a class) with a
wrapper that records a span: an id, the layer key, start and end times
(``time.perf_counter``), the id of the enclosing span, and an optional size
(points evaluated, ...).  Some entry points only bump a counter, because a
span per call would cost more than the call (one Philox generator per
path).  Nothing under ``src/`` changes; a target that no longer exists
makes ``install`` raise, so a moved entry point fails the traced run loudly
instead of silently reading zero.

Spans opened on a worker thread with no open span of their own get the
innermost open span of the main thread as parent: sdelab's worker threads
only run inside ``simulate_ensemble``'s thread pool, while the main thread
waits in that call.

``summarize`` turns the recorded spans and counters into the per-layer
metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time

_MIB = float(2**20)

# name, unit, better, how the value is obtained, what it should move.
# "timed": summed span durations (busy time; spans on two worker threads can
# overlap, so a layer's busy time may exceed its wall time).  "counted":
# calls or bytes seen by the wrappers.  "shape": computed from the shapes of
# arrays the layer returns, not measured.
PER_LAYER = [
    ("rng.normals_s", "s", "lower", "timed",
     "run_s on wide_paths (main share), then verdict"),
    ("rng.normals", "count", "lower", "shape",
     "run_s on wide_paths, verdict"),
    ("rng.generators", "count", "lower", "counted",
     "run_s on wide_paths (one Philox generator per path)"),
    ("coefficients.eval_s", "s", "lower", "timed",
     "run_s on verdict and wide_paths"),
    ("coefficients.calls", "count", "lower", "counted",
     "run_s on verdict and wide_paths (points per call shows batching)"),
    ("coefficients.points", "count", "lower", "shape",
     "run_s on verdict and wide_paths"),
    ("simulate.self_s", "s", "lower", "timed",
     "run_s on verdict and wide_paths"),
    ("simulate.path_steps", "count", "lower", "shape",
     "run_s on verdict and wide_paths"),
    ("simulate.active_step_ratio", "ratio", "higher", "shape",
     "run_s on verdict (the Krylov ensemble exits early)"),
    ("simulate.states_mb", "MiB", "lower", "shape",
     "peak_rss_mb on verdict and wide_paths"),
    ("simulate.bookkeeping_s", "s", "lower", "timed",
     "run_s on wide_paths and verdict"),
    ("density.solve_s", "s", "lower", "timed",
     "run_s on verdict; not wide_paths"),
    ("density.solves", "count", "lower", "counted",
     "run_s on verdict; not wide_paths"),
    ("density.nodes", "count", "lower", "shape",
     "run_s on verdict; not wide_paths"),
    ("density.audit_s", "s", "lower", "timed",
     "run_s on verdict; not wide_paths"),
    ("semigroup.evolve_s", "s", "lower", "timed",
     "run_s on verdict; not wide_paths"),
    ("semigroup.factorizations", "count", "lower", "counted",
     "run_s on verdict (one LU per evolve call)"),
    ("semigroup.steps", "count", "lower", "shape",
     "run_s on verdict; not wide_paths"),
    ("semigroup.slices_mb", "MiB", "lower", "shape",
     "peak_rss_mb on verdict; not wide_paths"),
    ("semigroup.audit_s", "s", "lower", "timed",
     "run_s on verdict; not wide_paths"),
    ("diagnostics.two_sample_s", "s", "lower", "timed",
     "run_s on verdict only"),
    ("diagnostics.two_sample_calls", "count", "lower", "counted",
     "run_s on verdict only"),
    ("diagnostics.uniqueness_self_s", "s", "lower", "timed",
     "run_s on verdict"),
    ("diagnostics.krylov_self_s", "s", "lower", "timed",
     "run_s on verdict"),
    ("diagnostics.feynman_kac_self_s", "s", "lower", "timed",
     "run_s on verdict"),
    ("conditions.check_s", "s", "lower", "timed",
     "run_s on verdict"),
    ("config.validate_s", "s", "lower", "timed",
     "setup_s and run_s on verdict"),
    ("cli.emit_s", "s", "lower", "timed",
     "run_s on wide_paths (the big terminal.csv)"),
    ("cli.bytes_written", "count", "lower", "counted",
     "run_s on wide_paths"),
    ("reporting.serialize_s", "s", "lower", "timed",
     "run_s on wide_paths"),
    ("simulate.scaling_efficiency_w2", "ratio", "higher", "timed",
     "health: t_w1 / (2 t_w2) of simulate_ensemble; verdict's "
     "ensembles are one 4096-path block, so about 0.5 there by construction"),
    ("trace.overhead_s", "s", "lower", "timed",
     "health: traced run_s minus untraced median run_s"),
    ("trace.unattributed_s", "s", "lower", "timed",
     "health: traced run_s minus the sum of top-level spans"),
]


class Tracer:
    """In-memory span and counter store shared by every wrapper."""

    def __init__(self):
        self.spans = []  # [id, key, start, end, parent, size]
        self.counts = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0.0) + value

    def peak(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = max(self.counts.get(key, 0.0), value)

    def span(self, key: str, fn, observe=None):
        """``fn`` wrapped to record a span; ``observe(tracer, args, result)``
        may return the span's size and bump counters."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not self._main_stack and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            size = observe(self, args, result) if observe else None
            self.spans.append([sid, key, start, end, parent, size])
            return result

        return wrapped

    def counter(self, key: str, fn, amount):
        """``fn`` wrapped to add ``amount(args)`` to counter ``key`` per call."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self.add(key, amount(args))
            return fn(*args, **kwargs)

        return wrapped

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


# -- observers: sizes and counters derived from a call's arguments/result -----

def _points(tracer, args, result):
    x = args[1]  # (self, x)
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1.0
    n = 1.0
    for s in shape[:-1]:
        n *= s
    return n


def _normals(tracer, args, result):
    tracer.add("rng.normals", float(result.size))


def _ensemble(tracer, args, result):
    # Path-steps taken before exit or explosion, against path-steps the
    # block loop computed: a block keeps stepping all its rows until its
    # last path stops.
    import numpy as np
    from sdelab.simulate import _BLOCK

    n, n_steps = result.states.shape[0], result.states.shape[1] - 1
    stop = np.full(n, n_steps, dtype=np.int64)
    stop = np.where(result.exit_step >= 0, result.exit_step, stop)
    stop = np.where(
        result.exploded_step >= 0, np.minimum(stop, result.exploded_step), stop
    )
    starts = np.arange(0, n, _BLOCK)
    block_len = np.diff(np.append(starts, n))
    computed = float(np.sum(block_len * np.maximum.reduceat(stop, starts)))
    tracer.add("simulate.path_steps", float(n * n_steps))
    tracer.add("simulate.steps_taken", float(np.sum(stop)))
    tracer.add("simulate.steps_computed", computed)
    tracer.peak("simulate.states_mb", result.states.nbytes / _MIB)


def _density(tracer, args, result):
    tracer.add("density.nodes", float(result.rho.values.size))


def _evolve(tracer, args, result):
    tracer.add("semigroup.steps", float(len(result.times) - 1))
    tracer.peak("semigroup.slices_mb", result.values.nbytes / _MIB)


# module, attribute (dotted through a class), span key, observer
SPAN_TARGETS = [
    ("sdelab.simulate", "block_normals", "rng.normals", _normals),
    ("sdelab.coefficients", "CoefficientSet.sigma_hat", "coefficients.eval", _points),
    ("sdelab.coefficients", "CoefficientSet.G", "coefficients.eval", _points),
    ("sdelab.coefficients", "InverseWeight.__call__", "coefficients.eval", _points),
    ("sdelab.cli", "simulate_ensemble", "simulate.ensemble", _ensemble),
    ("sdelab.diagnostics", "simulate_ensemble", "simulate.ensemble", _ensemble),
    ("sdelab.cli", "occupation_profile", "simulate.bookkeeping", None),
    ("sdelab.cli", "exit_time_stats", "simulate.bookkeeping", None),
    ("sdelab.cli", "solve_density", "density.solve", _density),
    ("sdelab.diagnostics", "solve_density", "density.solve", _density),
    ("sdelab.cli", "verify_preinvariance", "density.audit", None),
    ("sdelab.cli", "verify_divergence_free", "density.audit", None),
    ("sdelab.cli", "evolve", "semigroup.evolve", _evolve),
    ("sdelab.diagnostics", "evolve", "semigroup.evolve", _evolve),
    ("sdelab.cli", "semigroup_contraction_check", "semigroup.audit", None),
    ("sdelab.diagnostics", "marginal_two_sample", "diagnostics.two_sample", None),
    ("sdelab.cli", "uniqueness_probe", "diagnostics.uniqueness", None),
    ("sdelab.cli", "krylov_audit", "diagnostics.krylov", None),
    ("sdelab.cli", "feynman_kac_crosscheck", "diagnostics.feynman_kac", None),
    ("sdelab.cli", "a4prime_check", "conditions.check", None),
    ("sdelab.cli", "min_M_on_grid", "conditions.check", None),
    ("sdelab.cli", "occupation_condition_route", "conditions.check", None),
    ("sdelab.cli", "apply_set_overrides", "config.validate", None),
    ("sdelab.cli", "ExperimentConfig.from_dict", "config.validate", None),
    ("sdelab.cli", "_Emitter.report", "cli.emit", None),
    ("sdelab.cli", "_Emitter.table", "cli.emit", None),
    ("sdelab.cli", "canonical_json", "reporting.serialize", None),
]

# module, attribute, counter key, amount per call
COUNT_TARGETS = [
    ("sdelab.rng", "path_generator", "rng.generators", lambda args: 1.0),
    ("sdelab.cli", "_write_atomic", "cli.bytes_written",
     lambda args: float(len(args[1].encode("utf-8")))),
]


def _replace(module: str, attr: str, make) -> None:
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise RuntimeError(f"trace target {module}.{attr} not found")
    static = inspect.getattr_static(owner, name, None)
    if static is None or not callable(getattr(owner, name)):
        raise RuntimeError(f"trace target {module}.{attr} not found")
    wrapped = make(getattr(owner, name))
    setattr(owner, name, staticmethod(wrapped) if isinstance(static, staticmethod) else wrapped)


def install() -> Tracer:
    """Wrap every target; raise ``RuntimeError`` if one is missing."""
    tracer = Tracer()
    for module, attr, key, observe in SPAN_TARGETS:
        _replace(module, attr, lambda fn, k=key, o=observe: tracer.span(k, fn, o))
    for module, attr, key, amount in COUNT_TARGETS:
        _replace(module, attr, lambda fn, k=key, a=amount: tracer.counter(k, fn, a))
    return tracer


# -- analysis -----------------------------------------------------------------

def _union_length(intervals: list, lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class SpanTable:
    """Per-key busy time, self time and call counts of a recorded trace.

    Spans nested (through any depth) in a span of the same key are left out,
    so a weight evaluation inside a dispersion evaluation counts once.
    """

    def __init__(self, spans: list):
        by_id = {s[0]: s for s in spans}
        self.children = {}
        self.outer = {}
        for s in spans:
            self.children.setdefault(s[4], []).append(s)
            parent = by_id.get(s[4])
            while parent is not None and parent[1] != s[1]:
                parent = by_id.get(parent[4])
            if parent is None:
                self.outer.setdefault(s[1], []).append(s)

    def busy(self, key: str) -> float:
        return sum(s[3] - s[2] for s in self.outer.get(key, []))

    def calls(self, key: str) -> int:
        return len(self.outer.get(key, []))

    def size(self, key: str) -> float:
        return sum(s[5] or 0.0 for s in self.outer.get(key, []))

    def self_time(self, key: str) -> float:
        total = 0.0
        for s in self.outer.get(key, []):
            kids = [(c[2], c[3]) for c in self.children.get(s[0], [])]
            total += (s[3] - s[2]) - _union_length(kids, s[2], s[3])
        return total

    def top_level(self) -> float:
        return sum(s[3] - s[2] for s in self.children.get(None, []))


def summarize(trace_w2: dict, run_s_w2: float, trace_w1: dict,
              untraced_run_s: float) -> dict:
    """Every ``PER_LAYER`` metric from a traced run at two workers, the same
    run at one worker, and the untraced median ``run_s``."""
    t = SpanTable(trace_w2["spans"])
    t1 = SpanTable(trace_w1["spans"])
    counts = trace_w2["counts"]
    computed = counts.get("simulate.steps_computed", 0.0)
    sim_w2 = t.busy("simulate.ensemble")
    values = {
        "rng.normals_s": t.busy("rng.normals"),
        "rng.normals": counts.get("rng.normals", 0.0),
        "rng.generators": counts.get("rng.generators", 0.0),
        "coefficients.eval_s": t.busy("coefficients.eval"),
        "coefficients.calls": float(t.calls("coefficients.eval")),
        "coefficients.points": t.size("coefficients.eval"),
        "simulate.self_s": t.self_time("simulate.ensemble"),
        "simulate.path_steps": counts.get("simulate.path_steps", 0.0),
        "simulate.active_step_ratio": (
            counts.get("simulate.steps_taken", 0.0) / computed if computed else 0.0
        ),
        "simulate.states_mb": counts.get("simulate.states_mb", 0.0),
        "simulate.bookkeeping_s": t.busy("simulate.bookkeeping"),
        "density.solve_s": t.busy("density.solve"),
        "density.solves": float(t.calls("density.solve")),
        "density.nodes": counts.get("density.nodes", 0.0),
        "density.audit_s": t.busy("density.audit"),
        "semigroup.evolve_s": t.busy("semigroup.evolve"),
        "semigroup.factorizations": float(t.calls("semigroup.evolve")),
        "semigroup.steps": counts.get("semigroup.steps", 0.0),
        "semigroup.slices_mb": counts.get("semigroup.slices_mb", 0.0),
        "semigroup.audit_s": t.busy("semigroup.audit"),
        "diagnostics.two_sample_s": t.busy("diagnostics.two_sample"),
        "diagnostics.two_sample_calls": float(t.calls("diagnostics.two_sample")),
        "diagnostics.uniqueness_self_s": t.self_time("diagnostics.uniqueness"),
        "diagnostics.krylov_self_s": t.self_time("diagnostics.krylov"),
        "diagnostics.feynman_kac_self_s": t.self_time("diagnostics.feynman_kac"),
        "conditions.check_s": t.busy("conditions.check"),
        "config.validate_s": t.busy("config.validate"),
        "cli.emit_s": t.busy("cli.emit"),
        "cli.bytes_written": counts.get("cli.bytes_written", 0.0),
        "reporting.serialize_s": t.busy("reporting.serialize"),
        "simulate.scaling_efficiency_w2": (
            t1.busy("simulate.ensemble") / (2.0 * sim_w2) if sim_w2 else 0.0
        ),
        "trace.overhead_s": run_s_w2 - untraced_run_s,
        "trace.unattributed_s": run_s_w2 - t.top_level(),
    }
    return values
