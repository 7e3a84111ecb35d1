"""The benchmark's span tracer wraps sdelab entry points by name from outside
the package (``bench/spans.py``).  Every name it wraps must still resolve, so
a refactor that moves or deletes one fails here, not only in a traced run.
Nothing is wrapped: the targets are looked up statically.  Its observers read
attributes of the results they see; they run here on small real results, so
a result that stops holding ``states`` or slices fails here too.  Its
counters read the arguments of the calls they wrap; the byte counter runs
here on a real table write.
"""

import importlib
import importlib.util
import inspect
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import sdelab.cli
from sdelab import builtin_family
from sdelab.density import solve_density
from sdelab.semigroup import evolve
from sdelab.simulate import SimConfig, block_normals, simulate_ensemble

_spec = importlib.util.spec_from_file_location(
    "bench_spans", Path(__file__).resolve().parents[1] / "bench" / "spans.py"
)
_spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_spans)


@pytest.mark.parametrize(
    "module, attr",
    [t[:2] for t in _spans.SPAN_TARGETS + _spans.COUNT_TARGETS],
    ids=lambda v: v,
)
def test_trace_target_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = inspect.getattr_static(owner, part)
    if isinstance(owner, staticmethod):
        owner = owner.__func__
    assert callable(owner), f"{module}.{attr} is not callable"


def test_ensemble_observer_reads_a_real_ensemble():
    # states, exit_step and exploded_step: 30 paths x 50 steps, absorbed at 0.5
    c = builtin_family("brownian", 2)
    cfg = SimConfig(dt=0.01, t_final=0.5, n_paths=30, master_seed=3, r_exit=0.5)
    ens = simulate_ensemble(c, (0.0, 0.0), cfg)
    assert np.any(ens.exit_step >= 0)
    tracer = _spans.Tracer()
    _spans._ensemble(tracer, (c, (0.0, 0.0), cfg), ens)
    assert tracer.counts["simulate.path_steps"] == 30 * 50
    assert tracer.counts["simulate.steps_taken"] == float(np.sum(ens.stop_step))
    assert tracer.counts["simulate.states_mb"] == 30 * 51 * 2 * 8 / 2**20


def test_ensemble_observer_reads_a_snapshot_ensemble():
    # the simulate subcommand keeps only the terminal states: the observer
    # runs on them and sizes the states that were kept
    c = builtin_family("brownian", 2)
    cfg = SimConfig(dt=0.01, t_final=0.5, n_paths=30, master_seed=3, r_exit=0.5)
    ens = simulate_ensemble(c, (0.0, 0.0), cfg, t_keep=(cfg.t_final,))
    tracer = _spans.Tracer()
    _spans._ensemble(tracer, (c, (0.0, 0.0), cfg), ens)
    assert tracer.counts["simulate.states_mb"] == 30 * 1 * 2 * 8 / 2**20


def test_normals_observer_reads_a_pooled_block():
    # with a helper pool block_normals still returns the whole block, chunks
    # converted on the helper included, so the observer counts every normal
    idx = np.arange(1100)
    with ThreadPoolExecutor(max_workers=1) as pool:
        xi = block_normals(5, idx, 7, 3, pool)
    tracer = _spans.Tracer()
    _spans._normals(tracer, (5, idx, 7, 3, pool), xi)
    assert tracer.counts["rng.normals"] == 1100 * 7 * 3


def test_normals_observer_reads_an_offset_chunk():
    # simulate_ensemble draws a block's noise in step chunks; a chunk that
    # starts inside the stream holds just its own steps
    idx = np.arange(40)
    xi = block_normals(5, idx, 3, 2, first_step=7)
    tracer = _spans.Tracer()
    _spans._normals(tracer, (5, idx, 3, 2, None, 7), xi)
    assert tracer.counts["rng.normals"] == 40 * 3 * 2


def test_evolve_observer_reads_a_real_field():
    # times and values: 4 backward-Euler steps on a 9 x 9 grid
    c = builtin_family("brownian", 2)
    dens = solve_density(c, ((-2.0, 2.0), (-2.0, 2.0)), 9)
    u = evolve(dens, np.ones(dens.grid.shape), 0.2, 0.05)
    tracer = _spans.Tracer()
    _spans._evolve(tracer, (dens, None, 0.2, 0.05), u)
    assert tracer.counts["semigroup.steps"] == 4
    assert tracer.counts["semigroup.slices_mb"] == 5 * 81 * 8 / 2**20


def test_evolve_observer_reads_a_final_slice_field():
    # the Feynman-Kac check keeps only the final slice of each evolve: the
    # observer counts the kept slices, not the steps taken
    c = builtin_family("brownian", 2)
    dens = solve_density(c, ((-2.0, 2.0), (-2.0, 2.0)), 9)
    f0 = np.ones(dens.grid.shape)
    u = evolve(dens, f0, 0.2, 0.05, t_keep=(0.2,))
    tracer = _spans.Tracer()
    _spans._evolve(tracer, (dens, f0, 0.2, 0.05), u)
    assert tracer.counts["semigroup.steps"] == 0
    assert tracer.counts["semigroup.slices_mb"] == 81 * 8 / 2**20


def test_bytes_written_counter_sees_a_real_table(tmp_path, monkeypatch):
    # the counter sizes the one str each _write_atomic call receives; a
    # writer that stopped passing the whole text there would disagree with
    # the file it wrote
    (key, amount), = [t[2:] for t in _spans.COUNT_TARGETS
                      if t[:2] == ("sdelab.cli", "_write_atomic")]
    assert key == "cli.bytes_written"
    tracer = _spans.Tracer()
    monkeypatch.setattr(sdelab.cli, "_write_atomic",
                        tracer.counter(key, sdelab.cli._write_atomic, amount))
    columns = [np.arange(5000, dtype=float), np.linspace(-1.0, 1.0, 5000)]
    sdelab.cli._Emitter(str(tmp_path)).table("t", ["path", "x0"], columns)
    assert tracer.counts[key] == (tmp_path / "t.csv").stat().st_size
