"""Reproducible noise streams.

Every normal variate is a pure function of ``(master_seed, path, step,
component)``: the counter-based Philox generator is keyed by the pair
``(master_seed, path)``, and the draw for ``(step, component)`` sits at the
fixed counter position ``step * m + component`` within that stream.  A raw
word is numpy's full-range ``uint64`` draw, which is the bit generator's
``random_raw`` output unchanged.  Variates are produced by inverse CDF from
open-interval uniforms ``(raw + 0.5) / 2^64``, so no endpoint can reach 0 or
1.  Results therefore never depend on scheduling or worker partitioning.

``path_normals`` is the definition: one fresh generator per path.
``block_normals`` gives the same words for many paths from one bit generator
that it re-keys for each path, since a Philox stream depends only on its key
and counter.  Each counter value yields 4 words, so a range of steps starting
at ``first_step`` is read straight from the counter holding word
``first_step * m``: a block's noise can be drawn in step chunks with the same
bits as all at once.  The tests check it against ``path_normals`` row for
row.  The transform of raw words is elementwise, so any split of it over
threads gives the same bits.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_U64 = np.uint64
_TWO_NEG64 = 2.0**-64  # scaling by a power of two is exact: the same bits as / 2^64
_CHUNK = 512  # rows per conversion chunk handed to a helper; results do not depend on it


def _as_u64(value: int, name: str) -> int:
    v = int(value)
    if not 0 <= v < 2**64:
        raise ValueError(f"{name} must fit in an unsigned 64-bit integer, got {value}")
    return v


def _as_u64_list(values, name: str) -> list:
    """:func:`_as_u64` of each value; a numpy integer array is checked in one pass."""
    ints = isinstance(values, np.ndarray) and values.dtype.kind in "iu"
    if ints and np.all(values >= 0):
        return values.tolist()
    return [_as_u64(v, name) for v in values]


def path_generator(master_seed: int, path_index: int) -> np.random.Generator:
    """Philox generator keyed by ``(master_seed, path_index)``: one path's substream."""
    seed, index = _as_u64(master_seed, "master_seed"), _as_u64(path_index, "path_index")
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=_U64)))


def path_normals(master_seed: int, path_index: int, n_steps: int, m: int) -> np.ndarray:
    """Standard normals for one path, shape ``(n_steps, m)``."""
    g = path_generator(master_seed, path_index)
    raw = g.integers(0, 2**64, size=(n_steps, m), dtype=_U64)
    return ndtri((raw.astype(float) + 0.5) * _TWO_NEG64)


def _to_normals(u: np.ndarray) -> None:
    """Raw words stored as floats -> standard normals, in place."""
    u += 0.5
    u *= _TWO_NEG64
    ndtri(u, out=u)


def block_normals(
    master_seed: int, path_indices: np.ndarray, n_steps: int, m: int, pool=None,
    first_step: int = 0,
) -> np.ndarray:
    """Normals of steps ``first_step .. first_step + n_steps - 1`` for a batch
    of paths, shape ``(len(path_indices), n_steps, m)``.

    Row ``i`` equals ``path_normals(master_seed, path_indices[i],
    first_step + n_steps, m)[first_step:]``.  On the calling thread, one
    Philox bit generator is re-keyed to ``(master_seed, path)`` for each
    path, past the ``first_step * m // 4`` whole 4-word counter blocks before
    word ``first_step * m``.  It yields the ``first_step * m % 4`` words left
    before that word, which are dropped, then the path's ``n_steps * m`` raw
    words, stored as floats (the same conversion as ``astype(float)``).  The inverse CDF transform runs in
    place, so the block holds one array.  With an executor ``pool``, each
    filled chunk of ``_CHUNK`` rows but the last is handed to it while the
    next one fills; a chunk no helper has started by the time the last is
    converted is taken back and converted on the calling thread.
    """
    n, k = len(path_indices), n_steps * m
    skip = first_step * m % 4
    u = np.empty((n, k))
    bits = np.random.Philox(0)  # a fixed seed reads no OS entropy; re-keyed below
    # An empty buffer at the counter before word first_step * m: the state of
    # a newly keyed generator advanced by first_step * m // 4 counter values.
    fresh = {"bit_generator": "Philox",
             "state": {"counter": (first_step * m // 4, 0, 0, 0), "key": None},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    seed = _as_u64(master_seed, "master_seed")
    chunk = _CHUNK if pool is not None else n
    done, pending = 0, []
    for i, p in enumerate(_as_u64_list(path_indices, "path_index")):
        fresh["state"]["key"] = (seed, p)
        bits.state = fresh
        u[i] = bits.random_raw(skip + k)[skip:]
        if i + 1 - done == chunk and i + 1 < n:
            rows = u[done:i + 1]
            pending.append((pool.submit(_to_normals, rows), rows))
            done = i + 1
    _to_normals(u[done:])
    # helpers take chunks from the front of the queue, this thread from the back
    for f, rows in reversed(pending):
        if f.cancel():
            _to_normals(rows)
        else:
            f.result()
    return u.reshape(n, n_steps, m)


def derive_seed(master_seed: int, *indices: int) -> int:
    """Independent sub-seed for a labelled purpose (variant, control, audit).

    Deterministic function of the master seed and the index tuple via seed
    sequence spawning; distinct tuples give statistically independent streams.
    """
    ss = np.random.SeedSequence(
        entropy=_as_u64(master_seed, "master_seed"),
        spawn_key=tuple(_as_u64(i, "index") for i in indices),
    )
    return int(ss.generate_state(1, _U64)[0])


def permutation_rng(seed: int) -> np.random.Generator:
    """Generator for permutation tests and subsampling; plain PCG64 stream."""
    return np.random.default_rng(_as_u64(seed, "seed"))
