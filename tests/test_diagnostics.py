"""Tests for the law-level diagnostics: two-sample marginal tests, the
variant probe, the occupation-functional audit and the MC-vs-PDE cross-check."""

import functools
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist  # the references only: sdelab computes distances in numpy

import sdelab.diagnostics as diagnostics
from sdelab.coefficients import (
    CoefficientSet,
    DispersionFactor,
    Exponents,
    InverseWeight,
    builtin_family,
)
from sdelab.diagnostics import (
    DiagnosticsError,
    LawVariant,
    feynman_kac_crosscheck,
    krylov_audit,
    marginal_two_sample,
    uniqueness_probe,
)
from sdelab.grids import BoxGrid, GridField, SmoothBump
from sdelab.rng import derive_seed
from sdelab.semigroup import evolve as semigroup_evolve
from sdelab.simulate import SimConfig, SimulationError, simulate_ensemble, weak_error_study


def _comonotone_2d():
    """Fully correlated noise: one Brownian motion driving both coordinates.

    Same standard-normal marginals as the 2-d brownian family at every time,
    but the joint law is degenerate on the diagonal."""

    def zero(x):
        return np.zeros(x.shape)

    def s_fn(x):
        return np.ones(x.shape[:-1] + (2, 1))

    return CoefficientSet(
        factor=DispersionFactor(2, 1, s_fn),
        row_div=zero,
        inv_weight=InverseWeight(
            fn=lambda x: np.ones(x.shape[:-1]),
            has_zeros=False,
        ),
        drift=zero,
        exponents=Exponents(math.inf, math.inf, math.inf),
        family={"name": "comonotone"},
    )


def _ensemble(c, n_paths, master_seed, dt=0.05, t_final=1.0, x0=(0.0, 0.0)):
    cfg = SimConfig(dt=dt, t_final=t_final, n_paths=n_paths, master_seed=master_seed)
    return simulate_ensemble(c, x0, cfg)


class TestMarginalTwoSample:
    def test_identical_ensembles_give_zero(self, brownian2):
        e1 = _ensemble(brownian2, 2000, 11)
        e2 = _ensemble(brownian2, 2000, 11)
        res = marginal_two_sample(e1.state_at(1.0), e2.state_at(1.0), level=0.01)
        assert res["statistic"] == 0.0
        assert not res["reject"]
        assert all(entry["statistic"] == 0.0 for entry in res["breakdown"])

    def test_independent_null_accepts(self, brownian2):
        e1 = _ensemble(brownian2, 10_000, derive_seed(11, 1))
        e2 = _ensemble(brownian2, 10_000, derive_seed(11, 2))
        res = marginal_two_sample(e1.state_at(1.0), e2.state_at(1.0), level=0.01)
        assert set(res) == {"statistic", "reject", "breakdown"}
        assert not res["reject"]
        assert res["statistic"] <= 1.0
        for entry in res["breakdown"][:2]:
            assert entry["method"] == "asymptotic"

    def test_energy_level_below_permutation_resolution(self, brownian2):
        # 199 permutations resolve levels down to 1/200; at 1% split over
        # three tests the energy critical value is infinite by design
        e1 = _ensemble(brownian2, 1500, derive_seed(12, 1))
        e2 = _ensemble(brownian2, 1500, derive_seed(12, 2))
        res = marginal_two_sample(e1.state_at(1.0), e2.state_at(1.0), level=0.01)
        energy = res["breakdown"][-1]
        assert energy["name"] == "energy"
        assert math.isinf(energy["critical"])
        assert energy["normalized"] == 0.0

    def test_symmetric_under_swap(self, brownian2):
        e1 = _ensemble(brownian2, 1200, derive_seed(13, 1))
        e2 = _ensemble(brownian2, 1200, derive_seed(13, 2))
        r12 = marginal_two_sample(e1.state_at(1.0), e2.state_at(1.0), level=0.05)
        r21 = marginal_two_sample(e2.state_at(1.0), e1.state_at(1.0), level=0.05)
        assert r12["statistic"] == r21["statistic"]
        assert r12["reject"] == r21["reject"]
        for a, b in zip(r12["breakdown"], r21["breakdown"]):
            assert a["statistic"] == b["statistic"]
            assert a["critical"] == b["critical"]

    def test_mean_shift_rejects_on_first_coordinate(self, brownian2):
        drifted = builtin_family("brownian", 2, drift=(1.0, 0.0))
        e1 = _ensemble(brownian2, 10_000, derive_seed(11, 1))
        e2 = _ensemble(drifted, 10_000, derive_seed(11, 2))
        res = marginal_two_sample(e1.state_at(1.0), e2.state_at(1.0), level=0.01)
        assert res["reject"]
        worst = max(res["breakdown"], key=lambda e: e["normalized"])
        assert worst["name"] == "ks_coordinate_0"
        assert worst["normalized"] > 5.0

    def test_small_sample_permutation_path(self, brownian2):
        half = builtin_family("brownian", 2, drift=(0.5, 0.0))
        e1 = _ensemble(brownian2, 400, derive_seed(11, 3))
        shifted = _ensemble(half, 400, derive_seed(11, 4))
        null = _ensemble(brownian2, 400, derive_seed(11, 4))
        res = marginal_two_sample(e1.state_at(1.0), shifted.state_at(1.0), level=0.05)
        assert res["reject"]
        assert res["breakdown"][0]["method"] == "permutation"
        res0 = marginal_two_sample(e1.state_at(1.0), null.state_at(1.0), level=0.05)
        assert not res0["reject"]

    def test_energy_detects_pure_dependence(self, brownian2):
        # equal marginals, different joint law: KS blind, energy decisive
        e1 = _ensemble(brownian2, 4096, derive_seed(21, 1))
        e2 = _ensemble(_comonotone_2d(), 4096, derive_seed(21, 2))
        res = marginal_two_sample(e1.state_at(1.0), e2.state_at(1.0), level=0.05)
        assert res["reject"]
        worst = max(res["breakdown"], key=lambda e: e["normalized"])
        assert worst["name"] == "energy"
        assert all(e["normalized"] <= 1.0 for e in res["breakdown"][:2])

    def test_energy_test_never_holds_the_distance_matrix(self):
        # 2048 pooled points: their whole distance matrix alone is 32 MiB
        x, y = np.random.default_rng(3).standard_normal((2, 1024, 2))
        tracemalloc.start()
        try:
            marginal_two_sample(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_dimension_mismatch_rejected(self, brownian2):
        b3 = builtin_family("brownian", 3)
        e1 = _ensemble(brownian2, 50, 1)
        cfg = SimConfig(dt=0.1, t_final=0.5, n_paths=50, master_seed=2)
        e3 = simulate_ensemble(b3, (0.0, 0.0, 0.0), cfg)
        with pytest.raises(DiagnosticsError, match="dimension"):
            marginal_two_sample(e1.state_at(0.5), e3.state_at(0.5))

    def test_bad_level_rejected(self, brownian2):
        e1 = _ensemble(brownian2, 50, 1)
        with pytest.raises(DiagnosticsError, match="level"):
            marginal_two_sample(e1.state_at(1.0), e1.state_at(1.0), level=1.5)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.zeros(10), "non-empty"),
            (np.zeros((0, 2)), "non-empty"),
            (np.zeros((10, 0)), "non-empty"),
            (np.zeros((4, 5, 2)), "non-empty"),
            (np.array([[0.0, 1.0], [np.nan, 0.0]]), "non-finite"),
            (np.array([[0.0, np.inf]]), "non-finite"),
            ([["a", "b"]], "numeric"),
        ],
    )
    def test_malformed_sample_rejected(self, bad, message):
        good = np.zeros((10, 2))
        with pytest.raises(DiagnosticsError, match=message):
            marginal_two_sample(bad, good)
        with pytest.raises(DiagnosticsError, match=message):
            marginal_two_sample(good, bad)


@pytest.mark.parametrize("d", [1, 2, 3, 9])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 2048])  # below, at and above the row block
def test_distances_are_cdist_bit_for_bit(n, d):
    rng = np.random.default_rng(100 * n + d)
    for scale in (1e-170, 1.0, 1e160):  # squares underflow, are plain, overflow to inf
        a = rng.standard_normal((n, d)) * scale
        a[1::5] = 0.0
        a[3::5] = -0.0
        want = cdist(a, a)
        for s, e in {(0, n), (0, min(n, 256)), (n // 2, n)}:  # any width and offset
            panel = np.empty((n, e - s + 8))[:, :e - s]  # padded rows, as the energy test's
            got = diagnostics._distance_panel(a, s, panel)
            assert np.array_equal(got.view(np.uint64), want[:, s:e].view(np.uint64)), (scale, s)
        assert np.isinf(want).any() == (scale == 1e160 and n > 1)


@pytest.mark.parametrize(
    "rows, cols",
    [(40, 300), (30, 1000), (25, 1023), (200, 64), (100, 100),  # several buffers
     (3, 1000), (7, 17), (1, 5)],  # one buffer
)
def test_block_sum_is_numpy_sum_bit_for_bit(rows, cols):
    # numpy sums a strided block in buffers of getbufsize() // cols whole
    # rows, each pairwise; 300, 1000 and 1023 do not divide the buffer
    rng = np.random.default_rng(rows * cols)
    big = rng.standard_normal((rows, cols + 5)) * 10.0 ** rng.integers(0, 9, (rows, cols + 5))
    big[rng.random(big.shape) < 0.1] = -0.0
    view = big[:, 2:2 + cols]
    acc = diagnostics._BlockSum(cols)
    for start in range(0, rows, 7):  # batches that straddle the buffers
        acc.add(view[start:start + 7])
    got, want = np.float64(acc.sum()), view.sum()
    assert got.view(np.int64) == want.view(np.int64)
    if rows * cols > np.getbufsize():  # the order matters: a flat order differs
        flat = np.ascontiguousarray(view).ravel()
        runs = functools.reduce(np.add, (np.add.reduce(flat[i:i + np.getbufsize()])
                                         for i in range(0, flat.size, np.getbufsize())), 0.0)
        assert (np.add.reduce(flat), runs) != (want, want)


def _energy_reference(pooled, n1, rng, b):
    """The energy statistic of the first ``n1`` rows against the rest, and
    its ``b`` permutation values, from the whole distance matrix."""
    dist = cdist(pooled, pooled)
    n = len(dist)
    n2 = n - n1

    def energy(s_xx, s_xy, s_yy):
        return 2.0 * s_xy / (n1 * n2) - s_xx / n1**2 - s_yy / n2**2

    raw = energy(float(dist[:n1, :n1].sum()), float(dist[:n1, n1:].sum()),
                 float(dist[n1:, n1:].sum()))
    row = dist.sum(axis=1)
    z = np.zeros((b, n))
    for i in range(b):
        z[i, rng.permutation(n)[:n1]] = 1.0
    s_xx = np.einsum("bn,bn->b", z @ dist, z)
    t = z @ row
    return raw, energy(s_xx, t - s_xx, float(row.sum()) - 2.0 * t + s_xx)


def _energy_mismatches(sizes, parts=(3,)):
    """The cases, at pooled sizes ``sizes`` split ``n // part`` against the
    rest, whose streamed energy statistic or one of its 199 permutation
    values differs in a bit from the whole matrix's."""
    bad = []
    for n, part, d in itertools.product(sizes, parts, (1, 2, 9)):
        for scale in (1e-170, 1.0, 1e160):  # squares underflow, are plain, overflow
            a = np.random.default_rng(31 * n + d).standard_normal((n, d)) * scale
            n1 = max(1, n // part)
            with np.errstate(invalid="ignore"):  # 0 * inf in the products
                want = _energy_reference(a, n1, np.random.default_rng(n), 199)
                got = diagnostics._energy_stats(a, n1, np.random.default_rng(n), 199)
            bits = [np.array([raw, *stats]).view(np.uint64) for raw, stats in (want, got)]
            if not np.array_equal(*bits):
                bad.append((n, n1, d, scale))
    return bad


_ENERGY_SIZES = [2, 17, 255, 256, 511, 512, 521, 600, 1025, 1100, 1337, 2047, 2048]


def test_energy_statistics_match_the_whole_matrix_bit_for_bit():
    # panel edges, the 256-511 remainder, one panel and several (at 521 and
    # 1025, 128-wide panels would move bits); on one BLAS thread, in a fresh
    # interpreter, since at most sizes the whole product's bits depend on
    # the thread count
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(diagnostics.__file__).resolve().parents[1]), str(Path(__file__).parent),
        env.get("PYTHONPATH")]))
    probe = f"import test_diagnostics as t; print(t._energy_mismatches({_ENERGY_SIZES}))"
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=600, check=True)
    assert run.stdout.strip() == "[]"


def test_energy_statistics_match_the_whole_matrix_at_the_shipped_size():
    # 1024 points per sample, the shipped configs' size, on this process's threads
    assert _energy_mismatches([2048], parts=(2, 3)) == []


class TestUniquenessProbe:
    def test_gamma_variants_accept(self):
        rad = lambda g: builtin_family(
            "radial_degenerate", 2, alpha=0.25, gamma=g
        )
        cfg = SimConfig(dt=5e-3, t_final=0.5, n_paths=1500, master_seed=33)
        rep = uniqueness_probe(
            rad(1.0),
            [LawVariant("gamma=0.5", c=rad(0.5)), LawVariant("gamma=2", c=rad(2.0))],
            (0.0, 0.0),
            [0.25, 0.5],
            cfg,
            level=0.01,
        )
        assert rep.passed
        occ = rep.clause("occupation_route")
        assert occ.value == 0.0
        assert len(rep.meta["comparisons"]) == 2

    def test_drift_negative_control_rejects(self, brownian2):
        drifted = builtin_family("brownian", 2, drift=(0.5, 0.0))
        cfg = SimConfig(dt=5e-3, t_final=0.5, n_paths=1500, master_seed=34)
        rep = uniqueness_probe(
            brownian2,
            [LawVariant("no_drift"), LawVariant("drift", c=drifted)],
            (0.0, 0.0),
            [0.5],
            cfg,
            level=0.01,
        )
        assert not rep.passed
        assert not rep.clause("no_rejection[no_drift|drift]@t=0.5").passed

    def test_null_set_occupation_reported_not_failed(self):
        # the default radial representative freezes the chain at the origin,
        # so the whole horizon is spent on the degeneracy set
        rad0 = builtin_family("radial_degenerate", 2, alpha=0.25)
        cfg = SimConfig(dt=5e-3, t_final=0.25, n_paths=400, master_seed=35)
        rep = uniqueness_probe(
            rad0,
            [LawVariant("copy_a"), LawVariant("copy_b")],
            (0.0, 0.0),
            [0.25],
            cfg,
            level=0.01,
        )
        assert rep.passed
        occ = rep.clause("occupation_route")
        assert occ.value == pytest.approx(0.25)
        assert "not certified" in occ.detail

    def test_variant_list_too_short(self, brownian2):
        cfg = SimConfig(dt=0.1, t_final=0.5, n_paths=50, master_seed=1)
        with pytest.raises(DiagnosticsError, match="two variants"):
            uniqueness_probe(brownian2, [LawVariant("only")], (0.0, 0.0), [0.5], cfg)

    def test_familywise_level_outside_unit_interval(self, brownian2):
        # 3 pairs x 2 times: the per-comparison level 2/6 alone looks valid
        cfg = SimConfig(dt=0.1, t_final=0.5, n_paths=50, master_seed=1)
        variants = [LawVariant("a"), LawVariant("b"), LawVariant("c")]
        with pytest.raises(DiagnosticsError, match="level"):
            uniqueness_probe(brownian2, variants, (0.0, 0.0), [0.2, 0.5], cfg, level=2)

    def test_check_time_off_a_variant_step_grid(self, brownian2):
        cfg = SimConfig(dt=0.1, t_final=0.5, n_paths=50, master_seed=1)
        variants = [LawVariant("a"), LawVariant("coarse", dt=0.25)]
        with pytest.raises(DiagnosticsError, match="integer multiple of dt of coarse"):
            uniqueness_probe(brownian2, variants, (0.0, 0.0), [0.3], cfg)

    def test_repeated_check_time_rejected(self, brownian2):
        # both times are step 5 of dt 0.1: one comparison reported twice
        cfg = SimConfig(dt=0.1, t_final=0.5, n_paths=50, master_seed=1)
        variants = [LawVariant("a"), LawVariant("b")]
        for t_checks in ([0.5, 0.5], [0.5, 0.5 + 1e-12]):
            with pytest.raises(DiagnosticsError, match="names a step more than once "
                                                       "on the grid of dt of a=0.1"):
                uniqueness_probe(brownian2, variants, (0.0, 0.0), t_checks, cfg)

    @pytest.mark.parametrize("t_checks, match", [
        # no comparison at the common start can reject
        ([0.0, 0.5], r"names t=0, the common start"),
        ((0,), r"names t=0, the common start"),
        # the probe reads the times twice, so a one-pass iterable is refused
        ((t for t in [0.5]), "t_checks must be a list of times"),
        (0.5, "t_checks must be a list of times"),
        ([], "t_checks is empty"),
        ([0.6], "t=0.6 outside the simulated horizon"),
    ], ids=["zero", "zero-only", "generator", "number", "empty", "beyond"])
    def test_check_times_refused(self, brownian2, t_checks, match):
        cfg = SimConfig(dt=0.1, t_final=0.5, n_paths=50, master_seed=1)
        variants = [LawVariant("a"), LawVariant("b")]
        with pytest.raises(DiagnosticsError, match=match):
            uniqueness_probe(brownian2, variants, (0.0, 0.0), t_checks, cfg)

    @pytest.mark.parametrize("label", ["", 1, None, ("a",)])
    def test_variant_label_must_be_a_non_empty_string(self, brownian2, label):
        # an int 1 and a string "1" used to name two variants that print alike
        cfg = SimConfig(dt=0.1, t_final=0.5, n_paths=50, master_seed=1)
        variants = [LawVariant("1"), LawVariant(label)]
        with pytest.raises(DiagnosticsError, match="label must be a non-empty string"):
            uniqueness_probe(brownian2, variants, (0.0, 0.0), [0.5], cfg)

    @pytest.mark.parametrize("variant", ["b", ("b",), LawVariant("b", c="brownian")],
                             ids=["string", "tuple", "family-name"])
    def test_variant_must_be_a_law_variant_of_coefficients(self, brownian2, variant):
        cfg = SimConfig(dt=0.1, t_final=0.5, n_paths=50, master_seed=1)
        with pytest.raises(DiagnosticsError, match="is not a LawVariant"):
            uniqueness_probe(brownian2, [LawVariant("a"), variant], (0.0, 0.0), [0.5], cfg)

    def test_repeated_variant_label_rejected(self, brownian2):
        cfg = SimConfig(dt=0.1, t_final=0.5, n_paths=50, master_seed=1)
        variants = [LawVariant("a"), LawVariant("b", dt=0.05), LawVariant("a")]
        with pytest.raises(DiagnosticsError, match="label 'a' repeats"):
            uniqueness_probe(brownian2, variants, (0.0, 0.0), [0.5], cfg)

    @pytest.mark.parametrize("x0", [(2.6, 0.0), (2.5, 0.0), (1e308, 1e308)])
    def test_start_outside_exit_ball_rejected(self, brownian2, x0):
        # every path would stop at step 0, so no comparison could reject
        cfg = SimConfig(dt=0.1, t_final=0.5, n_paths=50, master_seed=1, r_exit=2.5)
        drifted = builtin_family("brownian", 2, drift=(3.0, 0.0))
        variants = [LawVariant("a"), LawVariant("drifted", c=drifted)]
        with pytest.raises(DiagnosticsError, match=r"not inside the exit ball \(r_exit 2.5\)"):
            uniqueness_probe(brownian2, variants, x0, [0.5], cfg)

    def test_one_ensemble_alive_at_a_time(self, brownian2, monkeypatch):
        # traced from the probe's start: when the third variant's ensemble
        # exists, the variants hold their marginals and tallies, less than
        # half of the 3.2 MB one variant's whole paths would take, so no
        # full path array, this variant's or an earlier one's, is alive
        held = []

        def simulate_then_measure(*args, **kwargs):
            ens = simulate_ensemble(*args, **kwargs)
            held.append(tracemalloc.get_traced_memory()[0])
            return ens

        monkeypatch.setattr(diagnostics, "simulate_ensemble", simulate_then_measure)
        cfg = SimConfig(dt=5e-3, t_final=0.5, n_paths=2000, master_seed=36)
        variants = [LawVariant("a"), LawVariant("b"), LawVariant("c")]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            uniqueness_probe(brownian2, variants, (0.0, 0.0), [0.25, 0.5], cfg)
        finally:
            tracemalloc.stop()
        assert len(held) == 3
        full_path_bytes = cfg.n_paths * (cfg.n_steps + 1) * 2 * 8
        assert held[2] - base < full_path_bytes / 2

    def test_comparisons_carry_what_the_two_sample_test_returns(self, brownian2):
        # each comparison is the test's own dict on the same marginals, at the
        # per-comparison level, with the pair and the time added
        drifted = builtin_family("brownian", 2, drift=(0.5, 0.0))
        cfg = SimConfig(dt=0.05, t_final=0.5, n_paths=300, master_seed=37)
        variants = [LawVariant("a"), LawVariant("drift", c=drifted)]
        t_checks = [0.25, 0.5]
        rep = uniqueness_probe(brownian2, variants, (0.0, 0.0), t_checks, cfg, level=0.02)
        configs = diagnostics.uniqueness_configs(variants, (0.0, 0.0), t_checks, cfg)
        a, b = (simulate_ensemble(v.c if v.c is not None else brownian2, (0.0, 0.0), c)
                for v, c in zip(variants, configs))
        assert len(rep.meta["comparisons"]) == len(t_checks)
        for comparison, t in zip(rep.meta["comparisons"], t_checks):
            res = marginal_two_sample(a.state_at(t), b.state_at(t), level=0.01)
            assert comparison == {"pair": ["a", "drift"], "t": t,
                                  "statistic": res["statistic"],
                                  "breakdown": res["breakdown"]}

    def test_common_seed_null_set_variants_bitwise_identical(self):
        # representatives differing only on the (never-visited) degeneracy
        # set produce bitwise identical chains under a common master seed
        lo = builtin_family("radial_degenerate", 2, alpha=0.25, gamma=0.5)
        hi = builtin_family("radial_degenerate", 2, alpha=0.25, gamma=2.0)
        cfg = SimConfig(dt=2e-3, t_final=0.25, n_paths=300, master_seed=77)
        e_lo = simulate_ensemble(lo, (0.3, 0.2), cfg)
        e_hi = simulate_ensemble(hi, (0.3, 0.2), cfg)
        assert np.array_equal(e_lo.states, e_hi.states)
        assert np.max(e_lo.occupation_exact) == 0.0


def _one(x, t):
    return np.ones(x.shape[:-1])


def _zero(x, t):
    return np.zeros(x.shape[:-1])


def _near_origin(x, t):
    return (np.linalg.norm(x, axis=-1) < 0.1).astype(float)


_SUM_LENGTHS = [*range(1, 10), 15, 16, 17, 127, 128, 129, 255, 256, 257, 501, 1001]


@pytest.mark.parametrize("n", _SUM_LENGTHS)
def test_pairwise_sum_is_numpy_reduce_bit_for_bit(n):
    # terms fed one at a time sum as np.add.reduce along a contiguous axis,
    # for runs below 8, within numpy's 128-term block and split beyond it
    rng = np.random.default_rng(n)
    terms = rng.standard_normal((40, n)) * 10.0 ** rng.integers(-15, 15, (40, n))
    terms[rng.random((40, n)) < 0.2] = 0.0
    terms[rng.random((40, n)) < 0.2] = -0.0
    terms[0] = -0.0
    terms[1] = np.where(np.arange(n) % 2, 0.0, -0.0)
    terms[2] = terms[3] = rng.standard_normal(n)
    terms[3, ::3] *= -1e16  # sums that cancel, so every rounding shows
    acc = diagnostics._path_sum(n)
    next(acc)
    for k in range(n - 1):
        assert acc.send(terms[:, k]) is None
    got, want = acc.send(terms[:, -1]), np.add.reduce(np.ascontiguousarray(terms), axis=1)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    if n >= 8:  # the order matters: a left-to-right sum differs somewhere
        plain = functools.reduce(np.add, terms.T, np.zeros(40))
        assert not np.array_equal(plain.view(np.int64), want.view(np.int64))


class TestKrylovAudit:
    def test_zero_payload(self, brownian2):
        cfg = SimConfig(dt=2e-3, t_final=0.25, n_paths=500, master_seed=44)
        rep = krylov_audit(brownian2, (0.0, 0.0), 10.0, 0.25, [_zero], cfg)
        audit, = rep.meta["audits"]
        assert audit["estimate"] == 0.0
        assert audit["stderr"] == 0.0
        assert audit["ratio"] == 0.0
        assert rep.passed and rep.meta["c_hat"] == 0.0

    def test_constant_payload_closed_forms(self, brownian2):
        # no path leaves the ball, so every path integral equals the horizon
        # exactly; the mixed norm has the closed form (pi R^2)^(1/6) T^(1/3)
        cfg = SimConfig(dt=2e-3, t_final=0.25, n_paths=2000, master_seed=44)
        audit, = krylov_audit(brownian2, (0.0, 0.0), 10.0, 0.25, [_one], cfg).meta["audits"]
        assert audit["estimate"] == pytest.approx(0.25, abs=1e-12)
        assert audit["stderr"] <= 1e-12
        assert audit["exit_fraction"] == 0.0
        closed = (math.pi * 100.0) ** (1.0 / 6.0) * 0.25 ** (1.0 / 3.0)
        assert audit["f_norm"] == pytest.approx(closed, rel=1e-3)
        assert math.isfinite(audit["ratio"])

    def test_homogeneity_on_common_paths(self, brownian2):
        cfg = SimConfig(dt=2e-3, t_final=0.25, n_paths=1000, master_seed=44)
        rep = krylov_audit(
            brownian2, (0.0, 0.0), 10.0, 0.25, [_one, _near_origin], cfg
        )
        assert [c.name for c in rep.clauses] == [
            "ratio_finite[_one]", "homogeneity[_one]",
            "ratio_finite[_near_origin]", "homogeneity[_near_origin]"]
        for label in ("_one", "_near_origin"):
            hom = rep.clause(f"homogeneity[{label}]")
            assert hom.passed and hom.value <= 1e-12 and hom.threshold == 1e-12

    def test_degenerate_family_ratio_stable_in_dt(self):
        rad = builtin_family("radial_degenerate", 2, alpha=0.25, gamma=1.0)
        ratios = {}
        for dt in (4e-3, 2e-3):
            cfg = SimConfig(dt=dt, t_final=0.5, n_paths=2000, master_seed=55)
            rep = krylov_audit(
                rad, (0.0, 0.0), 1.5, 0.5, [_one, _near_origin], cfg
            )
            ratios[dt] = [a["ratio"] for a in rep.meta["audits"]]
        for coarse, fine in zip(ratios[4e-3], ratios[2e-3]):
            assert math.isfinite(coarse) and math.isfinite(fine)
            assert 0.5 <= coarse / fine <= 2.0

    def test_unbounded_payload_rejected(self, brownian2):
        def inverse_norm(x, t):
            with np.errstate(divide="ignore"):
                return 1.0 / np.linalg.norm(x, axis=-1)

        cfg = SimConfig(dt=5e-3, t_final=0.1, n_paths=50, master_seed=9)
        with pytest.raises(DiagnosticsError, match="non-finite"):
            krylov_audit(brownian2, (1.0, 0.0), 2.0, 0.1, [inverse_norm], cfg)

    def test_bad_payload_shape_rejected(self, brownian2):
        def bad(x, t):
            return np.ones(x.shape[:-1] + (2,))

        cfg = SimConfig(dt=5e-3, t_final=0.1, n_paths=50, master_seed=9)
        with pytest.raises(DiagnosticsError, match="shape"):
            krylov_audit(brownian2, (0.0, 0.0), 2.0, 0.1, [bad], cfg)

    def test_streamed_integrals_equal_whole_array(self, brownian2):
        # the integrals are summed state by state while the paths step; they
        # equal np.sum over the whole stored paths bit for bit.  Half the
        # paths leave the ball, so the trapezoid weights stop at many steps
        cfg = SimConfig(dt=5e-3, t_final=1.0, n_paths=2000, master_seed=21)
        payloads = [_one, _near_origin, lambda x, t: np.clip(x[..., 0] * t, -0.3, 0.3)]
        rep = krylov_audit(brownian2, (0.0, 0.0), 1.0, 1.0, payloads, cfg)
        ens = simulate_ensemble(brownian2, (0.0, 0.0), replace(cfg, r_exit=1.0))
        assert 0 < np.mean(ens.exit_step >= 0) < 1
        assert len(np.unique(ens.exit_step[ens.exit_step >= 0])) > 50
        k, stop = np.arange(201)[None, :], ens.stop_step[:, None]
        ends = (stop > 0) & ((k == 0) | (k == stop))
        weights = 5e-3 * ((k > 0) & (k < stop)) + 2.5e-3 * ends
        for f, audit in zip(payloads, rep.meta["audits"]):
            vals = f(ens.states, ens.times[None, :])
            integrals = np.sum(weights * vals, axis=1)
            assert audit["estimate"] == float(np.mean(integrals))
            assert audit["stderr"] == float(np.std(integrals) / math.sqrt(2000))
            est_scaled = float(np.mean(np.sum(weights * (3.7 * vals), axis=1)))
            gap = abs(est_scaled - 3.7 * audit["estimate"])
            assert rep.clause(f"homogeneity[{audit['label']}]").value == gap / (
                abs(3.7 * audit["estimate"]) + 1e-300)

    def test_audit_peak_does_not_grow_with_the_horizon(self, brownian2):
        # no whole paths are stored: the traced peak, ensemble included, is
        # the same at 400 and 800 steps (4096 x 801 x 2 states would be 50 MiB)
        peaks = []
        for t_final in (2.0, 4.0):
            cfg = SimConfig(dt=5e-3, t_final=t_final, n_paths=4096, master_seed=21)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                krylov_audit(brownian2, (0.0, 0.0), 10.0, t_final, [_one, _near_origin],
                             cfg)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        short, long = peaks
        assert long <= 1.05 * short
        assert short < 4096 * 401 * 2 * 8

    def test_non_finite_at_one_late_state_of_the_last_path(self, brownian2):
        cfg = SimConfig(dt=5e-3, t_final=0.5, n_paths=1500, master_seed=9)
        ens = simulate_ensemble(brownian2, (0.0, 0.0), replace(cfg, r_exit=10.0))
        marked = ens.states[-1, 97, 0]  # state 97 of 100 of the last path

        def spike(x, t):
            return np.where(x[..., 0] == marked, np.inf, 1.0)

        spike.__name__ = "spike"
        message = ("payload spike is non-finite on simulated paths; the audit needs "
                   "functions bounded on the ball-time window")
        with pytest.raises(DiagnosticsError, match=f"^{re.escape(message)}$"):
            krylov_audit(brownian2, (0.0, 0.0), 10.0, 0.5, [spike], cfg)
        bad = ~np.isfinite(spike(ens.states, ens.times[None, :]))
        assert np.array_equal(np.argwhere(bad), [[1499, 97]])

    @pytest.mark.parametrize("x0", [(2.0, 0.0), (1.5, 0.0)])
    def test_start_outside_ball_rejected(self, brownian2, x0):
        # every estimate would be 0 with exit_fraction 1, and the audit pass
        cfg = SimConfig(dt=5e-3, t_final=0.1, n_paths=50, master_seed=9)
        with pytest.raises(DiagnosticsError, match=r"not inside the exit ball \(radius 1.5\)"):
            krylov_audit(brownian2, x0, 1.5, 0.1, [_one], cfg)

    @pytest.mark.parametrize("payload, radius, norm", [
        # paths visit the small ball, but no midpoint of the 65-cell grid lies in it
        ("tiny_ball", 1.5, "0.0"),
    ])
    def test_unresolvable_payload_rejected(self, brownian2, payload, radius, norm):
        def tiny_ball(x, t):
            return (np.sum((x - 0.023) ** 2, axis=-1) <= 0.015**2).astype(float)

        f = {"tiny_ball": tiny_ball, "_one": _one}[payload]
        cfg = SimConfig(dt=2e-3, t_final=0.5, n_paths=2000, master_seed=44)
        with pytest.raises(DiagnosticsError,
                           match=f"^payload {payload} has mixed norm {norm} against .* "
                                 "cannot resolve it$"):
            krylov_audit(brownian2, (0.0, 0.0), radius, 0.5, [f], cfg)

    @pytest.mark.parametrize("radius, volume", [
        (1e308, "inf"),  # the cell width overflows
        (1e200, "inf"),  # the cell volume overflows
        (1e-300, "0.0"),  # the cell volume underflows
    ])
    def test_radius_without_a_cell_volume_rejected(self, brownian2, radius, volume):
        # refused by the input check, before any path is stepped
        cfg = SimConfig(dt=2e-3, t_final=0.5, n_paths=50, master_seed=44)
        with pytest.raises(DiagnosticsError, match=re.escape(
                f"radius {radius} gives quadrature cells of volume {volume}: ")):
            diagnostics.krylov_config((0.0, 0.0), radius, 0.5, [_one], cfg)
        with pytest.raises(DiagnosticsError, match="quadrature cells of volume"):
            krylov_audit(brownian2, (0.0, 0.0), radius, 0.5, [_one], cfg)

    def test_empty_dictionary_rejected(self, brownian2):
        cfg = SimConfig(dt=5e-3, t_final=0.1, n_paths=50, master_seed=9)
        with pytest.raises(DiagnosticsError, match="empty"):
            krylov_audit(brownian2, (0.0, 0.0), 2.0, 0.1, [], cfg)

    def test_payload_labels_are_names_else_positions(self):
        # a partial has no __name__, so it is labelled by its index
        cfg = SimConfig(dt=0.1, t_final=0.5, n_paths=50, master_seed=1)
        payloads = [_one, functools.partial(_one), lambda x, t: t]
        cfg_run, labels = diagnostics.krylov_config((0.0, 0.0), 2.0, 0.5, payloads, cfg)
        assert labels == ["_one", "f1", "<lambda>"]
        assert (cfg_run.t_final, cfg_run.r_exit) == (0.5, 2.0)

    @pytest.mark.parametrize("payloads, label", [
        ([_one, _one, lambda x, t: t], "_one"),
        ([lambda x, t: x[..., 0], lambda x, t: t], "<lambda>"),
    ])
    def test_repeated_payload_label_rejected(self, brownian2, payloads, label):
        # two payloads of one label would write the same clauses twice
        cfg = SimConfig(dt=0.1, t_final=0.5, n_paths=50, master_seed=1)
        with pytest.raises(DiagnosticsError, match=f"payload label '{label}' repeats"):
            diagnostics.krylov_config((0.0, 0.0), 2.0, 0.5, payloads, cfg)
        with pytest.raises(DiagnosticsError, match=f"payload label '{label}' repeats"):
            krylov_audit(brownian2, (0.0, 0.0), 2.0, 0.5, payloads, cfg)


def _gauss_quarter(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-np.sum(x * x, axis=-1) / (2.0 * 0.25))


BOUNDS4 = ((-4.0, 4.0), (-4.0, 4.0))


class TestFeynmanKac:
    def test_brownian_triple_agreement(self, brownian2):
        # MC, PDE and the Gaussian convolution closed form all agree
        grid = BoxGrid(BOUNDS4, 65)
        cfg = SimConfig(dt=2e-3, t_final=0.25, n_paths=20_000, master_seed=71)
        rep = feynman_kac_crosscheck(
            brownian2, grid, _gauss_quarter, (0.0, 0.0), 0.25, cfg, 2.5e-3
        )
        assert rep.passed
        m = rep.meta
        closed = 0.25 / (0.25 + 0.25)
        assert abs(m["mc_estimate"] - closed) <= m["budget"]
        assert abs(m["pde_value"] - closed) <= m["budget"]
        assert m["mass_leakage"] < 1e-4

    def test_ou_clipped_coordinate(self, ou2):
        # E[x1 at t] = exp(-t) x1(0); the clip sits far outside the bulk
        def clipped_x1(x):
            return np.clip(np.asarray(x, dtype=float)[..., 0], -3.0, 3.0)

        grid = BoxGrid(BOUNDS4, 65)
        cfg = SimConfig(dt=2e-3, t_final=1.0, n_paths=20_000, master_seed=73)
        rep = feynman_kac_crosscheck(
            ou2, grid, clipped_x1, (1.0, 0.0), 1.0, cfg, 1e-2
        )
        assert rep.passed
        m = rep.meta
        closed = math.exp(-1.0)
        assert abs(m["mc_estimate"] - closed) <= m["budget"]
        assert abs(m["pde_value"] - closed) <= m["budget"]

    def test_degenerate_radial_budget(self):
        rad = builtin_family("radial_degenerate", 2, alpha=0.25)
        bump = SmoothBump((0.7, 0.7), 0.1)
        grid = BoxGrid(((-3.0, 3.0), (-3.0, 3.0)), 65)
        cfg = SimConfig(dt=2e-3, t_final=0.25, n_paths=20_000, master_seed=56)
        rep = feynman_kac_crosscheck(
            rad, grid, lambda x: bump(np.asarray(x, dtype=float)),
            (0.5, 0.5), 0.25, cfg, 2.5e-3,
        )
        assert rep.passed
        assert rep.clause("mc_pde_within_budget").passed
        assert rep.meta["mass_leakage"] < 0.01

    def test_leaky_box_is_inconclusive(self, brownian2):
        def wide(x):
            x = np.asarray(x, dtype=float)
            return np.exp(-np.sum(x * x, axis=-1) / 8.0)

        grid = BoxGrid(((-1.0, 1.0), (-1.0, 1.0)), 33)
        cfg = SimConfig(dt=5e-3, t_final=0.5, n_paths=4000, master_seed=75)
        rep = feynman_kac_crosscheck(
            brownian2, grid, wide, (0.0, 0.0), 0.5, cfg, 5e-3
        )
        assert not rep.passed
        assert not rep.clause("box_retains_payload_mass").passed
        assert rep.meta["verdict"] == "inconclusive"
        assert "enlarge" in rep.clause("box_retains_payload_mass").detail

    def test_one_slice_stack_alive_at_a_time(self, brownian2, monkeypatch):
        # a signed payload runs all four evolves; each stores only its final
        # slice, and each later one starts with only those of the earlier
        # ones held
        calls = []

        def measure_then_evolve(*args, **kwargs):
            held = tracemalloc.get_traced_memory()[0]
            u = semigroup_evolve(*args, **kwargs)
            calls.append((held, u.values.shape))
            return u

        def signed(x):
            x = np.asarray(x, dtype=float)
            return x[..., 0] * np.exp(-np.sum(x * x, axis=-1))

        grid = BoxGrid(BOUNDS4, 33)
        cfg = SimConfig(dt=5e-3, t_final=0.5, n_paths=200, master_seed=76)
        # a first run does the lazy imports, which would count as held
        feynman_kac_crosscheck(brownian2, grid, signed, (0.0, 0.0), 0.5, cfg, 5e-3)
        monkeypatch.setattr(diagnostics, "evolve", measure_then_evolve)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            feynman_kac_crosscheck(brownian2, grid, signed, (0.0, 0.0), 0.5, cfg, 5e-3)
        finally:
            tracemalloc.stop()
        assert len(calls) == 4
        assert [shape[0] for _, shape in calls] == [1, 1, 1, 1]
        # the whole stack of the fine evolve: 101 slices of 33 x 33 nodes
        fine_stack_nbytes = 101 * 33 * 33 * 8
        assert calls[0][1] == (1, 33, 33)
        for held, _ in calls[1:]:
            assert held - base < fine_stack_nbytes / 4

    def test_payload_non_finite_at_a_terminal_state_rejected(self, brownian2):
        # finite at every node of the box, NaN beyond it, where paths go: the
        # Monte-Carlo mean used to be NaN and the report a FAIL with value nan
        def box_only(x):
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x).max(axis=-1) <= 1.0, 1.0, np.nan)

        grid = BoxGrid(((-1.0, 1.0), (-1.0, 1.0)), 17)
        cfg = SimConfig(dt=1e-2, t_final=0.5, n_paths=200, master_seed=1)
        with pytest.raises(DiagnosticsError,
                           match="payload is non-finite at the Monte-Carlo terminal states"):
            feynman_kac_crosscheck(brownian2, grid, box_only, (0.5, 0.5), 0.5, cfg, 0.05)

    def test_x0_near_boundary_rejected(self, brownian2):
        grid = BoxGrid(BOUNDS4, 33)
        cfg = SimConfig(dt=5e-3, t_final=0.5, n_paths=100, master_seed=1)
        with pytest.raises(DiagnosticsError, match="inside the box"):
            feynman_kac_crosscheck(
                brownian2, grid, _gauss_quarter, (4.0, 0.0), 0.5, cfg, 5e-3
            )

    def test_odd_step_count_rejected(self, brownian2):
        grid = BoxGrid(BOUNDS4, 33)
        cfg = SimConfig(dt=5e-3, t_final=0.5, n_paths=100, master_seed=1)
        with pytest.raises(DiagnosticsError, match="even"):
            feynman_kac_crosscheck(
                brownian2, grid, _gauss_quarter, (0.0, 0.0), 0.5, cfg, 0.1
            )

    def test_even_node_count_rejected_before_the_payload(self, brownian2):
        # BoxGrid.coarsen used to refuse it with a GridError, after the
        # payload had been evaluated on the grid
        def unread(x):
            raise AssertionError("the payload was evaluated")

        grid = BoxGrid(BOUNDS4, (16, 17))
        cfg = SimConfig(dt=5e-3, t_final=0.5, n_paths=100, master_seed=1)
        for check in (diagnostics.feynman_kac_config,
                      lambda *args: feynman_kac_crosscheck(brownian2, *args)):
            with pytest.raises(DiagnosticsError,
                               match=r"^the grid needs odd node counts, got \[16, 17\]: "
                                     "the spatial error is read on every other node$"):
                check(grid, unread, (0.0, 0.0), 0.5, cfg, 0.05)

    def test_payload_zero_at_every_node_rejected(self, brownian2):
        # the bump's support lies between nodes: the payload has no mass on
        # the box, refused by the input check before any path is stepped
        bump = SmoothBump((0.3, 0.3), 0.001)
        grid = BoxGrid(BOUNDS4, 17)
        cfg = SimConfig(dt=5e-3, t_final=0.5, n_paths=100, master_seed=1)
        with pytest.raises(DiagnosticsError, match="payload is 0 at every node"):
            feynman_kac_crosscheck(brownian2, grid, bump, (0.0, 0.0), 0.5, cfg, 0.05)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_payload_non_finite_at_a_node_rejected_before_any_path(self, brownian2,
                                                                   monkeypatch, bad):
        # the ensemble and the density solve used to run first
        grid = BoxGrid(BOUNDS4, 65)
        values = np.ones(grid.shape)
        values[10, 50] = bad
        monkeypatch.setattr(diagnostics, "simulate_ensemble", None)
        monkeypatch.setattr(diagnostics, "solve_density", None)
        cfg = SimConfig(dt=5e-3, t_final=0.5, n_paths=100, master_seed=1)
        with pytest.raises(DiagnosticsError, match="datum is non-finite at 1 of 4225"):
            feynman_kac_crosscheck(brownian2, grid, lambda x: values, (0.0, 0.0), 0.5,
                                   cfg, 0.05)

    def test_grid_field_payload_rejected(self, brownian2, monkeypatch):
        # a payload is a callable of points; node values on the very grid
        # were once unwrapped and interpolated at the terminal states
        grid = BoxGrid(BOUNDS4, 33)
        payload = GridField(grid, np.ones(grid.shape))
        monkeypatch.setattr(diagnostics, "simulate_ensemble", None)
        monkeypatch.setattr(diagnostics, "solve_density", None)
        cfg = SimConfig(dt=5e-3, t_final=0.5, n_paths=100, master_seed=1)
        with pytest.raises(DiagnosticsError,
                           match="^payload must be a callable, got GridField$"):
            feynman_kac_crosscheck(brownian2, grid, payload, (0.0, 0.0), 0.5, cfg, 5e-3)


_UNREPRESENTABLE = SimConfig(dt=0.1, t_final=0.5, n_paths=10**18, master_seed=1)


@pytest.mark.parametrize("check", [
    lambda cfg: diagnostics.uniqueness_configs(
        [LawVariant("a"), LawVariant("b")], (0.0, 0.0), [0.5], cfg),
    lambda cfg: diagnostics.krylov_config((0.0, 0.0), 1.0, 0.5, [_one], cfg),
    lambda cfg: diagnostics.feynman_kac_config(
        BoxGrid(BOUNDS4, 17), _gauss_quarter, (0.0, 0.0), 0.5, cfg, 0.05),
], ids=["uniqueness", "krylov", "feynman_kac"])
def test_input_check_refuses_unrepresentable_ensemble(check):
    # each audit's one input check, also the config load's, sizes its ensembles
    with pytest.raises(ValueError, match=r"^states of shape 1\.000e18 x 6 x 2 cannot be"):
        check(_UNREPRESENTABLE)


_RUN = SimConfig(dt=0.1, t_final=0.5, n_paths=10, master_seed=1)


# each used to escape as a bare TypeError or ValueError, the Krylov one only
# after its ensemble had run
@pytest.mark.parametrize("call, error, match", [
    (lambda c: simulate_ensemble(c, (0.0, 0.0), _RUN, occupation_eps=0.1),
     SimulationError, "occupation_eps must be a sequence, got 0.1"),
    (lambda c: weak_error_study(c, (0.0, 0.0), lambda x: x[:, 0], 0.5, 0.1, 10, 1),
     SimulationError, "dt_list must be a sequence, got 0.1"),
    (lambda c: weak_error_study(c, (0.0, 0.0), lambda x: x[:, 0], 0.5, ["a"], 10, 1),
     SimulationError, "dt_list must be a finite number, got 'a'"),
    (lambda c: krylov_audit(c, (0.0, 0.0), 2.0, 0.5, [_one, 3], _RUN),
     DiagnosticsError, "payload 3 is not callable"),
    # the check reads the payloads before the audit does, so a generator is refused
    (lambda c: krylov_audit(c, (0.0, 0.0), 2.0, 0.5, (f for f in [_one]), _RUN),
     DiagnosticsError, "payload dictionary must be a non-empty list, got <generator"),
    (lambda c: krylov_audit(c, (0.0, 0.0), 2.0, 0.5, 5, _RUN),
     DiagnosticsError, "payload dictionary must be a non-empty list, got 5"),
], ids=["occupation_eps", "dt_list-number", "dt_list-string", "krylov-payload",
        "krylov-generator", "krylov-number"])
def test_untyped_argument_refused_where_it_enters(brownian2, monkeypatch, call, error, match):
    monkeypatch.setattr(diagnostics, "simulate_ensemble", None)  # no audit ensemble runs
    monkeypatch.setattr(diagnostics, "_simulate_levels", None)
    with pytest.raises(error, match=match):
        call(brownian2)


# a horizon off the entry's own step grid used to escape as the ensemble
# config's SimulationError, naming neither the variant nor the entry's step
@pytest.mark.parametrize("call, match", [
    (lambda c: uniqueness_probe(c, [LawVariant("a"), LawVariant("b", dt=0.3)], (0.0, 0.0),
                                [0.5], _RUN),
     r"t_final=0\.5 is off the step grid: not an integer multiple of dt of b=0\.3"),
    (lambda c: krylov_audit(c, (0.0, 0.0), 2.0, 0.25, [_one], _RUN),
     r"t_final=0\.25 is off the step grid: not an integer multiple of dt=0\.1"),
    (lambda c: feynman_kac_crosscheck(c, BoxGrid(BOUNDS4, 17), _gauss_quarter, (0.0, 0.0),
                                      0.25, _RUN, 0.125),
     r"t_final=0\.25 is off the step grid: not an integer multiple of mc_dt=0\.1"),
], ids=["uniqueness", "krylov", "feynman_kac"])
def test_horizon_off_the_entry_step_grid_refused(brownian2, monkeypatch, call, match):
    monkeypatch.setattr(diagnostics, "simulate_ensemble", None)  # no audit ensemble runs
    monkeypatch.setattr(diagnostics, "_simulate_levels", None)
    monkeypatch.setattr(diagnostics, "solve_density", None)
    with pytest.raises(DiagnosticsError, match=match):
        call(brownian2)


def test_variant_of_another_dimension_refused_before_any_path(brownian2, monkeypatch):
    # variant a's whole ensemble used to run before b's x0 check refused it
    monkeypatch.setattr(diagnostics, "simulate_ensemble", None)
    variants = [LawVariant("a"), LawVariant("b", c=builtin_family("brownian", 3))]
    with pytest.raises(DiagnosticsError, match=r"variant 'b' has dimension 3, "
                                               r"but x0 lists 2 coordinates"):
        uniqueness_probe(brownian2, variants, (0.0, 0.0), [0.5], _RUN)
