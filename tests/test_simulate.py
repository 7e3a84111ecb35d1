"""Path-simulator tests.

Oracles: Gaussian closed forms for the constant-coefficient family, the
exponential-decay mean of the mean-reverting family, an independently coded
plain-loop Euler scheme, and the analytic step-size bias of the
mean-reverting chain for the weak-order study.
"""

import dataclasses
import json
import math
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import sdelab.simulate
from sdelab import builtin_family
from sdelab.cli import main
from sdelab.coefficients import DispersionFactor
from sdelab.config import build_spacetime_payload
from sdelab.diagnostics import krylov_audit
from sdelab.rng import block_normals, derive_seed, path_normals
from sdelab.simulate import (
    _BLOCK,
    PathEnsemble,
    SimConfig,
    SimulationError,
    exit_time_stats,
    occupation_profile,
    simulate_ensemble,
    weak_error_study,
)


def _cfg(**kw):
    base = dict(dt=1e-2, t_final=1.0, n_paths=500, master_seed=42)
    base.update(kw)
    return SimConfig(**base)


class TestRng:
    def test_normals_are_pure_functions_of_key(self):
        a = path_normals(7, 3, 20, 2)
        b = path_normals(7, 3, 20, 2)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, path_normals(7, 4, 20, 2))
        assert not np.array_equal(a, path_normals(8, 3, 20, 2))

    def test_block_matches_per_path(self):
        idx = np.array([0, 5, 9])
        blk = block_normals(11, idx, 8, 2)
        for i, p in enumerate(idx):
            np.testing.assert_array_equal(blk[i], path_normals(11, int(p), 8, 2))

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("n_steps, m", [(5, 1), (7, 3)])
    def test_block_matches_per_path_on_hard_shapes(self, seed, n_steps, m):
        # n_steps * m is not a multiple of the 4 words Philox makes per counter,
        # so a row that inherited the previous row's counter or buffered words
        # would differ; the indices are unsorted, non-contiguous and large.
        idx = [7, 2**64 - 1, 0, 2**40, 3]
        for order in (idx, idx[::-1]):
            blk = block_normals(seed, np.array(order, dtype=np.uint64), n_steps, m)
            for i, p in enumerate(order):
                np.testing.assert_array_equal(blk[i], path_normals(seed, p, n_steps, m))

    @pytest.mark.parametrize("seed, idx", [
        (-1, [0]), (2**64, [0]), (0, [3, 2**64]), (0, [3, -1]),
    ])
    def test_block_rejects_keys_outside_u64(self, seed, idx):
        with pytest.raises(ValueError, match="unsigned 64-bit"):
            block_normals(seed, idx, 4, 2)

    def test_concurrent_blocks_equal_serial(self):
        index_sets = [np.arange(k * 1000, k * 1000 + 200) for k in range(4)]
        serial = [block_normals(13, idx, 30, 3) for idx in index_sets]
        start = threading.Barrier(len(index_sets))

        def draw(idx):
            start.wait(timeout=30)
            return [block_normals(13, idx, 30, 3) for _ in range(5)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(index_sets)) as pool:
                results = list(pool.map(draw, index_sets, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for want, repeats in zip(serial, results):
            for got in repeats:
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("first_step", [0, 5])
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("n", [1, 511, 512, 513, 1031])
    def test_block_of_any_size_matches_per_path(self, n, m, first_step):
        # every row is filled, then the whole block is converted in place at
        # once: one row and many, even and odd counts give the same rows
        idx = 3 * np.arange(n) + 11
        blk = block_normals(17, idx, 5, m, first_step=first_step)
        assert blk.shape == (n, 5, m)
        for i, p in enumerate(idx):
            tail = path_normals(17, int(p), first_step + 5, m)[first_step:]
            np.testing.assert_array_equal(blk[i], tail)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("first_step", [0, 1, 2, 3, 5, 8])
    def test_offset_block_matches_per_path_tail(self, m, first_step):
        # steps first_step onward start at word first_step * m of each
        # stream, inside a counter's 4 words when first_step * m % 4 != 0
        idx = [7, 2**64 - 1, 0, 2**40, 3]
        blk = block_normals(9, np.array(idx, dtype=np.uint64), 6, m, first_step=first_step)
        for i, p in enumerate(idx):
            tail = path_normals(9, p, first_step + 6, m)[first_step:]
            np.testing.assert_array_equal(blk[i], tail)

    def test_standard_normal_moments(self):
        z = path_normals(1, 0, 50_000, 2).ravel()
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02

    def test_derive_seed_distinct(self):
        seeds = {derive_seed(5, i, j) for i in range(4) for j in range(4)}
        assert len(seeds) == 16
        assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)


class TestSimConfig:
    def test_grid_divisibility(self):
        with pytest.raises(SimulationError, match="integer multiple"):
            SimConfig(dt=0.3, t_final=1.0, n_paths=10, master_seed=0)

    def test_n_steps(self):
        assert _cfg(dt=1e-3, t_final=0.25).n_steps == 250

    def test_master_seed_must_fit_u64(self):
        assert _cfg(master_seed=2**64 - 1).master_seed == 2**64 - 1
        with pytest.raises(SimulationError, match="master_seed must fit in an unsigned 64-bit"):
            _cfg(master_seed=2**64)

    @pytest.mark.parametrize("field", ["dt", "t_final"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_times_name_the_field(self, field, value):
        with pytest.raises(SimulationError, match=f"{field} must be a finite number"):
            _cfg(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("dt", "0.01"), ("dt", True), ("n_paths", 2.5), ("n_paths", True),
         ("master_seed", 1.0), ("r_exit", math.nan), ("near_degeneracy_eps", math.nan)],
    )
    def test_wrong_types_rejected(self, field, value):
        with pytest.raises(SimulationError, match=field):
            _cfg(**{field: value})


class TestEnsembleBasics:
    def test_initial_states(self, brownian2):
        ens = simulate_ensemble(brownian2, [0.5, -0.5], _cfg(n_paths=64))
        np.testing.assert_array_equal(ens.states[:, 0, :], np.tile([0.5, -0.5], (64, 1)))
        assert ens.states.shape == (64, 101, 2)
        np.testing.assert_allclose(ens.times[-1], 1.0)

    def test_bitwise_determinism_same_seed(self, ou2):
        e1 = simulate_ensemble(ou2, [1.0, 0.0], _cfg(n_paths=128))
        e2 = simulate_ensemble(ou2, [1.0, 0.0], _cfg(n_paths=128))
        np.testing.assert_array_equal(e1.states, e2.states)

    @pytest.mark.parametrize("block", [1, 7, 150, 300])
    def test_bitwise_determinism_any_block_size(self, ou2, monkeypatch, block):
        # paths are keyed one by one, so how they are split into blocks moves
        # no bit: blocks of one path, a short last block, 150 + 150 + 1, and
        # 300 + 1 all give the one-block ensemble; some paths exit
        cfg = _cfg(n_paths=301, t_final=0.2, r_exit=1.5)
        want = simulate_ensemble(ou2, [1.0, 0.0], cfg)
        monkeypatch.setattr(sdelab.simulate, "_BLOCK", block)
        got = simulate_ensemble(ou2, [1.0, 0.0], cfg)
        assert np.any(want.exit_step >= 0) and not np.all(want.exit_step >= 0)
        for name in ("states", "exit_step", "exploded_step", "occupation"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize("case", ["one_block", "rotated_factor"])
    def test_bitwise_determinism_one_block_and_contraction(self, ou2, case):
        # one block; and the general contraction of a rotated factor over
        # three blocks
        if case == "one_block":
            c, cfg = ou2, _cfg(n_paths=_BLOCK - 5, t_final=0.2)
        else:
            c, cfg = _rotated_factor(), _cfg(n_paths=2 * _BLOCK + 7, t_final=0.2)
        e1, e2 = [simulate_ensemble(c, [0.4, -0.2], cfg) for _ in range(2)]
        for name in ("states", "exit_step", "exploded_step", "occupation"):
            np.testing.assert_array_equal(getattr(e2, name), getattr(e1, name))

    def test_no_thread_is_started(self, radial2, monkeypatch, tmp_path):
        # every block is drawn, converted and stepped on the calling thread,
        # in the library and behind the command line at any --workers value;
        # the command line's ensembles of 600 paths are more than 512 rows
        def refuse(thread):
            raise AssertionError(f"thread {thread.name} was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        simulate_ensemble(radial2, [0.3, 0.0], _cfg(n_paths=2 * _BLOCK + 7, t_final=0.1))
        krylov_audit(radial2, (0.0, 0.0), 1.0, 0.2,
                     [build_spacetime_payload({"type": "one"}, 2, "one")],
                     _cfg(n_paths=200, t_final=0.2))
        gamma2 = {"name": "radial_degenerate", "params": {"alpha": 0.25, "gamma": 2.0}}
        raw = {
            "format_version": 1,
            "family": {"name": "radial_degenerate", "params": {"alpha": 0.25, "gamma": 1.0}},
            "box": {"bounds": [[-3.0, 3.0], [-3.0, 3.0]], "n": 17},
            "sim": {"dt": 0.01, "t_final": 0.2, "n_paths": 600, "master_seed": 7,
                    "x0": [0.0, 0.0], "r_exit": 2.5},
            "diagnostics": [
                {"kind": "uniqueness", "x0": [0.0, 0.0], "t_checks": [0.2],
                 "variants": [{"label": "gamma=1"}, {"label": "gamma=2", "family": gamma2}]},
                {"kind": "krylov", "x0": [0.0, 0.0], "radius": 1.0, "t_final": 0.2,
                 "payloads": [{"type": "one"}]},
                {"kind": "feynman_kac", "x0": [0.5, 0.0], "t_final": 0.1, "pde_dt": 0.01,
                 "payload": {"type": "gaussian", "center": [0.3, 0.0], "variance": 0.5},
                 "grid_n": 33},
            ],
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        for sub in ("simulate", "diagnose"):
            assert main([sub, "--config", str(path), "--workers", "2"]) in (0, 1), sub

    def test_one_noise_block_alive(self, radial2):
        # 3 blocks: the calling thread steps them in turn, so the traced peak
        # holds one block's noise and the kept states, not two blocks' noise
        cfg = _cfg(n_paths=2 * _BLOCK + 7)
        block_noise = _BLOCK * cfg.n_steps * 2 * 8
        kept = cfg.n_paths * 2 * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            simulate_ensemble(radial2, [0.3, 0.0], cfg, t_keep=(cfg.t_final,))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert block_noise < peak < 1.5 * block_noise + kept

    def test_prefix_stability_in_path_count(self, ou2):
        # per-path keying: the first paths do not change when more are added
        small = simulate_ensemble(ou2, [1.0, 0.0], _cfg(n_paths=50))
        large = simulate_ensemble(ou2, [1.0, 0.0], _cfg(n_paths=80))
        np.testing.assert_array_equal(small.states, large.states[:50])

    def test_different_seed_differs(self, brownian2):
        e1 = simulate_ensemble(brownian2, [0.0, 0.0], _cfg(master_seed=1, n_paths=16))
        e2 = simulate_ensemble(brownian2, [0.0, 0.0], _cfg(master_seed=2, n_paths=16))
        assert not np.array_equal(e1.states, e2.states)

    def test_state_at(self, brownian2):
        ens = simulate_ensemble(brownian2, [0.0, 0.0], _cfg(n_paths=8))
        np.testing.assert_array_equal(ens.state_at(0.0), ens.states[:, 0, :])
        np.testing.assert_array_equal(ens.state_at(1.0), ens.states[:, -1, :])
        with pytest.raises(SimulationError, match="step grid"):
            ens.state_at(0.005)


class TestAgainstClosedForms:
    def test_brownian_terminal_law(self, brownian2):
        # X_T ~ N(x0, T I) exactly at any dt
        ens = simulate_ensemble(brownian2, [1.0, 2.0], _cfg(n_paths=20_000, dt=0.05))
        xt = ens.state_at(1.0)
        se = 1.0 / math.sqrt(20_000)
        assert abs(xt[:, 0].mean() - 1.0) < 4 * se
        assert abs(xt[:, 1].mean() - 2.0) < 4 * se
        assert abs(xt[:, 0].var() - 1.0) < 0.05
        assert abs(np.cov(xt.T)[0, 1]) < 0.05

    def test_ou_mean_decay(self, ou2):
        ens = simulate_ensemble(ou2, [2.0, 0.0], _cfg(n_paths=10_000, dt=1e-3))
        xt = ens.state_at(1.0)
        exact = 2.0 * math.exp(-1.0)
        se = xt[:, 0].std() / math.sqrt(10_000)
        assert abs(xt[:, 0].mean() - exact) < 4 * se + 1e-3

    def test_against_independent_plain_loop(self, ou2):
        # independently coded scheme with its own generator
        rng = np.random.default_rng(2024)
        n, dt, steps = 4000, 0.01, 100
        x = np.tile([1.5, -0.5], (n, 1))
        for _ in range(steps):
            x = x - x * dt + math.sqrt(dt) * rng.standard_normal((n, 2))
        ens = simulate_ensemble(ou2, [1.5, -0.5], _cfg(n_paths=4000, dt=0.01))
        ours = ens.state_at(1.0)
        for k in range(2):
            se = math.hypot(x[:, k].std(), ours[:, k].std()) / math.sqrt(n)
            assert abs(x[:, k].mean() - ours[:, k].mean()) < 4 * se

    def test_radial_against_independent_plain_loop(self, radial2):
        rng = np.random.default_rng(77)
        n, dt, steps = 4000, 0.01, 50
        x = np.tile([1.0, 0.0], (n, 1))
        for _ in range(steps):
            scale = np.sum(x * x, axis=1) ** 0.0625  # |x|^{alpha/2}, alpha=1/4
            x = x + math.sqrt(dt) * scale[:, None] * rng.standard_normal((n, 2))
        ens = simulate_ensemble(radial2, [1.0, 0.0], _cfg(n_paths=4000, dt=0.01, t_final=0.5))
        ours = ens.state_at(0.5)
        m_ref = np.sum(x * x, axis=1).mean()
        m_our = np.sum(ours * ours, axis=1).mean()
        se = math.hypot(np.sum(x * x, 1).std(), np.sum(ours * ours, 1).std()) / math.sqrt(n)
        assert abs(m_ref - m_our) < 4 * se


class TestExitAndExplosion:
    def test_brownian_never_exits_far_ball(self, brownian2):
        ens = simulate_ensemble(
            brownian2, [0.0, 0.0], _cfg(n_paths=2000, r_exit=10.0)
        )
        st = exit_time_stats(ens)
        assert st == {"r_exit": 10.0, "n_exited": 0, "exit_fraction": 0.0, "quantiles": {}}

    def test_cubic_drift_exits_fast(self):
        c = builtin_family("brownian", 2, drift="cubic_outward")
        ens = simulate_ensemble(
            c, [1.0, 0.0], _cfg(n_paths=1000, dt=1e-3, r_exit=10.0)
        )
        st = exit_time_stats(ens)
        assert st["exit_fraction"] > 0.8
        assert st["n_exited"] == np.sum(ens.exit_step >= 0)
        # deterministic blow-up of dr/dt = r^3 from r=1 reaches 10 at t ~ 0.495;
        # noise spreads exits around that and strands some paths near the origin
        assert list(st["quantiles"]) == ["q25", "q50", "q75", "q90"]
        assert 0.2 < st["quantiles"]["q50"] < 0.8

    def test_frozen_after_exit(self):
        c = builtin_family("brownian", 2, drift="cubic_outward")
        ens = simulate_ensemble(c, [1.0, 0.0], _cfg(n_paths=50, dt=1e-3, r_exit=10.0))
        for i in range(50):
            k = ens.exit_step[i]
            if k >= 0:
                assert np.linalg.norm(ens.states[i, k]) >= 10.0
                np.testing.assert_array_equal(
                    ens.states[i, k:], np.tile(ens.states[i, k], (ens.states.shape[1] - k, 1))
                )

    def test_start_outside_ball_exits_at_zero(self, brownian2):
        ens = simulate_ensemble(brownian2, [12.0, 0.0], _cfg(n_paths=4, r_exit=10.0))
        np.testing.assert_array_equal(ens.exit_step, 0)
        np.testing.assert_array_equal(ens.states[:, -1, :], ens.states[:, 0, :])

    def test_huge_start_exits_at_zero_silently(self, radial2):
        # |x0|^2 overflows to inf; the exit check before the first step must
        # read that as outside the ball without an overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ens = simulate_ensemble(radial2, [1e308, 1e308], _cfg(n_paths=4, r_exit=2.5))
        np.testing.assert_array_equal(ens.exit_step, 0)

    def test_explosion_flagged_and_frozen(self):
        c = builtin_family("brownian", 2, drift="cubic_outward")
        ens = simulate_ensemble(c, [2.0, 0.0], _cfg(n_paths=32, dt=1e-2))
        assert np.all(ens.exploded)
        assert np.all(np.isfinite(ens.states))
        k = int(ens.exploded_step[0])
        np.testing.assert_array_equal(ens.states[0, k:], np.tile(ens.states[0, k], (101 - k, 1)))

    def test_stop_step_is_first_exit_or_explosion(self):
        c = builtin_family("brownian", 2, drift="cubic_outward")
        exploding = simulate_ensemble(c, [2.0, 0.0], _cfg(n_paths=8))
        np.testing.assert_array_equal(exploding.stop_step, exploding.exploded_step)
        ens = simulate_ensemble(c, [1.0, 0.0], _cfg(n_paths=200, r_exit=3.0))
        exited = ens.exit_step >= 0
        assert 0 < np.sum(exited) < 200 and not np.any(ens.exploded)
        np.testing.assert_array_equal(ens.stop_step[exited], ens.exit_step[exited])
        np.testing.assert_array_equal(ens.stop_step[~exited], ens.config.n_steps)

    def test_exit_stats_requires_absorption(self, brownian2):
        ens = simulate_ensemble(brownian2, [0.0, 0.0], _cfg(n_paths=4))
        with pytest.raises(SimulationError):
            exit_time_stats(ens)


class TestOccupation:
    def test_exact_zero_occupation_away_from_origin(self, radial2):
        ens = simulate_ensemble(radial2, [1.0, 0.0], _cfg(n_paths=500, dt=1e-2))
        np.testing.assert_array_equal(ens.occupation_exact, 0.0)

    def test_zero_version_traps_chain_at_origin(self, radial2):
        # with the exact-zero version both dispersion and drift vanish at 0,
        # so the chain started there never moves: occupation is the horizon.
        # this is the representative sensitivity the law probes care about.
        ens = simulate_ensemble(radial2, [0.0, 0.0], _cfg(n_paths=64, dt=1e-2))
        np.testing.assert_allclose(ens.occupation_exact, 1.0)
        np.testing.assert_array_equal(ens.states, 0.0)

    @pytest.mark.parametrize("n_steps", [255, 256])
    def test_tallies_count_every_step_of_the_horizon(self, radial2, n_steps):
        # the chain started at the origin stays on {w = 0} at every state;
        # 256 steps would wrap a uint8 count to 0
        dt = 2.0**-8
        ens = simulate_ensemble(radial2, [0.0, 0.0],
                                _cfg(n_paths=8, dt=dt, t_final=n_steps * dt))
        assert ens.occupation.dtype == np.float64
        np.testing.assert_array_equal(ens.occupation_exact, n_steps / 256)
        np.testing.assert_array_equal(ens.occupation_near, n_steps / 256)

    def test_origin_version_never_touches_null_set(self):
        c = builtin_family("radial_degenerate", 2, alpha=0.25, gamma=1.0)
        ens = simulate_ensemble(c, [0.0, 0.0], _cfg(n_paths=64, dt=1e-2))
        np.testing.assert_array_equal(ens.occupation_exact, 0.0)

    def test_profile_monotone_and_zero_row(self, radial2):
        eps = [0.2, 0.1, 0.05, 0.025, 0.0]
        ens = simulate_ensemble(radial2, [1.0, 0.0], _cfg(n_paths=500, dt=1e-2),
                                occupation_eps=eps)
        rows = occupation_profile(ens, eps)
        means = [r["mean"] for r in rows]
        assert all(a >= b for a, b in zip(means, means[1:]))
        assert rows[-1] == {"eps": 0.0, "mean": 0.0, "max": 0.0}

    def test_profile_counts_by_hand(self, radial2):
        ens = simulate_ensemble(radial2, [1.0, 0.0], _cfg(n_paths=20, dt=0.1, t_final=0.5),
                                occupation_eps=[0.9])
        w = np.sum(ens.states[:, :5, :] ** 2, axis=2) ** 0.125
        expect = 0.1 * np.sum(w < 0.9, axis=1).mean()
        row = occupation_profile(ens, [0.9])[0]
        assert np.isclose(row["mean"], expect)

    def test_profile_is_silent_on_exploded_paths(self):
        c = builtin_family("radial_degenerate", 2, alpha=0.25, drift="cubic_outward")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ens = simulate_ensemble(c, [2.0, 0.0], _cfg(n_paths=50, t_final=0.5),
                                    occupation_eps=[0.2])
            rows = occupation_profile(ens, [0.2, 0.0])
        assert ens.exploded.all()
        assert [r["eps"] for r in rows] == [0.2, 0.0]

    def test_near_eps_config_tally(self, radial2):
        cfg = _cfg(n_paths=50, dt=1e-2, near_degeneracy_eps=0.8)
        ens = simulate_ensemble(radial2, [1.0, 0.0], cfg)
        w = np.sum(ens.states[:, :100, :] ** 2, axis=2) ** 0.125
        np.testing.assert_allclose(ens.occupation_near, 1e-2 * np.sum(w < 0.8, axis=1))

    def test_profile_reads_only_tallied_eps(self, radial2):
        # 0 and near_degeneracy_eps are always tallied; anything else must be
        # named at simulate time, and is never recomputed from the states
        ens = simulate_ensemble(radial2, [1.0, 0.0], _cfg(n_paths=20, t_final=0.1),
                                occupation_eps=[0.2])
        assert [r["eps"] for r in occupation_profile(ens, [0.2, 0.05, 0.0, -0.0])] == [
            0.2, 0.05, 0.0, 0.0]
        for eps in (0.1, -0.2, float("nan"), float("inf"), "0.2"):
            with pytest.raises(SimulationError, match="not tallied"):
                occupation_profile(ens, [eps])

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf"), -0.1,
                                     True, "0.1", None])
    def test_bad_occupation_eps_rejected(self, radial2, eps):
        with pytest.raises(SimulationError, match="occupation_eps"):
            simulate_ensemble(radial2, [1.0, 0.0], _cfg(n_paths=4, t_final=0.1),
                              occupation_eps=[0.1, eps])

    def test_repeated_eps_tallied_once(self, radial2):
        cfg = _cfg(n_paths=20, t_final=0.1, near_degeneracy_eps=0.1)
        ens = simulate_ensemble(radial2, [1.0, 0.0], cfg,
                                occupation_eps=[0.3, 0.1, 0.0, 0.3, -0.0])
        assert ens.occupation_eps == (0.0, 0.1, 0.3)
        assert ens.occupation.shape == (3, 20)


def _posthoc_occupation(c, ens, eps):
    """Occupation times ``dt * #{k < n_steps : w(X_k) < eps}`` (``== 0`` for
    ``eps == 0``) from one weight evaluation over every stored state."""
    with np.errstate(over="ignore"):  # exploded paths freeze at huge states
        w = c.inv_weight(ens.states[:, : ens.config.n_steps])
    hits = w == 0.0 if eps == 0.0 else w < eps
    return ens.config.dt * np.sum(hits, axis=1)


_PROFILE_EPS = [0.2, 0.1, 0.05, 0.025, 0.0, 1.5]


class TestFusedTallies:
    """The tallies the step takes from its own weight evaluation equal a
    post-hoc evaluation over the stored states, exactly."""

    @pytest.mark.parametrize("family, x0, kw, stops", [
        # every path stops at once: the start lies outside the exit ball
        (dict(alpha=0.25), [3.0, 0.0], dict(r_exit=2.0), "all"),
        # every path leaves the ball early under the cubic outward drift
        (dict(alpha=0.25, drift="cubic_outward"), [1.8, 0.0], dict(r_exit=3.0), "all"),
        # every path explodes: the cubic drift with no exit ball
        (dict(alpha=0.25, drift="cubic_outward"), [2.0, 0.0], {}, "all"),
        # the exact-zero version traps every path at the origin, w == 0
        (dict(alpha=0.25), [0.0, 0.0], {}, "none"),
        # more than one block, some paths exit and some do not
        (dict(alpha=0.25, gamma=1.0), [0.5, -0.5], dict(r_exit=1.2, n_paths=_BLOCK + 37),
         "some"),
    ])
    def test_tallies_equal_posthoc_weights(self, family, x0, kw, stops):
        c = builtin_family("radial_degenerate", 2, **family)
        cfg = _cfg(**{"n_paths": 300, "t_final": 0.5, "near_degeneracy_eps": 1.5, **kw})
        ens = simulate_ensemble(c, x0, cfg, occupation_eps=_PROFILE_EPS)
        stopped = ens.stop_step < cfg.n_steps
        assert {"all": stopped.all(), "none": not stopped.any(),
                "some": 0 < stopped.sum() < cfg.n_paths}[stops]
        np.testing.assert_array_equal(ens.occupation_exact, _posthoc_occupation(c, ens, 0.0))
        np.testing.assert_array_equal(ens.occupation_near, _posthoc_occupation(c, ens, 1.5))
        rows = occupation_profile(ens, _PROFILE_EPS)
        for row, eps in zip(rows, _PROFILE_EPS):
            occ = _posthoc_occupation(c, ens, eps)
            assert (row["mean"], row["max"]) == (np.mean(occ), np.max(occ))


def _with_factor(c, fn):
    """``c`` with an undeclared d x d dispersion factor ``fn``; ``A`` follows it.
    ``fn`` is constant, so the base's zero row divergence stays that of ``A``."""
    return dataclasses.replace(c, factor=DispersionFactor(c.dim, c.dim, fn))


def _rotated_factor():
    """The radial family (alpha 0.5, constant drift) with the undeclared
    constant factor ``0.8 R(0.3)`` of ``test_rotated_factor_against_plain_loop``,
    stepped by the general contraction."""
    rot = 0.8 * np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])
    base = builtin_family("radial_degenerate", 2, alpha=0.5, gamma=1.0, drift=[0.2, 0.0])
    return _with_factor(base, lambda x: np.broadcast_to(rot, x.shape[:-1] + (2, 2)).copy())


class TestDeclaredIdentityFactor:
    """The declared identity steps with ``sqrt(w) xi``; the result must be the
    general contraction's, bit for bit, not within a tolerance."""

    def test_builtin_families_declare_it(self, brownian2, ou2, radial2, piecewise2, jump2):
        for c in (brownian2, ou2, radial2, piecewise2, jump2):
            assert c.factor.identity
        with pytest.raises(ValueError, match="m == dim"):
            DispersionFactor(2, 3, lambda x: np.zeros(x.shape[:-1] + (2, 3)), identity=True)

    @pytest.mark.parametrize("d, family, x0, r_exit", [
        (2, dict(alpha=0.25), [0.5, -0.3], 1.5),
        (3, dict(alpha=0.5, gamma=1.0, drift="cubic_outward"), [0.2, 0.1, -0.4], 2.0),
        (2, dict(alpha=0.25, drift="cubic_outward"), [1.8, 0.0], None),  # explodes
        # w == 0 at a start with a negative zero: the noise is a signed zero,
        # and the drift -0.0 keeps it visible in the state
        (2, dict(alpha=0.25, drift="cubic_outward"), [-0.0, 0.0], None),
    ])
    def test_undeclared_identity_gives_the_same_states(self, d, family, x0, r_exit):
        declared = builtin_family("radial_degenerate", d, **family)
        undeclared = _with_factor(declared, declared.factor.fn)
        assert not undeclared.factor.identity
        cfg = _cfg(n_paths=300, t_final=0.5, r_exit=r_exit)
        want = simulate_ensemble(declared, x0, cfg)
        got = simulate_ensemble(undeclared, x0, cfg)
        for name in ("states", "exit_step", "exploded_step", "occupation_exact",
                     "occupation_near"):
            a, b = getattr(got, name), getattr(want, name)
            np.testing.assert_array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b)), name

    def test_rotated_factor_against_plain_loop(self):
        # sigma = 0.8 R(0.3), constant: the general contraction, checked path
        # by path against an independently coded loop on the same normals
        theta = 0.3
        rot = 0.8 * np.array([[math.cos(theta), -math.sin(theta)],
                              [math.sin(theta), math.cos(theta)]])
        drift = np.array([0.2, 0.0])
        base = builtin_family("radial_degenerate", 2, alpha=0.5, gamma=1.0, drift=drift)
        c = _with_factor(base, lambda x: np.broadcast_to(rot, x.shape[:-1] + (2, 2)).copy())
        cfg = _cfg(n_paths=12, dt=0.01, t_final=0.5, master_seed=3)
        ens = simulate_ensemble(c, [0.4, -0.2], cfg)
        for p in range(cfg.n_paths):
            x = np.array([0.4, -0.2])
            xi = path_normals(3, p, cfg.n_steps, 2)
            for k in range(cfg.n_steps):
                root = math.sqrt(float(np.sum(x * x)) ** 0.25)  # w = |x|^0.5 off 0
                x = x + math.sqrt(cfg.dt) * root * (rot @ xi[k]) + drift * cfg.dt
                np.testing.assert_allclose(ens.states[p, k + 1], x, rtol=1e-12, atol=1e-14)


class TestProfileMemory:
    def test_occupation_profile_peak_memory(self):
        # 16384 x 200 states take 52 MB; the profile reads the tallies the
        # step took, with no pass over the states, so its traced peak is a
        # small fraction of that
        c = builtin_family("radial_degenerate", 2, alpha=0.25, gamma=1.0)
        ens = simulate_ensemble(c, [0.3, 0.0], _cfg(n_paths=16_384, dt=5e-3),
                                occupation_eps=_PROFILE_EPS)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rows = occupation_profile(ens, _PROFILE_EPS)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < ens.states.nbytes / 4
        w = c.inv_weight(ens.states[:, :-1])
        for row, eps in zip(rows, _PROFILE_EPS):
            occ = ens.occupation_exact if eps == 0.0 else 5e-3 * np.sum(w < eps, axis=1)
            assert (row["mean"], row["max"]) == (np.mean(occ), np.max(occ))


class TestKeptStates:
    """An ensemble that keeps only some steps' states holds the full
    ensemble's columns at those steps, bit for bit, with the same tallies."""

    def test_kept_columns_equal_the_full_ensemble(self):
        # two blocks; under the cubic outward drift some paths exit the 1e150
        # ball, some jump past it to a non-finite update, and some do neither
        c = builtin_family("radial_degenerate", 2, alpha=0.25, drift="cubic_outward")
        cfg = _cfg(n_paths=_BLOCK + 7, r_exit=1e150, near_degeneracy_eps=1.5)
        t_keep = (1.0, 0.0, 0.37, 0.5)
        with np.errstate(over="ignore", invalid="ignore"):
            full = simulate_ensemble(c, [1.0, 0.0], cfg, occupation_eps=_PROFILE_EPS)
            kept = simulate_ensemble(c, [1.0, 0.0], cfg, occupation_eps=_PROFILE_EPS,
                                     t_keep=t_keep)
        assert np.any(full.exit_step >= 0) and np.any(full.exploded)
        assert not np.all(full.stop_step < cfg.n_steps)
        steps = [100, 0, 37, 50]
        np.testing.assert_array_equal(kept.steps, steps)
        np.testing.assert_array_equal(kept.times, full.times[steps])
        np.testing.assert_array_equal(kept.states, full.states[:, steps])
        for t, k in zip(t_keep, steps):
            np.testing.assert_array_equal(kept.state_at(t), full.states[:, k])
        for name in ("exit_step", "exploded_step", "occupation", "stop_step"):
            np.testing.assert_array_equal(getattr(kept, name), getattr(full, name))
        assert kept.occupation_eps == full.occupation_eps

    def test_default_keeps_every_step(self, brownian2):
        ens = simulate_ensemble(brownian2, [0.0, 0.0], _cfg(n_paths=4, t_final=0.1))
        np.testing.assert_array_equal(ens.steps, np.arange(11))
        np.testing.assert_array_equal(ens.times, np.arange(11) * 1e-2)

    def test_state_not_kept_is_refused(self, brownian2):
        ens = simulate_ensemble(brownian2, [0.0, 0.0], _cfg(n_paths=4), t_keep=(0.5, 1.0))
        with pytest.raises(SimulationError, match=r"t=0.25 was not kept; kept times "
                                                  r"are \[0.5, 1.0\]"):
            ens.state_at(0.25)
        with pytest.raises(SimulationError, match="outside the simulated horizon"):
            ens.state_at(1.5)

    @pytest.mark.parametrize("t_keep, match", [
        ((), "t_keep is empty"),
        ([0.5, 0.125], "off the step grid"),
        ((1.01,), "outside the simulated horizon"),
        ((0.5, 0.0, 0.5), "names a step more than once"),
        # two different floats, one step
        ((0.1, 0.1 + 1e-17), "names a step more than once"),
        ((float("nan"),), "finite"),
        ((-0.5,), "positive"),
        (0.5, "sequence of times"),
    ])
    def test_bad_t_keep_rejected(self, brownian2, t_keep, match):
        with pytest.raises(SimulationError, match=match):
            simulate_ensemble(brownian2, [0.0, 0.0], _cfg(n_paths=4), t_keep=t_keep)

    def test_terminal_snapshot_peak_memory(self):
        # 16384 x 200 states would take 52.7 MB; keeping the terminal states
        # leaves one block's noise (4096 x 200 x 2 normals, 24.9% of that) and
        # the tallies at the traced peak
        c = builtin_family("radial_degenerate", 2, alpha=0.25, gamma=1.0)
        cfg = _cfg(n_paths=16_384, dt=5e-3)
        full_path_bytes = cfg.n_paths * (cfg.n_steps + 1) * 2 * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ens = simulate_ensemble(c, [0.3, 0.0], cfg, t_keep=(cfg.t_final,))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert ens.states.shape == (cfg.n_paths, 1, 2)
        assert peak < full_path_bytes / 3


class TestChunkedNoise:
    """A block whose noise arrives in several step chunks gives the ensemble
    of one chunk, bit for bit."""

    def _chunked(self, monkeypatch, per_chunk, n_paths):
        # chunks of per_chunk steps for a block of n_paths paths with two
        # noise coordinates; returns the list that records each chunk drawn
        monkeypatch.setattr(sdelab.simulate, "_NOISE_BUDGET", n_paths * 2 * per_chunk)
        drawn = []

        def record(seed, idx, n_steps, m, first_step=0):
            drawn.append((first_step, n_steps))
            return block_normals(seed, idx, n_steps, m, first_step)

        monkeypatch.setattr(sdelab.simulate, "block_normals", record)
        return drawn

    @pytest.mark.parametrize("t_keep", [None, (1.0, 0.0, 0.37)])
    @pytest.mark.parametrize("per_chunk", [1, 7])
    def test_chunked_equals_one_chunk(self, monkeypatch, per_chunk, t_keep):
        # 100 steps end on a short chunk of 7; under the cubic outward drift
        # some paths exit the 1e150 ball and some explode
        c = builtin_family("radial_degenerate", 2, alpha=0.25, drift="cubic_outward")
        cfg = _cfg(n_paths=1100, r_exit=1e150, near_degeneracy_eps=1.5)
        run = dict(occupation_eps=_PROFILE_EPS, t_keep=t_keep)
        with np.errstate(over="ignore", invalid="ignore"):
            one = simulate_ensemble(c, [1.0, 0.0], cfg, **run)
            drawn = self._chunked(monkeypatch, per_chunk, cfg.n_paths)
            chunked = simulate_ensemble(c, [1.0, 0.0], cfg, **run)
        assert np.any(one.exit_step >= 0) and np.any(one.exploded)
        starts = list(range(0, cfg.n_steps, per_chunk))
        assert drawn == [(s, min(per_chunk, cfg.n_steps - s)) for s in starts]
        for name in ("states", "steps", "exit_step", "exploded_step", "occupation"):
            np.testing.assert_array_equal(getattr(chunked, name), getattr(one, name))

    def test_chunked_contraction_equals_one_chunk(self, monkeypatch):
        # the general contraction of a rotated factor, over two blocks
        c, cfg = _rotated_factor(), _cfg(n_paths=_BLOCK + 7, t_final=0.2)
        one = simulate_ensemble(c, [0.4, -0.2], cfg)
        drawn = self._chunked(monkeypatch, 3, _BLOCK)
        chunked = simulate_ensemble(c, [0.4, -0.2], cfg)
        assert len(drawn) == 7 + 1  # the 7-path block fits in one chunk
        for name in ("states", "exit_step", "exploded_step", "occupation"):
            np.testing.assert_array_equal(getattr(chunked, name), getattr(one, name))

    def test_unallocatable_block_noise_is_a_simulation_error(self, brownian2, monkeypatch):
        # 4096 paths x 2^41 steps x 2 normals in one chunk: 128 PiB, more than
        # a 57-bit address space holds, so the allocation fails without
        # touching memory
        monkeypatch.setattr(sdelab.simulate, "_NOISE_BUDGET", 2**62)
        cfg = SimConfig(dt=2.0**-41, t_final=1.0, n_paths=_BLOCK, master_seed=0)
        with pytest.raises(SimulationError, match=r"^block noise of shape 4096 x 2\.199e12 x 2 "
                                                  r"need .* GiB, more than can be allocated$"):
            simulate_ensemble(brownian2, [0.0, 0.0], cfg, t_keep=(1.0,))

    def test_unallocatable_whole_paths_are_a_simulation_error(self, brownian2):
        # every state of 2^55 steps: 512 PiB for one path, refused before
        # its step indices (256 PiB) are asked for; neither fits in a 57-bit
        # address space, so nothing touches memory
        cfg = SimConfig(dt=2.0**-55, t_final=1.0, n_paths=1, master_seed=0)
        with pytest.raises(SimulationError, match=r"^states of shape 1 x 3\.602e16 x 2 "
                                                  r"need .* GiB, more than can be allocated$"):
            simulate_ensemble(brownian2, [0.0, 0.0], cfg)

    def test_unallocatable_weak_study_noise_is_a_simulation_error(self, brownian2,
                                                                 monkeypatch):
        # the weak-order study draws the ensembles' chunks: one chunk of 4096
        # paths x 2^41 fine steps x 2 normals here, 128 PiB, which fails
        # without touching memory
        monkeypatch.setattr(sdelab.simulate, "_NOISE_BUDGET", 2**62)
        with pytest.raises(SimulationError, match=r"^block noise of shape 4096 x 2\.199e12 x 2 "
                                                  r"need .* GiB, more than can be allocated$"):
            weak_error_study(brownian2, [0.0, 0.0], lambda x: x[:, 0], 1.0,
                             [2.0**-40, 2.0**-41], _BLOCK, master_seed=0)


class TestLevels:
    """The coupled-levels engine: its finest level is the ensemble, and a
    coarser level is the chain on sums of fine normals over ``sqrt(r)``."""

    @pytest.mark.parametrize("t_keep", [None, (1.0, 0.0, 0.36)])
    def test_finest_level_is_the_ensemble(self, monkeypatch, t_keep):
        # two blocks, chunks of 8 fine steps for the full block; under the
        # cubic outward drift some paths exit the 1e150 ball and some explode
        c = builtin_family("radial_degenerate", 2, alpha=0.25, drift="cubic_outward")
        fine = _cfg(n_paths=_BLOCK + 37, r_exit=1e150, near_degeneracy_eps=1.5)
        levels = [dataclasses.replace(fine, dt=0.04), dataclasses.replace(fine, dt=0.02), fine]
        run = dict(occupation_eps=_PROFILE_EPS, t_keep=t_keep)
        with np.errstate(over="ignore", invalid="ignore"):
            want = simulate_ensemble(c, [1.0, 0.0], fine, **run)
            monkeypatch.setattr(sdelab.simulate, "_NOISE_BUDGET", _BLOCK * 2 * 8)
            got = sdelab.simulate._simulate_levels(c, np.array([1.0, 0.0]), levels, [4, 2, 1],
                                                   **run)[-1]
        assert np.any(want.exit_step >= 0) and np.any(want.exploded)
        assert got.config == fine and got.occupation_eps == want.occupation_eps
        for name in ("states", "steps", "exit_step", "exploded_step", "occupation"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_coarse_level_is_a_plain_loop_on_aggregated_normals(self, monkeypatch):
        # ratio 3 over 60 fine steps in chunks of 9, with exits from the unit
        # ball; each path is stepped alone on its own summed path_normals
        c = builtin_family("radial_degenerate", 2, alpha=0.25, gamma=1.0, drift=[0.3, 0.0])
        fine = _cfg(n_paths=12, t_final=0.6, master_seed=5, r_exit=1.0)
        coarse = dataclasses.replace(fine, dt=0.03)
        monkeypatch.setattr(sdelab.simulate, "_NOISE_BUDGET", 12 * 2 * 9)
        got = sdelab.simulate._simulate_levels(c, np.array([0.4, -0.2]), [coarse, fine],
                                               [3, 1])[0]
        assert 0 < np.sum(got.exit_step >= 0) < fine.n_paths
        for p in range(fine.n_paths):
            xi = path_normals(5, p, 60, 2).reshape(20, 3, 2).sum(axis=1) / math.sqrt(3)
            x, exit_step, states = np.array([[0.4, -0.2]]), -1, [[0.4, -0.2]]
            for k in range(20):
                if exit_step < 0:
                    kick = np.sqrt(c.inv_weight(x))[:, None] * xi[k] * math.sqrt(coarse.dt)
                    x = x + kick + c.G(x) * coarse.dt
                    if math.sqrt(np.sum(x * x)) >= 1.0:
                        exit_step = k + 1
                states.append(x[0])
            np.testing.assert_array_equal(got.states[p], states)
            assert got.exit_step[p] == exit_step

    def test_weak_study_holds_one_aggregate_at_a_time(self, ou2):
        # 1024 paths x 1024 fine steps in two 8 MiB chunks; ratios 4, 2, 1
        # aggregate a chunk into 2 and 4 MiB.  Holding the chunk and both
        # aggregates takes 14 MiB; the chunk, one aggregate and the levels'
        # states and tallies stay below that
        study = (ou2, [2.0, 0.0], lambda x: x[:, 0], 1.024, [4e-3, 2e-3, 1e-3], 1024)
        weak_error_study(*study[:3], 0.02, study[4], 10, master_seed=1)  # lazy imports
        chunk = sdelab.simulate._NOISE_BUDGET * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            weak_error_study(*study, master_seed=3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < chunk + chunk / 2 + chunk / 4


class TestWeakOrder:
    def test_ou_first_order_bias_ratio(self, ou2):
        # analytic chain mean: x0 (1 - dt)^{T/dt}; bias differences halve
        res = weak_error_study(
            ou2, [2.0, 0.0], lambda x: x[:, 0], 1.0,
            [4e-3, 2e-3, 1e-3], 10_000, master_seed=3,
        )
        est = dict(zip(res["dt"], res["estimates"]))
        for dtv in (4e-3, 2e-3, 1e-3):
            n = round(1.0 / dtv)
            chain_mean = 2.0 * (1.0 - dtv) ** n
            assert abs(est[dtv] - chain_mean) < 5e-3
        d1, d2 = res["successive_diffs"]
        assert 0.8 * 2.0 < d1 / d2 < 1.2 * 2.0

    def test_brownian_estimates_coincide_to_rounding(self, brownian2):
        # the chain is exact in law at every dt; with common increments the
        # terminal states agree up to float reassociation
        res = weak_error_study(
            brownian2, [0.0, 0.0], lambda x: np.tanh(x[:, 0] + x[:, 1]), 1.0,
            [4e-3, 2e-3, 1e-3], 2000, master_seed=5,
        )
        est = res["estimates"]
        assert max(est) - min(est) < 1e-12

    def test_ratio_validation(self, brownian2):
        with pytest.raises(SimulationError, match="integer multiple"):
            weak_error_study(
                brownian2, [0.0, 0.0], lambda x: x[:, 0], 1.0,
                [3e-3, 1e-3, 7e-4], 100, master_seed=0,
            )

    def test_horizon_must_be_whole_at_every_level(self, brownian2):
        # 0.3 is three fine steps, but 1.0 is not a whole number of 0.3 steps
        with pytest.raises(SimulationError, match="t_final=1.0 is off the step grid"):
            weak_error_study(
                brownian2, [0.0, 0.0], lambda x: x[:, 0], 1.0, [0.3, 0.1], 10, master_seed=0
            )

    def test_exploding_paths_raise(self):
        c = builtin_family("brownian", 2, drift="cubic_outward")
        with pytest.raises(SimulationError, match=r"exploded .* at dt=0\.1"):
            weak_error_study(
                c, [3.0, 0.0], lambda x: x[:, 0], 1.0, [0.1, 0.05], 100, master_seed=0
            )

    @pytest.mark.parametrize(
        "field, value", [("n_paths", 0), ("n_paths", 2.5), ("x0", [math.nan, 0.0])]
    )
    def test_inputs_checked_like_sim_config(self, brownian2, field, value):
        args = dict(x0=[0.0, 0.0], n_paths=10)
        args[field] = value
        with pytest.raises(SimulationError, match=field):
            weak_error_study(
                brownian2, args["x0"], lambda x: x[:, 0], 1.0, [0.1, 0.05],
                args["n_paths"], master_seed=0,
            )

    # each payoff used to give an estimate: 0.4297 (both coordinates
    # summed), 0.01 (a constant summed once per block) and nan
    @pytest.mark.parametrize("payoff, message", [
        (lambda x: x, r"payoff returned shape \(100, 2\) at the terminal states of dt=0\.01, "
                      r"expected \(100,\)"),
        (lambda x: 1.0, r"payoff returned shape \(\) .* expected \(100,\)"),
        (lambda x: np.full(len(x), np.nan), "payoff is non-finite at the terminal states"),
    ], ids=["per-coordinate", "constant", "nan"])
    def test_payoff_gives_one_finite_value_per_path(self, ou2, payoff, message):
        with pytest.raises(SimulationError, match=message):
            weak_error_study(ou2, [1.0, 0.0], payoff, 1.0, [0.01], 100, master_seed=0)

    def test_finest_level_steps_the_ensemble_chain(self, radial2):
        # the payoff sees every level of every block, the finest last
        seen = []
        dts, n, seed = [0.04, 0.02, 0.01], 5000, 13
        weak_error_study(
            radial2, [0.5, -0.5], lambda x: seen.append(x.copy()) or x[:, 0], 0.2,
            dts, n, master_seed=seed,
        )
        fine = np.concatenate(seen[len(dts) - 1 :: len(dts)])
        ens = simulate_ensemble(radial2, [0.5, -0.5], SimConfig(0.01, 0.2, n, seed))
        np.testing.assert_array_equal(fine, ens.states[:, -1])

    @pytest.mark.parametrize("budget", [1, 7 * 2 * 24])
    def test_chunked_study_equals_one_chunk(self, ou2, monkeypatch, budget):
        # ratios 6, 4, 2, 1 (span 12) over 48 fine steps and two blocks: at
        # budget 1 every chunk is 12 steps; at the other, the 7-path block's
        # chunks are 24 steps and the full block's 12
        args = (ou2, [1.0, 0.5], lambda x: x[:, 0] * x[:, 1], 0.48,
                [0.06, 0.04, 0.02, 0.01], _BLOCK + 7)
        one = weak_error_study(*args, master_seed=17)
        monkeypatch.setattr(sdelab.simulate, "_NOISE_BUDGET", budget)
        drawn = []

        def record(seed, idx, n_steps, m, first_step=0):
            drawn.append((len(idx), first_step, n_steps))
            return block_normals(seed, idx, n_steps, m, first_step)

        monkeypatch.setattr(sdelab.simulate, "block_normals", record)
        chunked = weak_error_study(*args, master_seed=17)
        assert chunked == one
        per = {_BLOCK: 12, 7: 12 if budget == 1 else 24}
        assert drawn == [(b, s, per[b]) for b in (_BLOCK, 7) for s in range(0, 48, per[b])]

    def test_study_peak_memory_is_a_few_chunks(self, ou2, monkeypatch):
        # one block of 4096 paths x 400 fine steps x 2 normals: 26.2 MB drawn
        # whole, 2 MiB chunks of 32 steps here; the traced peak stays under
        # four chunks plus 1 MiB for the three levels' states and step
        # temporaries (each level's state and update take 64 KiB)
        monkeypatch.setattr(sdelab.simulate, "_NOISE_BUDGET", 2**18)
        study = (ou2, [2.0, 0.0], lambda x: x[:, 0], 0.4, [4e-3, 2e-3, 1e-3], _BLOCK)
        weak_error_study(*study[:3], 0.02, study[4], 10, master_seed=1)  # lazy imports
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            weak_error_study(*study, master_seed=3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**21 + 2**20
