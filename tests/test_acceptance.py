"""Acceptance gate: every release criterion at its stated tolerance.

Each test covers one criterion end to end and prints a single verdict line
(visible with ``pytest -s``); under ``pytest -v`` the per-test PASSED/FAILED
lines give the same one-line-per-criterion view.  Tolerances and seeds are
frozen; none may be loosened to make a failing build pass.
"""

import json
import math
import time

import numpy as np
import pytest

from sdelab import (
    BoxGrid,
    LawVariant,
    SimConfig,
    SmoothBump,
    builtin_family,
    exit_time_stats,
    feynman_kac_crosscheck,
    krylov_audit,
    min_M_on_grid,
    occupation_profile,
    simulate_ensemble,
    solve_density,
    uniqueness_probe,
    verify_divergence_free,
    verify_preinvariance,
    weak_error_study,
)
from sdelab.cli import main
from sdelab.semigroup import evolve, semigroup_contraction_check

BOX2 = ((-2.0, 2.0), (-2.0, 2.0))
BOX3 = ((-3.0, 3.0), (-3.0, 3.0))
BOX4 = ((-4.0, 4.0), (-4.0, 4.0))


def _verdict(name, failures, note=""):
    ok = not failures
    tail = f"  ({note})" if note else ""
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}{tail}")
    assert ok, f"{name}: " + "; ".join(failures)


class _Need:
    def __init__(self):
        self.failures = []

    def __call__(self, cond, msg):
        if not cond:
            self.failures.append(msg)


def test_01_stationary_density_matches_gaussian_oracle():
    need = _Need()
    t0 = time.monotonic()
    c = builtin_family("ornstein_uhlenbeck", 2)
    dens = solve_density(c, BOX4, 129)
    pts = dens.grid.points()
    exact = np.exp(-np.sum(pts * pts, axis=-1))
    inner = np.all(np.abs(pts) <= 2.0, axis=-1)
    rel = np.max(np.abs(dens.rho.values - exact)[inner] / exact[inner])
    pre = verify_preinvariance(dens)
    residuals = [cl.value for cl in pre.clauses if cl.name.startswith("stationarity")]
    elapsed = time.monotonic() - t0
    need(rel <= 0.01, f"max relative density error {rel:.3e} > 1%")
    need(pre.passed, "stationarity audit failed")
    need(residuals and max(residuals) <= 1e-4,
         f"stationarity residuals {residuals} above 1e-4")
    need(elapsed < 10.0, f"runtime {elapsed:.1f}s over 10s target")
    _verdict("criterion 1: stationary density oracle", need.failures,
             f"rel err {rel:.2e}, worst residual {max(residuals):.2e}, {elapsed:.1f}s")


def test_02_constant_coefficient_family_is_exact():
    need = _Need()
    c = builtin_family("brownian", 2)
    dens = solve_density(c, BOX4, 65)
    residual = verify_divergence_free(dens).meta["residual_norm"]
    need(residual <= 1e-10, f"solver residual {residual:.2e} > 1e-10")
    flat = np.max(np.abs(dens.rho.values - 1.0))
    need(flat <= 1e-10, f"density deviates from 1 by {flat:.2e}")
    # the drift split is beta = grad(rho) / 2 and B = -beta here
    need(np.max(np.abs(dens.rho.gradient())) <= 1e-10, "density gradient not 0")
    ens = simulate_ensemble(
        c, (0.0, 0.0), SimConfig(dt=1e-2, t_final=1.0, n_paths=2000, master_seed=51)
    )
    need(ens.occupation_exact.max() == 0.0, "paths tallied exact-zero weight")
    m = min_M_on_grid(c, BOX4, 65)
    need(abs(m - 1.0) <= 1e-6, f"growth constant {m} not 1 +- 1e-6")
    _verdict("criterion 2: trivial exactness suite", need.failures,
             f"residual {residual:.1e}")


def test_03_terminal_value_triple_agreement():
    need = _Need()
    t0 = time.monotonic()

    br = builtin_family("brownian", 2)
    s2 = 0.25

    def gauss(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-np.sum(x * x, axis=-1) / (2.0 * s2))

    cfg = SimConfig(dt=1e-3, t_final=0.25, n_paths=100_000, master_seed=72)
    rep = feynman_kac_crosscheck(br, BoxGrid(BOX4, 129), gauss, (0.0, 0.0), 0.25, cfg, 1e-3)
    m = rep.meta
    closed = (s2 / (s2 + 0.25)) * math.exp(0.0)
    budget = m["budget"]
    need(rep.passed, "constant-coefficient cross-check failed")
    need(abs(m["mc_estimate"] - m["pde_value"]) <= budget,
         "MC vs PDE outside budget")
    need(abs(m["mc_estimate"] - closed) <= budget,
         f"MC vs closed form gap {abs(m['mc_estimate'] - closed):.2e} > {budget:.2e}")
    need(abs(m["pde_value"] - closed) <= budget,
         f"PDE vs closed form gap {abs(m['pde_value'] - closed):.2e} > {budget:.2e}")

    rad = builtin_family("radial_degenerate", 2, alpha=0.25)
    bump = SmoothBump((0.7, 0.7), 0.08)
    cfg_r = SimConfig(dt=1e-3, t_final=0.25, n_paths=100_000, master_seed=74)
    rep_r = feynman_kac_crosscheck(
        rad, BoxGrid(BOX3, 129), lambda x: bump(np.asarray(x, dtype=float)),
        (0.5, 0.5), 0.25, cfg_r, 1e-3,
    )
    need(rep_r.passed, "degenerate radial cross-check failed")
    elapsed = time.monotonic() - t0
    need(elapsed < 300.0, f"runtime {elapsed:.0f}s over 5min target")
    _verdict("criterion 3: terminal-value triple agreement", need.failures,
             f"closed-form gaps {abs(m['mc_estimate'] - closed):.1e}/"
             f"{abs(m['pde_value'] - closed):.1e} vs budget {budget:.1e}, "
             f"{elapsed:.0f}s")


def test_04_equal_law_across_null_set_representatives():
    need = _Need()
    t0 = time.monotonic()
    rad = lambda g: builtin_family("radial_degenerate", 2, alpha=0.25, gamma=g)
    cfg = SimConfig(dt=1e-3, t_final=1.0, n_paths=10_000, master_seed=2026)
    rep = uniqueness_probe(
        rad(1.0),
        [
            LawVariant("gamma=0.5", c=rad(0.5)),
            LawVariant("gamma=1", c=rad(1.0)),
            LawVariant("gamma=2", c=rad(2.0)),
        ],
        (0.0, 0.0),
        [0.5, 1.0],
        cfg,
        level=0.01,
    )
    need(rep.passed, "probe rejected a null-set variant pair")
    stats = [comp["statistic"] for comp in rep.meta["comparisons"]]
    need(all(s <= 1.0 for s in stats), f"rejections present: stats {stats}")
    need(rep.clause("occupation_route").value == 0.0,
         "production paths occupied the degeneracy set")

    drifted = builtin_family(
        "radial_degenerate", 2, alpha=0.25, gamma=1.0, drift=(0.5, 0.0)
    )
    cfg_n = SimConfig(dt=1e-3, t_final=0.5, n_paths=4000, master_seed=2027)
    rep_n = uniqueness_probe(
        rad(1.0),
        [LawVariant("plain"), LawVariant("drifted", c=drifted)],
        (0.0, 0.0),
        [0.5],
        cfg_n,
        level=0.01,
    )
    need(not rep_n.passed, "added-drift negative control was not rejected")
    need(not rep_n.clause("no_rejection[plain|drifted]@t=0.5").passed,
         "negative control rejected on the wrong clause")
    elapsed = time.monotonic() - t0
    need(elapsed < 180.0, f"runtime {elapsed:.0f}s over 3min target")
    _verdict("criterion 4: equal law across representatives", need.failures,
             f"worst stat {max(stats):.2f}, control stat "
             f"{rep_n.meta['comparisons'][0]['statistic']:.2f}, {elapsed:.0f}s")


def test_05_degeneracy_set_occupation_profile():
    need = _Need()
    rad = builtin_family("radial_degenerate", 2, alpha=0.25, gamma=1.0)
    ens = simulate_ensemble(
        rad, (0.0, 0.0), SimConfig(dt=1e-3, t_final=1.0, n_paths=4000, master_seed=50),
        occupation_eps=(0.2, 0.1, 0.05, 0.025),
    )
    need(ens.occupation_exact.max() == 0.0, "exact-zero occupation positive")
    rows = occupation_profile(ens, (0.2, 0.1, 0.05, 0.025, 0.0))
    means = [r["mean"] for r in rows]
    need(all(a >= b for a, b in zip(means, means[1:])),
         f"near-occupation not monotone: {means}")
    need(means[-1] == 0.0, "exact-zero limit not 0")
    need(means[0] > 0.0, "profile head is empty; probe sees nothing")
    br = builtin_family("brownian", 2)
    ens_b = simulate_ensemble(
        br, (0.0, 0.0), SimConfig(dt=1e-2, t_final=1.0, n_paths=2000, master_seed=51)
    )
    need(ens_b.occupation_exact.max() == 0.0,
         "non-degenerate family tallied zero weight")
    _verdict("criterion 5: degeneracy-set occupation", need.failures,
             "means " + "/".join(f"{v:.1e}" for v in means))


def test_06_occupation_functional_bound():
    need = _Need()

    def one(x, t):
        return np.ones(x.shape[:-1])

    def near_origin(x, t):
        return (np.linalg.norm(x, axis=-1) < 0.1).astype(float)

    _bump = SmoothBump((0.0, 0.0), 0.15)

    def bump(x, t):
        return _bump(x)

    rad = builtin_family("radial_degenerate", 2, alpha=0.25, gamma=1.0)
    by_dt = {}
    for dt in (2e-3, 1e-3):
        cfg = SimConfig(dt=dt, t_final=1.0, n_paths=10_000, master_seed=45)
        by_dt[dt] = krylov_audit(
            rad, (0.0, 0.0), 1.5, 1.0, [one, near_origin, bump], cfg
        )
    for dt, rep in by_dt.items():
        for a in rep.meta["audits"]:
            label = a["label"]
            need(np.isfinite(a["ratio"]), f"{label} ratio not finite at dt={dt}")
            gap = rep.clause(f"homogeneity[{label}]").value
            need(gap <= 1e-12,
                 f"{label} scaling invariance gap {gap:.2e} > 1e-12 at dt={dt}")
    worst = 1.0
    for a2, a1 in zip(by_dt[2e-3].meta["audits"], by_dt[1e-3].meta["audits"]):
        q = a2["ratio"] / a1["ratio"]
        worst = max(worst, q, 1.0 / q)
        need(0.5 <= q <= 2.0,
             f"{a2['label']} ratio moved {q:.3f}x across dt halving")
    _verdict("criterion 6: occupation-functional bound", need.failures,
             f"worst dt-stability factor {worst:.3f}")


def test_07_exit_fractions_match_growth_condition():
    need = _Need()
    br = builtin_family("brownian", 2)
    ens_b = simulate_ensemble(
        br, (0.0, 0.0),
        SimConfig(dt=1e-2, t_final=1.0, n_paths=2000, master_seed=51, r_exit=10.0),
    )
    frac_b = exit_time_stats(ens_b)["exit_fraction"]
    need(frac_b <= 1e-3, f"dissipative family exit fraction {frac_b} > 1e-3")

    cub = builtin_family("brownian", 2, drift="cubic_outward")
    ens_c = simulate_ensemble(
        cub, (1.0, 0.0),
        SimConfig(dt=1e-3, t_final=1.0, n_paths=1000, master_seed=52, r_exit=10.0),
    )
    frac_c = exit_time_stats(ens_c)["exit_fraction"]
    need(frac_c >= 0.5, f"explosive family exit fraction {frac_c} < 0.5")
    # the grid's center node is (10, 0), where the quotient is about 17.6
    m = min_M_on_grid(cub, ((9.5, 10.5), (-0.5, 0.5)), 3)
    need(m > 1.0, "explosive family passes the growth bound with M = 1 near |x|=10")
    _verdict("criterion 7: exit fractions vs growth condition", need.failures,
             f"fractions {frac_b:.1e} / {frac_c:.2f}, min_M {m:.3g}")


def test_08_discrete_scheme_properties():
    need = _Need()
    families = {
        "brownian": (builtin_family("brownian", 2), BOX2),
        "ornstein_uhlenbeck": (builtin_family("ornstein_uhlenbeck", 2), BOX4),
        "radial_degenerate": (
            builtin_family("radial_degenerate", 2, alpha=0.25), BOX2),
        "piecewise_weight": (
            builtin_family(
                "piecewise_weight", 2,
                cells=[
                    {"bounds": [[-1.0, 0.0], [-1.0, 0.0]], "value": 0.5},
                    {"bounds": [[0.0, 1.0], [0.0, 1.0]], "value": 2.0},
                ],
                background=1.0,
            ),
            BOX2,
        ),
        "hyperplane_jump": (
            builtin_family(
                "hyperplane_jump", 2,
                weight_left=0.5, weight_right=2.0,
                drift_left=[0.3, 0.0], drift_right=[-0.2, 0.1],
            ),
            BOX2,
        ),
    }
    bump = SmoothBump((0.0, 0.0), 0.12)
    for name, (c, bounds) in families.items():
        dens = solve_density(c, bounds, 49)
        u = evolve(dens, bump(dens.grid.points()), 0.05, 5e-3)
        need(np.min(u.values) >= -1e-12, f"{name}: slice dips below 0")
        need(np.max(u.values) <= 1.0 + 1e-12, f"{name}: slice exceeds 1")
        rep = semigroup_contraction_check(u, dens)
        need(rep.passed, f"{name}: contraction audit failed")

    ou = builtin_family("ornstein_uhlenbeck", 2)
    res = weak_error_study(
        ou, [2.0, 0.0], lambda x: x[:, 0], 1.0,
        [4e-3, 2e-3, 1e-3], 10_000, master_seed=53,
    )
    d1, d2 = res["successive_diffs"]
    ratio = d1 / d2
    need(0.8 * 2.0 <= ratio <= 1.2 * 2.0,
         f"error ratio {ratio:.3f} not 2 within 20% under dt halving")

    br = builtin_family("brownian", 2)
    res_b = weak_error_study(
        br, [0.0, 0.0], lambda x: np.tanh(x[:, 0] + x[:, 1]), 1.0,
        [4e-3, 2e-3, 1e-3], 20_000, master_seed=54,
    )
    est = res_b["estimates"]
    spread = max(est) - min(est)
    need(spread <= 1e-12,
         f"constant-coefficient chain estimates differ by {spread:.2e} across dt")
    need(abs(est[-1]) <= 4.0 * res_b["stderr"][-1],
         "symmetric payoff mean outside Monte Carlo noise")
    _verdict("criterion 8: discrete scheme properties", need.failures,
             f"order ratio {ratio:.3f}, dt-spread {spread:.1e}")


def test_09_reports_identical_across_worker_counts(tmp_path):
    need = _Need()
    cfg = {
        "format_version": 1,
        "family": {"name": "brownian"},
        "box": {"bounds": [[-3.0, 3.0], [-3.0, 3.0]], "n": 65},
        "sim": {
            "dt": 0.01, "t_final": 0.5, "n_paths": 400, "master_seed": 7,
            "x0": [0.0, 0.0],
        },
        "diagnostics": [
            {
                "kind": "semigroup",
                "payload": {"type": "gaussian", "center": [0.0, 0.0],
                            "variance": 0.25},
                "t_final": 0.2,
                "dt": 0.01,
            },
            {
                "kind": "uniqueness",
                "variants": [{"label": "half_step", "dt": 0.005},
                             {"label": "base"}],
                "x0": [0.0, 0.0],
                "t_checks": [0.5],
                "level": 0.05,
            },
        ],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    subcommands = ("check", "density", "semigroup", "simulate", "diagnose", "report")
    outputs = {}
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        for sub in subcommands:
            rc = main([sub, "--config", str(path), "--out", str(out),
                       "--workers", str(workers)])
            need(rc == 0, f"{sub} exited {rc} at workers={workers}")
        outputs[workers] = {
            f.name: f.read_bytes()
            for f in sorted(out.iterdir())
            if f.suffix in (".json", ".csv") and not f.name.endswith(".sidecar.json")
        }
    names1, names8 = set(outputs[1]), set(outputs[8])
    need(names1 == names8, f"artifact sets differ: {names1 ^ names8}")
    differing = [n for n in sorted(names1 & names8)
                 if outputs[1][n] != outputs[8][n]]
    need(not differing, f"artifacts differ between worker counts: {differing}")
    _verdict("criterion 9: deterministic reports across worker counts",
             need.failures, f"{len(names1)} artifacts byte-identical")
