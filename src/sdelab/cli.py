"""Batch front door: run configured experiments and emit JSON/CSV artifacts.

Subcommands: ``check`` (coefficient and exponent audits), ``density``
(stationary solve plus its weak-form audits), ``semigroup`` (parabolic evolve
with contraction audit), ``simulate`` (path ensemble summary), ``diagnose``
(law-level diagnostics from the config's list) and ``report`` (merge
previously written reports without recomputation).

Exit codes: 0 when every requested audit passes, 1 on audit failure, 2 on
usage or config errors.  All report files are canonical JSON carrying the
config digest and master seed; wall-clock data goes to ``*.sidecar.json``
companions so report bytes are reproducible.  Files are written atomically
(temp file then rename).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import replace
from datetime import datetime, timezone
from typing import Callable

import numpy as np

from .coefficients import builtin_family
from .conditions import a4prime_check, min_M_on_grid, occupation_condition_route
from .config import ConfigError, ExperimentConfig, apply_set_overrides
from .density import solve_density, verify_divergence_free, verify_preinvariance
from .diagnostics import (
    LawVariant,
    feynman_kac_crosscheck,
    krylov_audit,
    uniqueness_probe,
)
from .grids import SmoothBump
from .reporting import DiagnosticReport, canonical_json
from .semigroup import evolve, semigroup_contraction_check
from .simulate import exit_time_stats, occupation_profile, simulate_ensemble

_OCCUPATION_EPS = (0.2, 0.1, 0.05, 0.025, 0.0)


class UsageError(ValueError):
    """Raised for invalid invocations that are not config-file problems."""


# -- payload registry ---------------------------------------------------------

def build_payload(spec: dict, dim: int) -> Callable:
    """Spatial payload ``f(x)`` from a validated payload spec."""
    kind = spec["type"]
    if kind == "one":
        return lambda x: np.ones(np.asarray(x, dtype=float).shape[:-1])
    if kind == "ball_indicator":
        r = float(spec["radius"])
        center = np.asarray(spec.get("center", [0.0] * dim), dtype=float)

        def indicator(x):
            x = np.asarray(x, dtype=float)
            return (np.linalg.norm(x - center, axis=-1) < r).astype(float)

        return indicator
    if kind == "bump":
        bump = SmoothBump(tuple(spec["center"]), float(spec["radius"]))
        return lambda x: bump(np.asarray(x, dtype=float))
    if kind == "gaussian":
        center = np.asarray(spec["center"], dtype=float)
        var = float(spec["variance"])

        def gaussian(x):
            x = np.asarray(x, dtype=float)
            return np.exp(-np.sum((x - center) ** 2, axis=-1) / (2.0 * var))

        return gaussian
    if kind == "clipped_coordinate":
        axis = int(spec["axis"])
        bound = float(spec["bound"])

        def clipped(x):
            return np.clip(np.asarray(x, dtype=float)[..., axis], -bound, bound)

        return clipped
    raise UsageError(f"unknown payload type {kind!r}")


def build_spacetime_payload(spec: dict, dim: int, label: str | None = None) -> Callable:
    f = build_payload(spec, dim)

    def payload(x, t):
        return f(x)

    payload.__name__ = label or spec["type"]
    return payload


# -- deterministic artifact writing -------------------------------------------

def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Emitter:
    """Writes reports, sidecars and CSV tables into the output directory."""

    def __init__(self, out_dir: str | None):
        self.out_dir = out_dir
        self.written = []
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
        self._t0 = time.monotonic()

    def report(self, name: str, payload: dict) -> None:
        if self.out_dir is None:
            return
        path = os.path.join(self.out_dir, f"{name}.json")
        _write_atomic(path, canonical_json(payload) + "\n")
        sidecar = {
            "written_at": datetime.now(timezone.utc).isoformat(),
            "elapsed_seconds": time.monotonic() - self._t0,
            "for": f"{name}.json",
        }
        _write_atomic(
            os.path.join(self.out_dir, f"{name}.sidecar.json"),
            json.dumps(sidecar, sort_keys=True) + "\n",
        )
        self.written.append(path)

    def table(self, name: str, header: list, columns: list) -> None:
        if self.out_dir is None:
            return
        arr = np.column_stack(columns)
        lines = [",".join(header)]
        for row in arr:
            lines.append(",".join(f"{v:.17g}" for v in row))
        path = os.path.join(self.out_dir, f"{name}.csv")
        _write_atomic(path, "\n".join(lines) + "\n")
        self.written.append(path)


def _finalize(report: DiagnosticReport, cfg: ExperimentConfig) -> dict:
    report.meta["config_digest"] = cfg.digest
    report.meta["master_seed"] = cfg.sim.master_seed
    return report.to_dict()


# -- subcommand runners -------------------------------------------------------

def _run_check(cfg: ExperimentConfig, emit: _Emitter, workers: int) -> int:
    c = cfg.build_family()
    grid = cfg.build_grid()
    report = a4prime_check(c)
    resolution = min(max(grid.n), 65)
    report.meta["min_M"] = min_M_on_grid(c, grid.bounds, resolution)
    report.meta["min_M_resolution"] = resolution
    report.meta["occupation_route"] = occupation_condition_route(c)
    payload = _finalize(report, cfg)
    emit.report("check", payload)
    print(report.summary())
    print(f"min_M = {report.meta['min_M']:.12g}  "
          f"route = {report.meta['occupation_route']}")
    return 0 if report.passed else 1


def _run_density(cfg: ExperimentConfig, emit: _Emitter, workers: int) -> int:
    c = cfg.build_family()
    grid = cfg.build_grid()
    dens = solve_density(c, grid.bounds, grid.n)
    pre = verify_preinvariance(c, dens)
    div = verify_divergence_free(c, dens)
    for name, rep in (("density_preinvariance", pre), ("density_divergence", div)):
        rep.meta["residual_norm"] = dens.residual_norm
        emit.report(name, _finalize(rep, cfg))
        print(rep.summary())
    pts = grid.flat_points()
    emit.table(
        "density",
        [f"x{k}" for k in range(grid.dim)] + ["rho"],
        [pts[:, k] for k in range(grid.dim)] + [dens.rho.values.ravel()],
    )
    return 0 if (pre.passed and div.passed) else 1


def _run_semigroup(cfg: ExperimentConfig, emit: _Emitter, workers: int) -> int:
    entries = [e for e in cfg.diagnostics if e["kind"] == "semigroup"]
    if not entries:
        raise UsageError("config lists no diagnostics of kind 'semigroup'")
    c = cfg.build_family()
    grid = cfg.build_grid()
    dens = solve_density(c, grid.bounds, grid.n)
    ok = True
    for i, entry in enumerate(entries):
        f0 = build_payload(entry["payload"], grid.dim)
        u = evolve(c, dens, f0, float(entry["t_final"]), float(entry["dt"]))
        rep = semigroup_contraction_check(c, u, dens)
        rep.meta["payload"] = entry["payload"]
        emit.report(f"semigroup_{i}", _finalize(rep, cfg))
        emit.table(
            f"semigroup_{i}_final",
            [f"x{k}" for k in range(grid.dim)] + ["u"],
            [grid.flat_points()[:, k] for k in range(grid.dim)]
            + [u.values[-1].ravel()],
        )
        print(rep.summary())
        ok &= rep.passed
    return 0 if ok else 1


def _run_simulate(cfg: ExperimentConfig, emit: _Emitter, workers: int) -> int:
    c = cfg.build_family()
    ens = simulate_ensemble(c, cfg.start_point(), cfg.sim, workers=workers)
    report = DiagnosticReport(
        check=f"simulate[{c.family.get('name', 'custom')}]",
        meta={
            "x0": list(cfg.start_point()),
            "config": cfg.sim.to_dict(),
        },
    )
    report.add(
        "all_paths_finite",
        int(np.sum(ens.exploded)) == 0,
        value=float(np.sum(ens.exploded)),
        threshold=0.0,
    )
    rows = occupation_profile(ens, _OCCUPATION_EPS)
    report.meta["occupation"] = [
        {"eps": r.eps, "mean": r.mean_occupation, "max": r.max_occupation}
        for r in rows
    ]
    if cfg.sim.r_exit is not None:
        stats = exit_time_stats(ens)
        report.meta["exit"] = {
            "r_exit": stats.r_exit,
            "n_exited": stats.n_exited,
            "exit_fraction": stats.exit_fraction,
            "quantiles": stats.exit_time_quantiles,
        }
    emit.report("simulate", _finalize(report, cfg))
    terminal = ens.state_at(cfg.sim.t_final)
    emit.table(
        "terminal",
        ["path"] + [f"x{k}" for k in range(ens.dim)],
        [np.arange(ens.n_paths, dtype=float)]
        + [terminal[:, k] for k in range(ens.dim)],
    )
    print(report.summary())
    return 0 if report.passed else 1


def _variant_from_spec(spec: dict, dim: int) -> LawVariant:
    c = None
    if "family" in spec:
        fam = spec["family"]
        params = dict(fam.get("params", {}))
        params.pop("dim", None)
        c = builtin_family(fam["name"], dim, **params)
    return LawVariant(
        label=spec["label"],
        c=c,
        dt=spec.get("dt"),
    )


def _run_diagnose(cfg: ExperimentConfig, emit: _Emitter, workers: int) -> int:
    kinds = {"uniqueness", "krylov", "feynman_kac"}
    entries = [e for e in cfg.diagnostics if e["kind"] in kinds]
    if not entries:
        raise UsageError(
            "config lists no diagnostics of kind uniqueness/krylov/feynman_kac"
        )
    c = cfg.build_family()
    grid = cfg.build_grid()
    ok = True
    for i, entry in enumerate(entries):
        kind = entry["kind"]
        if kind == "uniqueness":
            rep = uniqueness_probe(
                c,
                [_variant_from_spec(v, grid.dim) for v in entry["variants"]],
                entry["x0"],
                entry["t_checks"],
                cfg.sim,
                level=float(entry.get("level", 0.01)),
                workers=workers,
            )
        elif kind == "krylov":
            sim = cfg.sim
            if "dt" in entry:
                sim = replace(sim, dt=float(entry["dt"]))
            payloads = [
                build_spacetime_payload(s, grid.dim, f"{s['type']}_{j}")
                for j, s in enumerate(entry["payloads"])
            ]
            audits = krylov_audit(
                c,
                entry["x0"],
                float(entry["radius"]),
                float(entry["t_final"]),
                payloads,
                sim,
                workers=workers,
                quad_space=int(entry.get("quad_space", 65)),
                quad_time=int(entry.get("quad_time", 64)),
            )
            rep = DiagnosticReport(
                check=f"krylov_audit[{c.family.get('name', 'custom')}]",
                meta={"audits": [], "c_hat": 0.0},
            )
            for a in audits:
                label = a.meta["label"]
                rep.add(
                    f"ratio_finite[{label}]",
                    np.isfinite(a.ratio),
                    value=a.ratio,
                )
                rep.add(
                    f"homogeneity[{label}]",
                    a.meta["homogeneity"]["estimate_gap"] <= 1e-12,
                    value=a.meta["homogeneity"]["estimate_gap"],
                    threshold=1e-12,
                )
                rep.meta["audits"].append(
                    {
                        "label": label,
                        "estimate": a.estimate,
                        "stderr": a.stderr,
                        "f_norm": a.f_norm,
                        "ratio": a.ratio,
                        "exit_fraction": a.meta["exit_fraction"],
                        "dt": a.meta["dt"],
                    }
                )
            finite = [a.ratio for a in audits if np.isfinite(a.ratio)]
            rep.meta["c_hat"] = max(finite) if finite else 0.0
        else:
            grid_n = entry.get("grid_n", cfg.box["n"])
            dens = solve_density(c, grid.bounds, grid_n)
            sim = cfg.sim
            if "mc_dt" in entry:
                sim = replace(sim, dt=float(entry["mc_dt"]))
            rep = feynman_kac_crosscheck(
                c,
                dens,
                build_payload(entry["payload"], grid.dim),
                entry["x0"],
                float(entry["t_final"]),
                sim,
                float(entry["pde_dt"]),
                workers=workers,
            )
        rep.meta["entry"] = dict(entry)
        emit.report(f"diagnose_{i}_{kind}", _finalize(rep, cfg))
        print(rep.summary())
        ok &= rep.passed
    return 0 if ok else 1


def _run_report(out_dir: str | None) -> int:
    if out_dir is None:
        raise UsageError("report needs --out (or output_dir in the config)")
    names = sorted(
        f
        for f in os.listdir(out_dir)
        if f.endswith(".json")
        and not f.endswith(".sidecar.json")
        and f != "combined.json"
    )
    if not names:
        raise UsageError(f"no report files found in {out_dir}")
    reports = []
    digests = set()
    for name in names:
        with open(os.path.join(out_dir, name), "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        reports.append({"file": name, "report": payload})
        digests.add(payload.get("meta", {}).get("config_digest"))
    if len(digests) > 1:
        print(
            f"error: reports in {out_dir} were produced from different "
            f"configs (digests {sorted(str(d) for d in digests)})",
            file=sys.stderr,
        )
        return 2
    passed = all(r["report"].get("passed", False) for r in reports)
    combined = {
        "check": "combined",
        "config_digest": next(iter(digests)),
        "passed": passed,
        "reports": reports,
    }
    _write_atomic(
        os.path.join(out_dir, "combined.json"), canonical_json(combined) + "\n"
    )
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] combined: {len(reports)} report(s)")
    return 0 if passed else 1


_RUNNERS = {
    "check": _run_check,
    "density": _run_density,
    "semigroup": _run_semigroup,
    "simulate": _run_simulate,
    "diagnose": _run_diagnose,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdelab",
        description="degenerate-diffusion laboratory batch runner",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("check", "density", "semigroup", "simulate", "diagnose", "report"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="experiment config (JSON)")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config entry (dotted path, repeatable)",
        )
        p.add_argument("--out", help="output directory for reports")
        p.add_argument(
            "--workers",
            type=int,
            default=os.cpu_count() or 1,
            help="worker threads (results are identical for any value)",
        )
        p.add_argument("--seed", type=int, help="override sim.master_seed")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.subcommand == "report":
            out = args.out
            if out is None and args.config is not None:
                cfg = ExperimentConfig.load(args.config)
                out = cfg.output_dir
            return _run_report(out)

        if args.config is None:
            raise UsageError(f"{args.subcommand} needs --config")
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        raw = apply_set_overrides(raw, args.set)
        cfg = ExperimentConfig.from_dict(raw)
        cfg = cfg.with_overrides(out=args.out, seed=args.seed)
        if args.workers < 1:
            raise UsageError("--workers must be at least 1")
        emit = _Emitter(cfg.output_dir)
        return _RUNNERS[args.subcommand](cfg, emit, args.workers)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
