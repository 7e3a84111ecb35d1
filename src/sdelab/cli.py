"""Batch front door: run configured experiments and emit JSON/CSV artifacts.

Subcommands: ``check`` (coefficient and exponent audits), ``density``
(stationary solve plus its weak-form audits), ``semigroup`` (parabolic evolve
with contraction audit), ``simulate`` (path ensemble summary), ``diagnose``
(law-level diagnostics from the config's list) and ``report`` (merge
previously written reports without recomputation).

Exit codes: 0 when every requested audit passes, 1 on audit failure, 2 on
usage or config errors.  Each report file is canonical JSON of what one
library call returns, with the config digest and master seed (and the
``diagnose`` entry) added to its meta; wall-clock data goes to
``*.sidecar.json`` companions so report bytes are reproducible.  A runner
writes its CSV tables before its reports, so each sidecar's peak memory
covers them.  Files are written atomically (temp file then rename).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from datetime import datetime, timezone

import numpy as np

from .conditions import a4prime_check, min_M_on_grid, occupation_condition_route
from .config import ConfigError, ExperimentConfig, apply_set_overrides
from .density import solve_density, verify_divergence_free, verify_preinvariance
from .diagnostics import feynman_kac_crosscheck, krylov_audit, uniqueness_probe
from .reporting import DiagnosticReport, canonical_json
from .semigroup import evolve, semigroup_contraction_check
from .simulate import exit_time_stats, occupation_profile, simulate_ensemble

_OCCUPATION_EPS = (0.2, 0.1, 0.05, 0.025, 0.0)
_TABLE_ROWS = 4096  # rows formatted by one % operation
_WRITE_CHARS = 1 << 20  # characters encoded by one write
# the diagnostics kinds a subcommand runs; the load keeps no other entry's inputs
_KINDS = {"semigroup": ("semigroup",), "diagnose": ("uniqueness", "krylov", "feynman_kac")}


class UsageError(ValueError):
    """Raised for invalid invocations that are not config-file problems."""


class _Parser(argparse.ArgumentParser):
    """Bad flags raise :class:`UsageError`: one ``error:`` line and exit 2."""

    def error(self, message):
        raise UsageError(message)


# -- deterministic artifact writing -------------------------------------------

def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, f".tmp-{os.urandom(16).hex()}")  # 128 random bits
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)  # 0o666 less the umask
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            # a slice at a time, so the encoder never holds a second copy
            for start in range(0, len(text), _WRITE_CHARS):
                fh.write(text[start:start + _WRITE_CHARS])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Emitter:
    """Writes reports, sidecars and CSV tables into the output directory."""

    def __init__(self, out_dir: str | None):
        self.out_dir = out_dir
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
        self._last = time.monotonic()

    def report(self, name: str, payload: dict) -> None:
        if self.out_dir is None:
            return
        path = os.path.join(self.out_dir, f"{name}.json")
        _write_atomic(path, canonical_json(payload) + "\n")
        now = time.monotonic()
        sidecar = {
            "written_at": datetime.now(timezone.utc).isoformat(),
            "elapsed_seconds": now - self._last,  # since the previous report
            "for": f"{name}.json",
            # the process's peak so far; ru_maxrss is in KiB on Linux
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        self._last = now
        _write_atomic(
            os.path.join(self.out_dir, f"{name}.sidecar.json"),
            json.dumps(sidecar, sort_keys=True) + "\n",
        )

    def table(self, name: str, header: list, columns: list) -> None:
        if self.out_dir is None:
            return
        row = ",".join(["%.17g"] * len(columns)) + "\n"
        parts = [",".join(header) + "\n"]
        for start in range(0, len(columns[0]), _TABLE_ROWS):
            block = np.column_stack([col[start:start + _TABLE_ROWS] for col in columns])
            parts.append(row * len(block) % tuple(block.ravel().tolist()))
        text = "".join(parts)
        del parts  # the text is then held once while it is written
        _write_atomic(os.path.join(self.out_dir, f"{name}.csv"), text)


def _grid_table(emit: _Emitter, name: str, grid, label: str, values) -> None:
    pts = grid.flat_points()
    emit.table(name, [f"x{k}" for k in range(grid.dim)] + [label],
               [pts[:, k] for k in range(grid.dim)] + [values.ravel()])


def _finalize(report: DiagnosticReport, cfg: ExperimentConfig) -> dict:
    report.meta["config_digest"] = cfg.digest
    report.meta["master_seed"] = cfg.sim.master_seed
    return report.to_dict()


# -- subcommand runners -------------------------------------------------------

def _run_check(cfg: ExperimentConfig, emit: _Emitter, workers: int) -> int:
    c, grid = cfg.coefficients, cfg.grid
    report = a4prime_check(c)
    resolution = min(max(grid.n), 65)
    report.meta["min_M"] = min_M_on_grid(c, grid.bounds, resolution)
    report.meta["min_M_resolution"] = resolution
    report.meta["occupation_route"] = occupation_condition_route(c)
    emit.report("check", _finalize(report, cfg))
    print(report.summary())
    print(f"min_M = {report.meta['min_M']:.12g}  "
          f"route = {report.meta['occupation_route']}")
    return 0 if report.passed else 1


def _run_density(cfg: ExperimentConfig, emit: _Emitter, workers: int) -> int:
    c, grid = cfg.coefficients, cfg.grid
    dens = solve_density(c, grid.bounds, grid.n)
    pre = verify_preinvariance(dens)
    div = verify_divergence_free(dens)
    _grid_table(emit, "density", grid, "rho", dens.rho.values)
    pre.meta["residual_norm"] = div.meta["residual_norm"]
    for name, rep in (("density_preinvariance", pre), ("density_divergence", div)):
        emit.report(name, _finalize(rep, cfg))
        print(rep.summary())
    return 0 if (pre.passed and div.passed) else 1


def _run_semigroup(cfg: ExperimentConfig, emit: _Emitter, workers: int) -> int:
    entries = [(e, inputs) for e, inputs in zip(cfg.diagnostics, cfg.inputs)
               if e["kind"] in _KINDS["semigroup"]]
    if not entries:
        raise UsageError("config lists no diagnostics of kind 'semigroup'")
    c, grid = cfg.coefficients, cfg.grid
    dens = solve_density(c, grid.bounds, grid.n)
    ok = True
    for i, (entry, inputs) in enumerate(entries):
        u = evolve(dens, **inputs)
        rep = semigroup_contraction_check(u, dens)
        rep.meta["payload"] = entry["payload"]
        _grid_table(emit, f"semigroup_{i}_final", grid, "u", u.values[-1])
        emit.report(f"semigroup_{i}", _finalize(rep, cfg))
        print(rep.summary())
        ok &= rep.passed
    return 0 if ok else 1


def _run_simulate(cfg: ExperimentConfig, emit: _Emitter, workers: int) -> int:
    c = cfg.coefficients
    x0 = cfg.start_point()
    ens = simulate_ensemble(c, x0, cfg.sim, workers=workers,
                            occupation_eps=_OCCUPATION_EPS, t_keep=(cfg.sim.t_final,))
    report = DiagnosticReport(
        check=f"simulate[{c.name}]",
        meta={"x0": list(x0), "config": cfg.sim.to_dict()},
    )
    report.add(
        "all_paths_finite",
        int(np.sum(ens.exploded)) == 0,
        value=float(np.sum(ens.exploded)),
        threshold=0.0,
    )
    report.meta["occupation"] = occupation_profile(ens, _OCCUPATION_EPS)
    if cfg.sim.r_exit is not None:
        report.meta["exit"] = exit_time_stats(ens)
    terminal = ens.state_at(cfg.sim.t_final)
    del ens  # the table is formatted with only the terminal states alive
    n, dim = terminal.shape
    emit.table("terminal", ["path"] + [f"x{k}" for k in range(dim)],
               [range(n)] + [terminal[:, k] for k in range(dim)])
    emit.report("simulate", _finalize(report, cfg))
    print(report.summary())
    return 0 if report.passed else 1


def _run_diagnose(cfg: ExperimentConfig, emit: _Emitter, workers: int) -> int:
    entries = [(e, inputs) for e, inputs in zip(cfg.diagnostics, cfg.inputs)
               if e["kind"] in _KINDS["diagnose"]]
    if not entries:
        raise UsageError(
            "config lists no diagnostics of kind uniqueness/krylov/feynman_kac"
        )
    c = cfg.coefficients
    ok = True
    for i, (entry, inputs) in enumerate(entries):
        kind = entry["kind"]
        if kind == "uniqueness":
            rep = uniqueness_probe(c, workers=workers, **inputs)
        elif kind == "krylov":
            rep = krylov_audit(c, workers=workers, **inputs)
        else:
            rep = feynman_kac_crosscheck(c, workers=workers, **inputs)
        rep.meta["entry"] = dict(entry)
        emit.report(f"diagnose_{i}_{kind}", _finalize(rep, cfg))
        print(rep.summary())
        ok &= rep.passed
    return 0 if ok else 1


def _run_report(out_dir: str | None, config_digest: str | None = None) -> int:
    """Merge the reports in ``out_dir`` into ``combined.json``.  All must
    carry one config digest, and ``config_digest`` when it is given."""
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
        path = os.path.join(out_dir, name)
        with open(path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise UsageError(f"{path} is not valid JSON: {exc}") from None
        meta = payload.get("meta", {}) if isinstance(payload, dict) else None
        if not isinstance(meta, dict):
            raise UsageError(f"{path} is not a report: a JSON object whose meta "
                             "is an object")
        got = meta.get("config_digest")
        if config_digest is not None and got != config_digest:
            raise UsageError(f"{path} was produced from another config (config_digest "
                             f"{got}, the loaded config's is {config_digest})")
        reports.append({"file": name, "report": payload})
        digests.add(got)
    if len(digests) > 1:
        raise UsageError(
            f"reports in {out_dir} were produced from different configs "
            f"(digests {sorted(str(d) for d in digests)})"
        )
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
    parser = _Parser(
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
            help="threads: one steps the paths, the others convert their noise "
                 "(results are identical for any value)",
        )
        p.add_argument("--seed", type=int, help="override sim.master_seed")
    return parser


def _load_config(args) -> ExperimentConfig:
    """The one config load: ``--set``, ``--seed`` and ``--out`` go into the raw
    mapping, then :meth:`ExperimentConfig.from_dict` checks it all.  Every
    entry's inputs are checked there, but kept only where the subcommand runs
    the entry's kind, so no other command holds a payload's node values."""
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
    raw = apply_set_overrides(raw, args.set)
    # a container that is not a mapping is left for from_dict to name
    if isinstance(raw, dict):
        if args.seed is not None and isinstance(raw.get("sim"), dict):
            raw["sim"]["master_seed"] = args.seed
        if args.out is not None:
            raw["output_dir"] = args.out
    cfg = ExperimentConfig.from_dict(raw)
    runs = _KINDS.get(args.subcommand, ())
    for entry, inputs in zip(cfg.diagnostics, cfg.inputs):
        if entry["kind"] not in runs:
            inputs.clear()
    return cfg


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.config is None:
            if args.subcommand != "report":
                raise UsageError(f"{args.subcommand} needs --config")
            return _run_report(args.out)
        cfg = _load_config(args)
        if args.subcommand == "report":
            return _run_report(cfg.output_dir, cfg.digest)
        if args.workers < 1:
            raise UsageError("--workers must be at least 1")
        emit = _Emitter(cfg.output_dir)
        return _RUNNERS[args.subcommand](cfg, emit, args.workers)
    except (OSError, ValueError) as exc:  # usage, config and input errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
