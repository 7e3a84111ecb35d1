#!/usr/bin/env python3
"""Time-to-verdict benchmark for sdelab.

Runs one named workload through the public front door, ``sdelab.cli.main``,
on ``scripts/example_config.json`` changed only by ``--set`` overrides.
Every iteration is one fresh child interpreter (``child.py``) started from
this process, with its own output directory and with OpenBLAS/OpenMP pinned
to one thread, so the two ``--workers`` threads are the only compute
threads.  Every report and table an op writes is compared by sha256 with
``references.json`` (recorded at ``--workers 1``); an op fails when its exit
code is non-zero or any output byte differs, so the gate also holds reports
byte-identical across worker counts.

Usage (from the repository root)::

    python3 bench/run.py --workload verdict --seed 0 --seconds 55 --trace 0
    python3 bench/run.py --smoke      # reduced sizes: metrics, units, gate
    python3 bench/run.py --record     # re-record references.json

``--seed N`` selects master seed ``2026 + N % 16`` (the shipped config's seed
is index 0); references exist for those 16 seeds.  ``--trace 0`` reports the
end-to-end metrics: medians of set-up time, run time, CPU time and peak RSS
over the iterations that fit in ``--seconds``.  ``--trace 1`` runs untraced
iterations for a baseline, then one traced iteration at two workers and one
at one worker, and reports the per-layer metrics of ``spans.PER_LAYER``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable summary, and ``.bench_runs/`` keeps the full result and the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIG = ROOT / "scripts" / "example_config.json"
RUNS = ROOT / ".bench_runs"
REFERENCES = HERE / "references.json"
CHILD = HERE / "child.py"

BASE_SEED = 2026
N_SEEDS = 16
WORKERS = 2
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}

# Two workloads, so that each run can measure 55 s.  A third, PDE-only
# workload (box.n=193) spread by 26-33% between runs on a shared 2-vCPU
# host with 40 s runs; verdict already runs every PDE layer.
WORKLOADS = {
    "verdict": "check, density, semigroup, simulate and diagnose on the "
               "shipped config: every layer, the PDE side too; long, narrow "
               "single-block ensembles, two-sample tests, Krylov and "
               "Feynman-Kac audits",
    "wide_paths": "simulate with 65536 paths x 100 steps in 16 blocks: path "
                  "layer only, noise generation heavy, threads can split blocks",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed op)."""


def workload_ops(name: str, smoke: bool = False) -> list:
    """The ops of a workload: ``{"label", "command", "set"}`` each.

    ``smoke`` shrinks paths and grids so the whole workload takes seconds.
    """
    if name == "verdict":
        common = []
        if smoke:
            with open(CONFIG, encoding="utf-8") as fh:
                shipped = json.load(fh)["diagnostics"]
            coarse = [dict(e, grid_n=33) if e["kind"] == "feynman_kac" else e
                      for e in shipped]
            common = ["sim.n_paths=300", "sim.dt=0.01",
                      "diagnostics=" + json.dumps(coarse, separators=(",", ":"))]
        commands = ("check", "density", "semigroup", "simulate", "diagnose")
        return [{"label": c, "command": c, "set": common} for c in commands]
    if name == "wide_paths":
        n_paths = 5000 if smoke else 65536
        return [{"label": "simulate", "command": "simulate",
                 "set": [f"sim.n_paths={n_paths}", "sim.dt=0.01"]}]
    raise BenchError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")


# -- one child process ---------------------------------------------------------

def _spawn(ops: list, master: int, workers: int, trace: bool,
           setup_only: bool, environment: bool = False) -> dict:
    """Run ``child.py`` once in a fresh directory under ``.bench_runs``.

    Returns the child's result plus ``wall_s``, ``cpu_s``, ``rss_mib`` and
    ``dir`` (removed by the caller).
    """
    RUNS.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=RUNS))
    spec = {
        "src": str(SRC),
        "config": str(CONFIG),
        "out": str(run_dir / "out"),
        "result": str(run_dir / "result.json"),
        "ops": ops,
        "seed": master,
        "workers": workers,
        "trace": trace,
        "setup_only": setup_only,
        "environment": environment,
    }
    (run_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    with open(run_dir / "stderr.txt", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(run_dir / "spec.json"), repr(t0)],
            cwd=ROOT, env=CHILD_ENV, stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not (run_dir / "result.json").exists():
        tail = (run_dir / "stderr.txt").read_text(errors="replace")[-2000:]
        raise BenchError(
            f"child exited with {proc.returncode} (kept in {run_dir}):\n{tail}"
        )
    result = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))
    result.update(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mib=usage.ru_maxrss / 1024.0,
        dir=run_dir,
    )
    return result


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _digests(result: dict) -> dict:
    out = result["dir"] / "out"
    return {
        op["label"]: {f: _sha256(out / f) for f in op["files"]}
        for op in result["ops"]
    }


def _gate(result: dict, expected: dict) -> list:
    """Per op: exit code 0 and exactly the reference files, byte for byte."""
    got = _digests(result)
    return [op["rc"] == 0 and got[op["label"]] == expected.get(op["label"])
            for op in result["ops"]]


def iterate(ops: list, master: int, expected: dict, workers: int = WORKERS,
            trace: bool = False) -> dict:
    """One gated iteration; the output directory is removed unless an op failed."""
    result = _spawn(ops, master, workers, trace, setup_only=False)
    result["ok"] = _gate(result, expected)
    result["run_s"] = sum(op["seconds"] for op in result["ops"])
    if all(result["ok"]):
        shutil.rmtree(result["dir"])
    return result


# -- references ----------------------------------------------------------------

def load_references(name: str, smoke: bool = False) -> list:
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))["workloads"][name]
    if refs["ops"] != workload_ops(name, smoke):
        raise BenchError(
            f"references.json was recorded for other {name} ops; re-record it"
        )
    return refs["digests"]


def record(names: list, n_seeds: int = N_SEEDS, smoke: bool = False) -> dict:
    """Digests of every op's outputs at ``--workers 1`` for each seed index."""
    recorded = {}
    for name in names:
        ops = workload_ops(name, smoke)
        digests = []
        for index in range(n_seeds):
            result = _spawn(ops, BASE_SEED + index, 1, False, setup_only=False)
            bad = [op["label"] for op in result["ops"] if op["rc"] != 0]
            if bad:
                raise BenchError(
                    f"{name} seed index {index}: {bad} exited non-zero "
                    f"(kept in {result['dir']})"
                )
            digests.append(_digests(result))
            shutil.rmtree(result["dir"])
            print(f"recorded {name} seed index {index}", file=sys.stderr)
        recorded[name] = {"ops": ops, "digests": digests}
    return recorded


# -- measurement ---------------------------------------------------------------

def _environment(child_env: dict) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return dict(child_env, nproc=os.cpu_count(), cpu_model=model)


def _quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False, digests: list | None = None) -> dict:
    """Run a workload for about ``seconds`` and return the full result."""
    ops = workload_ops(name, smoke)
    index = seed % N_SEEDS
    digests = digests if digests is not None else load_references(name, smoke)
    expected = digests[index % len(digests)]
    master = BASE_SEED + index
    start = time.monotonic()

    warm = _spawn(ops, master, WORKERS, False, setup_only=True, environment=True)
    shutil.rmtree(warm["dir"])
    setup = []
    for _ in range(SETUP_SAMPLES):
        r = _spawn(ops, master, WORKERS, False, setup_only=True)
        shutil.rmtree(r["dir"])
        setup.append(r["setup_s"])

    iterations = []
    while True:
        it = iterate(ops, master, expected)
        iterations.append(it)
        # a traced run keeps room for its two traced iterations
        reserve = 2.4 * it["wall_s"] if trace else 0.0
        if time.monotonic() - start + it["wall_s"] + reserve > seconds:
            break
    setup += [it["setup_s"] for it in iterations]
    traced = []
    if trace:
        for workers in (WORKERS, 1):
            it = iterate(ops, master, expected, workers=workers, trace=True)
            (RUNS / f"spans-{name}-w{workers}.json").write_text(
                json.dumps(it["trace"]), encoding="utf-8")
            traced.append(it)

    every = iterations + traced
    attempted = sum(len(it["ok"]) for it in every)
    failed = sum(not ok for it in every for ok in it["ok"])
    samples = {
        "setup_s": setup,
        "run_s": [it["run_s"] for it in iterations],
        "cpu_s": [it["cpu_s"] for it in iterations],
        "peak_rss_mb": [it["rss_mib"] for it in iterations],
    }
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    layers = None
    if trace:
        layers = spans.summarize(
            traced[0]["trace"], traced[0]["run_s"], traced[1]["trace"],
            metrics["run_s"],
        )
    return {
        "workload": name,
        "seed": seed,
        "master_seed": master,
        "workers": WORKERS,
        "environment": _environment(warm.get("environment", {})),
        "attempted": attempted,
        "failed": failed,
        "failed_ops": failed / attempted,
        "failed_labels": sorted({
            op["label"] for it in every
            for op, ok in zip(it["ops"], it["ok"]) if not ok
        }),
        "samples": samples,
        "end_to_end": metrics,
        "per_layer": layers,
        "elapsed_s": time.monotonic() - start,
    }


def summary_lines(res: dict) -> list:
    env = res["environment"]
    lines = [
        f"workload {res['workload']}  seed {res['seed']} "
        f"(master_seed {res['master_seed']})  --workers {res['workers']}",
        f"env: nproc {env['nproc']}, {env['cpu_model']}, python "
        f"{env.get('python')}, numpy {env.get('numpy')}, scipy "
        f"{env.get('scipy')}, {env.get('blas')}",
    ]
    for key, unit in END_TO_END.items():
        vals = res["samples"][key]
        q1, med, q3 = _quartiles(vals)
        lines.append(
            f"  {key:<12} {med:10.4f} {unit:<4} median of n={len(vals)} "
            f"(q1 {q1:.4f}, q3 {q3:.4f})"
        )
    lines.append(
        f"  {'failed_ops':<12} {res['failed_ops']:10.4f} share  "
        f"({res['failed']} of {res['attempted']} op calls failed the gate"
        + (f": {res['failed_labels']}" if res["failed_labels"] else "") + ")"
    )
    if res["per_layer"] is not None:
        for name, unit, _, source, moves in spans.PER_LAYER:
            lines.append(
                f"  {name:<32} {res['per_layer'][name]:14.6g} {unit:<5} "
                f"[{source}] -> {moves}"
            )
    return lines


def result_line(res: dict, trace: bool) -> str:
    if trace:
        units = {name: unit for name, unit, *_ in spans.PER_LAYER}
        values = res["per_layer"]
    else:
        units, values = END_TO_END, res["end_to_end"]
    return json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    })


# -- smoke mode -----------------------------------------------------------------

def smoke() -> list:
    """Problems found at reduced sizes; an empty list means the harness works."""
    problems = []
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if {m["name"]: m["unit"] for m in bench["end_to_end"]} != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from END_TO_END")
    layer_units = {name: unit for name, unit, *_ in spans.PER_LAYER}
    if {m["name"]: m["unit"] for m in bench["per_layer"]} != layer_units:
        problems.append("BENCHMARK.json per_layer differs from spans.PER_LAYER")
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from WORKLOADS")

    for name in WORKLOADS:
        digests = record([name], n_seeds=1, smoke=True)[name]["digests"]
        for trace, expected in ((False, END_TO_END), (True, layer_units)):
            res = measure(name, 0, 1.0, trace, smoke=True, digests=digests)
            line = json.loads(result_line(res, trace))
            if not line["correct"] or line["failed"]:
                problems.append(f"{name} trace={trace}: {res['failed_labels']} failed")
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != expected:
                problems.append(f"{name} trace={trace}: metrics {sorted(got)}")
            bad = [k for k, v in line["metrics"].items()
                   if not math.isfinite(v["value"])
                   or (not trace and v["value"] <= 0.0)]
            if bad:
                problems.append(f"{name} trace={trace}: bad values {bad}")
        # another master seed changes every output: the gate must catch it
        it = iterate(workload_ops(name, True), BASE_SEED + 1, digests[0])
        if any(it["ok"]):
            problems.append(f"{name}: gate passed outputs of another seed")
        shutil.rmtree(it["dir"], ignore_errors=True)
        print(f"smoke {name}: done", file=sys.stderr)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "sdelab" / "cli.py").is_file() or not CONFIG.is_file():
        print(f"error: no sdelab checkout at {ROOT} (need src/sdelab and "
              f"{CONFIG.relative_to(ROOT)})", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            problems = smoke()
            for p in problems:
                print(f"smoke: {p}", file=sys.stderr)
            print("smoke: " + ("FAILED" if problems else "ok"))
            return 1 if problems else 0
        if args.record:
            names = [args.workload] if args.workload else list(WORKLOADS)
            data = (json.loads(REFERENCES.read_text(encoding="utf-8"))
                    if REFERENCES.exists() else {"workloads": {}})
            data.update(workers=1, base_seed=BASE_SEED, n_seeds=N_SEEDS)
            data["workloads"].update(record(names))
            REFERENCES.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    RUNS.mkdir(exist_ok=True)
    (RUNS / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(res, indent=1), encoding="utf-8")
    print("\n".join(summary_lines(res)))
    print(result_line(res, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
