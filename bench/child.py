"""One benchmark iteration in a fresh interpreter.

Usage: ``python3 child.py SPEC.json T0``.  ``T0`` is the parent's
``time.monotonic()`` just before it started this process (the clock is
system-wide on Linux).  The child imports sdelab from the checkout's
``src``, validates the config of every op, and records that moment as its
set-up time.  Unless the spec says ``setup_only``, it then calls
``sdelab.cli.main`` once per op and records each exit code, wall time and
the report files the call wrote.  With ``trace`` it first wraps sdelab's
layer entry points (``spans.install``) and writes the recorded spans with
the result.  The result goes to ``spec["result"]`` as JSON; the parent
reads CPU time and peak RSS from ``os.wait4``.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback


def _snapshot(out: str) -> dict:
    try:
        entries = list(os.scandir(out))
    except FileNotFoundError:
        return {}
    return {
        e.name: (e.stat().st_mtime_ns, e.stat().st_size)
        for e in entries
        if e.is_file()
    }


def _is_report(name: str) -> bool:
    # sidecars hold wall-clock data, so only reports and tables are gated
    return (
        name.endswith((".json", ".csv"))
        and not name.endswith(".sidecar.json")
        and not name.startswith(".")
    )


def _environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    t0 = float(sys.argv[2])
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import sdelab.cli
    from sdelab.config import ExperimentConfig, apply_set_overrides

    with open(spec["config"], encoding="utf-8") as fh:
        raw = json.load(fh)
    for op in spec["ops"]:
        ExperimentConfig.from_dict(apply_set_overrides(raw, op["set"]))
    result = {"setup_s": time.monotonic() - t0, "ops": []}

    if spec.get("environment"):
        result["environment"] = _environment()
    tracer = None
    if not spec["setup_only"] and spec["trace"]:
        import spans

        tracer = spans.install()

    for op in [] if spec["setup_only"] else spec["ops"]:
        argv = [
            op["command"],
            "--config", spec["config"],
            "--out", spec["out"],
            "--workers", str(spec["workers"]),
            "--seed", str(spec["seed"]),
        ]
        for item in op["set"]:
            argv += ["--set", item]
        before = _snapshot(spec["out"])
        start = time.perf_counter()
        try:
            rc = sdelab.cli.main(argv)
        except Exception:
            # the real entry point would exit 1 with this traceback
            traceback.print_exc()
            rc = 1
        seconds = time.perf_counter() - start
        after = _snapshot(spec["out"])
        written = sorted(
            name for name, stat in after.items()
            if before.get(name) != stat and _is_report(name)
        )
        result["ops"].append(
            {"label": op["label"], "rc": rc, "seconds": seconds, "files": written}
        )

    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
