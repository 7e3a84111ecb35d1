"""Structured audit reports.

Every checker returns a :class:`DiagnosticReport`: a named list of clauses,
each with a measured value, a threshold and a verdict.  Reports serialize to
canonical JSON (sorted keys, fixed float formatting) so identical runs produce
byte-identical files; content digests are computed over that canonical form.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any


def _jsonable(obj: Any) -> Any:
    """Map numpy scalars/arrays and non-finite floats to JSON-safe values."""
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def canonical_json(payload: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace variation."""
    return json.dumps(_jsonable(payload), sort_keys=True, separators=(",", ":"))


def digest(payload: Any) -> str:
    """sha256 hex digest of the canonical JSON form."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


@dataclass(frozen=True)
class Clause:
    """One audited statement: measured value against a threshold."""

    name: str
    passed: bool
    value: float | None = None
    threshold: float | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "value": self.value,
            "threshold": self.threshold,
            "detail": self.detail,
        }


@dataclass
class DiagnosticReport:
    """Outcome of one audit: overall verdict plus per-clause records.

    ``meta`` carries inputs (digests, seeds, tolerances); it must stay
    JSON-serializable and free of wall-clock data so reports are reproducible.
    """

    check: str
    clauses: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def add(self, name, passed, value=None, threshold=None, detail="") -> Clause:
        c = Clause(
            name=name,
            passed=bool(passed),
            value=None if value is None else float(value),
            threshold=None if threshold is None else float(threshold),
            detail=detail,
        )
        self.clauses.append(c)
        return c

    def clause(self, name: str) -> Clause:
        for c in self.clauses:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "passed": self.passed,
            "clauses": [c.to_dict() for c in self.clauses],
            "meta": _jsonable(self.meta),
        }

    def summary(self) -> str:
        lines = [f"[{'PASS' if self.passed else 'FAIL'}] {self.check}"]
        for c in self.clauses:
            tag = "ok " if c.passed else "FAIL"
            val = "" if c.value is None else f" value={c.value:.6g}"
            thr = "" if c.threshold is None else f" threshold={c.threshold:.6g}"
            det = f" ({c.detail})" if c.detail else ""
            lines.append(f"  [{tag}] {c.name}{val}{thr}{det}")
        return "\n".join(lines)
