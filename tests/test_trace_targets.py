"""The benchmark's span tracer wraps sdelab entry points by name from outside
the package (``bench/spans.py``).  Every name it wraps must still resolve, so
a refactor that moves or deletes one fails here, not only in a traced run.
Nothing is wrapped: the targets are looked up statically.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

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
