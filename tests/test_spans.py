"""The benchmark's tracer wraps program functions at the names their callers
bound (``perfbench/spans.py``, ``BINDINGS``).  Renaming or moving one of
them must fail here, not only in the benchmark's own self-test.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _bindings():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.BINDINGS


BINDINGS = _bindings()


@pytest.mark.parametrize("name,module,attr,generator", BINDINGS,
                         ids=[f"{m}.{a}" for _, m, a, _ in BINDINGS])
def test_traced_binding_resolves(name, module, attr, generator):
    fn = getattr(importlib.import_module(f"powerham.{module}"), attr)
    assert callable(fn)
    # the tracer times generators per next() call and plain calls whole
    assert inspect.isgeneratorfunction(fn) == generator
