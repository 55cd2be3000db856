"""The benchmark tracer names qcext layers by module and attribute path.

perfbench/tracing.py wraps each SPANS target at run time; a target that no
longer resolves would make a traced run fail.  The tracer is loaded from its
file, so this test needs nothing from perfbench on the import path.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _spans():
    spec = importlib.util.spec_from_file_location("qcext_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_every_traced_span_resolves():
    for name, (mod_name, attr, _) in _spans().items():
        owner = importlib.import_module(f"qcext.{mod_name}")
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            # the tracer replaces methods in the class dict
            owner = getattr(owner, cls_name)
            assert meth in vars(owner), name
        assert callable(getattr(owner, meth)), name
