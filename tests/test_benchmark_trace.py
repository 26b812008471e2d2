"""The benchmark's traced mode wraps package functions by name; each must exist.

`perfbench/run.py --trace 1` patches every `monadcert.<module>.<attr>` that
`perfbench/tracer.py` lists in TRACED, so a renamed function would break it
with an AttributeError.  The tracer is loaded from its file and not changed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for _, module, attr, _ in tracer.TRACED:
        fn = getattr(importlib.import_module(f"monadcert.{module}"), attr, None)
        assert callable(fn), f"monadcert.{module}.{attr}"
