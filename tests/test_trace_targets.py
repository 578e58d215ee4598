"""The traced benchmark run wraps covercert functions by module and name;
each of them must still exist, or `perfbench/run.py --trace 1` breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def _load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = _load_traced().TARGETS
    assert targets
    for module, attr, _name, _counter in targets:
        fn = getattr(importlib.import_module(f"covercert.{module}"), attr, None)
        assert callable(fn), f"covercert.{module}.{attr} is gone"
