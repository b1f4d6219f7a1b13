"""The benchmark's traced run patches package attributes by name; every one
of them must exist where the benchmark looks for it."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def test_every_trace_target_is_a_module_or_class_attribute():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.TARGETS if attr not in vars(owner)]
    assert not missing, f"trace targets not found: {missing}"
