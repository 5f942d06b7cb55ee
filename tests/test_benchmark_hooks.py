"""The benchmark's trace hooks name functions that exist in the package."""

import importlib.util
import sys
from pathlib import Path

COMMON = Path(__file__).resolve().parents[1] / "perfbench" / "common.py"


class _LookupTracer:
    """Stands in for the benchmark's tracer: looks each name up, wraps nothing."""

    def __init__(self):
        self.patched = []

    def patch(self, module, attr, *args, **kwargs):
        getattr(module, attr)
        self.patched.append(f"{module.__name__}.{attr}")


def test_install_boundaries_finds_every_traced_name(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_common", COMMON)
    common = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, common)  # for its dataclasses
    spec.loader.exec_module(common)
    tracer = _LookupTracer()
    common.install_boundaries(tracer, {})
    assert "qubit_chaos.orbits.spherical_derivative" in tracer.patched
    assert "qubit_chaos.orbits.fixed_point_polynomial" in tracer.patched
    assert "qubit_chaos.orbits._polish_periodic_point" in tracer.patched
