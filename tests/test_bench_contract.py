"""What the benchmark in perfbench/ takes from the package: the functions its
tracer wraps and the trace fields its sweep checker reads. perfbench/ is only
read here, never changed."""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

from planswitch import synth_trace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [(module, name) for module, name, _, _ in _load_tracer()._TARGETS]


@pytest.mark.parametrize("module, name", TARGETS, ids=[f"{m}.{n}" for m, n in TARGETS])
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"planswitch.{module}"), name))


def test_sweep_checker_fields_exist():
    # the sweep checker reads each month as ``s.<field> for s in slots``
    source = (PERFBENCH / "workloads.py").read_text(encoding="utf-8")
    fields = set(re.findall(r"\bs\.(\w+) for s in slots\b", source))
    assert fields == {"demand_kwh", "fixed_rate", "variable_rate", "base_load_kwh"}
    for seed in (1, 2):
        slots = synth_trace(36, seed).slots
        for i in (0, 35):
            for field in fields:
                assert isinstance(getattr(slots[i], field), float)
