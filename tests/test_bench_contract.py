"""What the benchmark in perfbench/ takes from the package: the functions its
tracer wraps, what a traced pass reads from their arguments and results, and
the trace fields its sweep checker reads. perfbench/ is only read here, never
changed."""

import contextlib
import importlib
import importlib.util
import io
import re
from pathlib import Path

import pytest

from planswitch import CostSeries, synth_trace

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


# Small commands of each kind the workloads run, cchase among them.
TRACED_COMMANDS = [
    ["run", "--slots", "48", "--fee-regime", "constant", "--algorithms", "ofa,gchase,gchase_r,cchase",
     "--mc-runs", "10", "--seed", "1"],
    ["run", "--slots", "60", "--fee-regime", "linear", "--contract-len", "6", "--alpha", "10",
     "--algorithms", "ofa,gchase,gchase_r", "--mc-runs", "10", "--seed", "1"],
    ["sweep", "--slots", "24", "--from", "1", "--to", "5", "--algorithms", "ofa,gchase,gchase_r",
     "--mc-runs", "10", "--seed", "1"],
    ["verify", "oracle", "--seed", "0"],
    # run and sweep build no DeltaTrace record: the ratio suite's adversary is what reaches delta_trace
    ["verify", "ratio", "--seed", "0"],
]


def test_traced_pass_runs_and_counts():
    # One pass as the benchmark's --trace 1 runs it: every wrapper installed, the
    # commands through cli.main in-process, then the pass's counts summed.
    from planswitch import cli, oracles

    tracer = _load_tracer().Tracer()
    tracer.install()
    codes = []
    try:
        for argv in TRACED_COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli.main(list(argv)))
        # No command calls the one-row DP: run and sweep call its core, verify its stack form. One direct
        # call, through the installed wrapper, keeps the tracer's counter checked against its signature.
        oracles.dp_dsp(CostSeries.from_pairs([(1.0, 2.0), (3.0, 0.5), (2.0, 2.0)]), 0.5, 2)
    finally:
        tracer.remove(0)
    assert codes == [0] * len(TRACED_COMMANDS)
    counts = tracer.passes[-1]
    assert counts["chase.delta_trace.calls"] > 0
    assert counts["oracles.dp_dsp.calls"] > 0
    assert 0.0 <= counts["chase.boundary_share"] <= 1.0


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
