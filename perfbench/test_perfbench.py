"""Tests of the benchmark itself: its reference DPs against exhaustive
enumeration, and the rule that --seed changes the generated inputs and
nothing else.

Run from the repository root: PYTHONPATH=src python3 -m pytest -q perfbench
"""

import itertools
import math
import os

import numpy as np
import pytest

import reference as ref
import run
import workloads


def _scalar_sp(states, g0, g1, beta):
    total, prev = 0.0, 0
    for s, a, b in zip(states, g0, g1):
        total += b if s else a
        total += beta if s > prev else 0.0
        prev = s
    return total


def _scalar_dsp(states, g0, g1, alpha, length, mode):
    total = sum(b if s else a for s, a, b in zip(states, g0, g1))
    run_len = 0
    for s in list(states) + [None]:
        if s == 0:
            run_len += 1
            continue
        if run_len > length:
            return math.inf
        if run_len and (mode == "literal" or s is not None):
            total += alpha * (length - run_len)
        run_len = 0
    return total


def _instances(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        period = int(rng.integers(1, 13))
        g = rng.uniform(-2.0, 10.0, size=(2, period))
        yield rng, period, g[0], g[1]


def test_sp_opt_matches_enumeration():
    for rng, period, g0, g1 in _instances(150, 1):
        beta = float(rng.choice([0.0, 0.5, 2.0, 7.0]))
        costs = [_scalar_sp(s, g0, g1, beta) for s in itertools.product((0, 1), repeat=period)]
        assert ref.sp_opt(g0, g1, beta) == pytest.approx(min(costs), abs=1e-9)
        states = rng.integers(0, 2, size=period)
        assert ref.sp_cost(states, g0, g1, beta) == pytest.approx(_scalar_sp(states, g0, g1, beta), abs=1e-9)


@pytest.mark.parametrize("mode", ["literal", "transition-only"])
def test_dsp_opt_matches_enumeration(mode):
    for rng, period, g0, g1 in _instances(150, 2):
        alpha = float(rng.choice([0.0, 0.1, 1.0, 3.0]))
        length = int(rng.integers(1, period + 1))
        costs = [_scalar_dsp(s, g0, g1, alpha, length, mode)
                 for s in itertools.product((0, 1), repeat=period)]
        assert ref.dsp_opt(g0, g1, alpha, length, mode) == pytest.approx(min(costs), abs=1e-9)
        states = rng.integers(0, 2, size=period)
        expected = _scalar_dsp(states, g0, g1, alpha, length, mode)
        assert ref.dsp_cost(states, g0, g1, alpha, length, mode) == pytest.approx(expected, abs=1e-9)


def test_csp_cost_of_integral_schedule_is_sp_cost():
    for rng, period, g0, g1 in _instances(50, 3):
        states = rng.integers(0, 2, size=period)
        assert ref.csp_cost(states, g0, g1, 2.5) == pytest.approx(ref.sp_cost(states, g0, g1, 2.5), abs=1e-9)


def _inputs(workdir):
    files = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            files[name] = fh.read()
    return files


def _argv(wl, workdir, hide_seed):
    """The commands with the work directory, and optionally the --seed values, blanked."""
    out = []
    for cmd in wl.commands:
        cmd = [a.replace(workdir, "DIR") for a in cmd]
        for i in range(len(cmd) - 1):
            if hide_seed and cmd[i] == "--seed":
                cmd[i + 1] = "SEED"
        out.append(tuple(cmd))
    return out


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed_changes_inputs_and_nothing_else(name, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "CONSTANT_SLOTS", 500)
    monkeypatch.setattr(workloads, "LINEAR_SLOTS", 300)
    dirs = {k: str(tmp_path / k) for k in ("a", "a2", "b")}
    built = {k: workloads.build(name, seed, d) for (k, d), seed in zip(dirs.items(), (3, 3, 4))}
    files = {k: _inputs(d) for k, d in dirs.items()}
    argv = {k: _argv(built[k], dirs[k], hide_seed=False) for k in dirs}

    assert argv["a"] == argv["a2"]
    assert files["a"] == files["a2"]
    assert argv["a"] != argv["b"]
    assert _argv(built["a"], dirs["a"], True) == _argv(built["b"], dirs["b"], True)
    assert files["a"].keys() == files["b"].keys()
    for key in files["a"]:
        assert files["a"][key] != files["b"][key]
        assert files["a"][key].count(b"\n") == files["b"][key].count(b"\n")


def test_benchmark_json_names_the_workloads():
    assert list(run.WORKLOADS) == list(workloads.NAMES)
