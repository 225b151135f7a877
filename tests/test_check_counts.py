"""Each input is checked once, where it enters: by ``RunConfig``, by a record's
constructor, or by the public function a caller calls. Below that edge the
kernels and objectives run unchecked, so none of them checks an array again.

The rules are counted by wrapping them in every ``planswitch`` module that
binds them: the gap-trace rule (``chase._as_stack``), the cost-stack rule
(``tariff.cost_stack``), the 0/1 state rule (``tariff._first_nonbinary``), the
decreasing-fee rule (``tariff.fee_term_rows``) and the per-row finiteness rule
(``tariff.require_finite_rows``). Every count below names the check it is.
"""

import sys
from collections import Counter
from dataclasses import replace

import pytest

from planswitch import RunConfig, bench, chase, protocol_cost_series, synth_trace, tariff
from planswitch.adversary import RatioReport, monte_carlo

RULES = {"_as_stack": chase._as_stack, "cost_stack": tariff.cost_stack, "_first_nonbinary": tariff._first_nonbinary,
         "fee_term_rows": tariff.fee_term_rows, "require_finite_rows": tariff.require_finite_rows}


@pytest.fixture
def checks(monkeypatch):
    """Calls of each rule, by name, from anywhere in the package."""
    counts = Counter()
    for name, rule in RULES.items():
        def counted(*args, _name=name, _rule=rule, **kwargs):
            counts[_name] += 1
            return _rule(*args, **kwargs)

        for module in [m for n, m in sys.modules.items() if n.startswith("planswitch")]:
            if vars(module).get(name) is rule:
                monkeypatch.setattr(module, name, counted)
    return counts


CONSTANT = RunConfig(synth_slots=36, seed=1, algorithms=("ofa", "gchase", "gchase_r", "cchase"), mc_runs=20)
LINEAR = replace(CONSTANT, fee_regime="linear", algorithms=("ofa", "dp", "gchase", "gchase_r"))
# the DeltaTrace that _evaluate builds checks the trace its clamp made
RECORD = {"_as_stack": 1}
# dp_dsp, the public oracle that run reports as the offline optimum, checks its terms,
# and its Schedule record the states it found
OFFLINE_REFERENCE = {"fee_term_rows": 1, "_first_nonbinary": 1}


@pytest.mark.parametrize("config, want", [(CONSTANT, RECORD), (LINEAR, RECORD | OFFLINE_REFERENCE)],
                         ids=["constant", "linear"])
def test_evaluate_checks_nothing_twice(checks, config, want):
    # The cost series and the config are checked before _evaluate: the gap trace, the
    # offline pass, the kernels and the objectives add no check of their own.
    cs = protocol_cost_series(synth_trace(36, 1))
    draws = chase.SeededUniforms(config.seed, config.mc_runs, len(cs))
    fee = config.beta if config.fee_regime == "constant" else config.alpha
    checks.clear()
    bench._evaluate(config, cs, bench._benchmark_cost(config, cs), draws, fee)
    assert dict(checks) == want


@pytest.mark.parametrize("config, once", [
    (CONSTANT, {"require_finite_rows": 1}),
    # RunConfig checks the first and the last point's alpha, contract length and fee mode
    (LINEAR, {"require_finite_rows": 1, "fee_term_rows": 2}),
], ids=["constant", "linear"])
def test_sweep_point_checks_nothing_twice(checks, config, once):
    # A fee point is checked as a run is: its gap trace record and its offline reference.
    # The sweep itself checks the underusage rate of its one cost series, and its ends.
    want = RECORD | (OFFLINE_REFERENCE if config.fee_regime == "linear" else {})
    sweeps = []
    for points in (1, 2):
        checks.clear()
        bench.sweep(config, 5.0, 5.0 + points - 1, 1.0)
        sweeps.append(Counter(checks))
    assert dict(sweeps[1] - sweeps[0]) == want
    assert dict(sweeps[0] - Counter(want)) == once


def test_monte_carlo_checks_nothing_twice(checks):
    # Its gap trace record checks the trace; the fold prices the replicates and the offline optimum unchecked.
    cs = protocol_cost_series(synth_trace(36, 1))
    checks.clear()
    monte_carlo(cs, 5.0, 20, 1)
    assert dict(checks) == RECORD


# One horizon stack per suite: k instances of T slots.
ONE_STACK = [(5, 7)]


@pytest.mark.parametrize("suite, want", [
    # delta_traces checks the costs and fees; offline_states, which the suite calls as the
    # code under test, checks the stack it is given (and its fees); the exhaustive search and
    # the folds run unchecked. The decreasing-fee stack: brute_force_dsps checks its costs and
    # fee columns; each instance's dp_dsp, the code under test, its own terms and result.
    ("oracle", {"cost_stack": 1 + 1, "require_finite_rows": 1 + 1, "_as_stack": 1,
                "fee_term_rows": 1 + 7, "_first_nonbinary": 7}),
    # delta_traces checks the costs and fees; the kernel, the offline pass and the folds add none.
    ("ratio", {"cost_stack": 1, "require_finite_rows": 1}),
    # Each of the three public identities the suite checks takes the stack and checks it once.
    ("identity", {"cost_stack": 3, "_first_nonbinary": 3, "require_finite_rows": 2, "fee_term_rows": 1}),
])
def test_verify_stack_checks_nothing_twice(checks, monkeypatch, suite, want):
    monkeypatch.setattr(bench, "_horizons", lambda rng, n: ONE_STACK)
    # the ratio suite's adaptive adversary game is not a stack: left out here
    monkeypatch.setattr(bench, "deterministic_adversary", lambda *args: (None, RatioReport(3.0, 1.0, 3.0)))
    checks.clear()
    ok, _ = bench.run_verify_suite(suite, 4)
    assert ok
    assert dict(checks) == want

