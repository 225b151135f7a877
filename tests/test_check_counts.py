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

from planswitch import RunConfig, bench, chase, oracles, protocol_cost_series, synth_trace, tariff
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


@pytest.mark.parametrize("config", [CONSTANT, LINEAR], ids=["constant", "linear"])
def test_evaluate_checks_nothing_twice(checks, config):
    # The cost series and the config are checked before _evaluate: the gap traces, the offline
    # optimum (the backward pass, or the DP's core), the kernels and the objectives add no check of their own.
    cs = protocol_cost_series(synth_trace(36, 1))
    draws = chase.SeededUniforms(config.seed, config.mc_runs, len(cs))
    fee = config.beta if config.fee_regime == "constant" else config.alpha
    checks.clear()
    list(bench._evaluate(config, cs, bench._benchmark_cost(config, cs), draws, [fee]))
    assert dict(checks) == {}


@pytest.mark.parametrize("config, once", [
    (CONSTANT, {"require_finite_rows": 1}),
    # RunConfig checks the first and the last point's alpha, contract length and fee mode
    (LINEAR, {"require_finite_rows": 1, "fee_term_rows": 2}),
], ids=["constant", "linear"])
def test_sweep_point_checks_nothing_twice(checks, config, once):
    # A fee point is checked by nothing, in either regime: the sweep checks the underusage rate of
    # its one cost series, and its ends.
    sweeps = []
    for points in (1, 2):
        checks.clear()
        bench.sweep(config, 5.0, 5.0 + points - 1, 1.0)
        sweeps.append(Counter(checks))
    assert sweeps[1] == sweeps[0]
    assert dict(sweeps[0]) == once


@pytest.mark.parametrize("oracle, terms, want", [
    (oracles.brute_force_sp, (5.0,), {"require_finite_rows": 1}),
    (oracles.brute_force_dsp, (1.0, 3, "transition-only"), {"fee_term_rows": 1}),
    (oracles.dp_dsp, (1.0, 3, "transition-only"), {"fee_term_rows": 1}),
], ids=["brute_force_sp", "brute_force_dsp", "dp_dsp"])
def test_one_row_oracle_checks_its_terms_once(checks, oracle, terms, want):
    # The CostSeries record checked the costs: the oracle checks its terms, runs its stack form's core, and
    # prices the schedule by the objective's unchecked fold; its Schedule record checks the states it returns.
    cs = protocol_cost_series(synth_trace(12, 1))
    checks.clear()
    oracle(cs, *terms)
    assert dict(checks) == {**want, "_first_nonbinary": 1}


def test_monte_carlo_checks_nothing_twice(checks):
    # The CostSeries record checked the costs and require_finite checks beta: the evaluation core builds no
    # DeltaTrace record and prices the replicates and the offline optimum unchecked.
    cs = protocol_cost_series(synth_trace(36, 1))
    checks.clear()
    monte_carlo(cs, 5.0, 20, 1)
    assert dict(checks) == {}


# One horizon stack per suite: k instances of T slots.
ONE_STACK = [(5, 7)]


@pytest.mark.parametrize("suite, want", [
    # The suite checks the constant-fee stack's costs and fees; the evaluation core (the backward pass under
    # test and its fold), the exhaustive search and its fold add none. The decreasing-fee stack: dp_dsps, the
    # code under test, and brute_force_dsps each check its costs and fee columns once; the folds run unchecked.
    ("oracle", {"cost_stack": 1 + 2, "require_finite_rows": 1, "fee_term_rows": 2}),
    # The suite checks the costs and fees; the evaluation core (gap traces, kernel, offline pass, folds) adds
    # none, and no drift is checked, as the constant fee has none.
    ("ratio", {"cost_stack": 1, "require_finite_rows": 1}),
    # Each of the three public identities the suite checks takes the stack and checks it once.
    ("identity", {"cost_stack": 3, "_first_nonbinary": 3, "require_finite_rows": 2, "fee_term_rows": 1}),
    # Not a stack suite: the CostSeries record checks each instance's costs and the core runs unchecked; the
    # marginals are compared with the cchase fractions the core returns, so no DeltaTrace record is built.
    ("montecarlo", {}),
])
def test_verify_stack_checks_nothing_twice(checks, monkeypatch, suite, want):
    monkeypatch.setattr(bench, "_horizons", lambda rng, n: ONE_STACK)
    # the ratio suite's adaptive adversary game is not a stack: left out here
    monkeypatch.setattr(bench, "deterministic_adversary", lambda *args: (None, RatioReport(3.0, 1.0, 3.0)))
    checks.clear()
    ok, _ = bench.run_verify_suite(suite, 4)
    assert ok
    assert dict(checks) == want
