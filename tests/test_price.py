"""Differential tests of the evaluation core ``adversary._price``.

Every row of the core's output is checked, bit for bit, against the public
checked one-row calls it replaces: the optimum against ``sp_cost(ofa_s(dt))``
or ``dp_dsp(...).best_cost``, the deterministic rule against
``sp_cost(gchase_s(dt))`` or ``gchase_dsp`` (its forced switches too), the
continuous rule against ``csp_cost(cchase(dt))``, and each replicate of the
randomized rule against ``gchase_r`` or ``gchase_r_dsp`` on its own seeded
generator. Stacks come with one cost series per row or one row shared by
every fee row (the randomized rule runs on a shared row only, as every caller
runs it), in both fee regimes and both decreasing-fee modes. The stacked fold
``chase._csp_fold`` is checked against ``csp_cost`` row by row.
"""

import numpy as np
import pytest

from planswitch import (
    CostSeries,
    FractionalSchedule,
    cchase,
    csp_cost,
    delta_trace,
    dp_dsp,
    dsp_cost,
    gchase_dsp,
    gchase_r,
    gchase_r_dsp,
    gchase_s,
    ofa_s,
    sp_cost,
)
from planswitch.adversary import _mean_stderr, _price
from planswitch.chase import SeededUniforms, _csp_fold

RUNS, SEED = 5, 7


def _instances(seed, count, shared):
    """(g0, g1, fee) stacks: small integer costs (-0.0 among their zeros) or floats; one series per row, or one
    row of costs for every fee row when ``shared``."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        rows, period = int(rng.integers(1, 8)), int(rng.integers(1, 15))
        shape = (2, 1 if shared else rows, period)
        if k % 2:
            g = rng.integers(0, 5, size=shape).astype(np.float64)
            g[(g == 0.0) & (rng.random(shape) < 0.5)] = -0.0
        else:
            g = rng.uniform(-2.0, 10.0, size=shape)
        yield g[0], g[1], rng.choice([0.25, 0.5, 1.0, 2.0, 3.0], size=rows)


def _series(g0, g1, i):
    return CostSeries(g0[i % len(g0)], g1[i % len(g1)])


def _same(got, want):
    assert [repr(v) for v in np.ravel(got).tolist()] == [repr(float(v)) for v in np.ravel(want)]


def _check_replicates(priced, i, one_row):
    # Row i's replicates, each against the public call on its own seeded generator, then their mean and stderr
    # against the one-row rule over the public calls' costs. one_row(rng) gives (schedule, forced, cost).
    if "gchase_r" not in priced:
        return
    costs = []
    for j in range(RUNS):
        sched, forced, cost = one_row(np.random.default_rng(SEED + j))
        assert priced["gchase_r"][2][i * RUNS + j].tolist() == sched.states.tolist()
        assert priced["gchase_r"][3][i * RUNS + j] == forced
        costs.append(cost)
    mean, stderr = _mean_stderr(np.array([costs]))
    _same(priced["gchase_r"][0][i], mean)
    _same(priced["gchase_r"][1][i], stderr)


@pytest.mark.parametrize("shared", [False, True], ids=["stack", "shared-row"])
def test_constant_fee_rows_are_one_row_calls(shared):
    for g0, g1, beta in _instances(11 + shared, 40, shared):
        draws = SeededUniforms(SEED, RUNS, g0.shape[1])  # the randomized rule on a shared row only
        priced = _price(g0, g1, beta, ("ofa", "gchase", "cchase") + ("gchase_r",) * shared, draws)
        assert priced["dp"] is priced["ofa"]
        for i, fee in enumerate(beta.tolist()):
            cs = _series(g0, g1, i)
            dt = delta_trace(cs, fee)
            for name, sched in (("ofa", ofa_s(dt)), ("gchase", gchase_s(dt))):
                _same(priced[name][0][i], sp_cost(sched, cs, fee))
                assert priced[name][2][i].tolist() == sched.states.tolist()
            assert priced["gchase"][3][i] == 0 and priced["ofa"][3] is None
            _same(priced["cchase"][0][i], csp_cost(cchase(dt), cs, fee))
            _same(priced["cchase"][2][i], cchase(dt).x)

            def one_row(rng):
                sched = gchase_r(dt, rng)
                return sched, 0, sp_cost(sched, cs, fee)

            _check_replicates(priced, i, one_row)


@pytest.mark.parametrize("mode", ["literal", "transition-only"])
@pytest.mark.parametrize("shared", [False, True], ids=["stack", "shared-row"])
def test_decreasing_fee_rows_are_one_row_calls(shared, mode):
    cuts = 0  # the guard's forced switches, which the instances must reach
    for cap in (1, 2, 4):
        for g0, g1, alpha in _instances(20 + cap + shared, 20, shared):
            draws = SeededUniforms(SEED, RUNS, g0.shape[1])
            priced = _price(g0, g1, alpha, ("dp", "gchase") + ("gchase_r",) * shared, draws, cap, mode == "literal")
            for i, fee in enumerate(alpha.tolist()):
                cs = _series(g0, g1, i)
                best = dp_dsp(cs, fee, cap, mode)
                _same(priced["dp"][0][i], best.best_cost)
                assert priced["dp"][2][i].tolist() == best.best_schedule.states.tolist()
                sched, forced = gchase_dsp(cs, fee, cap)
                _same(priced["gchase"][0][i], dsp_cost(sched, cs, fee, cap, mode))
                assert priced["gchase"][2][i].tolist() == sched.states.tolist()
                assert priced["gchase"][3][i] == forced
                cuts += forced

                def one_row(rng):
                    sched, forced = gchase_r_dsp(cs, fee, cap, rng)
                    return sched, forced, dsp_cost(sched, cs, fee, cap, mode)

                _check_replicates(priced, i, one_row)
    assert cuts > 0


@pytest.mark.parametrize("shared", [False, True], ids=["stack", "shared-row"])
def test_csp_fold_rows_are_csp_cost(shared):
    rng = np.random.default_rng(31)
    for k in range(40):
        rows, period = int(rng.integers(1, 8)), int(rng.integers(1, 15))
        g = rng.uniform(-5.0, 10.0, size=(2, 1 if shared else rows, period))
        x = rng.random((rows, period))
        if k % 2:  # a schedule that pins at its ends
            x[rng.random(x.shape) < 0.3] = 0.0
            x[rng.random(x.shape) < 0.3] = 1.0
        beta = rng.choice([0.5, 1.0, 4.0], size=rows)
        got = _csp_fold(x, g[0], g[1], beta)
        for i, fee in enumerate(beta.tolist()):
            _same(got[i], csp_cost(FractionalSchedule(x[i]), _series(g[0], g[1], i), fee))


def test_csp_fold_of_negative_zeros_is_positive_zero():
    g = np.full((3, 4), -0.0)
    got = _csp_fold(np.zeros((3, 4)), g, g, np.ones(3))
    assert [repr(v) for v in got.tolist()] == ["0.0"] * 3
    assert repr(csp_cost(FractionalSchedule([0.0] * 4), CostSeries(g[0], g[0]), 1.0)) == "0.0"
