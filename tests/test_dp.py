"""Differential tests of the O(T) decreasing-fee paths.

``dp_dsp`` is checked against the O(T * L) table it replaced, kept here as a
test-only oracle; its stack form ``dp_dsps``, and the core on one series
shared by every row, against ``dp_dsp`` row by row; and the stack objective
``dsp_costs`` on batches of replicate rows against the slot loop
``dsp_loop`` run once per row. Integer-valued costs with a dyadic ``alpha``
keep every sum exact, so exact ties reach both dynamic programs and exercise
the tie-break.
"""

import math

import numpy as np
import pytest
from scalar_objectives import dsp_loop

from planswitch import (
    CostSeries,
    InfeasibleScheduleError,
    Schedule,
    ValidationError,
    brute_force_dsps,
    dp_dsp,
    dp_dsps,
    dsp_cost,
    dsp_costs,
    random_cost_series,
)
from planswitch import oracles, tariff
from planswitch.chase import chase_kernel, drift_trace


# ---------------------------------------------------------------------------
# Test-only oracle: the O(T * L) table over (variable plan, run length).
# ---------------------------------------------------------------------------


def table_dp_dsp(cs, alpha, contract_len, fee_mode="literal"):
    """Best schedule of the decreasing-fee objective, one slot at a time.

    State after each slot: on the variable plan (index 0), or on the fixed
    plan with the current run at length r (index r, 1 <= r <= L). Ending a
    run of length r costs alpha * (L - r). Staying on the variable plan beats
    ending a run, shorter runs beat longer ones, and at the horizon the
    variable end beats the shortest open run.
    """
    period = len(cs)
    cap = contract_len
    g0, g1 = cs.g0, cs.g1
    inf = math.inf

    dp = [inf] * (cap + 1)
    dp[0] = g1[0]
    dp[1] = g0[0]
    parents = [[-1] * (cap + 1)]
    for t in range(1, period):
        ndp = [inf] * (cap + 1)
        par = [-1] * (cap + 1)
        best = dp[0]
        who = 0
        for r in range(1, cap + 1):
            if dp[r] == inf:
                continue
            c = dp[r] + alpha * (cap - r)
            if c < best:
                best = c
                who = r
        ndp[0] = best + g1[t]
        par[0] = who
        ndp[1] = dp[0] + g0[t]
        par[1] = 0
        for r in range(1, cap):
            if dp[r] < inf:
                ndp[r + 1] = dp[r] + g0[t]
                par[r + 1] = r
        dp = ndp
        parents.append(par)

    finals = [dp[0]]
    for r in range(1, cap + 1):
        if dp[r] == inf:
            finals.append(inf)
        elif fee_mode == "literal":
            finals.append(dp[r] + alpha * (cap - r))
        else:
            finals.append(dp[r])
    best = min(finals)
    state = finals.index(best)
    states_rev = []
    for t in range(period - 1, -1, -1):
        states_rev.append(0 if state else 1)
        state = parents[t][state]
    return Schedule(reversed(states_rev)), best


MODES = ("literal", "transition-only")


def _integer_series(rng, period):
    g = rng.integers(-3, 6, size=(2, period))
    return CostSeries(g[0].tolist(), g[1].tolist())


def _assert_matches_table(cs, alpha, cap, mode):
    got = dp_dsp(cs, alpha, cap, mode)
    want, _ = table_dp_dsp(cs, alpha, cap, mode)
    assert got.best_schedule.states.tolist() == want.states.tolist()
    assert got.best_cost == dsp_cost(want, cs, alpha, cap, mode)
    assert got.ties >= 1


class TestDpMatchesTable:
    @pytest.mark.parametrize("mode", MODES)
    def test_random_costs(self, mode):
        rng = np.random.default_rng(101)
        for _ in range(120):
            period = int(rng.integers(1, 301))
            cap = int(rng.integers(1, min(period, 40) + 1))
            alpha = float(rng.choice([0.0, 0.1, 1.0, 3.0]))
            _assert_matches_table(random_cost_series(rng, period), alpha, cap, mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_integer_costs_with_exact_ties(self, mode):
        rng = np.random.default_rng(102)
        for _ in range(300):
            period = int(rng.integers(1, 61))
            cap = int(rng.integers(1, period + 1))
            alpha = float(rng.choice([0.0, 0.5, 1.0, 3.0]))
            _assert_matches_table(_integer_series(rng, period), alpha, cap, mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_zero_alpha(self, mode):
        rng = np.random.default_rng(103)
        for period in (1, 2, 17, 300):
            for cs in (random_cost_series(rng, period), _integer_series(rng, period)):
                _assert_matches_table(cs, 0.0, min(period, 7), mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_contract_of_one_slot(self, mode):
        rng = np.random.default_rng(104)
        for period in (1, 5, 300):
            for cs in (random_cost_series(rng, period), _integer_series(rng, period)):
                _assert_matches_table(cs, 1.0, 1, mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_contract_as_long_as_horizon(self, mode):
        rng = np.random.default_rng(105)
        for period in (1, 6, 120, 300):
            for cs in (random_cost_series(rng, period), _integer_series(rng, period)):
                _assert_matches_table(cs, 0.5, period, mode)

    def test_all_zero_costs_tie_everywhere(self):
        zeros = CostSeries.from_pairs([(0, 0)] * 9)
        for cap in (1, 4, 9):
            for alpha in (0.0, 1.0):
                for mode in MODES:
                    _assert_matches_table(zeros, alpha, cap, mode)


class TestDpAtLargeFees:
    # The optimum pays no fee (staying variable is free), so it is a sum of costs near 50. A DP that adds
    # alpha times an absolute slot to those sums rounds them away: at alpha = 1e16 one ulp of 1e16 * s is 2 * s.
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("alpha", [1e15, 1e16, 1e100])
    def test_matches_exhaustive_search(self, alpha, mode):
        rng = np.random.default_rng(108)
        g0, g1 = rng.uniform(0.0, 10.0, size=(2, 60, 16))
        caps = rng.integers(2, 8, 60)
        want = dsp_costs(brute_force_dsps(g0, g1, alpha, caps, mode)[0], g0, g1, alpha, caps, mode)
        got = [dp_dsp(CostSeries(a, b), alpha, int(cap), mode).best_cost for a, b, cap in zip(g0, g1, caps)]
        assert got == pytest.approx(want.tolist(), abs=1e-9)
        assert dsp_costs(dp_dsps(g0, g1, alpha, caps, mode)[0], g0, g1, alpha, caps, mode).tolist() == got


class TestDpTies:
    def test_counts_tied_end_states(self):
        # Zero costs, no fee: the variable end and open runs of lengths 1, 2, 3 all total 0.
        assert dp_dsp(CostSeries.from_pairs([(0, 0)] * 3), 0.0, 3, "literal").ties == 4

    def test_unique_end_state(self):
        # The fixed plan is dearer every month, so only the variable end is optimal.
        assert dp_dsp(CostSeries.from_pairs([(5, 0)] * 4), 1.0, 2, "literal").ties == 1

    def test_ties_within_tolerance(self):
        rng = np.random.default_rng(106)
        for _ in range(50):
            period = int(rng.integers(1, 40))
            cap = int(rng.integers(1, period + 1))
            res = dp_dsp(_integer_series(rng, period), 1.0, cap, "transition-only")
            assert 1 <= res.ties <= min(cap, period) + 1


def _assert_rows_are_one_row_calls(g0, g1, alpha, cap, mode, states, ties):
    """Row i of a DP stack's result is dp_dsp's on row i (or on the one shared series): its states, its tie
    count, and its schedule's cost by the fold, bit for bit."""
    costs = dsp_costs(states, g0, g1, alpha, cap, mode)
    for i, (a, b) in enumerate(zip(*np.broadcast_arrays(np.atleast_2d(g0), np.atleast_2d(g1)))):
        one = dp_dsp(CostSeries(a, b), alpha[i], cap[i], mode[i])
        assert (states[i].tolist(), int(ties[i]), costs[i]) == (one.best_schedule.states.tolist(), one.ties,
                                                               one.best_cost)


def _dp_fees(rng, rows, period, modes):
    alpha = rng.choice([0.0, 0.5, 1.0, 3.0], rows).tolist()
    return alpha, rng.integers(1, period + 1, rows).tolist(), rng.choice(modes, rows).tolist()


class TestDpStack:
    """``dp_dsps`` on a cost stack, and its core on one series shared by every row with a fee per row (the
    shape run and sweep hand it), equal ``dp_dsp`` row by row."""

    @pytest.mark.parametrize("modes", [["literal"], ["transition-only"], MODES], ids=["literal", "transition-only",
                                                                                      "mixed"])
    def test_per_row_costs(self, modes):
        rng = np.random.default_rng(110)
        for _ in range(40):
            rows, period = int(rng.integers(1, 12)), int(rng.integers(1, 80))
            fees = _dp_fees(rng, rows, period, modes)
            for g0, g1 in (rng.uniform(-5.0, 10.0, (2, rows, period)), rng.integers(-3, 6, (2, rows, period))):
                _assert_rows_are_one_row_calls(g0, g1, *fees, *dp_dsps(g0, g1, *fees))

    @pytest.mark.parametrize("modes", [["literal"], ["transition-only"], MODES], ids=["literal", "transition-only",
                                                                                      "mixed"])
    def test_shared_series_with_per_row_fees(self, modes):
        rng = np.random.default_rng(111)
        for _ in range(40):
            rows, period = int(rng.integers(1, 12)), int(rng.integers(1, 80))
            fees = _dp_fees(rng, rows, period, modes)
            for g0, g1 in (rng.uniform(-5.0, 10.0, (2, period)), rng.integers(-3, 6, (2, period)).astype(float)):
                states, ties = oracles._dp(g0[None], g1[None], *tariff.fee_term_rows(*fees, rows))
                _assert_rows_are_one_row_calls(g0, g1, *fees, states, ties)

    def test_exact_ties(self):
        # Zero costs and no fee: every row ties its variable end with each open run.
        g = np.zeros((4, 5))
        alpha, cap, mode = [0.0] * 4, [1, 2, 5, 3], ["literal", "transition-only", "literal", "transition-only"]
        states, ties = dp_dsps(g, g, alpha, cap, mode)
        assert ties.tolist() == [2, 3, 6, 4]
        _assert_rows_are_one_row_calls(g, g, alpha, cap, mode, states, ties)

    def test_exact_tie_at_large_costs(self):
        # Both one-slot schedules cost 2^20 exactly. TIE_TOL is absolute, so best + TIE_TOL rounds to best once
        # costs reach 2^14: a strict comparison with the tolerance would count no tie at all here.
        g = [[2.0**20]]
        assert dp_dsps(g, g, 0.0, 1)[1].tolist() == [2]
        assert brute_force_dsps(g, g, 0.0, 1)[1].tolist() == [2]

    def test_one_row_stack_and_bad_input(self):
        cs = CostSeries.from_pairs([(5, 0), (0, 5), (0, 5)])
        states, ties = dp_dsps(cs.g0[None], cs.g1[None], 1.0, 2)
        assert states.dtype == np.int8 and states.tolist() == [[1, 0, 0]] and ties.tolist() == [1]
        with pytest.raises(ValidationError, match="cost stack shapes"):
            dp_dsps(cs.g0, cs.g1, 1.0, 2)
        with pytest.raises(ValidationError, match=r"one value or one per row \(1\)"):
            dp_dsps(cs.g0[None], cs.g1[None], 1.0, [2, 3])


def _guarded_states(rng, cs, alpha, cap, n_runs):
    dt = drift_trace(cs, alpha, cap)
    return chase_kernel(dt.values, dt.beta, rng.random((n_runs, len(cs))), cap)[0]


class TestBatchDspCosts:
    """``dsp_costs`` over batches of replicate rows on one shared series."""

    @pytest.mark.parametrize("mode", MODES)
    def test_bit_identical_to_scalar(self, mode):
        rng = np.random.default_rng(107)
        for _ in range(60):
            period = int(rng.integers(1, 80))
            cap = int(rng.integers(1, period + 1))
            alpha = float(rng.choice([0.1, 1.0, 7.3]))
            cs = random_cost_series(rng, period, low=-5.0, high=10.0)
            states = _guarded_states(rng, cs, alpha, cap, int(rng.integers(1, 30)))
            want = np.array([dsp_loop(row.tolist(), cs.g0, cs.g1, alpha, cap, mode) for row in states])
            assert np.array_equal(dsp_costs(states, cs.g0, cs.g1, alpha, cap, mode), want)

    @pytest.mark.parametrize("mode", MODES)
    def test_random_feasible_rows(self, mode):
        # Arbitrary 0/1 rows, not only the kernel's, with the cap at each row set's longest run.
        rng = np.random.default_rng(108)
        for _ in range(60):
            period = int(rng.integers(1, 40))
            states = rng.integers(0, 2, size=(int(rng.integers(1, 20)), period)).astype(np.int8)
            runs = np.diff(np.pad(states == 0, ((0, 0), (1, 1))).astype(np.int8), axis=1)
            longest = max((e - s for row in runs
                           for s, e in zip(np.flatnonzero(row == 1), np.flatnonzero(row == -1))), default=1)
            cap = longest + int(rng.integers(0, 3))
            cs = random_cost_series(rng, period)
            want = np.array([dsp_loop(row.tolist(), cs.g0, cs.g1, 0.3, cap, mode) for row in states])
            assert np.array_equal(dsp_costs(states, cs.g0, cs.g1, 0.3, cap, mode), want)

    def test_block_size_does_not_change_bits(self, monkeypatch):
        rng = np.random.default_rng(109)
        cs = random_cost_series(rng, 50)
        states = _guarded_states(rng, cs, 2.0, 6, 37)
        whole = dsp_costs(states, cs.g0, cs.g1, 2.0, 6)
        monkeypatch.setattr(tariff, "BLOCK_CELLS", 2 * 2 * 50)  # blocks of 2 rows of 2 x 50 float slots
        assert np.array_equal(dsp_costs(states, cs.g0, cs.g1, 2.0, 6), whole)

    def test_single_slot_and_empty_batch(self):
        cs = CostSeries.from_pairs([(2.0, 3.0)])
        got = dsp_costs(np.array([[0], [1]], dtype=np.int8), cs.g0, cs.g1, 1.5, 4, "literal")
        assert got.tolist() == [2.0 + 1.5 * 3, 3.0]
        assert dsp_costs(np.zeros((0, 1), np.int8), cs.g0, cs.g1, 1.5, 4).shape == (0,)

    def test_over_long_run_raises(self):
        cs = CostSeries.from_pairs([(0, 0)] * 5)
        states = np.array([[1, 0, 0, 1, 1], [1, 0, 0, 0, 1]], dtype=np.int8)
        with pytest.raises(InfeasibleScheduleError, match=r"row 1: fixed-plan run \[2, 4\] lasts 3"):
            dsp_costs(states, cs.g0, cs.g1, 1.0, 2)
        with pytest.raises(InfeasibleScheduleError, match=r"row 0: fixed-plan run \[2, 4\] lasts 3"):
            dsp_cost(Schedule(states[1].tolist()), cs, 1.0, 2)

    def test_rejects_bad_terms_and_shapes(self):
        cs = CostSeries.from_pairs([(0, 0)] * 3)
        states = np.ones((2, 3), dtype=np.int8)
        with pytest.raises(ValidationError):
            dsp_costs(states, cs.g0, cs.g1, 1.0, 0)
        with pytest.raises(ValidationError):
            dsp_costs(states, cs.g0, cs.g1, 1.0, 3, "both")
        with pytest.raises(ValidationError):
            dsp_costs(states[:, :2], cs.g0, cs.g1, 1.0, 3)
