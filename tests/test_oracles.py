import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scalar_objectives import dsp_loop, potential_loop, sp_loop

from planswitch import (
    BRUTE_FORCE_MAX_T,
    CostSeries,
    FractionalSchedule,
    InfeasibleScheduleError,
    Schedule,
    ValidationError,
    brute_force_dsp,
    brute_force_dsps,
    brute_force_sp,
    brute_force_sps,
    cchase,
    delta_trace,
    dp_dsp,
    dp_dsps,
    dsp_cost,
    dsp_costs,
    ofa_s,
    phi_identity_dsp,
    phi_identity_sp,
    potential_check,
    random_cost_series,
    random_schedule,
    randomized_lb_instance,
    sp_cost,
    sp_costs,
    zero_runs,
)
from planswitch import oracles
from planswitch.oracles import TIE_TOL

CS_A = CostSeries.from_pairs([(3, 0), (0, 3), (0, 0)])
ZEROS3 = CostSeries.from_pairs([(0, 0)] * 3)


class TestBruteForceSp:
    def test_enumerates_all_eight(self):
        res = brute_force_sp(CS_A, 2.0)
        assert res.best_cost == pytest.approx(2.0, abs=1e-12)
        assert res.best_schedule.states.tolist() == [1, 0, 0]

    def test_single_slot_prefers_cheap_plan(self):
        res = brute_force_sp(CostSeries.from_pairs([(0, 10)]), 1.0)
        assert res.best_schedule.states.tolist() == [0]
        assert res.best_cost == pytest.approx(0.0, abs=1e-12)

    def test_single_slot_pays_fee_to_switch(self):
        res = brute_force_sp(CostSeries.from_pairs([(10, 0)]), 1.0)
        assert res.best_schedule.states.tolist() == [1]
        assert res.best_cost == pytest.approx(1.0, abs=1e-12)

    def test_refuses_large_horizons(self):
        cs = CostSeries.from_pairs([(0, 0)] * 23)
        with pytest.raises(ValueError, match="refusing"):
            brute_force_sp(cs, 1.0)

    def test_reported_cost_matches_reported_schedule(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            cs = random_cost_series(rng, int(rng.integers(1, 10)))
            res = brute_force_sp(cs, 1.5)
            assert res.best_cost == sp_cost(res.best_schedule, cs, 1.5)
            assert res.ties >= 1

    def test_unique_optimum_matches_backward_pass(self):
        rng = np.random.default_rng(10)
        for _ in range(120):
            period = int(rng.integers(1, 11))
            beta = float(rng.choice([0.5, 1.0, 2.0]))
            cs = random_cost_series(rng, period)
            res = brute_force_sp(cs, beta)
            if res.ties == 1:
                assert ofa_s(delta_trace(cs, beta)).states.tolist() == res.best_schedule.states.tolist()

    def test_tie_break_is_lexicographic(self):
        # all-zero costs with zero-ish fee: every no-switch schedule ties;
        # the all-fixed schedule sorts first
        cs = CostSeries.from_pairs([(0, 0)] * 3)
        res = brute_force_sp(cs, 1e-12)
        assert res.best_schedule.states.tolist() == [0, 0, 0]
        assert res.ties >= 2


class TestBruteForceDsp:
    def test_zero_costs_full_contract(self):
        res = brute_force_dsp(ZEROS3, 1.0, 3, "literal")
        assert res.best_cost == pytest.approx(0.0, abs=1e-12)
        assert res.best_schedule.states.tolist() == [0, 0, 0]

    def test_shorter_contract_excludes_full_run(self):
        res = brute_force_dsp(ZEROS3, 1.0, 2, "literal")
        assert res.best_cost == pytest.approx(0.0, abs=1e-12)
        assert 3 not in [e - s + 1 for s, e in zero_runs(res.best_schedule)]

    def test_zero_alpha_matches_free_switching(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            period = int(rng.integers(1, 9))
            cs = random_cost_series(rng, period)
            dsp = brute_force_dsp(cs, 0.0, period, "literal")
            sp = brute_force_sp(cs, 0.0)
            assert dsp.best_cost == pytest.approx(sp.best_cost, abs=1e-9)


class TestDpDsp:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(14)
        for _ in range(150):
            period = int(rng.integers(1, 13))
            cap = int(rng.integers(1, period + 1))
            alpha = float(rng.choice([0.0, 0.1, 1.0]))
            mode = "literal" if rng.integers(0, 2) else "transition-only"
            cs = random_cost_series(rng, period)
            got = dp_dsp(cs, alpha, cap, mode)
            want = brute_force_dsp(cs, alpha, cap, mode)
            assert got.best_cost == pytest.approx(want.best_cost, abs=1e-9)
            assert got.best_cost == dsp_cost(got.best_schedule, cs, alpha, cap, mode)
            assert got.ties >= 1

    def test_zero_alpha_long_contract_matches_sp(self):
        rng = np.random.default_rng(15)
        cs = random_cost_series(rng, 10)
        assert dp_dsp(cs, 0.0, 10, "literal").best_cost == pytest.approx(
            brute_force_sp(cs, 0.0).best_cost, abs=1e-9
        )

    def test_zero_costs_full_contract_free(self):
        assert dp_dsp(ZEROS3, 1.0, 3, "literal").best_cost == pytest.approx(0.0, abs=1e-12)

    def test_scales_past_enumeration_limits(self):
        rng = np.random.default_rng(16)
        cs = random_cost_series(rng, 300)
        res = dp_dsp(cs, 0.3, 12, "literal")
        assert res.best_cost == dsp_cost(res.best_schedule, cs, 0.3, 12, "literal")


class TestSegmentIdentities:
    def test_all_fixed_schedule_telescopes(self):
        rng = np.random.default_rng(18)
        cs = random_cost_series(rng, 6)
        lhs, rhs = phi_identity_sp(Schedule([0] * 6), cs, 2.0)
        assert lhs == pytest.approx(sum(cs.g0), abs=1e-9)
        assert rhs == pytest.approx(sum(cs.g0), abs=1e-9)

    def test_hand_example(self):
        lhs, rhs = phi_identity_sp(Schedule([1, 0, 0]), CS_A, 2.0)
        assert lhs == pytest.approx(2.0, abs=1e-12)
        assert rhs == pytest.approx(2.0, abs=1e-12)

    def test_random_triples(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            period = int(rng.integers(1, 13))
            beta = float(rng.uniform(0.0, 5.0))
            cs = random_cost_series(rng, period)
            sched = random_schedule(rng, period)
            lhs, rhs = phi_identity_sp(sched, cs, beta)
            assert abs(lhs - rhs) < 1e-9

    def test_dsp_all_fixed(self):
        rng = np.random.default_rng(20)
        cs = random_cost_series(rng, 5)
        lhs, rhs = phi_identity_dsp(Schedule([0] * 5), cs, 0.7, 9)
        expected = sum(cs.g0) + 0.7 * (9 - 5)
        assert lhs == pytest.approx(expected, abs=1e-9)
        assert rhs == pytest.approx(expected, abs=1e-9)

    def test_dsp_zero_alpha_reduces_to_sp(self):
        rng = np.random.default_rng(23)
        cs = random_cost_series(rng, 7)
        sched = random_schedule(rng, 7)
        lhs, rhs = phi_identity_dsp(sched, cs, 0.0, 7)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert lhs == pytest.approx(sp_cost(sched, cs, 0.0), abs=1e-12)

    def test_dsp_random_feasible_triples(self):
        rng = np.random.default_rng(24)
        for _ in range(300):
            period = int(rng.integers(1, 13))
            cs = random_cost_series(rng, period)
            sched = random_schedule(rng, period)
            runs = zero_runs(sched)
            cap = max((e - s + 1) for s, e in runs) if runs else 1
            cap += int(rng.integers(0, 3))
            alpha = float(rng.uniform(0.0, 2.0))
            lhs, rhs = phi_identity_dsp(sched, cs, alpha, cap)
            assert abs(lhs - rhs) < 1e-9


class TestPotentialCheck:
    def test_self_comparison_cumulative_nonnegative(self):
        rng = np.random.default_rng(25)
        for _ in range(60):
            period = int(rng.integers(1, 15))
            beta = float(rng.uniform(0.3, 4.0))
            cs = random_cost_series(rng, period)
            xs = cchase(delta_trace(cs, beta))
            slacks = potential_check(xs, xs, cs, beta)
            assert sum(slacks) >= -1e-9

    def test_tight_instance_slack_vanishes(self):
        prev = None
        for small in (0.1, 0.01, 0.001):
            cs = randomized_lb_instance(1.0, small, 5)
            xs = cchase(delta_trace(cs, 1.0))
            total = sum(potential_check(xs, Schedule([0] * 5), cs, 1.0))
            assert total == pytest.approx(small * small, abs=1e-12)  # quadratic residue
            if prev is not None:
                assert total < prev
            prev = total

    def test_idle_trajectories_have_zero_slack(self):
        cs = CostSeries.from_pairs([(0, 0)] * 4)
        from planswitch import FractionalSchedule

        xs = FractionalSchedule([0.0] * 4)
        assert potential_check(xs, xs, cs, 2.0) == [0.0] * 4

    @pytest.mark.parametrize("beta", [math.nan, -1.0, math.inf])
    def test_bad_beta_refused(self, beta):
        cs = random_cost_series(np.random.default_rng(27), 4)
        xs = cchase(delta_trace(cs, 1.0))
        with pytest.raises(ValidationError, match="beta"):
            potential_check(xs, xs, cs, beta)

    def test_slacks_equal_the_slot_loop(self):
        # Costs, fractions and fees drawn partly from pools of signed zeros and
        # repeated values, so min, max and the differences meet ties and -0.0.
        rng = np.random.default_rng(28)
        cost_pool = np.array([-0.0, 0.0, 1.0, 2.5, -1.5])
        x_pool = np.array([-0.0, 0.0, 0.5, 1.0])

        def pick(pool, draw, n):
            return np.where(rng.random(n) < 0.5, rng.choice(pool, n), draw(n))

        for i in range(2000):
            period = int(rng.integers(1, 13))
            g0 = pick(cost_pool, lambda n: rng.uniform(-2.0, 10.0, n), period)
            g1 = np.where(rng.random(period) < 0.3, g0, pick(cost_pool, lambda n: rng.uniform(-2.0, 10.0, n), period))
            beta = float(rng.choice([0.0, 0.5, 1.0, 3.0])) if i % 2 else float(rng.uniform(0.0, 5.0))
            cs = CostSeries(g0, g1)
            xs = FractionalSchedule(pick(x_pool, rng.random, period))
            comparators = (Schedule(rng.integers(0, 2, period)), FractionalSchedule(pick(x_pool, rng.random, period)))
            for zs in comparators:
                z = zs.x if isinstance(zs, FractionalSchedule) else zs.states.astype(np.float64)
                want = potential_loop(xs.x.tolist(), z.tolist(), g0.tolist(), g1.tolist(), beta)
                got = potential_check(xs, zs, cs, beta)
                assert list(map(repr, got)) == list(map(repr, want))

    def test_against_offline_schedule_certifies_factor_two(self):
        rng = np.random.default_rng(26)
        for _ in range(60):
            period = int(rng.integers(1, 13))
            beta = float(rng.uniform(0.3, 4.0))
            cs = random_cost_series(rng, period)
            dt = delta_trace(cs, beta)
            xs = cchase(dt)
            slacks = potential_check(xs, ofa_s(dt), cs, beta)
            assert sum(slacks) >= -1e-9


# ---------------------------------------------------------------------------
# Stacked exhaustive search against an independent enumeration: every schedule
# from itertools.product (lexicographic order), priced by the objectives' slot loops.
# ---------------------------------------------------------------------------


def enumerate_best(period, price):
    """(first tied best states, best cost, tie count) over all feasible schedules."""
    priced = []
    for states in itertools.product((0, 1), repeat=period):
        try:
            priced.append((price(states), states))
        except InfeasibleScheduleError:
            continue
    best = min(cost for cost, _ in priced)
    tied = [states for cost, states in priced if cost <= best + TIE_TOL]
    return tied[0], best, len(tied)


def check_sp_rows(g0, g1, beta):
    states, ties = brute_force_sps(g0, g1, beta)
    beta = np.broadcast_to(beta, len(g0)).tolist()
    priced = sp_costs(states, g0, g1, beta)
    for i, (a, b) in enumerate(zip(g0.tolist(), g1.tolist())):
        want, best, count = enumerate_best(len(a), lambda s: sp_loop(s, a, b, beta[i]))
        assert tuple(states[i].tolist()) == want
        assert priced[i] == sp_loop(want, a, b, beta[i])
        assert best <= priced[i] <= best + TIE_TOL
        assert ties[i] == count


def check_dsp_rows(g0, g1, alpha, cap, mode):
    # exhaustive search's first tied schedule, and the DP's optimum on the same stack
    states, ties = brute_force_dsps(g0, g1, alpha, cap, mode)
    priced = dsp_costs(states, g0, g1, alpha, cap, mode)
    dp_priced = dsp_costs(dp_dsps(g0, g1, alpha, cap, mode)[0], g0, g1, alpha, cap, mode)
    for i, (a, b) in enumerate(zip(g0.tolist(), g1.tolist())):
        want, best, count = enumerate_best(len(a), lambda s: dsp_loop(s, a, b, alpha[i], cap[i], mode[i]))
        assert tuple(states[i].tolist()) == want
        assert priced[i] == dsp_loop(want, a, b, alpha[i], cap[i], mode[i])
        assert best <= priced[i] <= best + TIE_TOL
        assert best <= dp_priced[i] <= best + TIE_TOL
        assert ties[i] == count


@st.composite
def int_stacks(draw, max_rows=4, max_period=7):
    """(g0, g1) of a few rows of small integer costs, where tied schedules are common."""
    rows, period = draw(st.integers(1, max_rows)), draw(st.integers(1, max_period))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, 4, size=(2, rows, period))
    return g[0].astype(np.float64), g[1].astype(np.float64)


def dsp_fees(rng, rows, period):
    alpha = rng.choice([0.0, 0.1, 0.5, 1.0, 2.0], size=rows).tolist()
    cap = rng.integers(1, period + 1, size=rows).tolist()
    mode = rng.choice(["literal", "transition-only"], size=rows).tolist()
    return alpha, cap, mode


class TestStackedSearch:
    @settings(max_examples=150, deadline=None)
    @given(int_stacks(), st.integers(0, 2**32 - 1))
    def test_sp_matches_enumeration_on_integer_costs(self, g, seed):
        beta = np.random.default_rng(seed).choice([0.0, 0.5, 1.0, 2.0, 3.0], size=len(g[0]))
        check_sp_rows(*g, beta)
        check_sp_rows(*g, float(beta[0]))

    @settings(max_examples=150, deadline=None)
    @given(int_stacks(), st.integers(0, 2**32 - 1))
    # Row 3 (alpha 0.1) has tied schedules whose totals differ in the last bit:
    # the first tied one is priced at 8.4, the cheapest at 8.399999999999999.
    @example(g=(np.array([[3, 2, 2, 3, 2, 3, 3], [0, 0, 1, 1, 3, 3, 0], [1, 3, 0, 3, 0, 1, 3], [1, 1, 1, 2, 1, 3, 1]],
                         dtype=np.float64),
                np.array([[1, 2, 2, 2, 2, 3, 3], [3, 2, 2, 1, 3, 1, 0], [3, 0, 3, 2, 0, 0, 1], [0, 0, 2, 3, 1, 3, 3]],
                         dtype=np.float64)),
             seed=2293)
    def test_dsp_matches_enumeration_on_integer_costs(self, g, seed):
        check_dsp_rows(*g, *dsp_fees(np.random.default_rng(seed), len(g[0]), g[0].shape[1]))

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_float_stacks(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(5):
            rows, period = int(rng.integers(1, 6)), int(rng.integers(1, 10))
            g0, g1 = rng.uniform(-2.0, 10.0, size=(2, rows, period))
            check_sp_rows(g0, g1, rng.choice([0.0, 0.5, 1.0, 2.0, 5.0], size=rows))
            check_dsp_rows(g0, g1, *dsp_fees(rng, rows, period))

    @pytest.mark.parametrize("mode", ["literal", "transition-only"])
    def test_both_fee_modes_on_one_stack(self, mode):
        g0, g1 = np.zeros((3, 4)), np.full((3, 4), 1.0)
        alpha, cap = [0.5, 0.5, 2.0], [4, 2, 3]
        check_dsp_rows(g0, g1, alpha, cap, [mode] * 3)
        states, _ = brute_force_dsps(g0, g1, alpha, cap, mode)
        assert states.shape == (3, 4)

    def test_rows_equal_one_row_calls(self):
        rng = np.random.default_rng(21)
        for period in (1, 5, 9):
            rows = 7
            g0, g1 = rng.integers(0, 3, size=(2, rows, period)).astype(np.float64)
            beta = rng.choice([0.5, 1.0, 2.0], size=rows)
            alpha, cap, mode = dsp_fees(rng, rows, period)
            sp_states, sp_ties = brute_force_sps(g0, g1, beta)
            dsp_states, dsp_ties = brute_force_dsps(g0, g1, alpha, cap, mode)
            sp_priced, dsp_priced = sp_costs(sp_states, g0, g1, beta), dsp_costs(dsp_states, g0, g1, alpha, cap, mode)
            for i in range(rows):
                # each one-row oracle: its stack form's row, priced by the same fold bit for bit
                cs = CostSeries(g0[i], g1[i])
                one = brute_force_sp(cs, beta[i])
                assert (one.best_schedule.states.tolist(), one.ties, one.best_cost) == \
                    (sp_states[i].tolist(), sp_ties[i], sp_priced[i])
                one = brute_force_dsp(cs, alpha[i], cap[i], mode[i])
                assert (one.best_schedule.states.tolist(), one.ties, one.best_cost) == \
                    (dsp_states[i].tolist(), dsp_ties[i], dsp_priced[i])

    @pytest.mark.parametrize("bits", [0, 1, 3])
    def test_small_blocks_give_the_same_result(self, monkeypatch, bits):
        # Blocks of 2^bits schedules and rows: the prefix fold, each block's
        # start state and the row blocking all run at small T.
        rng = np.random.default_rng(22 + bits)
        rows, period = 5, 7
        g0, g1 = rng.integers(0, 3, size=(2, rows, period)).astype(np.float64)
        beta = rng.choice([0.0, 1.0, 2.0], size=rows)
        fees = dsp_fees(rng, rows, period)
        want = brute_force_sps(g0, g1, beta), brute_force_dsps(g0, g1, *fees)
        monkeypatch.setattr(oracles, "_CHUNK_BITS", bits)
        monkeypatch.setattr(oracles, "_CHUNK", 1 << bits)
        got = brute_force_sps(g0, g1, beta), brute_force_dsps(g0, g1, *fees)
        for (ws, wt), (gs, gt) in zip(want, got):
            assert (gs == ws).all() and (gt == wt).all()
        check_sp_rows(g0, g1, beta)

    def test_refuses_long_horizons(self):
        g = np.zeros((2, BRUTE_FORCE_MAX_T + 1))
        with pytest.raises(ValueError, match="refusing"):
            brute_force_sps(g, g, 1.0)
        with pytest.raises(ValueError, match="refusing"):
            brute_force_dsps(g, g, 1.0, 3)

    def test_long_horizon_refusal_is_a_validation_error(self):
        with pytest.raises(ValidationError, match=f"refusing exhaustive search for T={BRUTE_FORCE_MAX_T + 1}"):
            brute_force_sps(np.zeros((1, BRUTE_FORCE_MAX_T + 1)), np.zeros((1, BRUTE_FORCE_MAX_T + 1)), 1.0)

    @pytest.mark.parametrize("fees, needle", [
        (dict(alpha=[1.0, float("nan")]), "alpha"),
        (dict(alpha=[1.0, -0.5]), "alpha"),
        (dict(contract_len=[2, 0]), "contract_len"),
        (dict(contract_len=[2, 1.5]), "contract_len"),
        (dict(fee_mode=["literal", "sometimes"]), "fee_mode"),
        (dict(alpha=[1.0, 1.0, 1.0]), "one per row"),
        (dict(contract_len=[[2, 2]]), "one per row"),
    ])
    def test_bad_per_row_fee_refused(self, fees, needle):
        g = np.ones((2, 3))
        args = dict(alpha=1.0, contract_len=2, fee_mode="literal") | fees
        for oracle in (brute_force_dsps, dp_dsps):
            with pytest.raises(ValidationError, match=needle):
                oracle(g, g, **args)

    @pytest.mark.parametrize("beta", [[1.0, float("nan")], [1.0, -1.0], float("inf"), [1.0, 1.0, 1.0]])
    def test_bad_beta_refused(self, beta):
        g = np.ones((2, 3))
        with pytest.raises(ValidationError, match="beta"):
            brute_force_sps(g, g, beta)

    def test_nan_cost_refused(self):
        g0, g1 = np.ones((2, 3)), np.ones((2, 3))
        g1[1, 2] = np.nan
        with pytest.raises(ValidationError, match="row 1, slot 3"):
            brute_force_sps(g0, g1, 1.0)
        with pytest.raises(ValidationError, match="row 1, slot 3"):
            brute_force_dsps(g0, g1, 1.0, 2)
        with pytest.raises(ValidationError, match="row 1, slot 3"):
            dp_dsps(g0, g1, 1.0, 2)
