import functools
import itertools
import math
import operator
import random
import re
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planswitch import (
    CostSeries,
    InfeasibleScheduleError,
    Schedule,
    Trace,
    TraceParseError,
    ValidationError,
    brute_force_dsp,
    brute_force_dsps,
    cost_series,
    dp_dsp,
    dsp_cost,
    dsp_costs,
    p2_cost,
    parse_trace,
    protocol_cost_series,
    sp_cost,
    zero_runs,
)
from planswitch.bench import H_SCALE
from planswitch.chase import delta_trace, drift_trace
from planswitch import tariff
from planswitch.tariff import MAX_CONTRACT_LEN, _parse_rows, fee_term_rows, fee_terms
from scalar_objectives import fee_rows_loop, fixed_runs_loop


def slot_cost(e: float, p0: float, p1: float, b: float, h: float, plan: int) -> float:
    """Scalar oracle of one plan's cost in one month: the tariff formula as written."""
    if plan == 1:
        return e * p1
    overusage = max(e - 1.1 * b, 0.0)
    underusage = max(0.9 * b - e, 0.0)
    return e * p0 + (p1 - p0) * overusage - h * underusage


SLOT = (100.0, 0.10, 0.12, 100.0)  # demand, fixed rate, variable rate, base load


def one_slot_costs(e, p0, p1, b, h):
    """(g0, g1) of a one-month trace."""
    cs = cost_series(Trace([[e, p0, p1, b]]), h)
    return cs.g0[0], cs.g1[0]


class TestSlotCost:
    def test_variable_plan_is_direct_product(self):
        assert one_slot_costs(*SLOT, 0.01)[1] == pytest.approx(12.0, abs=1e-12)

    def test_fixed_plan_inside_band(self):
        # both correction terms vanish inside [0.9B, 1.1B]
        assert one_slot_costs(*SLOT, 0.01)[0] == pytest.approx(10.0, abs=1e-12)

    def test_fixed_plan_overusage(self):
        assert one_slot_costs(120, 0.10, 0.12, 100, 0.01)[0] == pytest.approx(12.2, abs=1e-9)

    def test_fixed_plan_underusage_subtracts(self):
        assert one_slot_costs(80, 0.10, 0.12, 100, 0.01)[0] == pytest.approx(7.9, abs=1e-9)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError, match="underusage_rate"):
            one_slot_costs(*SLOT, -0.01)

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValidationError, match="demand_kwh"):
            Trace([[math.nan, 0.1, 0.1, 100]])
        with pytest.raises(ValidationError, match="demand_kwh"):
            Trace([[math.inf, 0.1, 0.1, 100]])
        with pytest.raises(ValidationError, match="demand_kwh"):
            Trace([[-1.0, 0.1, 0.1, 100]])

    def test_piecewise_linear_with_continuous_breakpoints(self):
        p0, p1, h, b = 0.10, 0.17, 0.03, 200.0
        lo, hi = 0.9 * b, 1.1 * b

        def f(e):
            return one_slot_costs(e, p0, p1, b, h)[0]

        # continuity: each adjacent piece evaluates to the band formula at its breakpoint
        assert abs(f(lo) - lo * p0) < 1e-12
        assert abs(f(hi) - hi * p0) < 1e-12
        # linearity within each open segment (three-point collinearity)
        for a, c in [(0.0, lo), (lo, hi), (hi, 2.0 * hi)]:
            e1, e2, e3 = a + 0.25 * (c - a), a + 0.5 * (c - a), a + 0.75 * (c - a)
            assert abs(f(e2) - 0.5 * (f(e1) + f(e3))) < 1e-9


class TestCostSeries:
    def test_single_slot(self):
        cs = cost_series(Trace([SLOT]), 0.01)
        assert (cs.g0, cs.g1) == ((10.0,), (12.0,))

    def test_empty_trace_rejected(self):
        with pytest.raises(ValidationError):
            Trace([])

    def test_zero_demand_household_costs_nothing(self):
        # zero demand implies a zero previous-cycle base load
        trace = Trace([(0, 0.4, 0.9, 0) for _ in range(4)])
        cs = cost_series(trace, 0.05)
        assert cs.g0.tolist() == cs.g1.tolist() == [0.0] * 4

    def test_deterministic(self):
        trace = Trace([(80 + i, 0.1, 0.12, 100) for i in range(6)])
        a, b = cost_series(trace, 0.01), cost_series(trace, 0.01)
        assert (a.g0.tolist(), a.g1.tolist()) == (b.g0.tolist(), b.g1.tolist())

    def test_length_matches_trace(self):
        trace = Trace([SLOT] * 7)
        assert len(cost_series(trace, 0.01)) == 7

    def test_from_pairs_splits_columns(self):
        cs = CostSeries.from_pairs([(1, 2), (3, 4)])
        assert (cs.g0.tolist(), cs.g1.tolist()) == ([1.0, 3.0], [2.0, 4.0])

    def test_per_slot_rate_shape_and_values_checked(self):
        trace = Trace([SLOT] * 3)
        with pytest.raises(ValidationError, match=r"underusage_rate must be one value or one per row \(3\)"):
            cost_series(trace, [0.01, 0.02])
        with pytest.raises(ValidationError, match="underusage_rate must be finite and >= 0, got nan"):
            cost_series(trace, [0.01, math.nan, -1.0])

    def test_overflow_refused_without_warning(self):
        trace = Trace([SLOT, (1e308, 10.0, 0.1, 1e308)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="non-finite cost pair at slot 2"):
                cost_series(trace, 0.01)

    def test_matches_scalar_oracle(self):
        # band edges (e = 0.9B, e = 1.1B), B = 0, -0.0 and random months, under a
        # scalar H, H = 0 and a per-slot H: every float and its sign equal the oracle's
        rng = np.random.default_rng(11)
        for _ in range(200):
            period = int(rng.integers(1, 30))
            b = rng.uniform(0.0, 1500.0, period)
            b[rng.random(period) < 0.2] = 0.0
            e = rng.uniform(0.0, 2000.0, period)
            kind = rng.integers(0, 5, period)
            e = np.where(kind == 1, 0.9 * b, np.where(kind == 2, 1.1 * b, np.where(kind == 3, -0.0, e)))
            p0 = rng.uniform(0.0, 0.3, period)
            p1 = rng.uniform(0.0, 0.3, period)
            trace = Trace(np.column_stack((e, p0, p1, b)))
            cols = trace.slots.tolist()
            per_slot = rng.uniform(0.0, 0.05, period)
            cases = [
                (cost_series(trace, 0.03), [0.03] * period),
                (cost_series(trace, 0.0), [0.0] * period),
                (cost_series(trace, per_slot), per_slot.tolist()),
                (protocol_cost_series(trace), [H_SCALE * row[1] for row in cols]),
                (protocol_cost_series(trace, h_rate=0.02), [0.02] * period),
            ]
            for cs, hs in cases:
                for plan, got in ((0, cs.g0), (1, cs.g1)):
                    want = [slot_cost(*row, h, plan) for row, h in zip(cols, hs)]
                    assert list(map(repr, got.tolist())) == list(map(repr, want))

    def test_non_finite_pair_rejected(self):
        with pytest.raises(ValidationError):
            CostSeries.from_pairs([(1.0, math.nan)])
        with pytest.raises(ValidationError, match="slot 2"):
            CostSeries.from_pairs([(1.0, 2.0), (-math.inf, 0.0), (math.inf, 0.0)])
        # finite entries whose sum overflows are still finite
        assert len(CostSeries.from_pairs([(1e308, 1e308), (1e308, 0.0)])) == 2


CS3 = CostSeries.from_pairs([(3, 0), (0, 3), (0, 0)])


class TestFoldRows:
    @pytest.mark.parametrize("cells", [1, 5 * 900, 72 * 900, tariff.BLOCK_CELLS])
    def test_strict_left_fold_in_tiles(self, monkeypatch, cells):
        # Blocks of one row, of 62 rows (not dividing 900), of the whole matrix, and the default: each gives the
        # Python left fold's bits, and a call allocates its totals and one block's cumsum, not a copy of the slots
        # (none at the small blocks, whose peak is under a quarter of the slots').
        rng = np.random.default_rng(61)
        slots = rng.normal(size=(900, 72)) * 10.0 ** rng.integers(-5, 6, size=(900, 72))
        slots[0] = -0.0  # every slot -0.0: the fold from 0.0 gives +0.0
        want = [repr(functools.reduce(operator.add, row, 0.0)) for row in slots.tolist()]
        monkeypatch.setattr(tariff, "BLOCK_CELLS", cells)
        tracemalloc.start()
        try:
            totals = tariff._fold_matrix(slots)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [repr(v) for v in totals.tolist()] == want
        assert peak < 16 * cells + 160 * len(slots)
        assert cells > 5 * 900 or peak < slots.nbytes / 4


class TestScheduleCosts:
    def test_sp_cost_with_one_switch(self):
        assert sp_cost(Schedule([1, 0, 0]), CS3, 2.0) == pytest.approx(2.0, abs=1e-12)

    def test_sp_cost_all_zero(self):
        assert sp_cost(Schedule([0, 0, 0]), CS3, 2.0) == pytest.approx(3.0, abs=1e-12)

    def test_sp_cost_zero_fee_all_zero(self):
        cs = CostSeries.from_pairs([(1.5, 9), (2.5, 9)])
        assert sp_cost(Schedule([0, 0]), cs, 0.0) == pytest.approx(4.0, abs=1e-12)

    def test_sp_cost_length_mismatch(self):
        with pytest.raises(ValidationError):
            sp_cost(Schedule([0, 1]), CS3, 1.0)

    def test_p2_cost_half_fees(self):
        assert p2_cost(Schedule([1, 0, 0]), CS3, 2.0) == pytest.approx(2.0, abs=1e-12)

    def test_p2_cost_all_zero(self):
        assert p2_cost(Schedule([0, 0, 0]), CS3, 2.0) == pytest.approx(3.0, abs=1e-12)

    def test_schedule_entries_validated(self):
        with pytest.raises(ValidationError):
            Schedule([0, 2])
        with pytest.raises(ValidationError, match="slot 3"):
            Schedule([1, 0, 0.5, 1])
        assert Schedule([True, 0.0, np.int8(1)]).states.tolist() == [1, 0, 1]

    @pytest.mark.parametrize("states, message", [
        ([0, 2], "schedule entry at slot 2 must be 0 or 1, got 2"),
        ([1, 1, -1], "schedule entry at slot 3 must be 0 or 1, got -1"),
        (np.array([0, 1, 256]), "schedule entry at slot 3 must be 0 or 1, got 256"),
        ([0.0, float("nan")], "schedule entry at slot 2 must be 0 or 1, got nan"),
        (["1"], "schedule entry at slot 1 must be 0 or 1, got '1'"),
        ([0, None], "schedule entry at slot 2 must be 0 or 1, got None"),
        ([], "schedule must be nonempty"),
        ([[0, 1]], "schedule must be nonempty and one-dimensional, got shape (1, 2)"),
    ], ids=["two", "minus-one", "int8-wrap", "nan", "string", "none", "empty", "2-D"])
    def test_schedule_refusals_name_the_slot(self, states, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            Schedule(states)

    def test_records_hold_read_only_copies_of_any_iterable(self):
        g0, g1, states = np.array([1.0, -2.0]), np.array([0.5, 3.0]), np.array([0, 1])
        cs, sched = CostSeries(g0, g1), Schedule(states)
        g0[0] = g1[0] = 9.0
        states[0] = 1
        assert (cs.g0.tolist(), cs.g1.tolist(), sched.states.tolist()) == ([1.0, -2.0], [0.5, 3.0], [0, 1])
        assert (cs.g0.dtype, cs.g1.dtype, sched.states.dtype) == (np.float64, np.float64, np.int8)
        for values in (cs.g0, cs.g1, sched.states):
            assert not values.flags.writeable
        with pytest.raises(ValueError):
            cs.g0[0] = 0.0
        for given in ([0, 1, 1], (False, True, True), [0.0, 1.0, 1.0], reversed([1, 1, 0]), iter([0, 1, 1])):
            assert Schedule(given).states.tolist() == [0, 1, 1]
        assert CostSeries(iter([1, 2]), (v for v in (3, 4))).g1.tolist() == [3.0, 4.0]
        # records compare by identity, as Trace does
        assert cs == cs and cs != CostSeries(cs.g0, cs.g1) and sched != Schedule(sched.states)

    @given(
        states=st.lists(st.integers(0, 1), min_size=1, max_size=20),
        g=st.lists(st.tuples(st.floats(0, 100), st.floats(0, 100)), min_size=1, max_size=20),
        beta=st.floats(0, 50),
    )
    @settings(max_examples=200)
    def test_half_fee_form_equals_constant_fee_form(self, states, g, beta):
        n = min(len(states), len(g))
        sched = Schedule(states[:n])
        cs = CostSeries.from_pairs(g[:n])
        assert sp_cost(sched, cs, beta) == pytest.approx(p2_cost(sched, cs, beta), abs=1e-9)


class TestZeroRuns:
    def test_tail_run(self):
        assert zero_runs(Schedule([1, 1, 0])) == [(3, 3)]

    def test_full_run(self):
        assert zero_runs(Schedule([0, 0, 0])) == [(1, 3)]

    def test_two_runs(self):
        assert zero_runs(Schedule([0, 1, 0, 0, 1])) == [(1, 1), (3, 4)]

    def test_no_runs(self):
        assert zero_runs(Schedule([1, 1])) == []

    @given(states=st.lists(st.integers(0, 1), min_size=1, max_size=30))
    @settings(max_examples=200)
    def test_runs_are_disjoint_ordered_and_cover_zeros(self, states):
        runs = zero_runs(Schedule(states))
        prev_end = 0
        covered = set()
        for start, end in runs:
            assert prev_end + 1 <= start <= end
            prev_end = end
            covered.update(range(start, end + 1))
        assert covered == {t for t, s in enumerate(states, start=1) if s == 0}


class TestFixedRuns:
    """The one run-length rule, on the dtypes its callers pass: int8 (the stack objectives and the expiry
    guard), int64 (``verify identity``'s draws) and bool."""

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, bool])
    @pytest.mark.parametrize("period", [1, 2, 37, 20_000])
    def test_equals_slot_loop(self, dtype, period):
        rng = np.random.default_rng(period)
        states = np.vstack([np.zeros(period), np.ones(period), rng.integers(0, 2, (3, period)),
                            rng.random((2, period)) < 0.05]).astype(dtype)  # long fixed runs too
        lasted, ends = tariff._fixed_runs(states)
        assert lasted.dtype.kind == "i" and ends.dtype == bool
        for i, row in enumerate(states.tolist()):
            assert (lasted[i].tolist(), ends[i].tolist()) == fixed_runs_loop(row), i
        assert lasted[0, -1] == period and not lasted[1].any()  # all fixed: one run of every slot; all variable: none


ZEROS3 = CostSeries.from_pairs([(0, 0)] * 3)


class TestDspCost:
    def test_full_length_contract_is_free(self):
        assert dsp_cost(Schedule([0, 0, 0]), ZEROS3, 1.0, 3, "literal") == pytest.approx(0.0, abs=1e-12)

    def test_literal_charges_every_run(self):
        assert dsp_cost(Schedule([0, 1, 0]), ZEROS3, 1.0, 3, "literal") == pytest.approx(4.0, abs=1e-12)

    def test_transition_only_skips_horizon_run(self):
        assert dsp_cost(Schedule([0, 1, 0]), ZEROS3, 1.0, 3, "transition-only") == pytest.approx(2.0, abs=1e-12)

    def test_overlong_run_is_infeasible(self):
        cs = CostSeries.from_pairs([(0, 0)] * 4)
        with pytest.raises(InfeasibleScheduleError):
            dsp_cost(Schedule([0, 0, 0, 0]), cs, 1.0, 3)

    def test_unknown_fee_mode(self):
        with pytest.raises(ValidationError):
            dsp_cost(Schedule([0, 0, 0]), ZEROS3, 1.0, 3, "both")

    def test_literal_dominates_transition_only(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            period = int(rng.integers(1, 13))
            states = rng.integers(0, 2, size=period).tolist()
            sched = Schedule(states)
            runs = zero_runs(sched)
            cap = max((e - s + 1) for s, e in runs) if runs else 1
            cs = CostSeries.from_pairs(rng.uniform(0, 10, size=(period, 2)).tolist())
            alpha = float(rng.uniform(0, 2))
            lit = dsp_cost(sched, cs, alpha, cap, "literal")
            trans = dsp_cost(sched, cs, alpha, cap, "transition-only")
            assert lit >= trans - 1e-12


class TestFeeTerms:
    def test_converts(self):
        assert fee_terms(1, 12.0, "transition-only") == (1.0, 12, "transition-only")
        assert fee_terms(0.0, 1) == (0.0, 1, "literal")

    def test_positive_alpha(self):
        with pytest.raises(ValidationError, match="alpha must be finite and > 0"):
            fee_terms(0.0, 12, positive=True)

    @pytest.mark.parametrize("alpha, length, mode, needle", [
        (-1.0, 12, "literal", "alpha"),
        (math.inf, 12, "literal", "alpha"),
        (1.0, 0, "literal", "contract_len"),
        (1.0, 2.5, "literal", "contract_len"),
        (1.0, math.inf, "literal", "contract_len"),
        (1.0, math.nan, "literal", "contract_len"),
        (1e-300, 2**53 + 1, "literal", "contract_len must be <= 9007199254740992"),
        (1e308, 12, "literal", "alpha \\* contract_len"),
        (1.0, 12, "sometimes", "fee_mode"),
    ])
    def test_every_caller_rejects_alike(self, alpha, length, mode, needle):
        cs = CostSeries([1.0, 2.0], [2.0, 1.0])
        callers = [
            lambda: fee_terms(alpha, length, mode),
            lambda: dsp_cost(Schedule([1, 1]), cs, alpha, length, mode),
            lambda: dp_dsp(cs, alpha, length, mode),
            lambda: brute_force_dsp(cs, alpha, length, mode),
        ]
        if mode == "literal":
            callers.append(lambda: drift_trace(cs, alpha, length))
        for call in callers:
            with pytest.raises(ValidationError, match=needle):
                call()

    @pytest.mark.parametrize("length", [True, np.True_, [True, 2], [2, np.True_], np.array([True, True])])
    def test_bool_contract_len_refused(self, length):
        # a bool is an integer 1, and once priced a one-month contract
        refused = r"contract_len must be an integer >= 1, got (True|np\.True_)$"
        with pytest.raises(ValidationError, match=refused):
            fee_term_rows(1.0, length, "literal", 2)
        if not isinstance(length, (list, np.ndarray)):
            with pytest.raises(ValidationError, match=refused):
                dsp_cost(Schedule([1, 0]), CostSeries([1.0, 2.0], [2.0, 1.0]), 1.0, length)

    def test_longest_contract_per_row(self):
        states, g0, g1 = np.zeros((2, 3), np.int8), np.ones((2, 3)), np.full((2, 3), 2.0)
        with pytest.raises(ValidationError, match="contract_len must be <= 9007199254740992"):
            dsp_costs(states, g0, g1, 1e-300, [12, 99999999999999999999])
        # the longest contract's fee for a 3-slot run, 2**53 - 3, is priced exactly
        assert dsp_costs(states, g0, g1, [0.0, 1.0], [12, MAX_CONTRACT_LEN]).tolist() == [3.0, 2.0**53]
        best = brute_force_dsps(g0, g1, [0.0, 1.0], [12, MAX_CONTRACT_LEN])[0]
        assert best.tolist() == [[0, 0, 0], [1, 1, 1]]


def _fee_outcome(check, *args):
    """What a fee-term check gives: its columns (dtype, values and the repr of each
    value, so -0.0 and the int/float kind count), or its exception's type and text."""
    try:
        columns = check(*args)
    except Exception as exc:  # any type: the type is what is compared
        return type(exc), str(exc)
    return [(c.dtype.str, c.tolist(), [repr(v) for v in c.tolist()]) for c in columns]


# Entries of each fee term, valid and not: exact and inexact numbers, numpy scalars,
# integers past the exact float range, non-finite values and strings.
FEE_ALPHAS = [0.5, 0, 1, -1.0, -0.0, 5e-324, 1e308, math.nan, math.inf, Decimal("0.5"), Decimal("-1"),
              Decimal("NaN"), Fraction(1, 3), np.int64(2), np.float32(0.1), 2**70, True, "0.5", "abc", None]
FEE_LENGTHS = [12, 1, 12.0, 0, -1, 2.5, 1e20, math.nan, math.inf, -math.inf, 2**53, 2**53 + 1, 2**70,
               Decimal("3"), Decimal("2.5"), Decimal("NaN"), Fraction(3), Fraction(5, 2), np.int64(0),
               np.int64(7), np.uint64(2**63), np.float32(12), True, False, np.True_, "3", None]
FEE_MODE_VALUES = ["literal", "transition-only", np.str_("literal"), "bogus", b"literal", 3, None]


class TestFeeTermRows:
    """The fee rule against its independent per-row loop (``scalar_objectives.fee_rows_loop``):
    the same columns, or the same exception type and text, on every input."""

    @pytest.mark.parametrize("positive", [False, True])
    def test_one_row_matches_the_loop(self, positive):
        for alpha, length, mode in itertools.product(FEE_ALPHAS, FEE_LENGTHS, FEE_MODE_VALUES):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # the loop's numpy-scalar overflow
                want = _fee_outcome(fee_rows_loop, alpha, length, mode, 1, positive)
            assert _fee_outcome(fee_term_rows, alpha, length, mode, 1, positive) == want, (alpha, length, mode)

    @pytest.mark.parametrize("alpha, length, mode, rows", [
        ([0.5, Decimal("0.5"), Fraction(1, 3)], [12, Fraction(3), np.int64(7)], "literal", 3),
        (np.array([0.1, 1.0]), np.array([2**53, 5]), np.array(["literal", "transition-only"]), 2),
        ([0.5, 0.5], [1.0, 2**53 + 1], "literal", 2),  # a list keeps 2**53 + 1 exact among floats
        ([0.5, 0.5], [12, 2**70], "literal", 2),
        ([0.5, 0.5], [12, math.nan], "literal", 2),
        ([0.5, 0.5], [math.inf, 12], "literal", 2),
        ([0.5, math.inf], 12, "literal", 2),
        ([0.5, 0.5], ["3", "3"], "literal", 2),  # a string column raises TypeError
        (["0.5", "abc"], 12, "literal", 2),
        ([0.5, 0.5], [12, Decimal("3")], "literal", 2),  # float * Decimal raises TypeError
        ([1.0, 1e308], [12, 12], "literal", 2),  # alpha * contract_len overflows
        (1e300, [2, 2**53], "literal", 2),
        (0.5, 12, ["literal", "sometimes"], 2),  # a bad mode
        (0.5, 12, ["literal", b"literal"], 2),  # a list keeps bytes apart from str
        # the first fault is a later term on an earlier row: row order wins over term order
        ([0.5, -1.0], [12, 12], ["literal", "bogus"], 2),
        ([0.5, 0.5, -1.0], [12, 0, 12], ["bogus", "literal", "literal"], 3),
        ([1e308, -1.0], [12, 12], "literal", 2),
        ([0.5, -1.0], [0, 12], "literal", 2),
        # a Python error on a later row than a fault: the fault's row still wins
        ([0.5, "abc"], [0, 12], "literal", 2),
        ([0.5, 0.5], [0, "3"], "literal", 2),
        ([-1.0, 0.5], 12, ["literal", None], 2),
        (np.array([0.5, 0.5]), np.array([3, 4]), "literal", 3),  # a column of the wrong length
    ])
    @pytest.mark.parametrize("positive", [False, True])
    def test_columns_match_the_loop(self, alpha, length, mode, rows, positive):
        want = _fee_outcome(fee_rows_loop, alpha, length, mode, rows, positive)
        assert _fee_outcome(fee_term_rows, alpha, length, mode, rows, positive) == want

    def test_random_columns_match_the_loop(self):
        # columns of random entries, as lists, tuples, arrays or one value, against the loop
        rng = random.Random(16)
        for _ in range(3000):
            rows = rng.randint(1, 5)
            terms = []
            for pool in (FEE_ALPHAS, FEE_LENGTHS, FEE_MODE_VALUES):
                form = rng.choice(("one", "list", "tuple", "array"))
                column = [rng.choice(pool) for _ in range(rows)]
                if form == "one":
                    terms.append(column[0])
                elif form == "array":
                    terms.append(np.array(column))
                else:
                    terms.append(column if form == "list" else tuple(column))
            positive = rng.random() < 0.5
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                want = _fee_outcome(fee_rows_loop, *terms, rows, positive)
            assert _fee_outcome(fee_term_rows, *terms, rows, positive) == want, terms

    @pytest.mark.parametrize("positive", [False, True])
    def test_no_warning_on_any_entry(self, positive):
        # numpy-scalar terms overflow (1e308 * np.float32(12)); the rule refuses them without a warning
        for alpha, length, mode in itertools.product(FEE_ALPHAS, FEE_LENGTHS, FEE_MODE_VALUES):
            for terms in ((alpha, length, mode), ([alpha], [length], [mode])):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        fee_term_rows(*terms, 1, positive)
                    except Exception as exc:  # a refusal, but not a warning raised as an error
                        assert not isinstance(exc, Warning), (terms, exc)

    def test_zero_rows_give_empty_columns(self):
        for terms in (([], [], []), (0.5, 12, "literal")):
            alpha, cap, literal = fee_term_rows(*terms, 0)
            assert (alpha.dtype, cap.dtype, literal.dtype) == (np.float64, np.int64, np.bool_)
            assert alpha.shape == cap.shape == literal.shape == (0,)

    def test_fee_terms_is_the_one_row_call(self):
        assert fee_terms(1, 12.0, "transition-only") == (1.0, 12, "transition-only")
        assert fee_terms(Fraction(1, 2), Fraction(12), "literal") == (0.5, 12, "literal")
        with pytest.raises(TypeError):
            fee_terms(1.0, "12")


class TestRequireFiniteRows:
    @pytest.mark.parametrize("bad", list(itertools.permutations([0.0, -0.0, math.nan])),
                             ids=lambda bad: ",".join(map(repr, bad)))
    def test_positive_rows_name_the_first_refused(self, bad):
        with pytest.raises(ValidationError, match=re.escape(f"beta must be finite and > 0, got {bad[0]!r}")):
            tariff.require_finite_rows("beta", [1.0, 2.5, 1e-300, *bad], 6, positive=True)

    def test_zero_rows_accepted_unless_positive(self):
        assert tariff.require_finite_rows("h", [0.0, -0.0, 2.0], 3).tolist() == [0.0, -0.0, 2.0]
        with pytest.raises(ValidationError, match=re.escape("h must be finite and >= 0, got -1e-300")):
            tariff.require_finite_rows("h", [0.0, -1e-300, math.nan], 3)

    @pytest.mark.parametrize("beta", [True, np.True_, [True, False], np.array([1.0, 2.0]) > 0.0])
    def test_bools_refused(self, beta):
        # float() and a float64 array take True as 1.0, so a bool once priced as a fee of 1
        with pytest.raises(ValidationError, match=re.escape("beta must be finite and > 0, got True")):
            tariff.require_finite_rows("beta", beta, 2, positive=True)

    @pytest.mark.parametrize("beta", [[True, 2.0], [2.0, np.True_], (1.5, False), [np.nan, True], [True, np.nan]],
                             ids=repr)
    def test_a_bool_inside_a_list_refused(self, beta):
        # A list of numbers converts to a float64 array, bools and all, so a bool item once priced as a fee of 1 or 0;
        # the first refused item names the error, a bool or a number.
        first = next(bool(v) if isinstance(v, (bool, np.bool_)) else v for v in beta
                     if isinstance(v, (bool, np.bool_)) or not v > 0.0)
        with pytest.raises(ValidationError, match=re.escape(f"beta must be finite and > 0, got {first!r}")):
            tariff.require_finite_rows("beta", beta, 2, positive=True)
        g = np.ones((2, 3))
        with pytest.raises(ValidationError, match=re.escape(f"beta must be finite and >= 0, got {first!r}")):
            tariff.sp_costs(np.zeros((2, 3), np.int8), g, g, beta)

    @pytest.mark.parametrize("beta", [True, np.True_, False, [True, True]])
    def test_sp_costs_refuses_a_bool_fee(self, beta):
        g, message = np.ones((2, 3)), f"beta must be finite and >= 0, got {bool(np.ravel(beta)[0])}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            tariff.sp_costs(np.zeros((2, 3), np.int8), g, g, beta)

    @pytest.mark.parametrize("beta, drift", [(True, 0.0), (np.True_, 0.5), (2.0, True), (2.0, np.False_)], ids=repr)
    def test_delta_trace_refuses_a_bool_fee_or_drift(self, beta, drift):
        # delta_trace once took float() of each before its record's check, so True scanned as a fee or drift of 1
        name, value = ("drift", drift) if isinstance(drift, (bool, np.bool_)) else ("beta", beta)
        message = f"{name} must be finite and {'>=' if name == 'drift' else '>'} 0, got {bool(value)}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            delta_trace(CostSeries([1.0, 2.0], [2.0, 1.0]), beta, drift)


class TestTrace:
    def test_rows_and_columns(self):
        trace = Trace([SLOT, (90.0, 0.1, 0.11, 100.0)])
        assert len(trace) == 2
        assert trace.slots[1].variable_rate == 0.11
        assert trace.slots.demand_kwh.tolist() == [100.0, 90.0]
        assert trace.slots.tolist() == [SLOT, (90.0, 0.1, 0.11, 100.0)]

    def test_read_only_copy(self):
        rows = np.array([SLOT])
        trace = Trace(rows)
        rows[0, 0] = 5.0
        assert trace.slots[0].demand_kwh == 100.0
        with pytest.raises(ValueError):
            trace.slots.demand_kwh[0] = 1.0
        with pytest.raises(ValueError):
            trace.slots.base[0, 0] = 1.0

    def test_shape_checked(self):
        with pytest.raises(ValidationError, match="shape"):
            Trace([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValidationError, match="shape"):
            Trace([[1.0, 2.0, 3.0]])

    def test_first_bad_value_named(self):
        with pytest.raises(ValidationError, match="base_load_kwh must be finite and >= 0, got -1.0"):
            Trace([SLOT, (1.0, 2.0, 3.0, -1.0), (math.nan, 0.1, 0.1, 1.0)])


class TestParseTrace:
    def test_single_row(self):
        trace = parse_trace(b"t,e,p0,p1,B\n1,100,0.10,0.12,100\n")
        assert len(trace) == 1
        assert trace.slots[0].demand_kwh == 100.0

    def test_value_error_before_later_gap_wins(self):
        data = b"t,e,p0,p1,B\n1,100,-0.10,0.12,100\n2,90,0.1,0.11,100\n4,90,0.1,0.11,100\n"
        with pytest.raises(TraceParseError) as exc:
            parse_trace(data)
        assert str(exc.value) == "row 1: fixed_rate must be finite and >= 0, got -0.1"

    def test_row_number_counts_blank_lines(self):
        data = b"t,e,p0,p1,B\n1,100,0.10,0.12,100\n\n2,90,0.1,inf,100\n"
        with pytest.raises(TraceParseError) as exc:
            parse_trace(data)
        assert str(exc.value) == "row 3: variable_rate must be finite and >= 0, got inf"

    def test_crlf_accepted(self):
        trace = parse_trace(b"t,e,p0,p1,B\r\n1,100,0.10,0.12,100\r\n2,90,0.1,0.11,100\r\n")
        assert len(trace) == 2

    def test_missing_column(self):
        with pytest.raises(TraceParseError, match="row 1"):
            parse_trace(b"t,e,p0,p1,B\n1,100,0.10,0.12\n")

    def test_negative_demand(self):
        with pytest.raises(TraceParseError, match="row 1"):
            parse_trace(b"t,e,p0,p1,B\n1,-5,0.10,0.12,100\n")

    def test_non_monotone_index(self):
        with pytest.raises(TraceParseError, match="row 2"):
            parse_trace(b"t,e,p0,p1,B\n1,100,0.10,0.12,100\n1,90,0.1,0.11,100\n")

    def test_gapped_index_rejected(self):
        # rows 1 and 5 are not two consecutive months
        with pytest.raises(TraceParseError, match="row 2: slot index 5"):
            parse_trace(b"t,e,p0,p1,B\n1,100,0.10,0.12,100\n5,90,0.1,0.11,100\n")

    def test_index_must_start_at_one(self):
        with pytest.raises(TraceParseError, match="start at 1"):
            parse_trace(b"t,e,p0,p1,B\n2,100,0.10,0.12,100\n")

    def test_bad_header(self):
        with pytest.raises(TraceParseError, match="header"):
            parse_trace(b"time,e,p0,p1,B\n1,100,0.10,0.12,100\n")

    def test_no_data_rows(self):
        with pytest.raises(TraceParseError):
            parse_trace(b"t,e,p0,p1,B\n")


def parse_outcome(parse, data) -> bytes | str:
    """The parsed slots' bytes, or the TraceParseError's message."""
    try:
        return parse(data).slots.tobytes()
    except TraceParseError as exc:
        return str(exc)


HEADER = "t,e,p0,p1,B"
# Pieces of a CSV that the numpy read and the row loop might take differently.
ODD_INDICES = ["1.0", "+1", " 1", "1 ", "01", "1_0", "-0", "0", "x", "", "\u0661"]
ODD_VALUES = ["1_000", "nan", "inf", "1e400", "-0.0", "-1", '"2"', " 3 ", "\xa02", "+.5", "1e-400",
              "", "#", "0x1", "1.", "\r4", "4\r"]
ODD_ROW_ENDS = ["\r\n", "\r", "\n\n", "\n \t \n", "\n#\n", "\n# note\n", "\n,,,,\n", "\r\r\n",
                "\n\r", "\x0c", "\u2028"]
ODD_HEADERS = [" t , e ,p0,p1,B", "\ufeff" + HEADER, '"t",e,p0,p1,B', 't,e,p0,p1,"B\n"', "t,e,p0,p1",
               "t,e,p0,p1,B,", ""]

PARSE_EDGE_CASES = [
    HEADER + "\n1,100,0.1,0.12,100\n2,90,0.1,0.11,100\n",
    HEADER + "\r\n1,100,0.1,0.12,100\r\n2,90,0.1,0.11,100\r\n",
    HEADER + "\r1,100,0.1,0.12,100\r2,90,0.1,0.11,100\r",
    HEADER + "\r1,100,0.1,0.12,100\n1,90,0.1,0.11,100",
    HEADER + "\n\n1,100,0.1,0.12,100\n\n2,90,0.1,0.11,100\n\n",
    HEADER + "\n1,100,0.1,0.12,100\n  \t \n2,90,0.1,0.11,100\n",
    HEADER + "\n1,100,0.1,0.12,100\n# comment\n2,90,0.1,0.11,100\n",
    HEADER + "\n1,100,0.1,0.12,100,\n",
    HEADER + '\n1,"100",0.1,0.12,100\n',
    HEADER + '\n"1",100,0.1,0.12,100\n',
    HEADER + "\n1.0,100,0.1,0.12,100\n",
    HEADER + "\n+1,100,0.1,0.12,100\n",
    HEADER + "\n 1,100,0.1,0.12,100\n",
    HEADER + "\n1,1_000,0.1,0.12,100\n",
    HEADER + "\n1,nan,0.1,0.12,100\n",
    HEADER + "\n1,100,inf,0.12,100\n",
    HEADER + "\n1,100,0.1,1e400,100\n",
    HEADER + "\n1,-0.0,0.1,0.12,-0.0\n",
    "\ufeff" + HEADER + "\n1,100,0.1,0.12,100\n",
    HEADER + "\n1,100,0.1,0.12,100\n3,90,0.1,0.11,100\n",
    HEADER + "\n1,100,-0.1,0.12,100\n2,90,0.1,0.11,100\n4,90,0.1,0.11,100\n",
    HEADER + "\n1,100,0.1,0.12,100\n2,90,0.1,-1,100\n3,90,0.1\n",
    HEADER + "\n1,100,0.1,0.12,100\n2,90,0.1,0.11,100\n",
    HEADER + "\n",
    HEADER,
    "",
]


def fuzzed_csv(rng: random.Random) -> bytes:
    """A trace CSV that is mostly well formed, with odd pieces mixed in."""
    def odd(pieces, normal, p=0.12):
        return rng.choice(pieces) if rng.random() < p else normal

    rows = []
    for t in range(1, rng.randint(0, 6) + 1):
        cols = [odd(ODD_INDICES, str(t))] + [odd(ODD_VALUES, repr(round(rng.uniform(0, 900), 3)))
                                             for _ in range(4)]
        if rng.random() < 0.05:
            cols.append("")
        if rng.random() < 0.05:
            cols.pop()
        rows.append(",".join(cols))
    ends = [odd(ODD_ROW_ENDS, "\n", 0.15) for _ in range(len(rows) + 1)]
    text = odd(ODD_HEADERS, HEADER, 0.1) + "".join(e + r for e, r in zip(ends, rows))
    data = (text + (ends[-1] if rng.random() < 0.7 else "")).encode("utf-8")
    if rng.random() < 0.03:
        data = data[:-1] + b"\xff"  # not UTF-8
    return data


class TestParsePaths:
    """parse_trace (one numpy read, else the row loop) against the row loop alone."""

    @pytest.mark.parametrize("text", PARSE_EDGE_CASES)
    def test_edge_cases_agree(self, text):
        for data in (text.encode("utf-8"), text):
            assert parse_outcome(parse_trace, data) == parse_outcome(_parse_rows, data)

    def test_fuzzed_csvs_agree(self):
        rng = random.Random(7)
        parsed = 0
        for _ in range(3000):
            data = fuzzed_csv(rng)
            outcome = parse_outcome(parse_trace, data)
            assert outcome == parse_outcome(_parse_rows, data), data
            parsed += isinstance(outcome, bytes)
        assert parsed > 400  # the fuzz reaches accepted traces, not only errors

    def test_valid_trace_skips_the_row_loop(self, monkeypatch):
        def no_loop(data):
            raise AssertionError("ran the row loop on a valid trace")

        monkeypatch.setattr(tariff, "_parse_rows", no_loop)
        trace = parse_trace(b"t,e,p0,p1,B\r\n+1,100,-0.0,0.12,1e2\r\n\r\n2, 90 ,0.1,0.11,100")
        assert trace.slots.tolist() == [(100.0, -0.0, 0.12, 100.0), (90.0, 0.1, 0.11, 100.0)]

    def test_python_only_numbers_read_by_the_row_loop(self):
        trace = parse_trace(b't,e,p0,p1,B\n1,1_000,"0.1",0.12,100\n')
        assert trace.slots.tolist() == [(1000.0, 0.1, 0.12, 100.0)]

    def test_bad_utf8_named(self):
        with pytest.raises(TraceParseError, match="not valid UTF-8"):
            parse_trace(b"t,e,p0,p1,B\n1,100,0.1,0.12,100\n2,90,0.1,0.11,1\xff\n")

    def test_empty_body_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TraceParseError, match="no data rows"):
                parse_trace(b"t,e,p0,p1,B\n\n")
