"""Differential tests of the stack forms used by the verification suites.

Each stack function is checked row by row against its one-instance form:
``delta_traces`` against ``delta_trace`` (float for float, by ``repr``, so
the sign of a zero counts), ``offline_states`` against the scalar backward
pass kept here as the test-only oracle, the 2-D deterministic kernel against
``gchase_s`` and, under the expiry guard, against the per-slot guard fold
``oracle_guarded``, and ``sp_costs`` against the slot loop ``sp_loop``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_objectives import sp_loop
from test_kernel import oracle_guarded

from planswitch import (
    CostSeries,
    DeltaTrace,
    ValidationError,
    delta_trace,
    delta_traces,
    gchase_s,
    measure_ratio,
    ofa_s,
    offline_states,
    sp_costs,
)
from planswitch import tariff
from planswitch.bench import _sp_stacks
from planswitch.chase import chase_kernel


# ---------------------------------------------------------------------------
# Test-only oracle: the backward pass as a scalar loop.
# ---------------------------------------------------------------------------


def ofa_oracle(dt):
    """Offline states of one trace: -beta takes plan 0, 0 takes plan 1, interior copies the later slot."""
    values = dt.values
    neg = -dt.beta
    states = [0] * len(dt)
    nxt = 0
    for t in range(len(dt), 0, -1):
        v = values[t]
        if v == neg:
            nxt = 0
        elif v == 0.0:
            nxt = 1
        states[t - 1] = nxt
    return states


# ---------------------------------------------------------------------------
# Stacks: rows of one horizon. Small integer costs and fees make boundary hits
# and ties common; floats of both signs, -0.0 included, test the rounding.
# ---------------------------------------------------------------------------


@st.composite
def stacks(draw, max_rows=6, max_period=14):
    """(g0, g1, beta) of a few rows: integer costs (-0.0 among their zeros) or floats of both signs."""
    rows, period = draw(st.integers(1, max_rows)), draw(st.integers(1, max_period))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        g = rng.integers(-3, 7, size=(2, rows, period)).astype(np.float64)
        g[(g == 0.0) & (rng.random(g.shape) < 0.5)] = -0.0
    else:
        g = rng.uniform(-10.0, 10.0, size=(2, rows, period))
    return g[0], g[1], rng.choice(draw(st.sampled_from([(1.0,), (0.5, 1.0, 2.0, 3.0), (0.7, 2.5)])), size=rows)


def _seeded_stacks(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        rows, period = int(rng.integers(1, 30)), int(rng.integers(1, 13))
        g = rng.uniform(-2.0, 10.0, size=(2, rows, period))
        yield g[0], g[1], rng.choice([0.5, 1.0, 2.0, 5.0], size=rows)


def _traces(g0, g1, beta, drift=0.0):
    return [delta_trace(CostSeries(a, b), fee, drift) for a, b, fee in zip(g0, g1, beta.tolist())]


def _drift_stack(rng, rows, period):
    # Small integer costs and a drift of 0.5 park many rows at -beta, where the expiry guard cuts.
    g = rng.integers(0, 4, size=(2, rows, period)).astype(float)
    return g[0], g[1], rng.choice([1.0, 1.5, 3.0], size=rows)


def _same_floats(row, values):
    assert [repr(v) for v in row.tolist()] == [repr(v) for v in values]


class TestDeltaTraces:
    @settings(max_examples=200, deadline=None)
    @given(stacks(), st.sampled_from([0.0, 0.25, 1.0]))
    def test_rows_equal_delta_trace(self, stack, drift):
        g0, g1, beta = stack
        values = delta_traces(g0, g1, beta, drift)
        assert values.shape == (len(g0), g0.shape[1] + 1)
        for row, dt in zip(values, _traces(g0, g1, beta, drift)):
            _same_floats(row, dt.values)

    def test_seeded_rows_with_per_row_betas(self):
        for g0, g1, beta in _seeded_stacks(401, 60):
            for row, dt in zip(delta_traces(g0, g1, beta), _traces(g0, g1, beta)):
                _same_floats(row, dt.values)

    def test_one_slot_and_drift(self):
        g0, g1, beta = np.array([[3.0], [0.0], [-0.0]]), np.array([[0.0], [0.5], [0.0]]), np.array([2.0, 1.0, 4.0])
        for drift in (0.0, 0.5, 3.0):
            for row, dt in zip(delta_traces(g0, g1, beta, drift), _traces(g0, g1, beta, drift)):
                _same_floats(row, dt.values)

    def test_top_is_positive_zero(self):
        # -1 + 1 reaches the top; a gap of -0.0 there keeps +0.0, as the scalar scan writes it.
        values = delta_traces([[1.0, -0.0]], [[0.0, 0.0]], 1.0)
        _same_floats(values[0], (-1.0, 0.0, 0.0))
        _same_floats(values[0], delta_trace(CostSeries([1.0, -0.0], [0.0, 0.0]), 1.0).values)

    def test_one_fee_for_every_row(self):
        g0, g1, _ = next(_seeded_stacks(402, 1))
        assert np.array_equal(delta_traces(g0, g1, 2.0), delta_traces(g0, g1, np.full(len(g0), 2.0)))

    def test_read_only(self):
        values = delta_traces([[1.0]], [[0.0]], 1.0)
        with pytest.raises(ValueError):
            values[0, 0] = 0.0


class TestOfflineStates:
    @settings(max_examples=200, deadline=None)
    @given(stacks())
    def test_rows_equal_oracle(self, stack):
        g0, g1, beta = stack
        states = offline_states(delta_traces(g0, g1, beta), beta)
        assert states.shape == g0.shape and states.dtype == np.int8
        for row, dt in zip(states, _traces(g0, g1, beta)):
            assert row.tolist() == ofa_oracle(dt) == list(ofa_s(dt).states)

    def test_seeded_rows_equal_oracle(self):
        for g0, g1, beta in _seeded_stacks(403, 60):
            states = offline_states(delta_traces(g0, g1, beta), beta)
            for row, dt in zip(states, _traces(g0, g1, beta)):
                assert row.tolist() == ofa_oracle(dt)

    @pytest.mark.parametrize("values, want", [
        ((-2.0, -1.0, -0.5, 0.0), [1, 1, 1]),    # last slot at the top: every interior slot copies it
        ((-2.0, -1.0, -0.5, -2.0), [0, 0, 0]),   # last slot on the floor
        ((-2.0, 0.0, -1.0, -2.0), [1, 0, 0]),
        ((-2.0, -1.0, -1.5, -0.5), [0, 0, 0]),   # every value interior: the boundary s_{T+1} = 0 rules
        ((-2.0, -2.0, -2.0, -2.0), [0, 0, 0]),   # every value at -beta
        ((-2.0, 0.0, 0.0, 0.0), [1, 1, 1]),
        ((-2.0, -1.0), [0]),
        ((-2.0, 0.0), [1]),
    ])
    def test_edge_cases(self, values, want):
        dt = DeltaTrace(values, 2.0)
        assert ofa_oracle(dt) == want
        assert offline_states(values, 2.0)[0].tolist() == want
        assert list(ofa_s(dt).states) == want

    def test_edge_cases_stacked_with_per_row_betas(self):
        values = np.array([[-1.0, -0.5, 0.0], [-2.0, -1.0, -1.5], [-3.0, -3.0, -3.0], [-4.0, 0.0, -1.0]])
        beta = np.array([1.0, 2.0, 3.0, 4.0])
        assert offline_states(values, beta).tolist() == [[1, 1], [0, 0], [0, 0], [1, 0]]


class TestKernelStack:
    @settings(max_examples=200, deadline=None)
    @given(stacks())
    def test_rows_equal_gchase_s(self, stack):
        g0, g1, beta = stack
        states, forced = chase_kernel(delta_traces(g0, g1, beta), beta)
        assert states.shape == g0.shape and not forced.any()
        for row, dt in zip(states, _traces(g0, g1, beta)):
            assert row.tolist() == list(gchase_s(dt).states)

    def test_seeded_rows_equal_gchase_s(self):
        for g0, g1, beta in _seeded_stacks(404, 60):
            states, _ = chase_kernel(delta_traces(g0, g1, beta), beta)
            for row, dt in zip(states, _traces(g0, g1, beta)):
                assert row.tolist() == list(gchase_s(dt).states)

    def test_guard_takes_a_stack_with_per_row_fees(self):
        # Each row of a guarded stack is its own trace and fee, run as if alone, and is the per-slot guard fold.
        rng = np.random.default_rng(407)
        forced_total = 0
        for _ in range(60):
            rows, period, cap = int(rng.integers(1, 30)), int(rng.integers(1, 40)), int(rng.integers(1, 6))
            g0, g1, beta = _drift_stack(rng, rows, period)
            states, forced = chase_kernel(delta_traces(g0, g1, beta, 0.5), beta, None, cap)
            for row, n, dt in zip(states.tolist(), forced.tolist(), _traces(g0, g1, beta, 0.5)):
                alone, alone_forced = chase_kernel(dt.values, dt.beta, None, cap)
                assert (row, n) == (alone[0].tolist(), int(alone_forced[0])) == oracle_guarded(dt, cap)
            forced_total += int(forced.sum())
        assert forced_total > 0

    @pytest.mark.parametrize("cap", [None, 4])
    def test_stack_taller_than_a_block(self, cap):
        rng = np.random.default_rng(408)
        period = 12
        rows = 2 * (tariff.BLOCK_CELLS // period) + 7  # three blocks, the last one short
        g0, g1, beta = _drift_stack(rng, rows, period)
        states, forced = chase_kernel(delta_traces(g0, g1, beta, 0.5), beta, None, cap)
        for row, n, dt in zip(states.tolist(), forced.tolist(), _traces(g0, g1, beta, 0.5)):
            assert (row, n) == (oracle_guarded(dt, cap) if cap else (list(gchase_s(dt).states), 0))
        assert (forced.sum() > 0) == bool(cap)

    @pytest.mark.parametrize("cap", [None, 4])
    def test_tall_stack_holds_no_whole_stack_temporary(self, cap):
        # The peak is the states and forced counts plus one row block's temporaries, not a multiple of the stack.
        g0, g1, beta = _drift_stack(np.random.default_rng(409), 50_000, 12)
        values = delta_traces(g0, g1, beta, 0.5)
        tracemalloc.start()
        try:
            states, forced = chase_kernel(values, beta, None, cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < states.nbytes + forced.nbytes + 40 * tariff.BLOCK_CELLS


class TestSpCosts:
    @settings(max_examples=200, deadline=None)
    @given(stacks(), st.integers(0, 2**32 - 1))
    def test_rows_equal_sp_cost(self, stack, seed):
        g0, g1, beta = stack
        states = np.random.default_rng(seed).integers(0, 2, size=g0.shape)
        want = [sp_loop(*row) for row in zip(states.tolist(), g0.tolist(), g1.tolist(), beta.tolist())]
        assert np.array_equal(sp_costs(states, g0, g1, beta), want)

    def test_seeded_rows_and_schedules(self):
        rng = np.random.default_rng(405)
        for g0, g1, beta in _seeded_stacks(406, 60):
            for states in (rng.integers(0, 2, size=g0.shape), offline_states(delta_traces(g0, g1, beta), beta)):
                want = [sp_loop(*row) for row in zip(states.tolist(), g0.tolist(), g1.tolist(), beta.tolist())]
                assert np.array_equal(sp_costs(states, g0, g1, beta), want)

    def test_zero_fee_and_negative_zero_costs(self):
        states = np.array([[1, 0, 1], [0, 0, 0]])
        g0 = np.array([[-0.0, -0.0, -0.0], [-0.0, -0.0, -0.0]])
        g1 = np.array([[-0.0, 1.0, -0.0], [2.0, 2.0, 2.0]])
        got = sp_costs(states, g0, g1, 0.0)
        want = [sp_loop(s, a, b, 0.0) for s, a, b in zip(states.tolist(), g0.tolist(), g1.tolist())]
        assert [repr(v) for v in got.tolist()] == [repr(v) for v in want]


class TestValidation:
    def test_mismatched_shape(self):
        with pytest.raises(ValidationError):
            delta_traces(np.zeros((2, 3)), np.zeros((2, 4)), 1.0)
        with pytest.raises(ValidationError):
            delta_traces(np.zeros(3), np.zeros(3), 1.0)
        with pytest.raises(ValidationError):
            delta_traces(np.zeros((2, 3)), np.zeros((2, 3)), [1.0, 1.0, 1.0])
        with pytest.raises(ValidationError):
            sp_costs(np.zeros((2, 3), np.int8), np.zeros((2, 4)), np.zeros((2, 4)), 1.0)
        with pytest.raises(ValidationError):
            offline_states(np.full((2, 3), -1.0), [1.0, 1.0, 1.0])
        with pytest.raises(ValidationError):
            chase_kernel(np.full((2, 3), -1.0), [1.0])
        with pytest.raises(ValidationError):
            offline_states(np.full((2, 1), -1.0), 1.0)  # no slot

    # Row 1 of each stack breaks the gap-trace rule for beta = 2; row 0 keeps it.
    BAD_GAPS = {
        "start": ([-1.0, -0.5, 0.0], r"value\[0\] must equal -beta=-2.0, got -1.0"),
        "nan-start": ([np.nan, -1.0, -1.0], r"value\[0\] must equal -beta=-2.0, got nan"),
        "below": ([-2.0, -1.0, -3.0], r"delta trace values must lie in \[-beta, 0\]"),
        "above": ([-2.0, 0.5, -1.0], r"delta trace values must lie in \[-beta, 0\]"),
        "nan": ([-2.0, np.nan, -1.0], r"delta trace values must lie in \[-beta, 0\]"),
    }

    @pytest.mark.parametrize("beta", [2.0, [2.0, 2.0]], ids=["one-fee", "per-row"])
    @pytest.mark.parametrize("row, message", BAD_GAPS.values(), ids=BAD_GAPS)
    def test_kernels_refuse_what_delta_trace_refuses(self, row, message, beta):
        with pytest.raises(ValidationError, match=message):
            DeltaTrace(row, 2.0)
        stack = np.array([[-2.0, -1.0, 0.0], row])
        for call in (offline_states, chase_kernel):
            with pytest.raises(ValidationError, match="gap trace row 1: " + message):
                call(stack, beta)
            with pytest.raises(ValidationError, match="gap trace row 0: " + message):
                call(np.array(row), 2.0)
        with pytest.raises(ValidationError, match="gap trace row 0: " + message):
            chase_kernel(np.array(row), 2.0, np.full((3, 2), 0.5))  # the randomized rule
        with pytest.raises(ValidationError, match="gap trace row 0: " + message):
            chase_kernel(np.array(row), 2.0, None, 1)  # the expiry guard

    def test_gap_rule_reads_each_rows_fee(self):
        stack = np.array([[-1.0, -0.5, 0.0], [-3.0, -2.5, -3.0]])
        assert offline_states(stack, [1.0, 3.0]).tolist() == [[1, 1], [0, 0]]
        assert chase_kernel(stack, [1.0, 3.0])[0].tolist() == [[0, 1], [0, 0]]
        with pytest.raises(ValidationError, match=r"row 1: value\[0\] must equal -beta=-1.0, got -3.0"):
            offline_states(stack, [1.0, 1.0])
        with pytest.raises(ValidationError, match=r"row 1: value\[0\] must equal -beta=-2.0, got -3.0"):
            chase_kernel(stack, [1.0, 2.0])
        with pytest.raises(ValidationError, match=r"row 0: delta trace values must lie in \[-beta, 0\]"):
            offline_states(np.array([[-0.5, -1.0, 0.0], [-3.0, -2.5, -3.0]]), [0.5, 3.0])
        # a stack of no rows breaks no rule
        assert offline_states(np.zeros((0, 3)), 1.0).shape == chase_kernel(np.zeros((0, 3)), [])[0].shape == (0, 2)
        # the traces from the defect report: out of the band, and a start that is not -beta
        with pytest.raises(ValidationError, match="gap trace row 0"):
            offline_states(np.array([[-1.0, 5.0, -3.0]]), 1.0)
        with pytest.raises(ValidationError, match="gap trace row 0"):
            chase_kernel(np.array([0.0, 0.5, -7.0]), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cost(self, bad):
        g0 = np.zeros((2, 3))
        g0[1, 2] = bad
        with pytest.raises(ValidationError, match="row 1, slot 3"):
            delta_traces(g0, np.zeros((2, 3)), 1.0)
        with pytest.raises(ValidationError):
            delta_traces(np.zeros((2, 3)), g0, 1.0)
        with pytest.raises(ValidationError):
            sp_costs(np.zeros((2, 3), np.int8), g0, np.zeros((2, 3)), 1.0)

    @pytest.mark.parametrize("beta", [-1.0, [1.0, -0.5], [1.0, np.nan]])
    def test_negative_or_nan_beta(self, beta):
        with pytest.raises(ValidationError):
            delta_traces(np.zeros((2, 3)), np.zeros((2, 3)), beta)
        with pytest.raises(ValidationError):
            offline_states(np.full((2, 4), -1.0), beta)
        with pytest.raises(ValidationError):
            chase_kernel(np.full((2, 4), -1.0), beta)
        with pytest.raises(ValidationError):
            sp_costs(np.zeros((2, 3), np.int8), np.zeros((2, 3)), np.zeros((2, 3)), beta)

    def test_zero_beta_refused_where_the_band_needs_it(self):
        with pytest.raises(ValidationError):
            delta_traces(np.zeros((1, 3)), np.zeros((1, 3)), 0.0)
        assert sp_costs(np.ones((1, 3), np.int8), np.zeros((1, 3)), np.ones((1, 3)), 0.0).tolist() == [3.0]

    def test_states_must_be_binary(self):
        with pytest.raises(ValidationError):
            sp_costs(np.array([[0, 2]]), np.zeros((1, 2)), np.zeros((1, 2)), 1.0)


def test_stacked_costs_equal_measure_ratio():
    got, want = [], []
    for g0, g1, betas in _sp_stacks(np.random.default_rng(8), 400):
        values = delta_traces(g0, g1, betas)
        alg = sp_costs(chase_kernel(values, betas)[0], g0, g1, betas)
        opt = sp_costs(offline_states(values, betas), g0, g1, betas)
        got += zip(alg.tolist(), opt.tolist())
        want += [(r.alg_cost, r.opt_cost) for r in (measure_ratio(gchase_s, CostSeries(a, b), beta)
                                                    for a, b, beta in zip(g0, g1, betas.tolist()))]
    assert len(got) == 400
    assert got == want
