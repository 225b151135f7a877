"""Differential tests of the stack objectives and identities against slot loops.

``sp_costs``, ``p2_costs``, ``dsp_costs``, ``phi_identity_sps`` and
``phi_identity_dsps`` must give, row by row, the floats the slot loops of
``scalar_objectives`` give: compared by ``repr``, so the sign of a zero
counts. Each runs on one cost series shared by every row and on one series
per row, with fees given once or per row, zero fees and one-slot horizons
included. The one-schedule forms are one-row calls and are checked the same
way, and so is the fractional objective ``csp_cost``.
"""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_objectives import csp_loop, dsp_loop, p2_loop, phi_dsp_loop, phi_sp_loop, sp_loop, zero_runs_loop

from planswitch import (
    CostSeries,
    FractionalSchedule,
    InfeasibleScheduleError,
    Schedule,
    ValidationError,
    batch_sp_costs,
    brute_force_dsps,
    csp_cost,
    dsp_cost,
    dsp_costs,
    p2_cost,
    p2_costs,
    phi_identity_dsp,
    phi_identity_dsps,
    phi_identity_sp,
    phi_identity_sps,
    sp_cost,
    sp_costs,
    zero_runs,
)

MODES = ("literal", "transition-only")


def same(got, want):
    assert [repr(v) for v in np.asarray(got).tolist()] == [repr(v) for v in want]


def series_rows(g, rows):
    """Each row's cost sequence: the shared series (1-D) for every row, or row i's."""
    return [g.tolist()] * rows if g.ndim == 1 else g.tolist()


def per_row(value, rows):
    return np.broadcast_to(np.asarray(value, dtype=object), (rows,)).tolist()


def longest_runs(states):
    return [max((e - s + 1 for s, e in zero_runs_loop(row)), default=0) for row in states.tolist()]


@st.composite
def instances(draw, max_rows=6, max_period=12):
    """(states, g0, g1, rng): integer costs (-0.0 among their zeros) or floats of
    both signs, shared by every row (1-D) or one series per row."""
    rows, period = draw(st.integers(1, max_rows)), draw(st.integers(1, max_period))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        g = rng.integers(-3, 7, size=(2, rows, period)).astype(np.float64)
        g[(g == 0.0) & (rng.random(g.shape) < 0.5)] = -0.0
    else:
        g = rng.uniform(-10.0, 10.0, size=(2, rows, period))
    g0, g1 = (g[0][0], g[1][0]) if draw(st.booleans()) else (g[0], g[1])
    states = (rng.random((rows, period)) < draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))).astype(np.int8)
    return states, g0, g1, rng


def constant_fee(draw, rng, rows):
    fees = draw(st.sampled_from([(0.0,), (0.0, 0.5, 2.0), (1.0, 3.0), (0.7,)]))
    return float(rng.choice(fees)) if draw(st.booleans()) else rng.choice(fees, size=rows)


def decreasing_fee(draw, rng, states):
    """(alpha, contract_len, fee_mode), each one value or one per row, every row feasible."""
    rows = len(states)
    alphas = draw(st.sampled_from([(0.0,), (0.0, 0.25, 1.5), (0.3, 2.0)]))
    longest = np.maximum(longest_runs(states), 1) + rng.integers(0, 3, size=rows)
    alpha = float(rng.choice(alphas)) if draw(st.booleans()) else rng.choice(alphas, size=rows)
    cap = int(longest.max()) if draw(st.booleans()) else longest
    mode = draw(st.sampled_from(MODES)) if draw(st.booleans()) else rng.choice(MODES, size=rows).tolist()
    return alpha, cap, mode


class TestStackFoldsEqualLoops:
    @settings(max_examples=300, deadline=None)
    @given(instances(), st.data())
    def test_sp_and_p2(self, inst, data):
        states, g0, g1, rng = inst
        rows = len(states)
        beta = constant_fee(data.draw, rng, rows)
        args = (states.tolist(), series_rows(g0, rows), series_rows(g1, rows), per_row(beta, rows))
        same(sp_costs(states, g0, g1, beta), [sp_loop(*a) for a in zip(*args)])
        same(p2_costs(states, g0, g1, beta), [p2_loop(*a) for a in zip(*args)])
        lhs, rhs = phi_identity_sps(states, g0, g1, beta)
        want = [phi_sp_loop(*a) for a in zip(*args)]
        same(lhs, [w[0] for w in want])
        same(rhs, [w[1] for w in want])

    @settings(max_examples=300, deadline=None)
    @given(instances(), st.data())
    def test_dsp(self, inst, data):
        states, g0, g1, rng = inst
        rows = len(states)
        alpha, cap, mode = decreasing_fee(data.draw, rng, states)
        args = (states.tolist(), series_rows(g0, rows), series_rows(g1, rows),
                per_row(alpha, rows), per_row(cap, rows))
        same(dsp_costs(states, g0, g1, alpha, cap, mode), [dsp_loop(*a) for a in zip(*args, per_row(mode, rows))])
        lhs, rhs = phi_identity_dsps(states, g0, g1, alpha, cap)
        want = [phi_dsp_loop(*a) for a in zip(*args)]
        same(lhs, [w[0] for w in want])
        same(rhs, [w[1] for w in want])

    @pytest.mark.parametrize("mode", MODES)
    def test_one_slot_and_zero_fees(self, mode):
        states = np.array([[0], [1], [0], [1]], dtype=np.int8)
        g0, g1 = np.array([[2.0], [-0.0], [-0.0], [3.0]]), np.array([[-0.0], [1.5], [4.0], [-0.0]])
        for beta in (0.0, [0.0, 1.0, 0.0, 2.5]):
            want = [sp_loop(s, a, b, f) for s, a, b, f in zip(states.tolist(), g0.tolist(), g1.tolist(),
                                                             per_row(beta, 4))]
            same(sp_costs(states, g0, g1, beta), want)
        for alpha in (0.0, [0.0, 0.5, 1.0, 0.0]):
            want = [dsp_loop(s, a, b, f, 1, mode) for s, a, b, f in zip(states.tolist(), g0.tolist(), g1.tolist(),
                                                                        per_row(alpha, 4))]
            same(dsp_costs(states, g0, g1, alpha, 1, mode), want)

    def test_shared_series_equals_repeated_series(self):
        rng = np.random.default_rng(31)
        states = rng.integers(0, 2, size=(9, 20))
        g0, g1 = rng.uniform(-5.0, 5.0, size=(2, 20))
        stacked = np.tile(g0, (9, 1)), np.tile(g1, (9, 1))
        assert np.array_equal(sp_costs(states, g0, g1, 1.5), sp_costs(states, *stacked, 1.5))
        assert np.array_equal(p2_costs(states, g0, g1, 1.5), p2_costs(states, *stacked, 1.5))
        assert np.array_equal(dsp_costs(states, g0, g1, 0.5, 20), dsp_costs(states, *stacked, 0.5, 20))

    def test_one_row_forms_equal_loops(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            period = int(rng.integers(1, 13))
            states = rng.integers(0, 2, size=period).tolist()
            g0, g1 = rng.uniform(-2.0, 10.0, size=(2, period)).tolist()
            sched, cs = Schedule(states), CostSeries(g0, g1)
            beta, alpha = float(rng.choice([0.0, 0.5, 3.0])), float(rng.choice([0.0, 0.4]))
            cap = max(longest_runs(np.array([states]))[0], 1) + int(rng.integers(0, 2))
            mode = MODES[int(rng.integers(0, 2))]
            assert repr(sp_cost(sched, cs, beta)) == repr(sp_loop(states, g0, g1, beta))
            assert repr(p2_cost(sched, cs, beta)) == repr(p2_loop(states, g0, g1, beta))
            assert repr(dsp_cost(sched, cs, alpha, cap, mode)) == repr(dsp_loop(states, g0, g1, alpha, cap, mode))
            assert phi_identity_sp(sched, cs, beta) == phi_sp_loop(states, g0, g1, beta)
            assert phi_identity_dsp(sched, cs, alpha, cap) == phi_dsp_loop(states, g0, g1, alpha, cap)
            assert zero_runs(sched) == zero_runs_loop(states)
            assert all(type(v) is float for v in (sp_cost(sched, cs, beta), *phi_identity_sp(sched, cs, beta)))


class TestCspCostEqualsLoop:
    """``csp_cost`` folds what ``csp_loop`` adds, slot by slot: the same floats."""

    @staticmethod
    def fractions(rng, period):
        # plateaus (a value repeated), the ends 0 and 1, and interior values
        x = rng.choice([0.0, 1.0, 0.5, rng.uniform()], size=period)
        x[rng.random(period) < 0.4] = rng.uniform(0.0, 1.0)
        return np.maximum.accumulate(x) if rng.random() < 0.2 else x

    def test_random_fractional_schedules(self):
        rng = np.random.default_rng(61)
        for _ in range(2000):
            period = int(rng.integers(1, 14))
            if rng.random() < 0.5:
                g = rng.integers(-3, 5, size=(2, period)).astype(np.float64)
                g[(g == 0.0) & (rng.random(g.shape) < 0.5)] = -0.0
            else:
                g = rng.uniform(-10.0, 10.0, size=(2, period))
            beta = float(rng.choice([0.0, 0.5, 2.0, rng.uniform(0.0, 9.0)]))
            x = self.fractions(rng, period)
            got = csp_cost(FractionalSchedule(x), CostSeries(g[0], g[1]), beta)
            assert repr(got) == repr(csp_loop(x.tolist(), g[0].tolist(), g[1].tolist(), beta))

    @pytest.mark.parametrize("x, g0, g1, beta", [
        ([0.5], [-0.0], [-0.0], 0.0),
        ([0.0], [-0.0], [-0.0], 1.0),
        ([1.0], [2.0], [-0.0], 0.0),
        ([0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [1.0, -0.0, 3.0], 2.0),
        ([1.0, 1.0, 0.0, 1.0], [1.0, 2.0, 3.0, 4.0], [-1.0, -2.0, -0.0, 0.5], 0.0),
        ([0.25, 0.25, 0.75, 0.75], [0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1], 3.0),
    ], ids=["T1-zero-fee", "T1-stay", "T1-up", "all-zero", "zero-fee-moves", "plateaus"])
    def test_edge_cases(self, x, g0, g1, beta):
        got = csp_cost(FractionalSchedule(x), CostSeries(g0, g1), beta)
        assert repr(got) == repr(csp_loop(x, g0, g1, beta))


class TestStateCheck:
    """One check of the state matrix for every stack objective."""

    G = np.array([1.0, 2.0, 4.0])

    def objectives(self):
        cs = CostSeries(self.G, 2 * self.G)
        return {
            "sp_costs": lambda s: sp_costs(s, self.G, 2 * self.G, 1.0),
            "p2_costs": lambda s: p2_costs(s, self.G, 2 * self.G, 1.0),
            "dsp_costs": lambda s: dsp_costs(s, self.G, 2 * self.G, 1.0, 3),
            "batch_sp_costs": lambda s: batch_sp_costs(s, cs, 1.0),
            "phi_identity_sps": lambda s: phi_identity_sps(s, self.G, 2 * self.G, 1.0),
            "phi_identity_dsps": lambda s: phi_identity_dsps(s, self.G, 2 * self.G, 1.0, 3),
        }

    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
    def test_non_binary_entry_refused(self, bad):
        states = np.array([[0, 1, 0], [1, 0, 0]], dtype=np.float64 if bad in (0.5, np.nan) else np.int64)
        states[1, 2] = bad
        for name, price in self.objectives().items():
            with pytest.raises(ValidationError, match="entries must be 0 or 1"):
                price(states)

    @pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.int8, np.int64, np.float64])
    def test_any_binary_dtype_prices_alike(self, dtype):
        states = np.array([[0, 1, 0], [1, 1, 0], [0, 0, 1]])
        for name, price in self.objectives().items():
            want = price(states.astype(np.int8))
            got = price(states.astype(dtype))
            assert np.array_equal(got, want), name

    @pytest.mark.parametrize("shape", [(2, 4), (3,), (1, 2, 3)])
    def test_shape_refused(self, shape):
        for name, price in self.objectives().items():
            with pytest.raises(ValidationError, match="does not match series length 3"):
                price(np.zeros(shape, dtype=np.int8))

    def test_per_row_series_shape_refused(self):
        g = np.ones((2, 3))
        with pytest.raises(ValidationError, match=r"does not match cost stack shape \(2, 3\)"):
            dsp_costs(np.zeros((3, 3), np.int8), g, g, 1.0, 3)
        with pytest.raises(ValidationError, match="cost stack shapes"):
            p2_costs(np.zeros((2, 3), np.int8), g, np.ones(3), 1.0)

    def test_empty_batch_on_a_shared_series(self):
        for name in ("sp_costs", "p2_costs", "dsp_costs", "batch_sp_costs"):
            assert self.objectives()[name](np.zeros((0, 3), np.int8)).shape == (0,)

    def test_infeasible_row_named(self):
        with pytest.raises(InfeasibleScheduleError, match=r"^row 0: fixed-plan run \[1, 3\] lasts 3"):
            dsp_cost(Schedule([0, 0, 0]), CostSeries(self.G, self.G), 1.0, 2)
        with pytest.raises(InfeasibleScheduleError, match=r"row 2: .* > contract_len 1"):
            dsp_costs([[1, 1, 1], [0, 1, 0], [1, 0, 0]], self.G, self.G, 1.0, [1, 1, 1])

    def test_per_row_terms_that_are_not_numbers_refused_as_one_term_is(self):
        states, g = np.zeros((2, 3), np.int8), np.ones((2, 3))
        for cap in ("3", ["3", "3"]):
            with pytest.raises(TypeError):
                dsp_costs(states, g, g, 1.0, cap)

    @pytest.mark.parametrize("fees, needle", [
        (dict(alpha=[Decimal("0.5"), Decimal("-1")]), "alpha"),
        (dict(contract_len=[Fraction(3), Fraction(5, 2)]), "contract_len"),
        (dict(fee_mode=["literal", "bogus"]), "fee_mode"),
    ])
    def test_every_per_row_term_checked(self, fees, needle):
        # Object-dtype terms, the bad one on a later row: every row goes through fee_terms.
        states, g = np.zeros((2, 3), np.int8), np.ones((2, 3))
        fee = dict(alpha=1.0, contract_len=3, fee_mode="literal") | fees
        prices = [lambda: dsp_costs(states, g, g, **fee), lambda: brute_force_dsps(g, g, **fee)]
        if "fee_mode" not in fees:  # the identity is literal-only
            prices.append(lambda: phi_identity_dsps(states, g, g, fee["alpha"], fee["contract_len"]))
        for price in prices:
            with pytest.raises(ValidationError, match=needle):
                price()
