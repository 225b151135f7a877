from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planswitch import (
    CostSeries,
    DeltaTrace,
    FractionalSchedule,
    InternalInvariantError,
    OnlineState,
    ValidationError,
    brute_force_sp,
    cchase,
    clamp_step,
    csp_cost,
    delta_trace,
    gchase_dsp,
    gchase_r,
    gchase_r_dsp,
    gchase_r_step,
    gchase_s,
    gchase_step,
    marginal_probabilities,
    ofa_s,
    random_cost_series,
    sp_cost,
    zero_runs,
)
from planswitch.chase import drift_trace
from scalar_objectives import marginal_loop

CS_A = CostSeries.from_pairs([(3, 0), (0, 3), (0, 0)])
CS_B = CostSeries.from_pairs([(1, 0), (1, 0), (0, 2)])


class TestDeltaTrace:
    def test_clamp_both_ends(self):
        assert delta_trace(CS_A, 2.0).values == (-2.0, 0.0, -2.0, -2.0)

    def test_interior_walk(self):
        assert delta_trace(CS_B, 2.0).values == (-2.0, -1.0, 0.0, -2.0)

    def test_drift_subtracts_each_slot(self):
        dt = delta_trace(CS_A, 2.0, drift=1.0)
        assert dt.values[1] == 0.0  # clamp(-2 + 3 - 1)

    def test_nonpositive_beta_rejected(self):
        with pytest.raises(ValidationError):
            delta_trace(CS_A, 0.0)
        with pytest.raises(ValidationError):
            delta_trace(CS_A, -1.0)

    def test_invariants_enforced_on_construction(self):
        with pytest.raises(ValidationError):
            DeltaTrace(values=(0.0, -1.0), beta=2.0)  # must start at -beta
        with pytest.raises(ValidationError):
            DeltaTrace(values=(-2.0, 1.0), beta=2.0)  # above 0
        with pytest.raises(ValidationError):
            DeltaTrace(values=(-2.0, -1.0, -2.5, 0.0), beta=2.0)  # below -beta, mid-trace

    @pytest.mark.parametrize("values", [(), (-1.0,)], ids=["empty", "initial-only"])
    def test_trace_without_a_slot_refused(self, values):
        # the kernels' shape rule: a trace the record accepts is one every kernel takes
        with pytest.raises(ValidationError, match=r"gap traces must be \(rows x \(T \+ 1\)\) with T >= 1"):
            DeltaTrace(values, 1.0)

    @pytest.mark.parametrize("values", [(-1.0, float("nan"), -0.5), (-1.0, -0.5, float("nan"))],
                             ids=["nan-middle", "nan-last"])
    def test_nan_rejected_anywhere(self, values):
        # min and max skip a NaN after the first entry
        with pytest.raises(ValidationError, match=r"must lie in \[-beta, 0\]"):
            DeltaTrace(values=values, beta=1.0)

    def test_huge_beta_whose_values_sum_past_float_range_accepted(self):
        assert DeltaTrace(values=(-1e308,) * 3, beta=1e308).values == (-1e308,) * 3

    @given(
        gaps=st.lists(st.floats(-50, 50), min_size=1, max_size=30),
        beta=st.floats(0.1, 10),
    )
    @settings(max_examples=200)
    def test_boundary_hits_are_exact(self, gaps, beta):
        cs = CostSeries.from_pairs([(g, 0.0) if g >= 0 else (0.0, -g) for g in gaps])
        dt = delta_trace(cs, beta)
        prev = -beta
        for t, v in enumerate(dt.values[1:], start=1):
            raw = prev + gaps[t - 1]
            if raw >= 0.0:
                assert v == 0.0
            elif raw <= -beta:
                assert v == -beta
            else:
                assert -beta < v < 0.0
            prev = v

    def test_clamp_step_matches_batch(self):
        dt = delta_trace(CS_B, 2.0)
        prev = -2.0
        for t, (a, b) in enumerate(zip(CS_B.g0, CS_B.g1), start=1):
            prev = clamp_step(prev, a - b, 2.0)
            assert prev == dt.values[t]


class TestOfa:
    def test_switch_then_cancel(self):
        sched = ofa_s(delta_trace(CS_A, 2.0))
        assert sched.states.tolist() == [1, 0, 0]
        assert sp_cost(sched, CS_A, 2.0) == pytest.approx(brute_force_sp(CS_A, 2.0).best_cost)

    def test_interior_copies_later_decision(self):
        sched = ofa_s(delta_trace(CS_B, 2.0))
        assert sched.states.tolist() == [1, 1, 0]
        assert sp_cost(sched, CS_B, 2.0) == pytest.approx(2.0, abs=1e-12)
        assert brute_force_sp(CS_B, 2.0).best_cost == pytest.approx(2.0, abs=1e-12)

    def test_pinned_trace_stays_fixed(self):
        cs = CostSeries.from_pairs([(0, 5), (0, 1), (0, 2)])
        assert ofa_s(delta_trace(cs, 2.0)).states.tolist() == [0, 0, 0]

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(21)
        for _ in range(150):
            period = int(rng.integers(1, 11))
            beta = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
            cs = random_cost_series(rng, period)
            assert sp_cost(ofa_s(delta_trace(cs, beta)), cs, beta) == pytest.approx(
                brute_force_sp(cs, beta).best_cost, abs=1e-9
            )

    def test_optimal_even_with_negative_costs(self):
        # only gaps matter; shifting a slot's pair shifts every schedule equally
        rng = np.random.default_rng(22)
        for _ in range(60):
            period = int(rng.integers(1, 10))
            cs = random_cost_series(rng, period, low=-5.0, high=5.0)
            beta = float(rng.uniform(0.2, 3.0))
            assert sp_cost(ofa_s(delta_trace(cs, beta)), cs, beta) == pytest.approx(
                brute_force_sp(cs, beta).best_cost, abs=1e-9
            )


class TestGchase:
    def test_forward_rule(self):
        assert gchase_s(delta_trace(CS_A, 2.0)).states.tolist() == [1, 0, 0]

    def test_lags_offline_by_construction(self):
        dt = delta_trace(CS_B, 2.0)
        sched = gchase_s(dt)
        assert sched.states.tolist() == [0, 1, 0]
        assert sp_cost(sched, CS_B, 2.0) == pytest.approx(3.0, abs=1e-12)

    def test_pinned_trace_stays_fixed(self):
        cs = CostSeries.from_pairs([(0, 5), (0, 1)])
        assert gchase_s(delta_trace(cs, 2.0)).states.tolist() == [0, 0]

    def test_streaming_fold_reproduces_batch(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            cs = random_cost_series(rng, int(rng.integers(1, 20)))
            beta = float(rng.uniform(0.5, 4.0))
            dt = delta_trace(cs, beta)
            state = OnlineState.initial(beta)
            folded = []
            for t in range(1, len(dt) + 1):
                state, s = gchase_step(state, dt.values[t])
                folded.append(s)
            assert list(folded) == gchase_s(dt).states.tolist()

    def test_depends_only_on_gap_sequence(self):
        # same gaps, different absolute costs -> same schedule (integer costs
        # keep the per-slot differences float-exact)
        rng = np.random.default_rng(4)
        gaps = rng.integers(-3, 4, size=10)
        shift = rng.integers(0, 10, size=10)
        cs1 = CostSeries.from_pairs([(max(g, 0), max(-g, 0)) for g in gaps])
        cs2 = CostSeries.from_pairs(
            [(max(g, 0) + c, max(-g, 0) + c) for g, c in zip(gaps, shift)]
        )
        dt1, dt2 = delta_trace(cs1, 2.0), delta_trace(cs2, 2.0)
        assert dt1.values == dt2.values
        assert gchase_s(dt1).states.tolist() == gchase_s(dt2).states.tolist()


class TestGchaseRandomized:
    def test_boundary_zero_forces_variable_plan(self):
        cs = CostSeries.from_pairs([(5, 0)])
        dt = delta_trace(cs, 2.0)
        for seed in range(20):
            assert gchase_r(dt, np.random.default_rng(seed)).states.tolist() == [1]

    def test_flat_gap_never_switches(self):
        # gap unchanged => switch probability 0
        cs = CostSeries.from_pairs([(1, 0), (0.5, 0.5)])
        dt = delta_trace(cs, 2.0)
        assert dt.values[1] == dt.values[2]
        for seed in range(20):
            assert gchase_r(dt, np.random.default_rng(seed)).states[1] == gchase_r(
                dt, np.random.default_rng(seed)
            ).states[0]

    def test_half_probability_switch(self):
        # one slot, gap rising from -2 to -1: switch probability 0.5
        cs = CostSeries.from_pairs([(1, 0)])
        dt = delta_trace(cs, 2.0)
        hits = sum(
            int(gchase_r(dt, np.random.default_rng(seed)).states[0]) for seed in range(4000)
        )
        assert abs(hits / 4000 - 0.5) < 0.03

    def test_streaming_fold_reproduces_batch(self):
        rng = np.random.default_rng(8)
        cs = random_cost_series(rng, 12)
        dt = delta_trace(cs, 1.5)
        batch = gchase_r(dt, np.random.default_rng(77))
        state = OnlineState.initial(1.5)
        fold_rng = np.random.default_rng(77)
        folded = []
        for t in range(1, len(dt) + 1):
            state, s = gchase_r_step(state, dt.values[t], fold_rng)
            folded.append(s)
        assert list(folded) == batch.states.tolist()

    def test_unreachable_states_raise(self):
        rng = np.random.default_rng(0)
        bad = OnlineState(t=3, prev_delta=0.0, prev_state=0, beta=2.0)
        with pytest.raises(InternalInvariantError):
            gchase_r_step(bad, -1.0, rng)
        bad = OnlineState(t=3, prev_delta=-2.0, prev_state=1, beta=2.0)
        with pytest.raises(InternalInvariantError):
            gchase_r_step(bad, -1.0, rng)

    def test_consumes_one_draw_per_slot(self):
        rng = np.random.default_rng(13)
        cs = random_cost_series(rng, 9)
        dt = delta_trace(cs, 2.0)
        consuming = np.random.default_rng(5)
        gchase_r(dt, consuming)
        reference = np.random.default_rng(5)
        reference.random(9)
        assert consuming.random() == reference.random()


class TestCchase:
    def test_tracks_gap_linearly(self):
        assert cchase(delta_trace(CS_A, 2.0)).x.tolist() == [1.0, 0.0, 0.0]

    def test_within_twice_the_offline_optimum(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            period = int(rng.integers(1, 13))
            beta = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
            cs = random_cost_series(rng, period)
            dt = delta_trace(cs, beta)
            assert csp_cost(cchase(dt), cs, beta) <= 2.0 * sp_cost(ofa_s(dt), cs, beta) + 1e-9

    def test_midpoint(self):
        cs = CostSeries.from_pairs([(1, 0)])
        assert cchase(delta_trace(cs, 2.0)).x.tolist() == [0.5]

    def test_pinned_gap_stays_out(self):
        cs = CostSeries.from_pairs([(0, 1), (0, 1)])
        assert cchase(delta_trace(cs, 2.0)).x.tolist() == [0.0, 0.0]


class TestCspCost:
    def test_integral_schedule_matches_sp(self):
        xs = FractionalSchedule([1.0, 0.0, 0.0])
        assert csp_cost(xs, CS_A, 2.0) == pytest.approx(2.0, abs=1e-12)

    def test_all_zero(self):
        xs = FractionalSchedule([0.0, 0.0, 0.0])
        assert csp_cost(xs, CS_A, 2.0) == pytest.approx(3.0, abs=1e-12)

    def test_interpolation_plus_movement(self):
        cs = CostSeries.from_pairs([(0.0, 0.8)])
        beta = 2.0
        assert csp_cost(FractionalSchedule([0.5]), cs, beta) == pytest.approx(
            0.5 * 0.8 + beta * 0.5, abs=1e-12
        )

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            csp_cost(FractionalSchedule([0.5]), CS_A, 2.0)

    def test_fraction_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            FractionalSchedule([1.5])

    @pytest.mark.parametrize("x, message", [
        ([0.5, float("nan")], r"x\[2\] = nan outside \[0, 1\]"),
        ([-0.25, 0.5], r"x\[1\] = -0.25 outside \[0, 1\]"),
        ([0.0, 1.0, 1.0000001], r"x\[3\] = 1.0000001 outside \[0, 1\]"),
        ([], "fractional schedule must be nonempty"),
    ], ids=["nan", "below-0", "above-1", "empty"])
    def test_fraction_refusals_name_the_slot(self, x, message):
        with pytest.raises(ValidationError, match=message):
            FractionalSchedule(x)

    def test_any_iterable_becomes_a_read_only_array(self):
        values = [0.0, 0.25, 1.0]
        for given in (values, tuple(values), iter(values), (v for v in values), np.array(values),
                      reversed(values[::-1])):
            xs = FractionalSchedule(given)
            assert xs.x.dtype == np.float64 and xs.x.tolist() == values
            assert not xs.x.flags.writeable
        source = np.array(values)
        xs = FractionalSchedule(source)
        source[0] = 0.5  # the record holds its own copy
        assert xs.x.tolist() == values


def random_gap_traces(seed, n=100):
    """``n`` gap traces of random cost series: constant-fee traces, then as many drift traces."""
    rng = np.random.default_rng(seed)
    for drift in (False, True):
        for _ in range(n):
            cs = random_cost_series(rng, int(rng.integers(1, 30)), 0, 4)
            yield (drift_trace(cs, float(rng.uniform(0.02, 1.0)), int(rng.integers(1, 13))) if drift
                   else delta_trace(cs, float(rng.uniform(0.2, 5.0))))


def rising_gap_trace(rng, period):
    """A gap trace whose every interior slot rises: each slot hits a boundary or climbs from the slot before."""
    beta = float(rng.uniform(0.2, 5.0))
    values = [-beta]
    for u in rng.random(period).tolist():
        values.append(-beta if u < 0.2 else 0.0 if u < 0.4 else float(rng.uniform(values[-1], 0.0)))
    return DeltaTrace(values, beta)


def falls_inside(dt):
    """Whether some slot of the trace falls to an interior value."""
    values = np.array(dt.values)
    return bool(np.any((values[1:] < values[:-1]) & (values[1:] != -dt.beta)))


class TestMarginals:
    def test_equal_to_continuous_schedule(self):
        for dt in random_gap_traces(17):
            for p, x in zip(marginal_probabilities(dt), cchase(dt).x):
                assert abs(p - x) < 1e-12

    def test_chain_matches_the_slot_loop(self):
        # The chain reads _slot_rule's thresholds: a rising slot's q = 1 - d/prev makes the loop's floats, and
        # a falling slot's p - q * p rounds apart from the loop's p * (beta + d)/(beta + prev) by an ulp or so.
        rng = np.random.default_rng(5)
        traces = [*random_gap_traces(29), *(rising_gap_trace(rng, int(rng.integers(1, 30))) for _ in range(200))]
        kinds = Counter()
        for dt in traces:
            chain, loop, falls = marginal_probabilities(dt), marginal_loop(dt.values, dt.beta), falls_inside(dt)
            kinds[falls] += 1
            if falls:
                assert max(abs(a - b) for a, b in zip(chain, loop)) <= 1e-15
            else:
                assert chain == loop
        assert kinds[True] >= 100 and kinds[False] >= 200

    def test_half_at_midpoint(self):
        cs = CostSeries.from_pairs([(1, 0)])
        assert marginal_probabilities(delta_trace(cs, 2.0)) == (0.5,)

    def test_pinned_gap_probability_zero(self):
        cs = CostSeries.from_pairs([(0, 1), (0, 1)])
        assert marginal_probabilities(delta_trace(cs, 2.0)) == (0.0, 0.0)


class TestDriftVariants:
    def test_forced_switch_keeps_runs_within_contract(self):
        # strong pull toward the fixed plan; runs must still break at the cap
        cs = CostSeries.from_pairs([(0, 10)] * 20)
        sched, forced = gchase_dsp(cs, alpha=0.5, contract_len=4)
        assert forced > 0
        assert all(e - s + 1 <= 4 for s, e in zero_runs(sched))

    def test_feasible_on_random_instances(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            period = int(rng.integers(1, 40))
            cap = int(rng.integers(1, 13))
            alpha = float(rng.uniform(0.05, 2.0))
            cs = random_cost_series(rng, period)
            sched, _ = gchase_dsp(cs, alpha, cap)
            assert all(e - s + 1 <= cap for s, e in zero_runs(sched))
            sched_r, _ = gchase_r_dsp(cs, alpha, cap, np.random.default_rng(1))
            assert all(e - s + 1 <= cap for s, e in zero_runs(sched_r))

    def test_requires_positive_alpha(self):
        with pytest.raises(ValidationError):
            gchase_dsp(CS_A, 0.0, 3)

    def test_logs_forced_switches(self, caplog):
        cs = CostSeries.from_pairs([(0, 10)] * 8)
        with caplog.at_level("WARNING", logger="planswitch.chase"):
            gchase_dsp(cs, alpha=0.5, contract_len=3)
        assert any("forced" in rec.message for rec in caplog.records)
