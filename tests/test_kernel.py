"""Differential tests of the forward chase kernel.

The kernel is checked against two independent slow references: the scalar
step folds (``gchase_step``, ``gchase_r_step``) and, for the decreasing-fee
rules, the per-slot expiry-guard fold the kernel replaced, kept here verbatim
as a test-only oracle. The guard is also checked against its retired per-row
walk over forcing slots, ``scalar_objectives.guarded_walk``.
"""

import os
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planswitch
from planswitch import (
    CostSeries,
    DeltaTrace,
    OnlineState,
    ValidationError,
    delta_trace,
    gchase_dsp,
    gchase_r,
    gchase_r_dsp,
    gchase_r_step,
    gchase_s,
    gchase_step,
    protocol_cost_series,
    random_cost_series,
    simulate_randomized_batch,
    synth_trace,
)
from planswitch import chase, tariff
from planswitch.chase import SeededUniforms, chase_kernel, drift_trace
from scalar_objectives import guarded_walk


# ---------------------------------------------------------------------------
# Test-only oracle: the per-slot fold with the contract-expiry guard.
# ---------------------------------------------------------------------------


def _randomized_decision(beta, prev_d, prev_s, d, u):
    if d == 0.0:
        return 1
    if d == -beta:
        return 0
    if prev_d <= d:
        if prev_s == 1:
            return 1
        return 1 if u < 1.0 - d / prev_d else 0
    if prev_s == 0:
        return 0
    return 0 if u < 1.0 - (beta + d) / (beta + prev_d) else 1


def _with_expiry_guard(decide, dt, contract_len):
    values = dt.values
    states = []
    prev_s = 0
    run = 0
    forced = 0
    for t in range(1, len(dt) + 1):
        s = decide(values[t - 1], prev_s, values[t])
        if s == 0 and run == contract_len:
            s = 1
            forced += 1
        run = run + 1 if s == 0 else 0
        states.append(s)
        prev_s = s
    return states, forced


def oracle_guarded(dt, contract_len, rng=None):
    """States and forced count of the guarded rule; ``rng`` None is deterministic."""
    neg = -dt.beta

    def boundary(prev_d, prev_s, d):
        if d == neg:
            return 0
        if d == 0.0:
            return 1
        return prev_s

    def randomized(prev_d, prev_s, d):
        return _randomized_decision(dt.beta, prev_d, prev_s, d, rng.random())

    return _with_expiry_guard(boundary if rng is None else randomized, dt, contract_len)


def step_fold(dt, rng=None):
    """Scalar reference: gchase_step, or gchase_r_step with ``rng``, folded."""
    state = OnlineState.initial(dt.beta)
    out = []
    for v in dt.values[1:]:
        state, s = gchase_step(state, v) if rng is None else gchase_r_step(state, v, rng)
        out.append(s)
    return out


# ---------------------------------------------------------------------------
# Instances: small integer costs make boundary hits and ties common.
# ---------------------------------------------------------------------------

instances = st.tuples(
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=40),
    st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
)


def _seeded_instances(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        period = int(rng.integers(1, 60))
        cs = random_cost_series(rng, period, 0.0, float(rng.choice([2.0, 10.0])))
        yield cs, float(rng.choice([0.3, 1.0, 2.5])), int(rng.integers(1, 13)), int(rng.integers(0, 2**31))


class TestConstantFee:
    @settings(max_examples=200, deadline=None)
    @given(instances)
    def test_deterministic_matches_step_fold(self, inst):
        pairs, beta, _, _ = inst
        dt = delta_trace(CostSeries.from_pairs(pairs), beta)
        states, forced = chase_kernel(dt.values, dt.beta)
        assert states.shape == (1, len(dt)) and states.dtype == np.int8
        assert states[0].tolist() == step_fold(dt) == list(gchase_s(dt).states)
        assert forced.tolist() == [0]

    @settings(max_examples=200, deadline=None)
    @given(instances)
    def test_randomized_rows_match_step_fold(self, inst):
        pairs, beta, _, seed = inst
        dt = delta_trace(CostSeries.from_pairs(pairs), beta)
        states = simulate_randomized_batch(dt, 4, seed)
        for i, row in enumerate(states):
            assert row.tolist() == step_fold(dt, np.random.default_rng(seed + i))
            assert row.tolist() == list(gchase_r(dt, np.random.default_rng(seed + i)).states)

    def test_random_float_instances(self):
        for cs, beta, _, seed in _seeded_instances(301, 150):
            dt = delta_trace(cs, beta)
            assert chase_kernel(dt.values, beta)[0][0].tolist() == step_fold(dt)
            draws = SeededUniforms(seed, 3, len(dt))
            states, forced = chase_kernel(dt.values, beta, draws)
            assert not forced.any()
            for i, row in enumerate(states):
                assert row.tolist() == step_fold(dt, np.random.default_rng(seed + i))
                assert row.tolist() == list(gchase_r(dt, np.random.default_rng(seed + i)).states)

    def test_guard_longer_than_trace_changes_nothing(self):
        for cs, beta, _, seed in _seeded_instances(302, 100):
            dt = delta_trace(cs, beta)
            draws = SeededUniforms(seed, 3, len(dt))
            free, _ = chase_kernel(dt.values, beta, draws)
            guarded, forced = chase_kernel(dt.values, beta, draws, len(dt))
            assert np.array_equal(free, guarded)
            assert not forced.any()

    @pytest.mark.parametrize("guarded", [False, True], ids=["free", "guarded"])
    def test_deterministic_rule_is_the_randomized_rule_without_draws(self, guarded):
        # A draw of 1.0 is below no interior threshold, so only boundary slots force, as with no draws.
        for cs, alpha, cap, _ in _seeded_instances(311, 150):
            for dt in (delta_trace(cs, alpha), drift_trace(cs, alpha, cap)):
                guard = cap if guarded else None
                states, forced = chase_kernel(dt.values, dt.beta, None, guard)
                drawn, drawn_forced = chase_kernel(dt.values, dt.beta, np.ones((1, len(dt))), guard)
                assert np.array_equal(drawn, states) and np.array_equal(drawn_forced, forced)


class TestDecreasingFee:
    @settings(max_examples=200, deadline=None)
    @given(instances)
    def test_deterministic_matches_oracle(self, inst):
        pairs, alpha, cap, _ = inst
        cs = CostSeries.from_pairs(pairs)
        dt = drift_trace(cs, alpha, cap)
        want_states, want_forced = oracle_guarded(dt, cap)
        states, forced = chase_kernel(dt.values, dt.beta, None, cap)
        assert states[0].tolist() == want_states
        assert forced.tolist() == [want_forced]
        sched, n = gchase_dsp(cs, alpha, cap)
        assert list(sched.states) == want_states and n == want_forced

    @settings(max_examples=200, deadline=None)
    @given(instances)
    def test_randomized_matches_oracle(self, inst):
        pairs, alpha, cap, seed = inst
        cs = CostSeries.from_pairs(pairs)
        dt = drift_trace(cs, alpha, cap)
        want_states, want_forced = oracle_guarded(dt, cap, np.random.default_rng(seed))
        sched, n = gchase_r_dsp(cs, alpha, cap, np.random.default_rng(seed))
        assert list(sched.states) == want_states and n == want_forced

    def test_random_float_instances(self):
        checked_forced = 0
        for cs, alpha, cap, seed in _seeded_instances(303, 150):
            dt = drift_trace(cs, alpha, cap)
            want = oracle_guarded(dt, cap)
            states, forced = chase_kernel(dt.values, dt.beta, None, cap)
            assert (states[0].tolist(), int(forced[0])) == want
            states, forced = chase_kernel(dt.values, dt.beta, SeededUniforms(seed, 3, len(dt)), cap)
            for i in range(3):
                want = oracle_guarded(dt, cap, np.random.default_rng(seed + i))
                assert (states[i].tolist(), int(forced[i])) == want
                checked_forced += want[1]
        assert checked_forced > 0  # the guard is exercised, not just the free rule


class Replay:
    """A generator stand-in that hands out one replicate's draws in order."""

    def __init__(self, row):
        self.draws = iter(row.tolist())

    def random(self):
        return next(self.draws)


def walk_rows(hit, force, cap):
    """The retired per-row walk on each row of a block: states and forced counts."""
    out = np.zeros(hit.shape, np.int8)
    return out, [guarded_walk(row, force, cap, o) for row, o in zip(hit, out)]


def check_guard(values, beta, draws, cap):
    """The guarded kernel on one trace, with draws and without, against the
    oracle fold and the per-row walk; returns the randomized forced counts."""
    dt = DeltaTrace(tuple(values), beta)
    thr, plan_of = chase._slot_rule(np.asarray(values, dtype=np.float64)[None], -beta, True)
    states, forced = chase_kernel(values, beta, draws, cap)
    want_states, want_forced = walk_rows(draws < thr, plan_of[0, 1:], cap)
    assert np.array_equal(states, want_states) and forced.tolist() == want_forced
    for i, row in enumerate(draws):
        assert oracle_guarded(dt, cap, Replay(row)) == (states[i].tolist(), int(forced[i]))
    det_states, det_forced = chase_kernel(values, beta, None, cap)
    top, floor = values[1:] == 0.0, values[1:] == -beta
    want_states, want_forced = walk_rows((top | floor)[None], top, cap)
    assert np.array_equal(det_states, want_states) and det_forced.tolist() == want_forced
    assert oracle_guarded(dt, cap) == (det_states[0].tolist(), int(det_forced[0]))
    return forced


def guard_case(rng):
    """A random gap trace with draws and a contract length, and whether it parks.

    Slot kinds are drawn with random densities: the top and the floor force
    their plan, and interior slots force one when their draw falls below the
    threshold, so scaling the draws sets the hit density. A parked trace sits
    at the floor from some slot on, so every later slot forces plan 0.
    """
    period, rows, cap = int(rng.integers(1, 61)), int(rng.integers(1, 17)), int(rng.integers(1, 16))
    beta = float(rng.choice([0.5, 2.0, 6.0]))
    values = -beta * rng.random(period)
    kind = rng.random(period)
    p_top, p_floor = rng.random() * 0.3, rng.random() * 0.5
    values[kind < p_top] = 0.0
    values[(kind >= p_top) & (kind < p_top + p_floor)] = -beta
    parked = bool(rng.random() < 0.25)
    if parked:
        values[rng.integers(0, period):] = -beta
    draws = rng.random((rows, period)) * rng.uniform(0.05, 1.0)
    return np.concatenate(([-beta], values)), beta, draws, cap, parked


class TestExpiryGuardPaths:
    """Every guarded block takes one path: numpy steps while at least
    ``STEP_RUNS`` runs still need a cut, then one cut at a time. Each case is
    checked against the oracle fold and the retired per-row walk."""

    def test_random_cases(self):
        rng = np.random.default_rng(307)
        parked = forced_total = 0
        for _ in range(3000):
            values, beta, draws, cap, is_parked = guard_case(rng)
            forced_total += int(check_guard(values, beta, draws, cap).sum())
            parked += is_parked
        assert 650 <= parked <= 850 and forced_total > 10_000

    @pytest.mark.parametrize("period, cap", [(1, 1), (1, 4), (2, 1), (9, 1), (12, 12), (12, 40), (37, 12)])
    @pytest.mark.parametrize("rows", [1, 2, 5, 40])
    def test_edge_shapes(self, period, cap, rows):
        rng = np.random.default_rng(308 + period * cap + rows)
        beta = 2.0
        values = np.concatenate(([-beta], -beta * rng.uniform(0.01, 0.99, period)))  # interior only
        draws = rng.random((rows, period))
        draws[0] = 1.0  # no forcing slot: one run from slot 1, cut at every contract end it reaches
        forced = check_guard(values, beta, draws, cap)
        assert forced[0] == (period > cap)
        parked = values.copy()
        parked[1 + period // 2:] = -beta
        check_guard(parked, beta, draws, cap)

    @pytest.mark.parametrize("rows, period, cap", [
        (1, 36, 12), (2, 36, 12), (3, 36, 12), (100, 36, 12), (1, 12, 12), (1, 13, 12), (3, 20_000, 24),
        (4, 50, 24),
    ])
    def test_parked_tail(self, rows, period, cap):
        rng = np.random.default_rng(309 + rows + period)
        beta = 3.0
        values = np.concatenate(([-beta], -beta * rng.random(period)))
        values[1 + period // 3:] = -beta  # parked: the guard cuts every contract from there on
        forced = check_guard(values, beta, rng.random((rows, period)), cap)
        if period - period // 3 > cap:  # the parked run outlasts a contract in every row
            assert (forced > 0).all()

    def test_seed1_linear_sweep(self):
        # The linear sweep at seed 1: 100 fee points, each guarding the same 100 replicates of 36 months.
        cs = protocol_cost_series(synth_trace(36, 1))
        draws = SeededUniforms(1, 100, 36)[:]
        forced_total = 0
        for fee in range(1, 101):
            dt = drift_trace(cs, fee / 12, 12)
            forced_total += int(check_guard(np.array(dt.values), dt.beta, draws, 12).sum())
        assert forced_total > 0


class TestLongCutChains:
    """Cut chains far longer than the random cases reach, so the one-by-one
    cuts run for long; ``STEP_RUNS`` keeps its value."""

    def test_one_row_cut_after_the_others_stop(self):
        # A falling trace: a draw of 0 makes every slot force plan 0, so a row's one fixed run is cut once
        # per contract; from its stop slot on a row draws 1 and plan 1 then holds. The last row never stops.
        rows, period, cap, beta = 40, 400, 3, 2.0
        values = np.concatenate(([-beta], np.linspace(-0.01, -0.99, period) * beta))
        draws = np.zeros((rows, period))
        for i, stop in enumerate(np.linspace(8, period, rows).astype(int)[:-1]):
            draws[i, stop:] = 1.0
        forced = check_guard(values, beta, draws, cap)
        chains = np.sort(forced)[::-1]
        assert chains[chase.STEP_RUNS - 1] > 0  # the first cuts come in numpy steps
        assert forced[-1] == chains[0] > chains[1] > chains[chase.STEP_RUNS - 1]  # the last ones one by one
        assert forced[-1] >= period // (cap + 1) - 1

    @pytest.mark.parametrize("tops", [False, True], ids=["parked", "sparse-tops"])
    @pytest.mark.parametrize("cap", [1, 2])
    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_pinned_long_trace(self, rows, cap, tops):
        # 20,000 slots pinned at -beta, in one block of ``rows`` rows: every contract is cut, about
        # 20,000 / (cap + 1) times per row, in one run per row or, between sparse tops, in many.
        period, beta = 20_000, 1.5
        rng = np.random.default_rng(310 + rows + 10 * cap + 100 * tops)
        values = np.full(period + 1, -beta)
        if tops:
            values[1 + rng.choice(period, 150, replace=False)] = 0.0
        forced = check_guard(values, beta, rng.random((rows, period)), cap)
        assert (forced > period // (cap + 1) // 2).all()


class TestBlocking:
    @pytest.mark.parametrize("cap", [None, 3])
    @pytest.mark.parametrize("cells", [1, 17, 250, 1 << 16])
    def test_row_independent_of_run_count_and_block_size(self, monkeypatch, cap, cells):
        cs = random_cost_series(np.random.default_rng(304), 50, 0.0, 3.0)
        dt = drift_trace(cs, 0.4, 3) if cap else delta_trace(cs, 2.0)
        ref_states, ref_forced = chase_kernel(dt.values, dt.beta, SeededUniforms(9, 40, len(dt)), cap)
        monkeypatch.setattr(tariff, "BLOCK_CELLS", cells)
        for n_runs in (1, 7, 40):
            states, forced = chase_kernel(dt.values, dt.beta, SeededUniforms(9, n_runs, len(dt)), cap)
            assert np.array_equal(states, ref_states[:n_runs])
            assert np.array_equal(forced, ref_forced[:n_runs])

    def test_seeded_uniforms_rows(self):
        draws = SeededUniforms(11, 5, 8)
        assert len(draws) == 5
        block = draws[1:4]
        assert block.shape == (3, 8)
        for j, i in enumerate(range(1, 4)):
            assert np.array_equal(block[j], np.random.default_rng(11 + i).random(8))

    def test_array_draws_equal_seeded_draws(self):
        dt = delta_trace(random_cost_series(np.random.default_rng(305), 30), 4.0)
        seeded = SeededUniforms(21, 6, len(dt))
        a, _ = chase_kernel(dt.values, dt.beta, seeded)
        b, _ = chase_kernel(dt.values, dt.beta, seeded[0:6])
        assert np.array_equal(a, b)


def test_gchase_r_dsp_consumes_exactly_one_draw_per_slot():
    cs = random_cost_series(np.random.default_rng(306), 23)
    rng = np.random.default_rng(77)
    gchase_r_dsp(cs, 0.5, 4, rng)
    assert rng.random() == np.random.default_rng(77).random(24)[-1]


def test_single_call_logs_one_line(caplog):
    cs = CostSeries.from_pairs([(0, 10)] * 30)
    with caplog.at_level("WARNING", logger="planswitch.chase"):
        _, forced = gchase_r_dsp(cs, 0.5, 3, np.random.default_rng(0))
    assert forced > 1
    assert len(caplog.records) == 1
    assert f"forced {forced} switch(es)" in caplog.records[0].getMessage()


class TestKernelInput:
    """Bad kernel arguments are refused at entry with a named error."""

    CS = CostSeries([3.0, 0.0, 1.0, 0.0, 2.0], [0.0, 2.0, 0.0, 3.0, 0.0])

    def test_bad_contract_len_refused_without_hanging(self):
        # A contract_len below 1 once sent the guard walk into an endless loop, so the calls
        # run in a child process that a timeout stops: a missing check fails, it does not hang.
        script = (
            "import numpy as np\n"
            "from planswitch import CostSeries, ValidationError, delta_trace\n"
            "from planswitch.chase import chase_kernel\n"
            f"dt = delta_trace(CostSeries({self.CS.g0.tolist()}, {self.CS.g1.tolist()}), 2.0)\n"
            "for cap in (-1, 0, 2.5, float('nan')):\n"
            "    for draws in (None, np.full((3, 5), 0.5)):\n"
            "        try:\n"
            "            chase_kernel(dt.values, dt.beta, draws, cap)\n"
            "        except ValidationError as exc:\n"
            "            print(exc)\n"
        )
        src = os.path.dirname(os.path.dirname(planswitch.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        try:
            out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                                 timeout=60)
        except subprocess.TimeoutExpired:
            pytest.fail("chase_kernel did not return on a bad contract_len")
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert len(lines) == 8 and all(line.startswith("contract_len must be an integer >= 1") for line in lines)

    @pytest.mark.parametrize("beta", [float("nan"), 0.0, -1.0, float("inf")])
    def test_randomized_beta_checked(self, beta):
        values = delta_trace(self.CS, 2.0).values
        with pytest.raises(ValidationError, match="beta must be finite and > 0"):
            chase_kernel(values, beta, np.full((2, 5), 0.5))

    @pytest.mark.parametrize("shape", [(2, 4), (2, 6), (5,), (1, 2, 5)])
    def test_randomized_draws_shape_checked(self, shape):
        dt = delta_trace(self.CS, 2.0)
        with pytest.raises(ValidationError, match=r"draws must be \(replicates x 5\)"):
            chase_kernel(dt.values, dt.beta, np.full(shape, 0.5))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_draws_refused(self, bad):
        # a NaN or +inf draw is never below a boundary slot's threshold, so the boundary would not force
        dt = delta_trace(self.CS, 2.0)
        draws = np.full((2, 5), 0.5)
        draws[1, 2] = bad
        with pytest.raises(ValidationError, match=rf"draws must be finite, got {bad!r} in replicate 1, slot 3"):
            chase_kernel(dt.values, dt.beta, draws)

    @pytest.mark.parametrize("u", [0.0, np.nextafter(1.0, 0.0), 1.0, 5.0])
    def test_edge_draws_match_step_fold(self, u):
        # every draw of every slot is u: boundary slots force their plan whatever u is, as in gchase_r_step
        traces = [DeltaTrace((-2.0, 0.0, -2.0, -2.0, 0.0), 2.0), delta_trace(self.CS, 2.0)]
        traces += [delta_trace(cs, beta) for cs, beta, _, _ in _seeded_instances(307, 40)]
        for dt in traces:
            states, _ = chase_kernel(dt.values, dt.beta, np.full((1, len(dt)), u))
            assert states[0].tolist() == step_fold(dt, types.SimpleNamespace(random=lambda: u))

    def test_randomized_rule_takes_one_trace_and_fee(self):
        dt = delta_trace(self.CS, 2.0)
        with pytest.raises(ValidationError, match="one gap trace with one fee"):
            chase_kernel(np.stack([dt.values, dt.values]), dt.beta, np.full((2, 5), 0.5))
        with pytest.raises(ValidationError, match="one gap trace with one fee"):
            chase_kernel(dt.values, [dt.beta], np.full((2, 5), 0.5))
