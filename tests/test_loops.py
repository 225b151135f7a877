"""The compiled loops against the Python loops they replaced, and how they are built.

The gap scan (``chase._delta_rows``), the guarded walk (``chase._chase``),
the decreasing-fee DP (``oracles._dp``) and the cost folds (``tariff._sp_fold``,
``tariff._dsp_fold``, ``chase._csp_fold``, and ``tariff._fold_matrix`` under
``p2_costs``) must give the Python loops' results bit for bit:
``scalar_objectives.scan_loop`` (``clamp_step`` folded), ``guarded_walk``,
``dp_row_loop``, and ``sp_loop``, ``dsp_loop``, ``csp_loop`` and ``p2_loop``.
Beside random rows, each is run at its edges: one slot, a contract at least
as long as the trace, alpha = 0, exact ties at costs of 2^14 and more, gaps
or sums that overflow to inf or nan, and for the folds -0.0 costs, both cost
layouts, runs open at the horizon, the first overrun and a reversed view.

The build tests run the loader with a temporary cache directory, with a PATH
that has no ``cc`` or a failing one, and with the loaded library dropped, so
that the next call loads it again.
"""

import functools
import operator
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from scalar_objectives import csp_loop, dp_row_loop, dsp_loop, guarded_walk, p2_loop, scan_loop, sp_loop

import planswitch
from planswitch import InfeasibleScheduleError, chase, cli, loops, oracles, tariff
from planswitch.loops import CompilerError

MODES = (True, False)  # literal, transition-only


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


# ---------------------------------------------------------------------------
# The gap scan
# ---------------------------------------------------------------------------


def check_scan(gaps, beta, drift):
    gaps, beta, drift = (np.asarray(v, dtype=np.float64) for v in (gaps, beta, drift))
    values = chase._delta_rows(gaps, beta, drift)
    assert values.shape == (len(beta), gaps.shape[1] + 1)
    for row, g, b, d in zip(values, np.broadcast_to(gaps, (len(beta), gaps.shape[1])), beta.tolist(), drift.tolist()):
        assert bits(row) == bits(scan_loop(g.tolist(), b, d))


class TestScan:
    def test_random_rows(self):
        rng = np.random.default_rng(501)
        for _ in range(200):
            rows, period = int(rng.integers(1, 8)), int(rng.integers(1, 60))
            scale = rng.choice([1e-3, 1.0, 1e300], (rows, 1))
            check_scan(rng.uniform(-3.0, 3.0, (rows, period)) * scale, rng.choice([0.5, 2.0, 1e300], rows),
                       rng.choice([0.0, 0.25, 1e-300], rows))

    def test_one_slot(self):
        check_scan([[3.0], [-3.0], [0.5], [-0.0]], [2.0, 2.0, 1.0, 4.0], [0.0, 0.5, 0.5, 0.0])

    def test_one_gap_row_for_every_row(self):
        # The shape the evaluation core hands it: one cost series, a fee and drift per row.
        rng = np.random.default_rng(502)
        check_scan(rng.uniform(-2.0, 2.0, (1, 40)), rng.uniform(0.5, 3.0, 9), rng.uniform(0.0, 0.2, 9))

    def test_gaps_overflowing_to_inf_and_nan(self):
        big = 1.7e308
        gaps = [[np.inf, -np.inf, 1.0, np.nan, -1.0], [big, big, -big, -big, np.inf],
                [-np.inf, np.inf, np.inf, -0.0, 0.0], [np.nan, 0.0, 0.0, 0.0, 0.0]]
        check_scan(gaps, [1.0, big, 2.0, 1.0], [0.0, big, 0.5, 0.0])
        with np.errstate(over="ignore"):  # the costs are finite; their gaps are not
            g0, g1 = np.array([[big, -big, big, 0.0]]), np.array([[-big, big, -big, 0.0]])
            values = chase.delta_traces(g0, g1, 1.0)
        assert bits(values[0]) == bits(scan_loop([np.inf, -np.inf, np.inf, 0.0], 1.0))

    def test_signed_zeros(self):
        # The top is +0.0 whatever the sign of the zero that reaches it; at beta = 0 (which only the unchecked core
        # takes) the floor is -0.0, so a gap of -0.0 there lands on the top's test exactly at -0.0.
        check_scan([[1.0, -0.0, -0.0], [-0.0, -0.0, 0.0], [0.0, -0.0, -0.0]], [1.0, 0.0, 0.0], [0.0, 0.0, -0.0])


# ---------------------------------------------------------------------------
# The guarded walk
# ---------------------------------------------------------------------------


class TestWalk:
    @pytest.mark.parametrize("period", [1, 2, 7, 30])
    @pytest.mark.parametrize("over", [0, 1, 2**53], ids=["cap=T", "cap=T+1", "cap=2^53"])
    def test_contract_at_least_as_long_as_the_trace(self, period, over):
        # No run can outlast the contract, so nothing is cut: the walk is the unguarded fill.
        rng = np.random.default_rng(503 + period)
        beta = 2.0
        values = np.concatenate(([-beta], -beta * rng.random(period)))
        values[1 + rng.choice(period, period // 3, replace=False)] = -beta
        draws = rng.random((6, period))
        cap = min(period + over, 2**53)
        states, forced = chase._chase(values, -beta, draws, cap)
        free, _ = chase._chase(values, -beta, draws)
        assert np.array_equal(states, free) and not forced.any()
        thr, plan = chase._slot_rule(values[None], -beta, True)
        for row, draw, n in zip(states, draws, forced):
            out = np.zeros(period, np.int8)
            assert guarded_walk(draw < thr[0], plan[0, 1:], cap, out) == n
            assert np.array_equal(out, row)

    @pytest.mark.parametrize("cap", [1, 2, 5])
    def test_one_slot(self, cap):
        for value, draw in ((-2.0, 0.5), (0.0, 0.5), (-1.0, 0.0), (-1.0, 1.0)):
            values = np.array([-2.0, value])
            thr, plan = chase._slot_rule(values[None], -2.0, True)
            states, forced = chase._chase(values, -2.0, np.array([[draw]]), cap)
            out = np.zeros(1, np.int8)
            assert guarded_walk(np.array([draw]) < thr[0], plan[0, 1:], cap, out) == forced[0] == 0
            assert states[0].tolist() == out.tolist()

    def test_cut_every_slot(self):
        # A trace pinned at the floor, cap 1: plan 0 starts a run at every slot it forces, each cut the slot after.
        values = np.full(9, -1.0)
        states, forced = chase._chase(values, -1.0, None, 1)
        out = np.zeros(8, np.int8)
        assert guarded_walk(np.ones(8, bool), np.zeros(8, bool), 1, out) == forced[0] == 4
        assert states[0].tolist() == out.tolist() == [0, 1, 0, 1, 0, 1, 0, 1]


# ---------------------------------------------------------------------------
# The decreasing-fee DP
# ---------------------------------------------------------------------------


def check_dp(g0, g1, alpha, cap, literal):
    g0, g1 = np.atleast_2d(np.asarray(g0, dtype=np.float64)), np.atleast_2d(np.asarray(g1, dtype=np.float64))
    alpha, cap, literal = np.asarray(alpha, np.float64), np.asarray(cap, np.int64), np.asarray(literal, bool)
    states, ties = oracles._dp(g0, g1, alpha, cap, literal)
    for i, (a, c, lit) in enumerate(zip(alpha.tolist(), cap.tolist(), literal.tolist())):
        row = i if len(g0) > 1 else 0
        assert (states[i].tolist(), int(ties[i])) == dp_row_loop(g0[row].tolist(), g1[row].tolist(), a, c, lit)
    return ties


class TestDp:
    def test_random_rows(self):
        rng = np.random.default_rng(504)
        for _ in range(300):
            rows, period = int(rng.integers(1, 12)), int(rng.integers(1, 60))
            shape = (rows, period) if rng.random() < 0.7 else (1, period)
            costs = (rng.uniform(-5.0, 10.0, (2, *shape)) if rng.random() < 0.5
                     else rng.integers(-3, 6, (2, *shape)).astype(float))
            check_dp(*costs, rng.choice([0.0, 0.5, 1.0, 3.0, 1e16], rows), rng.integers(1, period + 3, rows),
                     rng.random(rows) < 0.5)

    @pytest.mark.parametrize("literal", MODES, ids=["literal", "transition-only"])
    def test_one_slot(self, literal):
        for g0, g1 in ((0.0, 0.0), (1.0, 2.0), (2.0, 1.0), (-1.0, 0.0), (-0.0, 0.0)):
            check_dp([[g0]], [[g1]], [0.0, 1.0, 2.5], [1, 2, 2**53], [literal] * 3)

    @pytest.mark.parametrize("literal", MODES, ids=["literal", "transition-only"])
    def test_contract_at_least_as_long_as_the_trace(self, literal):
        rng = np.random.default_rng(505)
        for period in (2, 5, 17):
            g0, g1 = rng.uniform(0.0, 4.0, (2, 1, period))
            check_dp(g0, g1, [0.5] * 4, [period, period + 1, 10 * period, 2**53], [literal] * 4)

    def test_zero_alpha(self):
        rng = np.random.default_rng(506)
        g0, g1 = rng.integers(0, 4, (2, 8, 20)).astype(float)
        ties = check_dp(g0, g1, [0.0] * 8, rng.integers(1, 22, 8), rng.random(8) < 0.5)
        assert (ties > 1).any()  # free runs tie often

    @pytest.mark.parametrize("scale", [2.0**14, 2.0**20, 2.0**40])
    def test_exact_ties_at_large_costs(self, scale):
        # Integer costs times a power of two, and a dyadic alpha: every sum is exact, so end states tie exactly,
        # and best + TIE_TOL rounds to best.
        rng = np.random.default_rng(507)
        g0, g1 = rng.integers(0, 3, (2, 12, 10)).astype(float) * scale
        ties = check_dp(g0, g1, np.full(12, 0.5 * scale), rng.integers(1, 12, 12), rng.random(12) < 0.5)
        assert (ties > 1).any()
        assert check_dp([[scale]], [[scale]], [0.0], [1], [True]).tolist() == [2]

    def test_sums_overflowing_to_inf_and_nan(self):
        # Finite costs whose sums overflow: values and prefix sums reach inf, differences of them such as an open
        # run's cost are nan, and every comparison with a nan is false, in the loop as in the compiled DP.
        big = 1.7e308
        g0 = np.array([[big, big, -big, big, big, 0.0], [big, -big, big, -big, big, big]])
        g1 = np.array([[0.0, big, big, big, -big, 0.0], [big, big, big, big, big, big]])
        check_dp(g0, g1, [1.0, 1e300], [2, 3], [True, False])
        check_dp(g0, g1, [0.0, big], [6, 1], [False, True])


# ---------------------------------------------------------------------------
# The folds
# ---------------------------------------------------------------------------

LAYOUTS = pytest.mark.parametrize("shared", [False, True], ids=["costs-per-row", "shared-costs"])


def cost_rows(g0, g1, rows, shared):
    """The costs as the folds take them, one row for all when ``shared``, and each row's as lists for the loops."""
    g0, g1 = (np.atleast_2d(np.asarray(g, dtype=np.float64))[:1 if shared else None] for g in (g0, g1))
    return g0, g1, [(g0[i * (not shared)].tolist(), g1[i * (not shared)].tolist()) for i in range(rows)]


def check_folds(states, g0, g1, beta, alpha, cap, literal, shared):
    """sp, dsp and ``p2_costs`` (its slots folded by ``_fold_matrix``) on (rows x T) 0/1 states, and csp on
    fractions made from them, against their loops, bit for bit; the fee terms one per row."""
    states = np.asarray(states, dtype=np.int8)
    g0, g1, costs = cost_rows(g0, g1, len(states), shared)
    beta, alpha = np.asarray(beta, dtype=np.float64), np.asarray(alpha, dtype=np.float64)
    cap, literal = np.asarray(cap, dtype=np.int64), np.asarray(literal, dtype=bool)
    x = states / 4.0 + np.arange(states.shape[1]) % 3 / 4.0  # fractions that rise and fall, each 0 to 1
    rows = list(zip(states.tolist(), costs, beta.tolist(), alpha.tolist(), cap.tolist(), literal.tolist(), x.tolist()))
    assert bits(tariff._sp_fold(states, g0, g1, beta)) == bits([sp_loop(s, *c, b) for s, c, b, *_ in rows])
    assert bits(tariff._dsp_fold(states, g0, g1, alpha, cap, literal)) == bits(
        [dsp_loop(s, *c, a, n, tariff.FEE_MODES[not lit]) for s, c, _, a, n, lit, _ in rows])
    assert bits(chase._csp_fold(x, g0, g1, beta)) == bits([csp_loop(v, *c, b) for _, c, b, *_, v in rows])
    with np.errstate(over="ignore", invalid="ignore"):  # numpy warns where the slots or their sums overflow
        assert bits(tariff.p2_costs(states, g0[0] if shared else g0, g1[0] if shared else g1, beta)) == bits(
            [p2_loop(s, *c, b) for s, c, b, *_ in rows])


def longest_run(states):
    return int(tariff._fixed_runs(np.atleast_2d(np.asarray(states, dtype=np.int8)))[0].max())


class TestFolds:
    @LAYOUTS
    def test_random_rows(self, shared):
        rng = np.random.default_rng(509)
        for _ in range(200):
            rows, period = int(rng.integers(1, 8)), int(rng.integers(1, 60))
            states = (rng.random((rows, period)) < rng.uniform(0.2, 0.8)).astype(np.int8)
            g0, g1 = rng.normal(0.0, 5.0, (2, rows, period)) * 10.0 ** rng.integers(-3, 4, (2, rows, period))
            cap = np.maximum(tariff._fixed_runs(states)[0].max(axis=1), 1) + rng.integers(0, 3, rows)
            check_folds(states, g0, g1, rng.choice([0.0, 0.5, 2.0, 1e6], rows), rng.choice([0.0, 0.25, 3.0], rows),
                        cap, rng.random(rows) < 0.5, shared)

    @LAYOUTS
    def test_one_slot(self, shared):
        g0, g1 = [[1.5], [-2.0], [-0.0], [0.0]], [[-0.5], [3.0], [-0.0], [0.0]]
        for state in (0, 1):
            check_folds([[state]] * 4, g0, g1, [0.0, 1.0, 2.5, 0.0], [0.0, 1.0, 0.5, 2.0], [1, 1, 2, 2**53],
                        [True, False, True, False], shared)

    @LAYOUTS
    def test_negative_zero_costs_fold_to_zero(self, shared):
        # A fold from 0.0 is never -0.0: a row of -0.0 costs with no fee, or a fee of alpha = 0, totals +0.0.
        states = np.array([[0, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=np.int8)
        g = np.full((3, 3), -0.0)
        check_folds(states, g, g, [0.0] * 3, [0.0] * 3, [3] * 3, [True, False, True], shared)
        assert tariff._sp_fold(states, g, g, np.zeros(3)).tobytes() == np.zeros(3).tobytes()

    @LAYOUTS
    def test_sums_overflowing_to_inf_and_nan(self, shared):
        # Finite costs whose sums overflow to +-inf; csp's g1 - g0 overflows too, to a nan at x = 0.
        big = 1.7e308
        states = np.array([[0, 0, 1, 1, 0], [1, 1, 1, 0, 0], [0, 1, 0, 1, 1]], dtype=np.int8)
        g0 = np.array([[big, big, -big, big, -big], [-big, big, 0.0, -big, -big], [big, -big, big, -big, big]])
        g1 = np.array([[-big, big, big, big, 0.0], [-big, -big, -big, big, big], [-big, big, -big, big, big]])
        check_folds(states, g0, g1, [big, 0.0, 1.0], [1e300, 0.0, 1.0], [5, 2, 2**53], [True, False, True], shared)

    @pytest.mark.parametrize("literal", MODES, ids=["literal", "transition-only"])
    @LAYOUTS
    def test_contract_edges(self, literal, shared):
        # cap = T and 2^53, alpha = 0 and > 0, and a run open at T, charged only in literal mode.
        rng = np.random.default_rng(510)
        for period in (1, 2, 7, 30):
            states = (rng.random((6, period)) < 0.4).astype(np.int8)
            states[:2] = 0  # runs open at T: all of row 0, and row 1 from slot 2 (from slot 1 at T = 1)
            states[1, 0] = period > 1
            g0, g1 = rng.uniform(-2.0, 5.0, (2, 6, period))
            cap = [period, 2**53, period, 2**53, period + 1, max(longest_run(states[5]), 1)]
            check_folds(states, g0, g1, [1.0] * 6, [0.0, 0.0, 0.75, 1e-3, 2.5, 1.0], cap, [literal] * 6, shared)

    def test_first_overrun_in_row_major_order(self):
        # Row 1 overruns only at its last slots, row 2 at its first and again later: row 1's run is raised, with
        # the message of the loop on that row.
        states = np.ones((4, 12), dtype=np.int8)
        states[1, 7:] = 0
        states[2, :5], states[2, 6:11] = 0, 0
        states[3, :] = 0
        g = np.zeros((1, 12))
        for literal in MODES:
            with pytest.raises(InfeasibleScheduleError) as want:
                dsp_loop(states[1].tolist(), g[0], g[0], 1.0, 4)
            with pytest.raises(InfeasibleScheduleError) as got:
                tariff._dsp_fold(states, g, g, np.ones(4), np.full(4, 4, np.int64), np.full(4, literal))
            assert str(got.value) == f"row 1: {want.value}" == "row 1: fixed-plan run [8, 12] lasts 5 > contract_len 4"

    def test_reversed_state_view(self):
        # _offline hands the folds a reversed view of its states, and sp_costs passes a caller's int8 view on:
        # the folds price a non-C-order view as its copy.
        rng = np.random.default_rng(511)
        states = (rng.random((5, 40)) < 0.5).astype(np.int8)
        g0, g1 = rng.normal(size=(2, 5, 40))
        view = states[::-1, ::-1]
        assert not view.flags.c_contiguous
        terms = np.full(5, 0.5), np.full(5, 40, np.int64), np.full(5, True)
        for fold, args in ((tariff._sp_fold, terms[:1]), (tariff._dsp_fold, terms)):
            assert bits(fold(view, g0, g1, *args)) == bits(fold(view.copy(), g0, g1, *args))
        assert bits(tariff.sp_costs(view, g0, g1, 2.0)) == bits(tariff.sp_costs(view.copy(), g0, g1, 2.0))
        values = chase.delta_traces(g0, g1, 2.0)
        assert bits(tariff.sp_costs(chase.offline_states(values, 2.0), g0, g1, 2.0)) == bits(
            [sp_loop(s, a, b, 2.0) for s, a, b in zip(chase.offline_states(values, 2.0).tolist(), g0, g1)])

    @pytest.mark.parametrize("cells", [1, 7 * 30, tariff.BLOCK_CELLS])
    def test_fold_matrix_is_a_left_fold(self, monkeypatch, cells):
        # p2_costs and the phi identities fold their slots by the last of a cumsum plus 0.0, a block of rows (one,
        # seven, or all 50) at a time: each row from 0.0, first to last.
        monkeypatch.setattr(tariff, "BLOCK_CELLS", cells)
        rng = np.random.default_rng(512)
        values = rng.normal(size=(50, 30)) * 10.0 ** rng.integers(-8, 9, size=(50, 30))
        values[0], values[1, :3], values[2, 4:6] = -0.0, [np.inf, 1.0, -np.inf], [np.nan, 1.0]
        values[3, :], values[4, :1] = 1.7e308, 1.0  # overflows to inf; one slot of 1.0 then values
        want = [functools.reduce(operator.add, row, 0.0) for row in values.tolist()]
        backward = [functools.reduce(operator.add, row[::-1], 0.0) for row in values[5:].tolist()]
        assert sum(a != b for a, b in zip(want[5:], backward)) > len(backward) // 2  # the data tell orders apart
        with np.errstate(over="ignore", invalid="ignore"):  # numpy warns of the inf and nan sums
            assert bits(tariff._fold_matrix(values)) == bits(want)
        assert bits(tariff._fold_matrix(values[:, :1])) == bits([0.0 + v for v in values[:, 0].tolist()])  # a view
        assert tariff._fold_matrix(np.empty((0, 4))).shape == (0,)


# ---------------------------------------------------------------------------
# Building and loading the library
# ---------------------------------------------------------------------------

SMALL_RUN = ["run", "--fee-regime", "linear", "--slots", "24", "--mc-runs", "3"]


def run_cli(tmp_path, cache, path=None):
    src = os.path.dirname(os.path.dirname(planswitch.__file__))
    env = dict(os.environ, XDG_CACHE_HOME=str(cache),
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    if path is not None:
        env["PATH"] = str(path)
    return subprocess.run([sys.executable, "-m", "planswitch.cli", *SMALL_RUN], capture_output=True, text=True,
                          env=env, timeout=120, cwd=tmp_path)


@pytest.fixture
def no_cc(tmp_path):
    """A directory to use as PATH, with no ``cc`` in it."""
    path = tmp_path / "empty-bin"
    path.mkdir()
    return path


@pytest.fixture
def reloaded(monkeypatch, tmp_path):
    """The loader with its library dropped, a temporary cache and a private temporary directory."""
    monkeypatch.setattr(loops, "_lib", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    return tmp_path


def test_no_compiler_is_one_error_line(tmp_path, no_cc):
    out = run_cli(tmp_path, tmp_path / "cache", no_cc)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.splitlines() == [out.stderr.strip()] and "Traceback" not in out.stderr
    assert out.stderr.startswith("error: planswitch builds its loops with cc on first use: ")
    assert not (tmp_path / "cache" / "planswitch").exists() or not any(
        name.endswith(".so") for name in os.listdir(tmp_path / "cache" / "planswitch"))


def test_second_process_reuses_the_library(tmp_path, no_cc):
    first = run_cli(tmp_path, tmp_path / "cache")
    assert first.returncode == 0, first.stderr
    cache = tmp_path / "cache" / "planswitch"
    built = sorted(os.listdir(cache))
    assert [name.rsplit(".", 1)[1] for name in built] == ["key", "so"]
    stamp = os.stat(cache / built[1]).st_mtime_ns
    second = run_cli(tmp_path, tmp_path / "cache", no_cc)  # no cc: a build would fail
    assert second.returncode == 0, second.stderr
    assert (second.stdout, second.stderr) == (first.stdout, first.stderr)
    assert sorted(os.listdir(cache)) == built and os.stat(cache / built[1]).st_mtime_ns == stamp


def test_unwritable_cache_builds_privately(reloaded, capsys, monkeypatch):
    assert cli.main(SMALL_RUN) == 0
    want = capsys.readouterr()
    blocked = reloaded / "not-a-directory"
    blocked.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocked))
    monkeypatch.setattr(loops, "_lib", None)
    assert cli.main(SMALL_RUN) == 0
    assert capsys.readouterr() == want
    assert blocked.read_text() == "" and os.listdir(reloaded / "tmp") == []  # the private build is gone


def test_failing_compiler_is_named(reloaded, capsys, monkeypatch):
    fake = reloaded / "bin"
    fake.mkdir()
    (fake / "cc").write_text("#!/bin/sh\necho 'cc: fatal error: no space left' >&2\nexit 1\n")
    (fake / "cc").chmod(0o755)
    monkeypatch.setenv("PATH", str(fake))
    with pytest.raises(CompilerError, match="on first use: cc: fatal error: no space left$"):
        chase.delta_traces([[1.0]], [[0.0]], 1.0)
    assert cli.main(SMALL_RUN) == 2
    err = capsys.readouterr().err
    assert err == "error: planswitch builds its loops with cc on first use: cc: fatal error: no space left\n"
    assert os.listdir(reloaded / "tmp") == [] and not any(
        name.endswith((".so", ".key")) for name in os.listdir(reloaded / "cache" / "planswitch"))


def test_broken_or_stale_cache_entries_are_built_again(reloaded, monkeypatch):
    want = chase.delta_traces([[1.0, -3.0]], [[0.0, 0.0]], 2.0)
    cache = reloaded / "cache" / "planswitch"
    key, so = sorted(cache.iterdir())

    def rewrite(path, data):
        # A new file in the entry's place: writing into the library in place would truncate the pages this
        # process has mapped since it loaded it, and the process would die of SIGBUS when it next touched them.
        path.unlink()
        path.write_bytes(data)

    for damage in (lambda: rewrite(so, b"not a library"), lambda: rewrite(key, key.read_bytes() + b" ")):
        damage()
        monkeypatch.setattr(loops, "_lib", None)
        assert np.array_equal(chase.delta_traces([[1.0, -3.0]], [[0.0, 0.0]], 2.0), want)
        assert sorted(cache.iterdir()) == [key, so] and key.read_bytes().endswith(open(loops.SOURCE, "rb").read())


def test_arguments_are_checked_before_the_call():
    # An array of the wrong dtype or layout, or a number in its place, would be read as raw memory.
    with pytest.raises(TypeError, match="scan: argument 0 must be a C-contiguous float64 array"):
        loops.call("scan", np.zeros((2, 4))[:, ::2], 2, np.ones(2), np.zeros(2), 2, 2, np.empty((2, 3)))
    with pytest.raises(TypeError, match="walk: argument 6 must be a C-contiguous int8 array"):
        loops.call("walk", np.zeros((1, 2), bool), np.zeros((1, 3), bool), 1, 1, 2, 2, np.empty((1, 2), np.int64),
                   np.empty(1, np.int64))
    with pytest.raises(TypeError, match="dp: argument 3 must be a C-contiguous float64 array"):
        loops.call("dp", np.zeros((1, 2)), np.zeros((1, 2)), 0, 0.5, np.ones(1, np.int64), np.ones(1, bool), 0.0, 1,
                   2, np.empty(9), np.empty(6, np.int64), np.empty((1, 2), np.int8), np.empty(1, np.int64))
    states, g = np.zeros((2, 3), np.int8), np.zeros((2, 3))
    with pytest.raises(TypeError, match="sp: argument 0 must be a C-contiguous int8 array"):
        loops.call("sp", states[:, ::-1], g, g, 3, 2, 3, np.empty(2), np.ones(2))
    with pytest.raises(TypeError, match="dsp: argument 8 must be a C-contiguous int64 array"):
        loops.call("dsp", states, g, g, 3, 2, 3, np.empty(2), np.ones(2), np.ones(2), np.ones(2, bool),
                   np.empty(1, np.int64))
    with pytest.raises(TypeError, match="csp: argument 0 must be a C-contiguous float64 array"):
        loops.call("csp", states, g, g, 3, 2, 3, np.empty(2), np.ones(2))


def test_strided_inputs_are_read_in_order():
    # The checks hand the loops C-order copies of views, so a strided stack gives its rows' own results.
    rng = np.random.default_rng(508)
    g0, g1 = rng.uniform(0.0, 3.0, (2, 6, 40))
    beta, drift = rng.uniform(0.5, 2.0, 12), rng.uniform(0.0, 0.1, 12)
    assert np.array_equal(chase.delta_traces(g0[:, ::2], g1[:, ::2], beta[::2], drift[::2]),
                          chase.delta_traces(g0[:, ::2].copy(), g1[:, ::2].copy(), beta[::2].copy(), drift[::2].copy()))
    alpha, cap = rng.uniform(0.0, 1.0, 12), rng.integers(1, 8, 12)
    assert np.array_equal(oracles.dp_dsps(g0.T[:20:2].T, g1.T[:20:2].T, alpha[::2], cap[::2])[0],
                          oracles.dp_dsps(g0.T[:20:2].T.copy(), g1.T[:20:2].T.copy(), alpha[::2].copy(),
                                          cap[::2].copy())[0])
