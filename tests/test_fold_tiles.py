"""Slot edges of the stacked folds.

Every fold of a stack (``sp_costs``, ``dsp_costs``, ``p2_costs``, the
continuous rule's ``chase._csp_fold`` and both phi identities) is checked
here, bit for bit, against its slot loop in ``tests/scalar_objectives.py``
at 1, 2, 3 and 100 rows, with ``tariff.BLOCK_CELLS`` set to blocks one slot
wide, of a width that does not divide T, and of one whole row: no total may
depend on it. The states put an up move on the first slot after each such
edge, and fixed runs across the first. The decreasing fee's infeasible run
that comes first in row-major order is named, with its row and contract,
even when a later row overruns at an earlier slot, and a row of -0.0 slots
folds to 0.0. Last, the folds' peak memory is bounded: they build no float
matrix of the stack.
"""

import tracemalloc

import numpy as np
import pytest
from scalar_objectives import csp_loop, dsp_loop, p2_loop, phi_dsp_loop, phi_sp_loop, sp_loop

from planswitch import InfeasibleScheduleError, dsp_costs, p2_costs, sp_costs, tariff
from planswitch.chase import _csp_fold
from planswitch.oracles import phi_identity_dsps, phi_identity_sps

PERIOD = 23
TILE_WIDTHS = [1, 5, PERIOD]  # slots per block: one, a width that does not divide PERIOD, the whole row
ROWS = [1, 2, 3, 100]
CAP = 9  # the decreasing fee's contract length, longer than every run the feasible states hold


def _blocks(monkeypatch, rows, width, cells_per_slot):
    """Set BLOCK_CELLS to ``width`` slots of ``rows`` rows at ``cells_per_slot`` cells a slot."""
    monkeypatch.setattr(tariff, "BLOCK_CELLS", cells_per_slot * rows * width)


def _states(rng, rows, width):
    """Random 0/1 states with an up move on the first slot after most block edges (every edge but the first and
    those at slots 8 and 16), and a fixed run of three slots across the first edge; no fixed run longer than CAP."""
    states = (rng.random((rows, PERIOD)) < 0.6).astype(np.int8)
    edges = np.arange(width, PERIOD, width)
    states[:, edges - 1], states[:, edges] = 0, 1
    if width < PERIOD:
        states[:, max(width - 2, 0):width + 1] = 0
    states[:, CAP - 2::CAP - 1] = 1  # every eighth slot on plan 1: no run is longer than 7
    return states


def _costs(rng, rows):
    """One cost series per row, the first all -0.0 when there are several rows; g0 and g1."""
    g = rng.normal(0.0, 10.0, size=(2, rows, PERIOD)) * 10.0 ** rng.integers(-3, 4, size=(2, rows, PERIOD))
    if rows > 1:
        g[:, 0] = -0.0
    return g[0], g[1]


def _same(got, want):
    assert [repr(v) for v in np.ravel(got).tolist()] == [repr(float(v)) for v in want]


@pytest.mark.parametrize("width", TILE_WIDTHS)
@pytest.mark.parametrize("rows", ROWS)
class TestFoldsAtTileEdges:
    def test_constant_fee(self, monkeypatch, rows, width):
        rng = np.random.default_rng(rows * 100 + width)
        states, (g0, g1) = _states(rng, rows, width), _costs(rng, rows)
        beta = np.where(np.arange(rows) == 0, 0.0, 3.5)  # a row of -0.0 costs and no fee
        _blocks(monkeypatch, rows, width, 2)
        _same(sp_costs(states, g0, g1, beta), [sp_loop(*row) for row in zip(states.tolist(), g0, g1, beta)])
        if rows > 1:
            assert repr(float(sp_costs(states, g0, g1, beta)[0])) == "0.0"
        _blocks(monkeypatch, rows, width, 1)
        _same(p2_costs(states, g0, g1, beta), [p2_loop(*row) for row in zip(states.tolist(), g0, g1, beta)])

    @pytest.mark.parametrize("fee_mode", tariff.FEE_MODES)
    def test_decreasing_fee(self, monkeypatch, rows, width, fee_mode):
        rng = np.random.default_rng(rows * 100 + width + 1)
        states, (g0, g1) = _states(rng, rows, width), _costs(rng, rows)
        states[-1, -CAP - 1:] = 1, *[0] * CAP  # a run open at the horizon, charged in literal mode only
        alpha = np.where(np.arange(rows) == 0, 0.0, 1.25)
        _blocks(monkeypatch, rows, width, 1)
        got = dsp_costs(states, g0, g1, alpha, CAP, fee_mode)
        _same(got, [dsp_loop(*row, CAP, fee_mode) for row in zip(states.tolist(), g0, g1, alpha)])
        if rows > 1:
            assert repr(float(got[0])) == "0.0"

    def test_first_infeasible_run_in_a_later_tile(self, monkeypatch, rows, width):
        # the last row overruns at its first slots; the first row overruns too, but only at its last
        states = np.ones((rows, PERIOD), dtype=np.int8)
        states[-1, :CAP + 1] = 0
        states[0, -CAP - 2:-1] = 0
        g0, g1 = _costs(np.random.default_rng(5), rows)
        with pytest.raises(InfeasibleScheduleError) as want:
            dsp_loop(states[0].tolist(), g0[0], g1[0], 1.0, CAP)
        _blocks(monkeypatch, rows, width, 1)
        for fee_mode in tariff.FEE_MODES:
            with pytest.raises(InfeasibleScheduleError) as got:
                dsp_costs(states, g0, g1, 1.0, CAP, fee_mode)
            assert str(got.value) == f"row 0: {want.value}"

    def test_infeasible_run_in_a_later_row_block(self, monkeypatch, rows, width):
        # only the last row overruns, in a later block of rows than the first when there are several, and
        # only its contract is that short
        states = np.ones((rows, PERIOD), dtype=np.int8)
        states[-1, 2:CAP + 3] = 0
        g0, g1 = _costs(np.random.default_rng(6), rows)
        with pytest.raises(InfeasibleScheduleError) as want:
            dsp_loop(states[-1].tolist(), g0[-1], g1[-1], 1.0, CAP)
        _blocks(monkeypatch, rows, width, 1)
        with pytest.raises(InfeasibleScheduleError) as got:
            dsp_costs(states, g0, g1, 1.0, [PERIOD] * (rows - 1) + [CAP])
        assert str(got.value) == f"row {rows - 1}: {want.value}"

    def test_continuous_rule(self, monkeypatch, rows, width):
        rng = np.random.default_rng(rows * 100 + width + 2)
        x = rng.integers(0, 5, size=(rows, PERIOD)) / 4.0
        edges = np.arange(width, PERIOD, width)
        x[:, edges - 1], x[:, edges] = 0.25, 0.75  # a move up on the first slot after every edge
        (g0, g1), beta = _costs(rng, rows), np.where(np.arange(rows) == 0, 0.0, 2.5)
        _blocks(monkeypatch, rows, width, 2)
        _same(_csp_fold(x, g0, g1, beta), [csp_loop(*row) for row in zip(x.tolist(), g0, g1, beta)])

    def test_phi_identities(self, monkeypatch, rows, width):
        rng = np.random.default_rng(rows * 100 + width + 3)
        states, (g0, g1) = _states(rng, rows, width), _costs(rng, rows)
        _blocks(monkeypatch, rows, width, 1)
        lhs, rhs = phi_identity_sps(states, g0, g1, 1.5)
        want = [phi_sp_loop(*row, 1.5) for row in zip(states.tolist(), g0, g1)]
        _same(lhs, [w[0] for w in want])
        _same(rhs, [w[1] for w in want])
        lhs, rhs = phi_identity_dsps(states, g0, g1, 0.5, CAP)
        want = [phi_dsp_loop(*row, 0.5, CAP) for row in zip(states.tolist(), g0, g1)]
        _same(lhs, [w[0] for w in want])
        _same(rhs, [w[1] for w in want])


def test_tall_stack_fold_holds_no_transposed_copy():
    # 100 x 100,000 states: the fold reads them in place, where a transposed float copy of the stack would be
    # 80 MB and an int8 copy 10 MB
    rng = np.random.default_rng(8)
    states = (np.cumsum(rng.random((100, 100_000)) < 0.03, axis=1) % 2).astype(np.int8)  # runs of ~33 slots
    g0, g1 = rng.normal(size=(2, 1, 100_000))
    beta = np.full(100, 2.0)
    tracemalloc.start()
    try:
        tariff._sp_fold(states, g0, g1, beta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * tariff.BLOCK_CELLS


def _dsp_fold_peak(rows, period):
    """tracemalloc's peak while ``_dsp_fold`` prices ``rows`` x ``period`` states, in runs of about five slots,
    on one cost row shared by every row."""
    rng = np.random.default_rng(9)
    states = (np.cumsum(rng.random((rows, period)) < 0.2, axis=1) % 2).astype(np.int8)
    g0, g1 = rng.normal(size=(2, 1, period))
    terms = np.full(rows, 0.5), np.full(rows, period, dtype=np.int64), np.full(rows, True)
    tracemalloc.start()
    try:
        tariff._dsp_fold(states, g0, g1, *terms)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_decreasing_fee_fold_holds_one_row_block():
    # 20 x 20,000 states: the fold reads them in place and counts the runs as it goes, where the stack's 2T
    # slots would be 6.4 MB
    assert _dsp_fold_peak(20, 20_000) < 16 * tariff.BLOCK_CELLS


def test_decreasing_fee_fold_on_long_rows_holds_one_row():
    # 10 x 100,000 states: rows longer than any block, where the stack's 2T slots would be 16 MB
    assert _dsp_fold_peak(10, 100_000) < 48 * 100_000
