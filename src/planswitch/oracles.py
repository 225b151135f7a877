"""Ground-truth computations used to validate the threshold algorithms.

Exhaustive enumeration realizes "for every schedule" claims directly. It
runs per horizon stack: a (rows x T) cost stack's 2^T schedules are
enumerated once and priced for every row, by a doubling pass that extends
each priced prefix by one slot at a time; the dynamic program solves the
decreasing-fee objective exactly in O(T) per row. Each stack oracle checks
its stack once and returns states and tie counts; its one-instance form
runs the same unchecked core on one row, priced by the objective's fold.
The segment-decomposition identities re-express both objectives through
prefix sums of the per-slot cost gap, over a stack of schedules like the
objectives, with the one-schedule forms as one-row calls; and the potential
check traces the inequality behind the randomized algorithm's factor-2
guarantee slot by slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import loops
from .chase import FractionalSchedule
from .tariff import (
    CostSeries,
    Schedule,
    ValidationError,
    _dsp_fold,
    _fixed_runs,
    _fold_matrix,
    _sp_fold,
    _stack,
    cost_stack,
    fee_term_rows,
    require_finite,
    require_finite_rows,
)

__all__ = [
    "OracleResult",
    "BRUTE_FORCE_MAX_T",
    "TIE_TOL",
    "brute_force_sp",
    "brute_force_dsp",
    "brute_force_sps",
    "brute_force_dsps",
    "dp_dsp",
    "dp_dsps",
    "phi_identity_sp",
    "phi_identity_dsp",
    "phi_identity_sps",
    "phi_identity_dsps",
    "potential_check",
]

# 2^22 schedules take about a second to search per row, and time and memory
# double with each slot; anything larger is refused.
BRUTE_FORCE_MAX_T = 22

# Costs this close to the minimum count as ties (float noise, not structure).
TIE_TOL = 1e-12

# Exhaustive search prices at most 2^_CHUNK_BITS (row, schedule) cells at
# once: 128 KB of floats. Blocks of 2^18 cells raised `verify`'s peak memory
# by about 1 MB and were slower at T = 22.
_CHUNK_BITS = 14
_CHUNK = 1 << _CHUNK_BITS


@dataclass(frozen=True)
class OracleResult:
    """An oracle's verdict: the best schedule, its cost, and how many schedules tie.

    ``best_cost`` is ``best_schedule`` priced by its objective's one-row
    stack fold, so the two always agree exactly. Tie counts treat costs within
    ``TIE_TOL`` of the minimum as equal. Exhaustive search counts tied
    schedules; the dynamic program counts tied end states (the variable plan,
    or an open fixed run of each length), not every optimal path.
    """

    best_schedule: Schedule
    best_cost: float
    ties: int


def _fold(costs: np.ndarray, g0: np.ndarray, g1: np.ndarray, beta, last: int) -> np.ndarray:
    """Extend each row's priced schedules (rows x n) by the slots of ``g0``/``g1``, one at a time.

    Column 2m + b extends column m by state b: it adds g_b, then the row's fee
    ``beta`` if that is an up move, as :func:`sp_cost`'s left fold does. Column
    m ends on state m & 1, a lone column on ``last``; ``beta`` None adds no fee.
    """
    for t in range(g0.shape[1]):
        rows, n = costs.shape
        nxt = np.empty((rows, n, 2))
        np.add(costs, g0[:, t, None], out=nxt[:, :, 0])
        np.add(costs, g1[:, t, None], out=nxt[:, :, 1])
        if beta is not None and (n > 1 or not last):
            nxt[:, 0::2, 1] += beta[:, None]
        costs = nxt.reshape(rows, 2 * n)
    return costs


def _search(g0: np.ndarray, g1: np.ndarray, beta=None, fees=None) -> tuple[np.ndarray, np.ndarray]:
    """Each row's lexicographically first best schedule and tie count, over all 2^T.

    Rows are priced in blocks of ``_CHUNK >> T`` (at least one), the schedules
    of a row in ``_CHUNK`` blocks that share their first T - ``_CHUNK_BITS``
    slots: those prefixes are folded once, and each block extends its own.
    ``fees(chunk, rows, lo)`` adds the fees of the rows ``rows`` to ``chunk``,
    their costs of schedules lo, lo + 1, ...
    """
    rows, period = g0.shape
    if period > BRUTE_FORCE_MAX_T:
        raise ValidationError(f"refusing exhaustive search for T={period} > {BRUTE_FORCE_MAX_T}")
    head = max(period - _CHUNK_BITS, 0)
    width = 1 << (period - head)
    block = max(1, _CHUNK >> period)
    shifts = np.arange(period - 1, -1, -1)
    states = np.empty((rows, period), dtype=np.int8)
    ties = np.empty(rows, dtype=np.int64)
    for r in range(0, rows, block):
        sel = slice(r, r + block)
        row_beta = None if beta is None else beta[sel]
        prefixes = _fold(np.zeros((min(block, rows - r), 1)), g0[sel, :head], g1[sel, :head], row_beta, 0)
        costs = np.empty((len(prefixes), 1 << period))
        for c in range(prefixes.shape[1]):
            chunk = costs[:, c * width:(c + 1) * width]
            chunk[...] = _fold(prefixes[:, c:c + 1], g0[sel, head:], g1[sel, head:], row_beta, c & 1)
            if fees is not None:
                fees(chunk, sel, c * width)
        tied = costs <= costs.min(axis=1)[:, None] + TIE_TOL
        ties[sel] = tied.sum(axis=1)
        # Slot 1 is the most significant bit, so the first tie is the lexicographically smallest.
        states[sel] = (tied.argmax(axis=1)[:, None] >> shifts) & 1
    return states, ties


def _run_stats(masks: np.ndarray, period: int):
    """Per schedule mask (slot 1 the most significant bit): longest zero-run,
    run count, total zeros, trailing-run length."""
    run = longest = n_runs = total = 0
    for shift in range(period - 1, -1, -1):
        zero = ((masks >> shift) & 1) == 0
        n_runs = n_runs + (zero & (run == 0))
        total = total + zero
        run = np.where(zero, run + 1, 0)
        longest = np.maximum(longest, run)
    return longest, n_runs, total, run


def brute_force_sps(g0: np.typing.ArrayLike, g1: np.typing.ArrayLike,
                    beta: np.typing.ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    """Exact constant-fee minimum of each row of a cost stack, over all 2^T schedules.

    Row i is priced on (``g0[i]``, ``g1[i]``) with fee ``beta`` (one value or
    one per row), each schedule by :func:`sp_cost`'s own left fold. Returns
    the (rows x T) int8 states of each row's lexicographically smallest
    schedule within ``TIE_TOL`` of its minimum, and each row's tie count.
    """
    g0, g1 = cost_stack(g0, g1)
    return _search(g0, g1, beta=require_finite_rows("beta", beta, len(g0)))


def brute_force_dsps(g0: np.typing.ArrayLike, g1: np.typing.ArrayLike, alpha: np.typing.ArrayLike,
                     contract_len: np.typing.ArrayLike,
                     fee_mode: str | list[str] = "literal") -> tuple[np.ndarray, np.ndarray]:
    """Exact decreasing-fee minimum of each row of a cost stack, over all
    feasible schedules (fixed runs <= L); as :func:`brute_force_sps`, with
    ``alpha``, ``contract_len`` and ``fee_mode`` each one value or one per row."""
    g0, g1 = cost_stack(g0, g1)
    return _dsp_search(g0, g1, *fee_term_rows(alpha, contract_len, fee_mode, len(g0)))


def _dsp_search(g0: np.ndarray, g1: np.ndarray, alpha: np.ndarray, cap: np.ndarray,
                literal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`brute_force_dsps` on a checked stack and each row's checked fee terms."""
    alpha, cap, literal = alpha.tolist(), cap.tolist(), literal.tolist()

    def fees(chunk: np.ndarray, sel: slice, lo: int) -> None:
        longest, n_runs, zeros, trailing = _run_stats(np.arange(lo, lo + chunk.shape[1]), g0.shape[1])
        # transition-only mode charges no fee for a run still open at the horizon
        charged = {True: (n_runs, zeros), False: (n_runs - (trailing > 0), zeros - trailing)}
        for row, a, c, lit in zip(chunk, alpha[sel], cap[sel], literal[sel]):
            runs, days = charged[lit]
            row += a * (c * runs - days)
            row[longest > c] = np.inf

    return _search(g0, g1, fees=fees)


def _one_row(core, fold, cs: CostSeries, *terms) -> OracleResult:
    """A stack oracle's one-instance form: its unchecked ``core`` on the one row of ``cs`` and its checked
    ``terms``, the schedule priced by its objective's unchecked ``fold`` on the same terms."""
    g0, g1 = cs.g0[None], cs.g1[None]
    states, ties = core(g0, g1, *terms)
    return OracleResult(Schedule(states[0]), float(fold(states, g0, g1, *terms)[0]), int(ties[0]))


def brute_force_sp(cs: CostSeries, beta: float) -> OracleResult:
    """Exact constant-fee minimum over all 2^T schedules: the one-row :func:`brute_force_sps`."""
    return _one_row(_search, _sp_fold, cs, require_finite_rows("beta", beta, 1))


def brute_force_dsp(cs: CostSeries, alpha: float, contract_len: int, fee_mode: str = "literal") -> OracleResult:
    """Exact decreasing-fee minimum over all feasible schedules (runs <= L): the one-row :func:`brute_force_dsps`."""
    return _one_row(_dsp_search, _dsp_fold, cs, *fee_term_rows(alpha, contract_len, fee_mode, 1))


def dp_dsps(g0: np.typing.ArrayLike, g1: np.typing.ArrayLike, alpha: np.typing.ArrayLike,
            contract_len: np.typing.ArrayLike, fee_mode: str | list[str] = "literal") -> tuple[np.ndarray, np.ndarray]:
    """Exact decreasing-fee minimum of each row of a cost stack by dynamic
    programming, O(T) per row; as :func:`brute_force_dsps`, whose results it matches.

    ``V[t]`` is the best cost of slots 1..t that ends on the variable plan
    (``V[0] = 0``: the boundary s_0 = 0 opens no run), and ``P[k]`` sums g0
    over slots 1..k. A fixed run over slots s..t-1 ended before slot t costs
    ``A[s] + P[t-1] + alpha * (L - (t - s))`` with ``A[s] = V[s-1] - P[s-1]``;
    runs may not extend past L, so s ranges over the last L slots and a
    monotone deque of starts gives the least ``A[s] + alpha * s`` in amortized
    O(1), comparing starts b < s by ``A[b] - A[s] >= alpha * (s - b)``: alpha
    times an absolute slot would round away the costs at large alpha. One
    O(L) pass at the end prices a run still open at the horizon, charged its
    fee only in ``literal`` mode.

    Ties break toward staying on the variable plan, then toward the shortest
    run (the deque drops a start b that compares >= a later one); at the
    horizon the variable end wins, then the shortest open run. A row's tie
    count is the number of its end states (variable, or an open run of each
    length) whose totals lie within ``TIE_TOL`` of the best.
    """
    g0, g1 = cost_stack(g0, g1)
    return _dp(g0, g1, *fee_term_rows(alpha, contract_len, fee_mode, len(g0)))


def _dp(g0: np.ndarray, g1: np.ndarray, alpha: np.ndarray, cap: np.ndarray,
        literal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`dp_dsps` on checked input, by the compiled loop: costs of the stack's shape
    or one row for all, and each row's fee terms as arrays of ``rows`` entries."""
    (rows,), period = alpha.shape, g0.shape[1]
    states, ties = np.empty((rows, period), np.int8), np.empty(rows, np.int64)
    loops.call("dp", g0, g1, period if len(g0) > 1 else 0, alpha, cap, literal, TIE_TOL, rows, period,
               np.empty(3 * period + 3), np.empty(2 * period + 2, np.int64), states, ties)
    return states, ties


def dp_dsp(cs: CostSeries, alpha: float, contract_len: int, fee_mode: str = "literal") -> OracleResult:
    """Exact decreasing-fee minimum by dynamic programming, O(T): the one-row :func:`dp_dsps`."""
    return _one_row(_dp, _dsp_fold, cs, *fee_term_rows(alpha, contract_len, fee_mode, 1))


def _gap_sums(g0: np.ndarray, g1: np.ndarray) -> np.ndarray:
    """Prefix sums of each row's per-slot gap with zero boundary slots.

    Column k holds the sum of gaps over slots 0..k-1 (a left fold from 0.0),
    where the out-of-range slots 0 and T+1 contribute 0 (their costs are
    zero by convention).
    """
    rows, period = g0.shape
    phi = np.zeros((rows, period + 3))
    np.subtract(g0, g1, out=phi[:, 2:period + 2])
    np.cumsum(phi[:, 1:period + 2], axis=1, out=phi[:, 1:period + 2])
    phi[:, -1] = phi[:, -2]
    return phi


def phi_identity_sps(states: np.typing.ArrayLike, g0: np.typing.ArrayLike, g1: np.typing.ArrayLike,
                     beta: np.typing.ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    """Constant-fee cost vs its segment decomposition, both sides, for each row
    of a state matrix priced as :func:`planswitch.tariff.sp_costs` prices it.

    The right side charges every slot at the variable plan's price and
    corrects each fixed-plan segment through differences of the gap prefix
    sums, paying one fee per segment. Segment boundaries here include the
    forced zero states at slots 0 and T+1, with zero gap contributions there;
    the identity is exercised empirically rather than trusted. Each side is
    a left fold, its segments' terms in segment order.
    """
    states, g0, g1 = _stack(states, g0, g1)
    beta = require_finite_rows("beta", beta, len(states))
    rows, period = states.shape
    phi = _gap_sums(g0, g1)
    padded = np.zeros((rows, period + 2), dtype=np.int8)  # s_0 = s_{T+1} = 0
    padded[:, 1:-1] = states
    lasted, ends = _fixed_runs(padded)
    # A segment over slots j - d + 1..j (d = lasted) adds the gaps phi[j + 1] - phi[j + 1 - d].
    start = np.take_along_axis(phi, np.arange(1, period + 3) - lasted, axis=1)
    slots = np.zeros((rows, 2 * period + 3))
    slots[:, :period], slots[:, period] = g1, -beta
    np.copyto(slots[:, period + 1:], phi[:, 1:] - start + beta[:, None], where=ends)
    return _sp_fold(states, g0, g1, beta), _fold_matrix(slots)


def phi_identity_dsps(states: np.typing.ArrayLike, g0: np.typing.ArrayLike, g1: np.typing.ArrayLike,
                      alpha: np.typing.ArrayLike, contract_len: np.typing.ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    """Decreasing-fee (literal) cost vs its drift-adjusted decomposition, both
    sides, for each row, priced as :func:`planswitch.tariff.dsp_costs` prices it.

    Same telescoping as :func:`phi_identity_sps` with the prefix sums shifted
    by alpha per slot and beta = alpha * L; segments here are the schedule's
    own fixed-plan runs within [1, T], since those are what the fee charges.
    """
    states, g0, g1 = _stack(states, g0, g1)
    alpha, cap, literal = fee_term_rows(alpha, contract_len, "literal", len(states))
    rows, period = states.shape
    phi = _gap_sums(g0, g1)
    lasted, ends = _fixed_runs(states)
    end = np.arange(1, period + 1)  # a run over slots start..end, 1-based
    start = end - lasted + 1
    a = alpha[:, None]
    big_end = phi[:, 2:period + 2] - a * (end + 1)
    big_start = np.take_along_axis(phi, start, axis=1) - a * start
    slots = np.zeros((rows, 2 * period))
    slots[:, :period] = g1
    np.copyto(slots[:, period:], big_end - big_start + a * cap[:, None], where=ends)
    return _dsp_fold(states, g0, g1, alpha, cap, literal), _fold_matrix(slots)


def phi_identity_sp(sched: Schedule, cs: CostSeries, beta: float) -> tuple[float, float]:
    """Constant-fee cost vs its segment decomposition: the one-row :func:`phi_identity_sps`."""
    lhs, rhs = phi_identity_sps(sched.states[None], cs.g0, cs.g1, beta)
    return float(lhs[0]), float(rhs[0])


def phi_identity_dsp(
    sched: Schedule, cs: CostSeries, alpha: float, contract_len: int
) -> tuple[float, float]:
    """Decreasing-fee (literal) cost vs its drift-adjusted decomposition: the
    one-row :func:`phi_identity_dsps`."""
    lhs, rhs = phi_identity_dsps(sched.states[None], cs.g0, cs.g1, alpha, contract_len)
    return float(lhs[0]), float(rhs[0])


def potential_check(
    xs: FractionalSchedule,
    zs: FractionalSchedule | Schedule,
    cs: CostSeries,
    beta: float,
) -> list[float]:
    """Per-slot slack of the factor-2 inequality for the continuous algorithm.

    For trajectories x (the algorithm) and z (a comparison schedule), slot
    slack is twice z's step cost minus x's step cost minus the change of the
    potential beta*(x^2/2 + 2z - 2zx), with step costs measured on the gap
    above each slot's cheaper plan. A nonnegative running sum of slacks
    certifies that x's cost stays within twice z's along the whole prefix.
    """
    x = xs.x
    z = zs.x if isinstance(zs, FractionalSchedule) else zs.states.astype(np.float64)
    if len(x) != len(cs) or len(z) != len(cs):
        raise ValidationError("potential check requires equal-length trajectories and series")
    beta = require_finite("beta", beta)
    a, b = cs.g0, cs.g1
    floor = np.minimum(b, a)  # min(a, b): a on a tie
    # each slot's change of x and z, from x_0 = z_0 = 0; max(d, 0.0) keeps d on a tie
    step_x = (b - a) * x + a - floor + beta * np.maximum(0.0, np.diff(x, prepend=0.0))
    step_z = (b - a) * z + a - floor + beta * np.maximum(0.0, np.diff(z, prepend=0.0))
    pot = beta * (0.5 * x * x + 2.0 * z - 2.0 * z * x)  # 0.0 at x_0 = z_0 = 0
    return (2.0 * step_z - step_x - np.diff(pot, prepend=0.0)).tolist()
