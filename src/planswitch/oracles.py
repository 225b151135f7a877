"""Ground-truth computations used to validate the threshold algorithms.

Exhaustive enumeration realizes "for every schedule" claims directly; the
dynamic program solves the decreasing-fee objective exactly in O(T); the
segment-decomposition identities re-express both objectives through prefix
sums of the per-slot cost gap; and the potential check traces the inequality
behind the randomized algorithm's factor-2 guarantee slot by slot.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .chase import FractionalSchedule
from .tariff import (
    CostSeries,
    Schedule,
    ValidationError,
    dsp_cost,
    fee_terms,
    sp_cost,
    zero_runs,
)

__all__ = [
    "OracleResult",
    "BRUTE_FORCE_MAX_T",
    "TIE_TOL",
    "brute_force_sp",
    "brute_force_dsp",
    "dp_dsp",
    "phi_identity_sp",
    "phi_identity_dsp",
    "potential_check",
]

# 2^22 schedules is a few seconds of enumeration; anything larger is refused.
BRUTE_FORCE_MAX_T = 22

# Costs this close to the minimum count as ties (float noise, not structure).
TIE_TOL = 1e-12

_CHUNK = 1 << 18


@dataclass(frozen=True)
class OracleResult:
    """An oracle's verdict: the best schedule, its cost, and how many schedules tie.

    ``best_cost`` is recomputed from ``best_schedule`` with the scalar
    objective, so the two always agree exactly. Tie counts treat costs within
    ``TIE_TOL`` of the minimum as equal. Exhaustive search counts tied
    schedules; the dynamic program counts tied end states (the variable plan,
    or an open fixed run of each length), not every optimal path.
    """

    best_schedule: Schedule
    best_cost: float
    ties: int


def _mask_to_states(mask: int, period: int) -> list[int]:
    # Slot 1 is the most significant bit, so ascending masks enumerate
    # schedules in lexicographic order.
    return [(mask >> (period - t)) & 1 for t in range(1, period + 1)]


def _chunks(period: int):
    total = 1 << period
    shifts = np.arange(period - 1, -1, -1, dtype=np.uint32)
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        masks = np.arange(lo, hi, dtype=np.uint32)
        bits = ((masks[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
        yield lo, bits


def _service_and_ups(bits: np.ndarray, g0: np.ndarray, g1: np.ndarray):
    fbits = bits.astype(np.float64)
    service = fbits @ (g1 - g0) + g0.sum()
    ups = bits[:, 0].astype(np.int64)
    if bits.shape[1] > 1:
        ups = ups + (bits[:, 1:] > bits[:, :-1]).sum(axis=1)
    return service, ups


def _pick_best(costs: np.ndarray) -> tuple[int, float, int]:
    best = float(costs.min())
    tied = costs <= best + TIE_TOL
    ties = int(tied.sum())
    best_idx = int(np.argmax(tied))  # first tie in lexicographic order
    return best_idx, best, ties


def brute_force_sp(cs: CostSeries, beta: float) -> OracleResult:
    """Exact constant-fee minimum by enumerating all 2^T schedules.

    Ties are counted within ``TIE_TOL`` of the minimum; the reported schedule
    is the lexicographically smallest of the tied ones.
    """
    period = len(cs)
    if period > BRUTE_FORCE_MAX_T:
        raise ValueError(
            f"refusing exhaustive search for T={period} > {BRUTE_FORCE_MAX_T}"
        )
    g0 = np.asarray(cs.g0)
    g1 = np.asarray(cs.g1)
    costs = np.empty(1 << period)
    for lo, bits in _chunks(period):
        service, ups = _service_and_ups(bits, g0, g1)
        costs[lo : lo + bits.shape[0]] = service + float(beta) * ups
    best_idx, _, ties = _pick_best(costs)
    sched = Schedule(_mask_to_states(best_idx, period))
    return OracleResult(sched, sp_cost(sched, cs, beta), ties)


def _run_stats(bits: np.ndarray):
    """Per row: longest zero-run, run count, total zeros, trailing-run length."""
    n, period = bits.shape
    zeros = bits == 0
    run = np.zeros(n, dtype=np.int64)
    longest = np.zeros(n, dtype=np.int64)
    n_runs = np.zeros(n, dtype=np.int64)
    prev = np.zeros(n, dtype=bool)
    for t in range(period):
        z = zeros[:, t]
        n_runs += z & ~prev
        run = np.where(z, run + 1, 0)
        np.maximum(longest, run, out=longest)
        prev = z
    return longest, n_runs, zeros.sum(axis=1), run


def brute_force_dsp(
    cs: CostSeries, alpha: float, contract_len: int, fee_mode: str = "literal"
) -> OracleResult:
    """Exact decreasing-fee minimum over all feasible schedules (runs <= L)."""
    period = len(cs)
    if period > BRUTE_FORCE_MAX_T:
        raise ValueError(
            f"refusing exhaustive search for T={period} > {BRUTE_FORCE_MAX_T}"
        )
    alpha, contract_len, fee_mode = fee_terms(alpha, contract_len, fee_mode)
    g0 = np.asarray(cs.g0)
    g1 = np.asarray(cs.g1)
    costs = np.empty(1 << period)
    for lo, bits in _chunks(period):
        service, _ = _service_and_ups(bits, g0, g1)
        longest, n_runs, total_zeros, trailing = _run_stats(bits)
        if fee_mode == "literal":
            fee = alpha * (contract_len * n_runs - total_zeros)
        else:
            charged_runs = n_runs - (trailing > 0)
            fee = alpha * (contract_len * charged_runs - (total_zeros - trailing))
        block = service + fee
        block[longest > contract_len] = np.inf
        costs[lo : lo + bits.shape[0]] = block
    if not np.isfinite(costs.min()):
        raise RuntimeError("no feasible schedule found; the all-ones schedule should always be")
    best_idx, _, ties = _pick_best(costs)
    sched = Schedule(_mask_to_states(best_idx, period))
    return OracleResult(sched, dsp_cost(sched, cs, alpha, contract_len, fee_mode), ties)


def dp_dsp(
    cs: CostSeries, alpha: float, contract_len: int, fee_mode: str = "literal"
) -> OracleResult:
    """Exact decreasing-fee minimum by dynamic programming, O(T).

    ``V[t]`` is the best cost of slots 1..t that ends on the variable plan
    (``V[0] = 0``: the boundary s_0 = 0 opens no run), and ``P[k]`` sums g0
    over slots 1..k. A fixed run over slots s..t-1 ended before slot t costs
    ``K[s] + P[t-1] + alpha * (L - t)`` with ``K[s] = V[s-1] - P[s-1] +
    alpha * s``; runs may not extend past L, so s ranges over the last L
    slots and a monotone deque of starts gives the least K in amortized O(1).
    One O(L) pass at the end prices a run still open at the horizon, charged
    its fee only in ``literal`` mode.

    Ties break toward staying on the variable plan, then toward the shortest
    run (the deque drops a start whose key is >= a later one's); at the
    horizon the variable end wins, then the shortest open run. ``ties``
    counts the end states (variable, or an open run of each length) whose
    totals lie within ``TIE_TOL`` of the best.
    """
    period = len(cs)
    alpha, cap, fee_mode = fee_terms(alpha, contract_len, fee_mode)
    g1 = cs.g1
    prefix = [0.0, *accumulate(cs.g0)]
    value = [0.0] * (period + 1)
    run = [0] * (period + 1)  # length of the fixed run ended before variable slot t, 0 if none
    window: deque[tuple[float, int]] = deque()  # (K[s], s), K increasing from the front
    for t in range(1, period + 1):
        s = t - 1
        if s:
            k = value[s - 1] - prefix[s - 1] + alpha * s
            while window and window[-1][0] >= k:
                window.pop()
            window.append((k, s))
            if window[0][1] < t - cap:
                window.popleft()
        best = value[t - 1]
        if window:
            k, s = window[0]
            c = k + prefix[t - 1] + alpha * (cap - t)
            if c < best:
                best = c
                run[t] = t - s
        value[t] = best + g1[t - 1]

    # End states: the variable plan (start T + 1), then open runs s..T, shortest first.
    finals = [(value[period], period + 1)]
    for s in range(period, max(period - cap, 0), -1):
        c = value[s - 1] + (prefix[period] - prefix[s - 1])
        if fee_mode == "literal":
            c += alpha * (cap - (period - s + 1))
        finals.append((c, s))
    best, start = min(finals, key=lambda f: f[0])
    ties = sum(c <= best + TIE_TOL for c, _ in finals)

    states = [1] * period
    t = period + 1
    while t > 0:
        states[start - 1 : t - 1] = [0] * (t - start)
        t = start - 1
        start = t - run[t]
    sched = Schedule(states)
    return OracleResult(sched, dsp_cost(sched, cs, alpha, cap, fee_mode), ties)


def _gap_prefix_sums(cs: CostSeries) -> list[float]:
    """Prefix sums of the per-slot gap with zero boundary slots.

    Index k holds the sum of gaps over slots 0..k-1, where the out-of-range
    slots 0 and T+1 contribute 0 (their costs are zero by convention).
    """
    period = len(cs)
    phi = [0.0] * (period + 3)
    acc = 0.0
    phi[1] = 0.0  # gap of slot 0
    for t in range(1, period + 1):
        acc += cs.g0[t - 1] - cs.g1[t - 1]
        phi[t + 1] = acc
    phi[period + 2] = acc  # gap of slot T+1 is 0
    return phi


def phi_identity_sp(sched: Schedule, cs: CostSeries, beta: float) -> tuple[float, float]:
    """Constant-fee cost vs its segment decomposition; both sides returned.

    The right side charges every slot at the variable plan's price and
    corrects each fixed-plan segment through differences of the gap prefix
    sums, paying one fee per segment. Segment boundaries here include the
    forced zero states at slots 0 and T+1, with zero gap contributions there;
    the identity is exercised empirically rather than trusted.
    """
    lhs = sp_cost(sched, cs, beta)
    phi = _gap_prefix_sums(cs)
    beta = float(beta)
    rhs = sum(cs.g1) - beta
    # Zero runs of the schedule padded with s_0 = s_{T+1} = 0; padded slot k is slot k - 1.
    for start, end in zero_runs(Schedule((0, *sched.states, 0))):
        rhs += phi[end] - phi[start - 1] + beta
    return lhs, rhs


def phi_identity_dsp(
    sched: Schedule, cs: CostSeries, alpha: float, contract_len: int
) -> tuple[float, float]:
    """Decreasing-fee (literal) cost vs its drift-adjusted decomposition.

    Same telescoping as :func:`phi_identity_sp` with the prefix sums shifted
    by alpha per slot and beta = alpha * L; segments here are the schedule's
    own fixed-plan runs within [1, T], since those are what the fee charges.
    """
    lhs = dsp_cost(sched, cs, alpha, contract_len, "literal")
    alpha = float(alpha)
    beta = alpha * int(contract_len)
    phi = _gap_prefix_sums(cs)
    rhs = sum(cs.g1)
    for start, end in zero_runs(sched):
        big_end = phi[end + 1] - alpha * (end + 1)
        big_start = phi[start] - alpha * start
        rhs += big_end - big_start + beta
    return lhs, rhs


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
    zvals = list(zs.x) if isinstance(zs, FractionalSchedule) else [float(s) for s in zs.states]
    if len(xs) != len(cs) or len(zvals) != len(cs):
        raise ValidationError("potential check requires equal-length trajectories and series")
    beta = float(beta)

    def pot(x: float, z: float) -> float:
        return beta * (0.5 * x * x + 2.0 * z - 2.0 * z * x)

    slacks = []
    x_prev = 0.0
    z_prev = 0.0
    for x, z, a, b in zip(xs.x, zvals, cs.g0, cs.g1):
        floor = min(a, b)
        fx = (b - a) * x + a - floor
        fz = (b - a) * z + a - floor
        step_x = fx + beta * max(x - x_prev, 0.0)
        step_z = fz + beta * max(z - z_prev, 0.0)
        slacks.append(2.0 * step_z - step_x - (pot(x, z) - pot(x_prev, z_prev)))
        x_prev, z_prev = x, z
    return slacks
