"""Reference computations the benchmark checks the program's outputs against.

Written apart from ``planswitch``: plan costs from the tariff formula in numpy,
schedule costs for both fee regimes, and one dynamic program per regime. None
of this imports the program.
"""

from __future__ import annotations

import math

import numpy as np

# Underusage rate as a share of each month's fixed rate: the CLI's default
# when no --h-rate is given.
H_SCALE = 0.1


def plan_costs(e, p0, p1, base, h_scale: float = H_SCALE) -> tuple[np.ndarray, np.ndarray]:
    """Monthly cost of the fixed plan (g0) and the variable plan (g1).

    The fixed plan bills demand at the fixed rate, the spread to the variable
    rate on usage above 1.1*B, and credits usage below 0.9*B at h_scale times
    the fixed rate.
    """
    e, p0, p1, base = (np.asarray(a, dtype=np.float64) for a in (e, p0, p1, base))
    over = np.maximum(e - 1.1 * base, 0.0)
    under = np.maximum(0.9 * base - e, 0.0)
    g0 = e * p0 + (p1 - p0) * over - (h_scale * p0) * under
    g1 = e * p1
    return g0, g1


def sp_cost(states, g0: np.ndarray, g1: np.ndarray, beta: float) -> float:
    """Service cost plus ``beta`` per move from plan 0 to plan 1, starting on plan 0."""
    s = np.asarray(states, dtype=np.int8)
    ups = int(np.count_nonzero(np.diff(s, prepend=np.int8(0)) == 1))
    return float(np.where(s == 1, g1, g0).sum()) + beta * ups


def csp_cost(x, g0: np.ndarray, g1: np.ndarray, beta: float) -> float:
    """Cost of a fractional schedule: interpolated service plus ``beta`` per unit moved up."""
    x = np.asarray(x, dtype=np.float64)
    up = np.maximum(np.diff(x, prepend=0.0), 0.0)
    return float(((g1 - g0) * x + g0).sum() + beta * up.sum())


def zero_runs(states) -> tuple[np.ndarray, np.ndarray]:
    """Lengths of the maximal plan-0 runs, and for each whether it ends at the horizon."""
    s = np.asarray(states, dtype=np.int8)
    padded = np.concatenate(([1], s, [1]))
    edges = np.diff(padded)
    starts = np.flatnonzero(edges == -1)
    ends = np.flatnonzero(edges == 1)  # one past the run's last slot
    return ends - starts, ends == len(s)


def dsp_cost(states, g0: np.ndarray, g1: np.ndarray, alpha: float, contract_len: int,
             fee_mode: str = "literal") -> float:
    """Decreasing-fee cost: a plan-0 run of d months costs alpha*(L - d).

    ``literal`` charges every run, ``transition-only`` only runs followed by
    a move to plan 1. Returns inf for a schedule with a run longer than L.
    """
    s = np.asarray(states, dtype=np.int8)
    lengths, at_end = zero_runs(s)
    if lengths.size and lengths.max() > contract_len:
        return math.inf
    charged = lengths if fee_mode == "literal" else lengths[~at_end]
    fee = alpha * float((contract_len - charged).sum())
    return float(np.where(s == 1, g1, g0).sum()) + fee


def sp_opt(g0: np.ndarray, g1: np.ndarray, beta: float) -> float:
    """Constant-fee optimum by a two-state dynamic program, O(T)."""
    on0, on1 = 0.0, math.inf
    for a, b in zip(g0.tolist(), g1.tolist()):
        on0, on1 = min(on0, on1) + a, min(on0 + beta, on1) + b
    return min(on0, on1)


def dsp_opt(g0: np.ndarray, g1: np.ndarray, alpha: float, contract_len: int,
            fee_mode: str = "literal") -> float:
    """Decreasing-fee optimum by a dynamic program over run length, O(T*L).

    State 0 is plan 1; state r in 1..L is plan 0 in the r-th month of a run.
    Leaving a run of length r for plan 1 costs alpha*(L - r).
    """
    L = int(contract_len)
    leave = alpha * (L - np.arange(L + 1, dtype=np.float64))
    leave[0] = 0.0
    cost = np.full(L + 1, math.inf)
    cost[0] = g1[0]
    cost[1] = g0[0]
    for a, b in zip(g0[1:].tolist(), g1[1:].tolist()):
        nxt = np.empty(L + 1)
        nxt[0] = (cost + leave).min() + b
        nxt[1] = cost[0] + a
        nxt[2:] = cost[1:L] + a
        cost = nxt
    if fee_mode == "literal":
        cost = cost + leave
    return float(cost.min())
