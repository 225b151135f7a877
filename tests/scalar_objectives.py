"""Test-only oracles: the objectives and segment identities as slot loops.

``planswitch`` computes each objective and identity once, as a fold over a
stack of schedules. These are the per-schedule loops that fold replaced, kept
here so the differential tests can require the stack forms to give the same
floats, row by row. Each takes a schedule's 0/1 states (``csp_loop``: its
fractions; ``potential_loop``: two trajectories) and its two cost sequences;
sums are plain left folds from 0.0. ``fee_rows_loop`` is the decreasing-fee
check written apart from the package's rule: one scalar check per row.
``guarded_walk`` is the expiry guard's retired per-row walk over forcing
slots, one Python iteration per cut. ``marginal_loop`` is the randomized
rule's per-slot plan-1 probability with the rule's thresholds written out.
"""

import math
from bisect import bisect_left, bisect_right

import numpy as np

from planswitch import InfeasibleScheduleError, ValidationError
from planswitch.tariff import FEE_MODES, MAX_CONTRACT_LEN, require_finite


def sp_loop(states, g0, g1, beta):
    """Service cost plus ``beta`` per 0 -> 1 transition, with s_0 = 0."""
    total = 0.0
    prev = 0
    for s, a, b in zip(states, g0, g1):
        total += b if s else a
        if s > prev:
            total += beta
        prev = s
    return total


def csp_loop(x, g0, g1, beta):
    """A fractional schedule's cost: each slot's interpolated cost, plus
    ``beta`` per unit of upward movement, with x_0 = 0."""
    total = 0.0
    prev = 0.0
    for v, a, b in zip(x, g0, g1):
        total += (b - a) * v + a
        if v > prev:
            total += beta * (v - prev)
        prev = v
    return total


def p2_loop(states, g0, g1, beta):
    """beta/2 per unit of movement over t = 1..T+1, with s_0 = s_{T+1} = 0."""
    half = beta / 2.0
    total = 0.0
    prev = 0
    for s, a, b in zip(states, g0, g1):
        total += (b if s else a) + half * abs(s - prev)
        prev = s
    total += half * abs(0 - prev)
    return total


def fixed_runs_loop(states):
    """Per slot: how long the run of state 0 through it has lasted (0 in state 1), and whether it ends the run."""
    lasted, ends, d = [], [], 0
    for t, s in enumerate(states):
        d = d + 1 if s == 0 else 0
        lasted.append(d)
        ends.append(s == 0 and (t + 1 == len(states) or states[t + 1] != 0))
    return lasted, ends


def zero_runs_loop(states):
    """Maximal runs of state 0 as 1-based inclusive (start, end) pairs."""
    runs = []
    start = None
    for t, s in enumerate(states, start=1):
        if s == 0:
            if start is None:
                start = t
        elif start is not None:
            runs.append((start, t - 1))
            start = None
    if start is not None:
        runs.append((start, len(states)))
    return runs


def dsp_loop(states, g0, g1, alpha, contract_len, fee_mode="literal"):
    """Service cost plus ``alpha * (L - d)`` per fixed run of d <= L slots;
    ``transition-only`` skips a run still open at the horizon."""
    total = 0.0
    for s, a, b in zip(states, g0, g1):
        total += b if s else a
    for start, end in zero_runs_loop(states):
        length = end - start + 1
        if length > contract_len:
            raise InfeasibleScheduleError(
                f"fixed-plan run [{start}, {end}] lasts {length} > contract_len {contract_len}")
        if fee_mode == "literal" or end < len(states):
            total += alpha * (contract_len - length)
    return total


def gap_prefix_sums(g0, g1):
    """Index k holds the gap summed over slots 0..k-1; slots 0 and T+1 add 0."""
    period = len(g0)
    phi = [0.0] * (period + 3)
    acc = 0.0
    for t in range(1, period + 1):
        acc += g0[t - 1] - g1[t - 1]
        phi[t + 1] = acc
    phi[period + 2] = acc
    return phi


def _sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


def phi_sp_loop(states, g0, g1, beta):
    """Both sides of the constant-fee segment identity."""
    phi = gap_prefix_sums(g0, g1)
    rhs = _sum(g1) - beta
    # Zero runs of the schedule padded with s_0 = s_{T+1} = 0; padded slot k is slot k - 1.
    for start, end in zero_runs_loop([0, *states, 0]):
        rhs += phi[end] - phi[start - 1] + beta
    return sp_loop(states, g0, g1, beta), rhs


def phi_dsp_loop(states, g0, g1, alpha, contract_len):
    """Both sides of the decreasing-fee (literal) segment identity."""
    beta = alpha * contract_len
    phi = gap_prefix_sums(g0, g1)
    rhs = _sum(g1)
    for start, end in zero_runs_loop(states):
        big_end = phi[end + 1] - alpha * (end + 1)
        big_start = phi[start] - alpha * start
        rhs += big_end - big_start + beta
    return dsp_loop(states, g0, g1, alpha, contract_len, "literal"), rhs


def potential_loop(x, z, g0, g1, beta):
    """Per-slot slack of the factor-2 inequality for trajectories x and z:
    twice z's step cost minus x's minus the change of the potential
    beta*(x^2/2 + 2z - 2zx), step costs measured above each slot's cheaper
    plan, with x_0 = z_0 = 0."""

    def pot(x, z):
        return beta * (0.5 * x * x + 2.0 * z - 2.0 * z * x)

    slacks = []
    x_prev = 0.0
    z_prev = 0.0
    for xt, zt, a, b in zip(x, z, g0, g1):
        floor = min(a, b)
        fx = (b - a) * xt + a - floor
        fz = (b - a) * zt + a - floor
        step_x = fx + beta * max(xt - x_prev, 0.0)
        step_z = fz + beta * max(zt - z_prev, 0.0)
        slacks.append(2.0 * step_z - step_x - (pot(xt, zt) - pot(x_prev, z_prev)))
        x_prev, z_prev = xt, zt
    return slacks


def fee_terms_loop(alpha, contract_len, fee_mode="literal", positive=False):
    """One row's decreasing-fee terms, checked term by term in Python."""
    alpha = require_finite("alpha", alpha, positive)
    if isinstance(contract_len, (bool, np.bool_)) or not (contract_len >= 1 and contract_len % 1 == 0):  # nan, inf too
        raise ValidationError(f"contract_len must be an integer >= 1, got {contract_len!r}")
    if contract_len > MAX_CONTRACT_LEN:
        raise ValidationError(f"contract_len must be <= {MAX_CONTRACT_LEN} (2**53), got {contract_len!r}")
    if not math.isfinite(alpha * contract_len):
        raise ValidationError(f"alpha * contract_len must be finite, got {alpha!r} * {contract_len!r}")
    if fee_mode not in FEE_MODES:
        raise ValidationError(f"fee_mode must be one of {FEE_MODES}, got {fee_mode!r}")
    return alpha, int(contract_len), fee_mode


def fee_rows_loop(alpha, contract_len, fee_mode, rows, positive=False):
    """Each of ``rows`` rows' terms (each term one value or one per row) by
    :func:`fee_terms_loop`, row by row: the rows' alpha, integer contract_len and
    whether their fee mode is literal."""
    values = (alpha, contract_len, fee_mode)
    if not any(isinstance(v, (list, tuple, np.ndarray)) for v in values):
        alpha, cap, fee_mode = fee_terms_loop(*values, positive=positive)
        return np.full(rows, alpha), np.full(rows, cap), np.full(rows, fee_mode == "literal")
    for v in values:
        if np.ndim(v) and np.shape(v) != (rows,):
            raise ValidationError(f"fee terms must be one value or one per row ({rows}), got shape {np.shape(v)}")
    columns = (np.broadcast_to(np.asarray(v, dtype=object), (rows,)) for v in values)
    terms = [fee_terms_loop(*row, positive=positive) for row in zip(*columns)]
    alpha, cap, modes = (np.array([term[i] for term in terms]) for i in range(3))
    return alpha.astype(np.float64), cap.astype(np.int64), modes == "literal"


def guarded_walk(hit, force, contract_len, out):
    """One replicate of the expiry guard, walked over its forcing slots:
    ``hit`` marks the slots that force a plan and ``force`` that plan (True
    for 1). A fixed run lasts until the next slot forcing 1 or is cut after
    ``contract_len`` slots; plan 1 holds until the next slot forcing 0. Writes
    the states into ``out`` (all zero) and returns the forced-switch count."""
    pos = np.flatnonzero(hit)
    ups, downs = pos[force[pos]].tolist(), pos[~force[pos]].tolist()
    forced = start = iu = idn = 0
    while True:
        iu = bisect_left(ups, start, iu)
        expiry = start + contract_len
        if iu < len(ups) and ups[iu] <= expiry:
            on = ups[iu]
        elif expiry < len(out):
            on = expiry
            forced += 1
        else:
            return forced
        idn = bisect_right(downs, on, idn)
        start = downs[idn] if idn < len(downs) else len(out)
        out[on:start] = 1


def marginal_loop(values, beta):
    """Pr[plan = 1] per slot of a gap trace (``values``, T + 1 entries from
    -beta) under the randomized rule: 1 at the top, 0 at the floor; a rising
    slot moves a fixed-plan customer up with probability 1 - d/prev, a falling
    one keeps a variable-plan customer with probability (beta + d)/(beta + prev)."""
    neg = -beta
    p = 0.0
    out = []
    for prev_d, d in zip(values[:-1], values[1:]):
        if d == 0.0:
            p = 1.0
        elif d == neg:
            p = 0.0
        elif prev_d <= d:
            p = p + (1.0 - d / prev_d) * (1.0 - p)
        else:
            p = p * (beta + d) / (beta + prev_d)
        out.append(p)
    return tuple(out)
