"""Threshold algorithms driven by the clamped cumulative cost gap.

Every algorithm here reads a single statistic: the running sum of per-slot
cost gaps g_t(0) - g_t(1), clamped to [-beta, 0] and started at -beta. A
value pinned at 0 says the fixed plan has overpaid by a full fee's worth, so
the variable plan is the safe choice; pinned at -beta says the opposite.

Four algorithms share the trace:

* ``ofa_s``     -- offline optimum, one backward pass from the boundary.
  ``offline_states`` runs the pass over a stack of traces as the
  deterministic online rule on the time-reversed traces; ``ofa_s`` is its
  one-row call.
* ``gchase_s``  -- deterministic online, forward pass; 3-competitive.
* ``gchase_r``  -- randomized online, switches early with a probability
  proportional to how fast the gap moves; 2-competitive in expectation.
* ``cchase``    -- continuous relaxation, holds fraction (beta + gap)/beta in
  the variable plan; its cost equals the randomized algorithm's expectation.

The decreasing-fee variants subtract a per-slot drift ``alpha`` from the gap
and force a switch when a fixed contract reaches its maximum length.

A ``DeltaTrace`` holds its values as a tuple, a ``FractionalSchedule`` its
fractions as a read-only float64 array. Every forward rule runs in one
kernel over (replicates x slots), :func:`chase_kernel`, filled by a compiled
walk (:mod:`planswitch.loops`, which also scans the traces). The
deterministic rule is the randomized one without draws, and also takes a
stack of traces. A gap trace is checked once, where it enters, by one rule:
by the record, or by ``chase_kernel`` and ``offline_states``; code holding a
checked trace runs their unchecked cores.
Each online rule keeps a scalar step form as the readable reference: folding
the steps reproduces the kernel bit-exactly, as the randomized step consumes
one uniform draw per slot whether or not the slot's decision is random.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import loops
from .tariff import (
    CostSeries,
    Schedule,
    ValidationError,
    _first,
    _fold,
    _record_array,
    _row_blocks,
    cost_stack,
    fee_terms,
    require_finite,
    require_finite_rows,
    require_int,
)

__all__ = [
    "InternalInvariantError",
    "DeltaTrace",
    "OnlineState",
    "FractionalSchedule",
    "clamp_step",
    "delta_trace",
    "delta_traces",
    "offline_states",
    "ofa_s",
    "gchase_s",
    "gchase_step",
    "gchase_r",
    "gchase_r_step",
    "cchase",
    "csp_cost",
    "marginal_probabilities",
    "SeededUniforms",
    "chase_kernel",
    "drift_trace",
    "gchase_dsp",
    "gchase_r_dsp",
]

logger = logging.getLogger(__name__)


class InternalInvariantError(RuntimeError):
    """A state the decision rules make unreachable was observed."""


@dataclass(frozen=True)
class DeltaTrace:
    """Clamped cumulative cost-gap sequence, indexed 0..T with value[0] = -beta.

    Clamping uses min/max, so boundary hits are exactly 0.0 or exactly -beta;
    the algorithms test those boundaries with plain equality, never epsilons.
    ``drift`` is the per-slot amount subtracted before clamping (0 for the
    constant-fee problem, alpha for the decreasing-fee variant).
    """

    values: tuple[float, ...]
    beta: float
    drift: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "drift", require_finite("drift", self.drift))  # first: a NaN drift scans to NaN
        object.__setattr__(self, "values", tuple(map(float, self.values)))
        object.__setattr__(self, "beta", -_as_stack(self.values, self.beta)[1])  # the gap-trace rule checks beta

    def __len__(self) -> int:
        """Number of slots T (the stored sequence has T + 1 entries)."""
        return len(self.values) - 1


@dataclass(frozen=True)
class OnlineState:
    """Loop state of the forward algorithms: last slot, last gap value, last plan."""

    t: int
    prev_delta: float
    prev_state: int
    beta: float

    def __post_init__(self):
        if not -self.beta <= self.prev_delta <= 0.0:
            raise ValidationError(
                f"prev_delta {self.prev_delta} outside [-beta, 0] for beta={self.beta}"
            )
        if self.prev_state not in (0, 1):
            raise ValidationError(f"prev_state must be 0 or 1, got {self.prev_state!r}")

    @classmethod
    def initial(cls, beta: float) -> "OnlineState":
        beta = require_finite("beta", beta, positive=True)
        return cls(t=0, prev_delta=-beta, prev_state=0, beta=beta)


@dataclass(frozen=True, eq=False)
class FractionalSchedule:
    """Relaxed plan occupancy x_t in [0, 1], with the boundary x_0 = 0: a
    read-only float64 array, from any iterable of numbers."""

    x: np.ndarray

    def __init__(self, x: Iterable[float]):
        x = _record_array("fractional schedule", x, np.float64)
        t = _first(~((x >= 0.0) & (x <= 1.0)))  # NaN too
        if t >= 0:
            raise ValidationError(f"x[{t + 1}] = {x.tolist()[t]!r} outside [0, 1]")
        x.flags.writeable = False
        object.__setattr__(self, "x", x)

    def __len__(self) -> int:
        return len(self.x)


def clamp_step(prev: float, gap: float, beta: float, drift: float = 0.0) -> float:
    """Advance the clamped accumulator by one slot's gap (minus drift)."""
    v = prev + gap - drift
    if v >= 0.0:
        return 0.0
    neg = -beta
    if v <= neg:
        return neg
    return v


def delta_trace(cs: CostSeries, beta: float, drift: float = 0.0) -> DeltaTrace:
    """Build the full clamped gap sequence for a cost series.

    Requires beta > 0 (the band [-beta, 0] would otherwise collapse and the
    boundary rules become meaningless): drift and beta are checked before the scan, so a bool is refused.
    """
    drift, beta = require_finite("drift", drift), require_finite("beta", beta, positive=True)
    values = _delta_rows((cs.g0 - cs.g1)[None], np.array([beta]), np.array([drift]))[0]
    return DeltaTrace(values=tuple(values.tolist()), beta=beta, drift=drift)


def delta_traces(g0, g1, beta, drift=0.0) -> np.ndarray:
    """Gap traces of a stack of cost series, as a read-only (rows x (T + 1)) float array: row i is
    ``delta_trace(CostSeries(g0[i], g1[i]), beta[i], drift[i]).values`` float for float. ``g0`` and ``g1`` are
    (rows x T) finite costs, ``beta`` (> 0) and ``drift`` one value or one per row; they are checked once, as
    whole arrays, then scanned by :func:`_delta_rows`, and the clamp keeps every row a valid trace."""
    g0, g1 = cost_stack(g0, g1)
    return _delta_rows(g0 - g1, require_finite_rows("beta", beta, len(g0), positive=True),
                       require_finite_rows("drift", drift, len(g0)))


def _delta_rows(gaps: np.ndarray, beta: np.ndarray, drift: np.ndarray) -> np.ndarray:
    # delta_traces on checked input: gaps g0 - g1 (a stack, or one row for every row) and beta and drift per row,
    # scanned by the compiled loop
    values = np.empty((len(beta), gaps.shape[1] + 1))
    loops.call("scan", gaps, gaps.shape[1] if len(gaps) > 1 else 0, beta, drift, len(beta), gaps.shape[1], values)
    values.flags.writeable = False
    return values


def _as_stack(values, beta) -> tuple[np.ndarray, float | np.ndarray]:
    """The one rule of gap traces: (rows x (T + 1)) floats, T >= 1, entry 0 -beta and every entry in
    [-beta, 0] (NaN is not), the first row breaking it named. Returns them and -beta (a float or column)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[None]
    if values.ndim != 2 or values.shape[1] < 2:
        raise ValidationError(f"gap traces must be (rows x (T + 1)) with T >= 1, got shape {values.shape}")
    neg = -(require_finite("beta", beta, positive=True) if np.ndim(beta) == 0
            else require_finite_rows("beta", beta, len(values), positive=True)[:, None])
    row_neg = np.full((len(values), 1), neg)[:, 0]
    start = values[:, 0] != row_neg
    row = _first(start | ~((values.min(axis=1) >= row_neg) & (values.max(axis=1) <= 0.0)))  # NaN fails both
    if row >= 0:
        raise ValidationError(f"gap trace row {row}: " + (
            f"value[0] must equal -beta={float(row_neg[row])}, got {float(values[row, 0])}" if start[row]
            else "delta trace values must lie in [-beta, 0]"))
    return values, neg


def offline_states(values, beta) -> np.ndarray:
    """Offline optimal states of each gap trace in a stack, as (rows x T) int8: one backward pass
    from the boundary s_{T+1} = 0, each slot taking the plan of the first boundary hit at or after
    it. That is the deterministic rule of :func:`chase_kernel` on the time-reversed traces, column 0
    kept at -beta. ``values`` is one trace or a stack as :func:`delta_traces` builds it; ``beta`` is
    one value or one per row."""
    return _offline(*_as_stack(values, beta))


def _offline(values: np.ndarray, neg: float | np.ndarray) -> np.ndarray:
    # offline_states on checked traces (one, or a stack) and -beta, a float or a column
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))  # the dtype: a tuple converts faster
    backward = np.concatenate((values[:, :1], values[:, :0:-1]), axis=1)  # -beta, then slots T..1
    return _chase(backward, neg)[0][:, ::-1]


def ofa_s(dt: DeltaTrace) -> Schedule:
    """Offline optimal schedule for the constant-fee objective: the one-row
    :func:`offline_states`. O(T) time and space."""
    return Schedule(_offline(dt.values, -dt.beta)[0])


def gchase_s(dt: DeltaTrace) -> Schedule:
    """Deterministic online schedule: forward pass mirroring the offline rule.

    Switches only on boundary hits, otherwise keeps the previous plan
    (s_0 = 0). Worst-case cost is 3x the offline optimum.
    """
    return Schedule(_chase(dt.values, -dt.beta)[0][0])


def gchase_step(state: OnlineState, delta_t: float) -> tuple[OnlineState, int]:
    """One slot of the deterministic online rule, given the slot's gap value."""
    neg = -state.beta
    if delta_t == neg:
        s = 0
    elif delta_t == 0.0:
        s = 1
    else:
        s = state.prev_state
    return OnlineState(t=state.t + 1, prev_delta=delta_t, prev_state=s, beta=state.beta), s


def gchase_r_step(
    state: OnlineState, delta_t: float, rng: np.random.Generator
) -> tuple[OnlineState, int]:
    """One slot of the randomized online rule.

    Boundary hits force the plan. At interior values: while the gap rises, a
    fixed-plan customer switches with probability 1 - delta_t/prev; while it
    falls, a variable-plan customer drops with probability
    1 - (beta + delta_t)/(beta + prev). Always consumes exactly one uniform
    draw, used only when the decision is random.

    Raises:
        InternalInvariantError: the state pairs (prev at 0, plan 0) or
            (prev at -beta, plan 1) are unreachable under these rules.
    """
    beta = state.beta
    neg = -beta
    prev_d = state.prev_delta
    prev_s = state.prev_state
    if prev_d == 0.0 and prev_s == 0:
        raise InternalInvariantError("previous gap 0 with previous plan 0")
    if prev_d == neg and prev_s == 1:
        raise InternalInvariantError("previous gap -beta with previous plan 1")
    u = rng.random()
    if delta_t == 0.0:
        s = 1
    elif delta_t == neg:
        s = 0
    elif prev_d <= delta_t:
        if prev_s == 1:
            s = 1
        else:
            # prev_d <= delta_t < 0 here, so the ratio is well defined
            s = 1 if u < 1.0 - delta_t / prev_d else 0
    else:
        if prev_s == 0:
            s = 0
        else:
            # prev_d > delta_t >= -beta here, so beta + prev_d > 0
            s = 0 if u < 1.0 - (beta + delta_t) / (beta + prev_d) else 1
    return OnlineState(t=state.t + 1, prev_delta=delta_t, prev_state=s, beta=beta), s


def gchase_r(dt: DeltaTrace, rng: np.random.Generator) -> Schedule:
    """Randomized online schedule: :func:`gchase_r_step` folded over the trace,
    one uniform per slot from ``rng``, computed by :func:`chase_kernel`."""
    return Schedule(_chase(dt.values, -dt.beta, rng.random((1, len(dt))))[0][0])


def cchase(dt: DeltaTrace) -> FractionalSchedule:
    """Continuous online schedule: x_t = (beta + value_t)/beta, in [0, 1] by the clamp."""
    return FractionalSchedule((dt.beta + np.array(dt.values[1:])) / dt.beta)


def csp_cost(xs: FractionalSchedule, cs: CostSeries, beta: float) -> float:
    """Cost of a fractional schedule: the one-row :func:`_csp_fold`."""
    if len(xs) != len(cs):
        raise ValidationError(f"schedule length {len(xs)} != series length {len(cs)}")
    return float(_csp_fold(xs.x[None], cs.g0[None], cs.g1[None], np.array([require_finite("beta", beta)]))[0])


def _csp_fold(x: np.ndarray, g0: np.ndarray, g1: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Cost of each row of a (rows x T) stack of fractional schedules (x_0 = 0), on costs of its shape or one row,
    one fee per row: the plans' costs interpolated plus ``beta`` per unit moved up. A strict left fold of 0.0, then
    per slot (g1 - g0) * x_t + g0 and, on an up move, ``beta * (x_t - x_{t-1})``, else 0.0: one call of the compiled
    ``csp`` for the stack."""
    return _fold("csp", x, g0, g1, beta)


def marginal_probabilities(dt: DeltaTrace) -> tuple[float, ...]:
    """Pr[plan = 1] per slot under the randomized rule: the two-state chain over :func:`_slot_rule`. Slot t
    forces its plan s_t with probability q_t = min(threshold_t, 1), which is 1 at a boundary, so
    p_t = p_{t-1} + q_t * (s_t - p_{t-1}) from p_0 = 0.

    Equals the continuous schedule of :func:`cchase` entrywise (up to float
    rounding): the randomized algorithm's expectation is the continuous one.
    """
    thr, plan = _slot_rule(np.array([dt.values]), -dt.beta, True)
    p, out = 0.0, []
    for q, s in zip(np.minimum(thr[0], 1.0).tolist(), plan[0, 1:].tolist()):
        p = p + q * (s - p)
        out.append(p)
    return tuple(out)


def drift_trace(cs: CostSeries, alpha: float, contract_len: int) -> DeltaTrace:
    """Gap trace of the decreasing-fee rules: beta = alpha * contract_len, drift alpha."""
    alpha, contract_len, _ = fee_terms(alpha, contract_len, positive=True)
    return delta_trace(cs, beta=alpha * contract_len, drift=alpha)


class SeededUniforms:
    """Replicate draws made on demand, sliced like a 2-D array: row i is ``default_rng(seed + i).random(period)``,
    whatever the replicate count. Every row, when one request draws them all, is kept to serve later requests;
    rows drawn block by block are not, so the draws held are at most one kernel block's."""

    def __init__(self, seed: int, n_runs: int, period: int):
        self.seed, self.n_runs = require_int("seed", seed, 0), require_int("n_runs", n_runs, 0)
        self.period = require_int("period", period, 1)
        self.shape = (self.n_runs, self.period)
        self._every_row = None  # every row, once one request has drawn them all

    def __len__(self) -> int:
        return self.n_runs

    def __getitem__(self, rows: slice) -> np.ndarray:
        if self._every_row is not None:
            return self._every_row[rows]
        runs = range(self.n_runs)[rows]
        out = np.empty((len(runs), self.period))
        for j, i in enumerate(runs):
            np.random.default_rng(self.seed + i).random(out=out[j])
        self._every_row = out if runs == range(self.n_runs) else None
        return out


def _slot_rule(values: np.ndarray, neg: float | np.ndarray, randomized: bool) -> tuple[np.ndarray, np.ndarray]:
    # The one boundary rule: a top slot forces plan 1, a floor slot 0. On traces (rows x (T + 1)) and -beta (a float
    # or column), returns per slot the boundary mask, or if ``randomized`` the threshold below which its uniform
    # forces (inside: gchase_r_step's IEEE operations, in place), and per column the forced plan, column 0 s_0 = 0.
    top, floor = values == 0.0, values[:, 1:] == neg  # column 0 is -beta
    boundary = top[:, 1:] | floor
    if not randomized:
        return boundary, top
    prev, d = values[:, :-1], values[:, 1:]
    rising = prev <= d  # a top slot is rising: no value is above 0
    thr = d - neg
    with np.errstate(divide="ignore", invalid="ignore"):
        thr /= prev - neg
        np.divide(d, prev, out=thr, where=rising)
    np.subtract(1.0, thr, out=thr)
    thr[boundary] = np.inf
    top[:, 1:] = rising & ~floor
    return thr, top


def chase_kernel(values, beta, draws=None, contract_len: int | None = None):
    """Every forward chase rule, over (replicates x slots).

    ``values`` is a gap trace (T + 1 entries from -beta). Given its uniform
    u, a slot forces a plan or keeps the previous one: a boundary slot forces
    its own, a rising slot forces 1 when u < 1 - d/prev, a falling slot
    forces 0 when u < 1 - (beta + d)/(beta + prev). A replicate is a forward
    fill of its last forcing slot from s_0 = 0. ``draws`` has one row of T
    uniforms per replicate (a 2-D array or :class:`SeededUniforms`), or is
    None for the deterministic rule: the same rule with no draws, so only
    boundary slots force, and ``values`` may be a stack of traces, one per
    row, with ``beta`` one value or one per row; run on the time-reversed
    traces, this rule is the offline backward pass (:func:`offline_states`).
    The drift rule alone can park the gap at -beta for good, so with
    ``contract_len`` a fixed run of a row reaching that length is cut by a
    forced switch to plan 1, which holds until the next slot forcing 0.
    Returns int8 states and the forced-switch count per row. Checks its
    input (the traces by the gap-trace rule, array draws as finite,
    ``contract_len`` as :func:`planswitch.tariff.fee_terms` takes it), then
    runs :func:`_chase`, the core that code holding checked input calls.
    """
    if contract_len is not None:
        contract_len = fee_terms(0.0, contract_len)[1]
    values, neg = _as_stack(values, beta)
    if draws is not None:
        if len(values) != 1 or np.ndim(beta):
            raise ValidationError("the randomized rule runs on one gap trace with one fee")
        draws = draws if isinstance(draws, SeededUniforms) else np.asarray(draws, dtype=np.float64)
        if len(draws.shape) != 2 or draws.shape[1] != values.shape[1] - 1:
            raise ValidationError(f"draws must be (replicates x {values.shape[1] - 1}), got shape {draws.shape}")
        bad = -1 if isinstance(draws, SeededUniforms) else _first(~np.isfinite(draws))
        if bad >= 0:  # no threshold acts on a NaN or +inf draw, so a boundary slot would not force its plan
            row, t = divmod(bad, draws.shape[1])
            raise ValidationError(f"draws must be finite, got {draws.item(bad)!r} in replicate {row}, slot {t + 1}")
    return _chase(values, neg, draws, contract_len)


def _chase(values: np.ndarray, neg: float | np.ndarray, draws=None, contract_len: int | None = None):
    """:func:`chase_kernel` on checked input: traces (one, or a stack) and -beta (a float or a column), draws or
    None, and an int ``contract_len`` or None. Every trace runs every draw row, trace-major. One loop runs every
    rule: over blocks of traces (whole traces while all their draw rows fit), each trace's thresholds and forced
    plans made once, then over blocks of draw rows, each compared with its own trace's thresholds and then filled
    (and guarded) by one call of the compiled walk."""
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))  # the dtype: a tuple converts faster
    period, runs = values.shape[1] - 1, 1 if draws is None else len(draws)  # runs: rows per trace
    states, forced = np.empty((len(values) * runs, period), np.int8), np.empty(len(values) * runs, np.int64)
    for traces in _row_blocks(len(values), runs * period):
        force, plan_of = _slot_rule(values[traces], neg[traces] if np.ndim(neg) else neg, draws is not None)
        for sel in _row_blocks(runs, len(plan_of) * period):
            hit = force if draws is None else (draws[sel] < force[:, None]).reshape(-1, period)
            rows = slice(traces.start * runs + sel.start, (traces.stop - 1) * runs + sel.stop)
            loops.call("walk", hit, plan_of, len(hit), len(hit) // len(plan_of), period,
                       period if contract_len is None else contract_len, states[rows], forced[rows])
    return states, forced


def _warn_forced(forced: np.ndarray, contract_len: int | None, label: str) -> None:
    """Log the forced switches of one run's rows (its replicates, or its one deterministic row), if any."""
    if forced.any():
        logger.warning("%s: forced %d switch(es) over %d replicate(s) to keep contract runs within %d slots",
                       label, int(forced.sum()), len(forced), contract_len)


def gchase_dsp(cs: CostSeries, alpha: float, contract_len: int) -> tuple[Schedule, int]:
    """Deterministic online heuristic for the decreasing-fee objective.

    Runs the forward boundary rule on the drift-adjusted gap trace
    (beta = alpha * contract_len, drift = alpha) under the contract-expiry
    guard. Returns the feasible schedule and the number of forced switches.
    """
    dt = drift_trace(cs, alpha, contract_len)
    states, forced = _chase(dt.values, -dt.beta, None, int(contract_len))
    _warn_forced(forced, contract_len, "gchase_dsp")
    return Schedule(states[0]), int(forced[0])


def gchase_r_dsp(cs: CostSeries, alpha: float, contract_len: int,
                 rng: np.random.Generator) -> tuple[Schedule, int]:
    """Randomized counterpart of :func:`gchase_dsp`, same guard and trace.

    Consumes one uniform draw per slot, forced slots included.
    """
    dt = drift_trace(cs, alpha, contract_len)  # checks contract_len, so int() takes it as it is
    states, forced = _chase(dt.values, -dt.beta, rng.random((1, len(cs))), int(contract_len))
    _warn_forced(forced, contract_len, "gchase_r_dsp")
    return Schedule(states[0]), int(forced[0])
