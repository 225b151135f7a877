"""Tariff domain model and plan-schedule objectives.

State convention throughout the package: 0 is the fixed-rate plan, 1 is the
variable-rate plan, and the customer starts on the fixed-rate plan (s_0 = 0).
A fixed-rate plan bills against a base load band [0.9*B, 1.1*B]: usage above
the band is charged at the variable rate, usage below it earns an underusage
correction at rate H (subtracted, as the tariff equation is written).

The records hold read-only numpy arrays, checked by the stack forms' rules, so
they pass to those forms as they are: ``sched.states[None]``, ``cs.g0``.

Three objectives are evaluated here, each once, as a left fold over a stack
of schedules; ``sp_cost``, ``p2_cost`` and ``dsp_cost`` are their one-row calls.

* ``sp_costs``  -- service cost plus a constant fee ``beta`` per
  cancellation (each 0 -> 1 transition).
* ``p2_costs``  -- the symmetric half-fee form over an extended horizon with
  a forced return to state 0; equal to ``sp_costs`` for every schedule.
* ``dsp_costs`` -- service cost plus a linearly decreasing fee: cancelling a
  fixed contract after ``d`` of ``L`` months costs ``alpha * (L - d)``, and a
  contract may not run longer than ``L`` months.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "ValidationError",
    "TraceParseError",
    "InfeasibleScheduleError",
    "Trace",
    "CostSeries",
    "Schedule",
    "cost_series",
    "sp_cost",
    "sp_costs",
    "p2_cost",
    "p2_costs",
    "zero_runs",
    "dsp_cost",
    "dsp_costs",
    "parse_trace",
    "FEE_MODES",
    "require_finite",
    "require_finite_rows",
    "require_int",
    "cost_stack",
    "fee_terms",
    "fee_term_rows",
]

FEE_MODES = ("literal", "transition-only")


class ValidationError(ValueError):
    """Input violates a domain invariant (non-finite, negative, mismatched)."""


class TraceParseError(ValueError):
    """A trace CSV is malformed; the message names the offending row."""


class InfeasibleScheduleError(ValueError):
    """A schedule keeps a fixed-rate contract longer than its length allows."""


def require_finite(name: str, value: float, positive: bool = False) -> float:
    """``value`` as a float that is finite and >= 0, or > 0 when ``positive``."""
    refused = isinstance(value, (bool, np.bool_))  # float() takes a bool as 0.0 or 1.0
    value = bool(value) if refused else float(value)
    if refused or not math.isfinite(value) or value < 0.0 or (positive and value == 0.0):
        raise ValidationError(f"{name} must be finite and {'>' if positive else '>='} 0, got {value!r}")
    return value


def require_int(name: str, value: int, low: float = -math.inf, high: float = math.inf) -> int:
    """The one check of a count, seed or horizon: an integer from low to high, as an int."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):  # a bool is an Integral
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValidationError(f"{name} must be >= {low}, got {value!r}")
    if value > high:
        raise ValidationError(f"{name} must be <= {high}, got {value!r}")
    return int(value)


def require_finite_rows(name: str, value: np.typing.ArrayLike, rows: int,
                        positive: bool = False) -> np.ndarray:
    """``value`` (one value, or one per row) as ``rows`` floats that
    :func:`require_finite` accepts; the first it refuses names the error."""
    values = np.asarray(value, dtype=np.float64, order="C")  # C order: the compiled loops read it
    if values.ndim and values.shape != (rows,):
        raise ValidationError(f"{name} must be one value or one per row ({rows}), got shape {values.shape}")
    items = value if isinstance(value, np.ndarray) else np.asarray(value, dtype=object)  # a list's own numbers
    refused = _invalid(values, positive)
    if items.dtype.kind in "bO":  # the float64 array took a bool, alone or in a list, as 1.0 or 0.0
        refused |= np.reshape([isinstance(v, (bool, np.bool_)) for v in items.flat], values.shape).astype(bool)
    bad = _first(refused)
    if bad >= 0:
        require_finite(name, items.flat[bad], positive)
    return values if values.ndim else np.full(rows, values)


# The longest contract accepted. Up to 2**53 every integer is an exact float, so a
# run's fee alpha * (L - d) is priced on the exact L - d, and the exhaustive
# search's L * runs (at most 11 runs) stays within the int64 the stacks use.
MAX_CONTRACT_LEN = 2**53


def fee_term_rows(alpha: np.typing.ArrayLike, contract_len: np.typing.ArrayLike, fee_mode: str | list[str],
                  rows: int, positive: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one decreasing-fee rule, over ``rows`` rows, each term one value or one per row: ``alpha`` as
    :func:`require_finite` takes it, an integer ``contract_len`` from 1 to ``MAX_CONTRACT_LEN`` with a finite
    ``alpha * contract_len``, and a mode from ``FEE_MODES``. Returns each row's alpha, contract_len (int64) and
    whether its mode is literal. One value of each term is checked once; otherwise each row's Python objects
    are, in row order, so the error names the first faulty row and in it the first faulty term."""
    terms = (alpha, contract_len, fee_mode)
    with np.errstate(all="ignore"):  # a numpy scalar term overflows to inf, which the check refuses
        if not any(isinstance(term, (list, tuple, np.ndarray)) for term in terms):
            alpha, cap, literal = _fee_row(*terms, positive)
            return np.full(rows, alpha), np.full(rows, cap, dtype=np.int64), np.full(rows, literal)
        columns = [np.asarray(term, dtype=object) for term in terms]  # a list keeps 2**53 + 1 exact
        for column in columns:
            if column.ndim and column.shape != (rows,):
                raise ValidationError(f"fee terms must be one value or one per row ({rows}), got shape {column.shape}")
        checked = [_fee_row(*row, positive) for row in zip(*(np.broadcast_to(c, (rows,)) for c in columns))]
    table = np.array(checked, dtype=object).reshape(rows, 3)
    return table[:, 0].astype(np.float64), table[:, 1].astype(np.int64), table[:, 2].astype(bool)


def _fee_row(alpha, contract_len, fee_mode, positive: bool) -> tuple[float, int, bool]:
    """One row of :func:`fee_term_rows`: its alpha, contract_len and whether its mode is literal."""
    alpha = require_finite("alpha", alpha, positive)
    if isinstance(contract_len, (bool, np.bool_)) or not (contract_len >= 1 and contract_len % 1 == 0):  # nan, inf too
        raise ValidationError(f"contract_len must be an integer >= 1, got {contract_len!r}")
    if contract_len > MAX_CONTRACT_LEN:
        raise ValidationError(f"contract_len must be <= {MAX_CONTRACT_LEN} (2**53), got {contract_len!r}")
    if not math.isfinite(alpha * contract_len):
        raise ValidationError(f"alpha * contract_len must be finite, got {alpha!r} * {contract_len!r}")
    if fee_mode not in FEE_MODES:
        raise ValidationError(f"fee_mode must be one of {FEE_MODES}, got {fee_mode!r}")
    return alpha, int(contract_len), fee_mode == FEE_MODES[0]


def fee_terms(alpha: float, contract_len: int, fee_mode: str = "literal",
              positive: bool = False) -> tuple[float, int, str]:
    """Validated decreasing-fee terms of one contract: the one-row :func:`fee_term_rows`."""
    alpha, cap, _ = fee_term_rows(alpha, contract_len, fee_mode, 1, positive)
    return float(alpha[0]), int(cap[0]), fee_mode


# The four columns of a trace, one month per row.
SLOT_FIELDS = ("demand_kwh", "fixed_rate", "variable_rate", "base_load_kwh")
_SLOT_DTYPE = np.dtype([(name, np.float64) for name in SLOT_FIELDS])


def _first(bad: np.ndarray) -> int:
    """Flat (row-major) index of the first true entry of ``bad``, or -1."""
    first = int(bad.argmax()) if bad.size else -1  # argmax stops at the first true entry; any() is slower
    return first if first >= 0 and bad.item(first) else -1


def _invalid(values: np.ndarray, positive: bool = False) -> np.ndarray:
    """Where ``values`` are not finite and >= 0 (> 0 when ``positive``)."""
    return ~(np.isfinite(values) & ((values > 0.0) if positive else (values >= 0.0)))


@dataclass(frozen=True, eq=False)
class Trace:
    """Ordered monthly slots; must be nonempty.

    ``slots`` is one read-only record array with the fields of
    ``SLOT_FIELDS``: ``slots[i].demand_kwh`` reads one month, and
    ``slots.fixed_rate`` one column. It is built from a (T, 4) array-like of
    demand, fixed rate, variable rate and base load, each finite and >= 0.
    """

    slots: np.recarray

    def __init__(self, rows: np.typing.ArrayLike):
        values = np.array(rows, dtype=np.float64)
        if values.size == 0:
            raise ValidationError("trace must contain at least one slot")
        if values.ndim != 2 or values.shape[1] != len(SLOT_FIELDS):
            raise ValidationError(f"trace must be a (T, {len(SLOT_FIELDS)}) array of "
                                  f"{', '.join(SLOT_FIELDS)}, got shape {values.shape}")
        bad = _first(_invalid(values))
        if bad >= 0:
            require_finite(SLOT_FIELDS[bad % len(SLOT_FIELDS)], values.flat[bad])
        values.flags.writeable = False
        object.__setattr__(self, "slots", values.view(_SLOT_DTYPE)[:, 0].view(np.recarray))

    def __len__(self) -> int:
        return len(self.slots)


def _record_array(name: str, values: Iterable, dtype=None) -> np.ndarray:
    """A record's own copy of ``values`` (an array-like or any iterable), as a nonempty 1-D array."""
    values = np.array(values if isinstance(values, (np.ndarray, list, tuple)) else list(values), dtype=dtype)
    if values.ndim != 1 or not values.size:
        raise ValidationError(f"{name} must be nonempty and one-dimensional, got shape {values.shape}")
    return values


def _first_nonfinite(g0: np.ndarray, g1: np.ndarray) -> int:
    """The one finiteness rule of costs: the flat index of the first non-finite cost pair, or -1."""
    return _first(~(np.isfinite(g0) & np.isfinite(g1)))


def _first_nonbinary(states: np.ndarray) -> int:
    """The one rule of states: the flat index of the first entry that is not 0 or 1, or -1.
    Integer states pass if their greatest entry read as unsigned (a negative one is large) is at
    most 1: one reduction, and no temporary the size of the matrix."""
    if states.dtype.kind == "b" or states.size == 0 or (
            states.dtype.kind in "iu" and states.view(f"u{states.itemsize}").max() <= 1):
        return -1
    return _first(~((states == 0) | (states == 1)))


@dataclass(frozen=True, eq=False)
class CostSeries:
    """Per-slot cost pair (g0, g1): the cost of each plan for that month.

    This is the only view of the input the schedule algorithms ever see:
    read-only float64 arrays of one length, which compare by identity.
    Entries must be finite but may be negative (the underusage correction can
    push g0 below zero, and adversarial instances are unconstrained).
    """

    g0: np.ndarray
    g1: np.ndarray

    def __init__(self, g0: Iterable[float], g1: Iterable[float]):
        g0, g1 = (_record_array("cost series", g, np.float64) for g in (g0, g1))
        if len(g0) != len(g1):
            raise ValidationError(f"g0/g1 length mismatch: {len(g0)} vs {len(g1)}")
        bad = _first_nonfinite(g0, g1)
        if bad >= 0:
            raise ValidationError(f"non-finite cost pair at slot {bad + 1}")
        g0.flags.writeable = g1.flags.writeable = False
        object.__setattr__(self, "g0", g0)
        object.__setattr__(self, "g1", g1)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "CostSeries":
        return cls(*np.array(list(pairs), dtype=np.float64).reshape(-1, 2).T)

    def __len__(self) -> int:
        return len(self.g0)


@dataclass(frozen=True, eq=False)
class Schedule:
    """Binary plan choice per slot, with the implicit boundary s_0 = 0: a
    read-only int8 array, from any iterable of 0s and 1s (ints, bools or floats)."""

    states: np.ndarray

    def __init__(self, states: Iterable[int]):
        states = _record_array("schedule", states)
        bad = _first_nonbinary(states)
        if bad >= 0:
            raise ValidationError(f"schedule entry at slot {bad + 1} must be 0 or 1, got {states.tolist()[bad]!r}")
        states = states.astype(np.int8, copy=False)
        states.flags.writeable = False
        object.__setattr__(self, "states", states)

    def __len__(self) -> int:
        return len(self.states)


def cost_series(trace: Trace, underusage_rate: np.typing.ArrayLike) -> CostSeries:
    """Both plans' monthly costs for every slot of a trace.

    Plan 1 (variable) pays demand times the variable rate. Plan 0 (fixed)
    pays demand times the fixed rate, plus the variable-fixed spread on usage
    above 1.1*B, minus the underusage correction at rate H on the shortfall
    below 0.9*B. Each plan's cost is piecewise linear in demand with
    breakpoints at 0.9*B and 1.1*B; plan 0's may be negative under heavy
    underusage.

    Args:
        trace: the months' demand, rates, and base load.
        underusage_rate: correction rate H in $/kWh, finite and >= 0: one
            value for every month, or one per month.
    """
    h = require_finite_rows("underusage_rate", underusage_rate, len(trace))
    s = trace.slots
    e, p0, p1, b = s.demand_kwh, s.fixed_rate, s.variable_rate, s.base_load_kwh
    with np.errstate(all="ignore"):  # CostSeries refuses an overflow and names its slot
        over = e - 1.1 * b
        under = 0.9 * b - e
        # max(x, 0.0) as Python takes it, which keeps a -0.0 (np.maximum does not)
        over = np.where(over < 0.0, 0.0, over)
        under = np.where(under < 0.0, 0.0, under)
        g0 = e * p0 + (p1 - p0) * over - h * under
        g1 = e * p1
    return CostSeries(g0, g1)


def cost_stack(g0: np.typing.ArrayLike, g1: np.typing.ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    """A stack of cost series, one per row: ``g0`` and ``g1`` as finite float
    arrays of one nonempty (rows x T) shape, in C order, as the compiled loops read them."""
    g0 = np.asarray(g0, dtype=np.float64, order="C")
    g1 = np.asarray(g1, dtype=np.float64, order="C")
    if g0.ndim != 2 or 0 in g0.shape or g1.shape != g0.shape:
        raise ValidationError(f"cost stack shapes {g0.shape} and {g1.shape} must both be "
                              f"a nonempty (rows x T) {g0.shape}")
    bad = _first_nonfinite(g0, g1)
    if bad >= 0:
        row, t = divmod(bad, g0.shape[1])
        raise ValidationError(f"non-finite cost pair at row {row}, slot {t + 1}")
    return g0, g1


# Cells per block of rows of a computation's widest per-row array, read by _row_blocks alone: bounds
# the temporaries of the kernel and the folds at any row count.
BLOCK_CELLS = 1 << 16


def _stack(states: np.typing.ArrayLike, g0: np.typing.ArrayLike,
           g1: np.typing.ArrayLike) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one input check of the stack objectives: ``states`` as a (rows x T)
    int8 matrix of 0s and 1s, and ``g0``/``g1`` as finite floats of its shape.

    The costs are one series of T slots for every row (1-D) or one per row
    (rows x T); a shared series is returned as one row, which broadcasts
    against the matrix.
    """
    states = np.asarray(states)
    g0 = np.asarray(g0, dtype=np.float64)
    g1 = np.asarray(g1, dtype=np.float64)
    shared = g0.ndim == 1
    g0, g1 = cost_stack(g0[None] if shared else g0, g1[None] if shared else g1)
    if states.shape != (states.shape[0] if shared and states.ndim == 2 else len(g0), g0.shape[1]):
        raise ValidationError(f"state matrix shape {states.shape} does not match "
                              + (f"series length {g0.shape[1]}" if shared else f"cost stack shape {g0.shape}"))
    if _first_nonbinary(states) >= 0:
        raise ValidationError("state matrix entries must be 0 or 1")
    return states.astype(np.int8, copy=False), g0, g1


def _fixed_runs(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rule of run lengths that the decreasing fee reads (the expiry guard counts them in its compiled walk):
    per slot of a (rows x T) 0/1 matrix (bool or integers), how long the fixed-plan (state 0) run through it has
    lasted, 0 on plan 1, and whether the slot ends its run. A run's last slot thus holds its length."""
    t = np.arange(1, states.shape[1] + 1, dtype=np.int32)
    ends = states == 0
    ends[:, :-1] &= states[:, 1:] != 0
    return t - np.maximum.accumulate(states * t, axis=1), ends


def _row_blocks(rows: int, cells_per_row: int) -> list[slice]:
    """The one block rule: ``rows`` rows (of a stack, or a fold's slots) cut into slices of as many rows as fit in
    ``BLOCK_CELLS`` cells (one at least), a row taking ``cells_per_row``, the cells of the caller's widest per-row
    array (a row of no cells counting as one). A caller may hold a whole matrix as it works through the blocks, so
    a larger block would raise its peak memory; no result depends on the blocks."""
    block = max(1, BLOCK_CELLS // max(1, cells_per_row))
    return [slice(i0, min(i0 + block, rows)) for i0 in range(0, rows, block)]


def _service(states: np.ndarray, g0: np.ndarray, g1: np.ndarray, sel: slice, cols: slice) -> np.ndarray:
    """g_t(s_t) of the rows ``sel`` at slots ``cols`` of a 0/1 matrix, on costs of its shape or one row for all."""
    g = sel if len(g0) == len(states) else slice(None)
    return np.where(states[sel, cols].view(bool), g1[g, cols], g0[g, cols])


def _fold_rows(fill, rows: int, slots: int, width: int = 2) -> np.ndarray:
    """The one fold loop: each of ``rows`` rows' strict left fold of 0.0 and then ``width`` values per slot, for
    ``slots`` slots. A block of n rows (the blocks of :func:`_row_blocks` at ``width`` cells a row) walks its slots
    in order in the tiles of ``_row_blocks(slots, width * n)``: ``fill(tile, sel, cols)`` writes the values of rows
    ``sel`` at slots ``cols`` into ``tile`` transposed, ``width`` tile rows a slot and a column a row. A tile
    carries the block's totals in its row 0 and is folded by ``np.add.reduce(axis=0)``, a strict left fold of each
    column when there are two or more; on one column that reduce sums pairwise, so a one-row block takes the last
    ``cumsum``. A fold from 0.0 is never -0.0, so a value of 0.0 (no fee, say) or -0.0 leaves its total as it is."""
    totals = np.zeros(rows)
    for sel in _row_blocks(rows, width):
        total = totals[sel]
        for cols in _row_blocks(slots, width * len(total)):
            tile = np.empty((width * (cols.stop - cols.start) + 1, len(total)))
            tile[0] = total
            fill(tile[1:], sel, cols)
            total = np.add.reduce(tile, axis=0) if len(total) > 1 else np.cumsum(tile, axis=0, out=tile)[-1]
        totals[sel] = total
    return totals


def _fold_matrix(slots: np.ndarray) -> np.ndarray:
    """Each row's strict left fold of 0.0 and then its ``slots``, a (rows x n) matrix: :func:`_fold_rows` on it."""
    return _fold_rows(lambda tile, sel, cols: np.copyto(tile, slots[sel, cols].T), *slots.shape, 1)


def sp_cost(sched: Schedule, cs: CostSeries, beta: float) -> float:
    """Constant-fee cost of one schedule: the one-row :func:`sp_costs`."""
    return float(sp_costs(sched.states[None], cs.g0, cs.g1, beta)[0])


def sp_costs(states: np.typing.ArrayLike, g0: np.typing.ArrayLike, g1: np.typing.ArrayLike,
             beta: np.typing.ArrayLike) -> np.ndarray:
    """Total cost under a constant cancellation fee of each row of a (rows x T)
    0/1 state matrix, priced on one cost series (``g0``, ``g1``) or on row i's
    series (``g0[i]``, ``g1[i]``), with fee ``beta`` (one value or one per row).

    Sums g_t(s_t) plus ``beta`` for every 0 -> 1 transition, with s_0 = 0.
    The horizon simply ends at T; closing back to state 0 is free. Each total
    is a strict left fold of 0.0, then g_t(s_t) and the fee of slot t's up
    move, or 0.0 for none, for t = 1..T. The rows and slots are taken in the
    tiles of :func:`_fold_rows`, each tile's first up move read from the
    slot before it, so no float matrix of every row is built.
    """
    states, g0, g1 = _stack(states, g0, g1)
    return _sp_fold(states, g0, g1, require_finite_rows("beta", beta, len(states)))


def _sp_fold(states: np.ndarray, g0: np.ndarray, g1: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """:func:`sp_costs` on a checked int8 0/1 matrix, costs of its shape or one row, and one fee per row."""
    def fill(tile, sel, cols):
        s = states[sel, cols]
        tile[0::2] = _service(states, g0, g1, sel, cols).T
        np.multiply(s[:, 0] > (states[sel, cols.start - 1] if cols.start else 0), beta[sel], out=tile[1])  # s_0 = 0
        np.multiply(s[:, 1:] > s[:, :-1], beta[sel, None], out=tile[3::2].T)

    return _fold_rows(fill, *states.shape)


def p2_cost(sched: Schedule, cs: CostSeries, beta: float) -> float:
    """Half-fee form of one schedule's constant-fee cost: the one-row :func:`p2_costs`."""
    return float(p2_costs(sched.states[None], cs.g0, cs.g1, beta)[0])


def p2_costs(states: np.typing.ArrayLike, g0: np.typing.ArrayLike, g1: np.typing.ArrayLike,
             beta: np.typing.ArrayLike) -> np.ndarray:
    """Half-fee symmetric form of each row's constant-fee cost, rows priced as
    :func:`sp_costs` prices them.

    Charges beta/2 per unit of state movement over t = 1..T+1 under the
    boundary s_0 = s_{T+1} = 0 (slot T+1 serves for free). Equals
    :func:`sp_costs` for every schedule because each up move is eventually
    matched by a down move. Each total is a strict left fold of 0.0, then
    g_t(s_t) + beta/2 * |s_t - s_{t-1}| for t = 1..T, then beta/2 * s_T.
    """
    states, g0, g1 = _stack(states, g0, g1)
    half = require_finite_rows("beta", beta, len(states))[:, None] / 2.0
    padded = np.zeros((len(states), states.shape[1] + 2), dtype=np.int8)  # s_0 = s_{T+1} = 0
    padded[:, 1:-1] = states
    slots = half * (padded[:, 1:] != padded[:, :-1])  # beta/2 * |s_t - s_{t-1}|, t = 1..T+1
    slots[:, :-1] += np.where(states, g1, g0)  # slot T+1 serves for free
    return _fold_matrix(slots)


def zero_runs(sched: Schedule) -> list[tuple[int, int]]:
    """Maximal runs of state 0 as 1-based inclusive (start, end) pairs."""
    lasted, ends = _fixed_runs(sched.states[None])
    end = np.flatnonzero(ends[0])
    return list(zip((end + 2 - lasted[0, end]).tolist(), (end + 1).tolist()))


def dsp_cost(sched: Schedule, cs: CostSeries, alpha: float, contract_len: int, fee_mode: str = "literal") -> float:
    """Decreasing-fee cost of one schedule: the one-row :func:`dsp_costs`."""
    return float(dsp_costs(sched.states[None], cs.g0, cs.g1, alpha, contract_len, fee_mode)[0])


def dsp_costs(states: np.typing.ArrayLike, g0: np.typing.ArrayLike, g1: np.typing.ArrayLike,
              alpha: np.typing.ArrayLike, contract_len: np.typing.ArrayLike,
              fee_mode: str | list[str] = "literal") -> np.ndarray:
    """Total cost under a linearly decreasing cancellation fee of each row,
    priced as :func:`sp_costs` prices it, with ``alpha``, ``contract_len`` and
    ``fee_mode`` each one value or one per row.

    Each maximal fixed-plan run of length ``d`` within [1, T] must satisfy
    d <= contract_len and incurs a fee ``alpha * (contract_len - d)``. In
    ``literal`` mode every run is charged, including one that ends at the
    horizon; in ``transition-only`` mode only runs actually followed by a
    switch to the variable plan are charged. The boundary slots outside
    [1, T] never count toward run durations.

    Each total is a strict left fold of 0.0, g_t(s_t) for t = 1..T, then each
    run's fee in run order: at its last slot's place in T more columns, 0.0
    elsewhere. Each block of rows (:func:`_row_blocks`, 2T cells a row) is
    scanned once and folded by :func:`_fold_rows`; no run is carried.

    Raises:
        InfeasibleScheduleError: some row has a run longer than its ``contract_len``.
    """
    states, g0, g1 = _stack(states, g0, g1)
    return _dsp_fold(states, g0, g1, *fee_term_rows(alpha, contract_len, fee_mode, len(states)))


def _dsp_fold(states: np.ndarray, g0: np.ndarray, g1: np.ndarray, alpha: np.ndarray, cap: np.ndarray,
              literal: np.ndarray) -> np.ndarray:
    """:func:`dsp_costs` on checked input: a (rows x T) int8 0/1 matrix, costs of its shape or one row of T, and
    each row's fee terms as arrays of ``rows`` entries. A run longer than its row's ``cap`` still raises. Each
    block of rows is scanned once, then :func:`_fold_rows` folds it in the tiles of its 2T slots, taking it as one
    block (it has at most ``BLOCK_CELLS`` rows), so ``fill`` needs no row slice. No run is carried."""
    period = states.shape[1]
    totals = np.empty(len(states))
    for sel in _row_blocks(len(states), 2 * period):
        lasted, ends = _fixed_runs(states[sel])
        row, end = divmod(_first(ends & (lasted > cap[sel, None])), period)  # the first overrun, row-major
        if row >= 0:
            raise InfeasibleScheduleError(f"row {sel.start + row}: fixed-plan run [{end + 2 - lasted[row, end]}, "
                                          f"{end + 1}] lasts {lasted[row, end]} > contract_len {cap[sel.start + row]}")
        ends[:, -1] &= literal[sel]  # transition-only: no fee for a run open at T

        def fill(tile, _, cols):  # the block's slots 0..T-1 serve, and T..2T-1 charge each run's fee at its last slot
            cut = min(max(period - cols.start, 0), len(tile))  # the tile rows that serve
            tile[:cut] = _service(states, g0, g1, sel, slice(cols.start, cols.start + cut)).T
            runs = slice(cols.start + cut - period, cols.stop - period)
            np.multiply(alpha[sel], (cap[sel, None] - lasted[:, runs]).T, out=tile[cut:])
            tile[cut:] *= ends[:, runs].T  # 0.0 or -0.0 elsewhere: finite, as alpha * cap is

        totals[sel] = _fold_rows(fill, len(ends), 2 * period, 1)
    return totals


# One parsed CSV row: the slot index and the four values of SLOT_FIELDS.
_CSV_ROW_DTYPE = np.dtype([("t", np.int64), ("values", np.float64, (len(SLOT_FIELDS),))])


def _check_header(reader: Iterator[list[str]]) -> None:
    try:
        header = next(reader)
    except StopIteration:
        raise TraceParseError("empty trace: missing header") from None
    except csv.Error as exc:
        raise TraceParseError(f"bad header: {exc}") from None
    if [h.strip() for h in header] != ["t", "e", "p0", "p1", "B"]:
        raise TraceParseError(f"bad header {header!r}, expected ['t', 'e', 'p0', 'p1', 'B']")


def parse_trace(data: bytes | str) -> Trace:
    """Parse a trace CSV with header ``t,e,p0,p1,B``.

    Rows carry a consecutive integer slot index starting at 1 (a gap is an
    error) and four nonnegative finite values (demand, fixed rate, variable
    rate, base load). UTF-8, LF, CRLF or CR line ends; blank lines are
    skipped anywhere but still count in the row numbers of error messages.

    A valid trace is read by one ``numpy.loadtxt`` call. Input that call
    refuses, or whose slot indices or values are invalid, goes through the
    row loop :func:`_parse_rows`, which names the first bad row, or returns
    the trace for rows numpy does not read but Python does (``1_000``,
    quoted fields, lone CR line ends).
    """
    trace = _loadtxt_trace(data)
    return trace if trace is not None else _parse_rows(data)


def _loadtxt_trace(data: bytes | str) -> Trace | None:
    """The trace read by one numpy call, or None if the row loop must read it."""
    try:
        raw = data.encode("utf-8") if isinstance(data, str) else data
        if b"\r" in raw and raw.count(b"\r") != raw.count(b"\r\n"):
            return None  # numpy ends no line at a lone CR
        _check_header(csv.reader(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns on an empty body
            # comments=None: a "#" row is an error, not a comment. Bytes, not a
            # decoded str: a StringIO would hold the text four times over.
            body = np.loadtxt(io.BytesIO(raw), dtype=_CSV_ROW_DTYPE, delimiter=",", skiprows=1,
                              comments=None, encoding="utf-8", ndmin=1)
        if len(body) and np.array_equal(body["t"], np.arange(1, len(body) + 1)):
            return Trace(body["values"])
    except (ValueError, Warning):
        pass
    return None


def _parse_rows(data: bytes | str) -> Trace:
    """The row loop: :func:`parse_trace`'s reference and error explainer.

    A bad value on an earlier row is reported before a structural error on a
    later one.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceParseError(f"trace is not valid UTF-8: {exc}") from None
    else:
        text = data
    reader = csv.reader(io.StringIO(text, newline=""))
    _check_header(reader)
    values: list[float] = []  # four per data row, in row order
    row_nos: list[int] = []  # the CSV row of each data row

    def checked_trace() -> Trace:
        rows = np.array(values).reshape(-1, len(SLOT_FIELDS))
        try:
            return Trace(rows)
        except ValidationError as exc:
            raise TraceParseError(f"row {row_nos[_first(_invalid(rows)) // len(SLOT_FIELDS)]}: {exc}") from None

    prev_t = row_no = 0
    try:
        for row_no, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # a blank line, still counted in row_no
            if len(row) != 5:
                raise TraceParseError(f"row {row_no}: expected 5 columns, got {len(row)}")
            try:
                t = int(row[0])
            except ValueError:
                raise TraceParseError(f"row {row_no}: slot index {row[0]!r} is not an integer") from None
            if row_no == 1 and t != 1:
                raise TraceParseError(f"row {row_no}: slot index must start at 1, got {t}")
            if t != prev_t + 1:
                raise TraceParseError(f"row {row_no}: slot index {t} does not follow {prev_t} consecutively")
            prev_t = t
            try:
                values += [float(v) for v in row[1:]]
            except ValueError:
                raise TraceParseError(f"row {row_no}: non-numeric value in {row[1:]!r}") from None
            row_nos.append(row_no)
    except (TraceParseError, csv.Error) as exc:
        if row_nos:
            checked_trace()  # a bad value on an earlier row is the first error
        if isinstance(exc, csv.Error):  # raised reading the row after row_no
            raise TraceParseError(f"row {row_no + 1}: {exc}") from None
        raise
    if not row_nos:
        raise TraceParseError("trace contains no data rows")
    return checked_trace()
