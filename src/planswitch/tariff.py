"""Tariff domain model and plan-schedule objectives.

State convention throughout the package: 0 is the fixed-rate plan, 1 is the
variable-rate plan, and the customer starts on the fixed-rate plan (s_0 = 0).
A fixed-rate plan bills against a base load band [0.9*B, 1.1*B]: usage above
the band is charged at the variable rate, usage below it earns an underusage
correction at rate H (subtracted, as the tariff equation is written).

Three objectives are evaluated here:

* ``sp_cost``  -- service cost plus a constant fee ``beta`` per cancellation
  (each 0 -> 1 transition).
* ``p2_cost``  -- the symmetric half-fee form over an extended horizon with a
  forced return to state 0; equal to ``sp_cost`` for every schedule.
* ``dsp_cost`` -- service cost plus a linearly decreasing fee: cancelling a
  fixed contract after ``d`` of ``L`` months costs ``alpha * (L - d)``, and a
  contract may not run longer than ``L`` months.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "ValidationError",
    "TraceParseError",
    "InfeasibleScheduleError",
    "SlotInput",
    "Trace",
    "CostSeries",
    "Schedule",
    "slot_cost",
    "cost_series",
    "sp_cost",
    "p2_cost",
    "zero_runs",
    "dsp_cost",
    "parse_trace",
    "FEE_MODES",
    "require_finite",
    "fee_terms",
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
    value = float(value)
    if not math.isfinite(value) or value < 0.0 or (positive and value == 0.0):
        raise ValidationError(f"{name} must be finite and {'>' if positive else '>='} 0, got {value!r}")
    return value


def fee_terms(alpha: float, contract_len: int, fee_mode: str = "literal",
              positive: bool = False) -> tuple[float, int, str]:
    """Validated decreasing-fee terms: ``alpha`` as :func:`require_finite` takes it, an
    integer ``contract_len`` >= 1 with a finite full fee ``alpha * contract_len``, and
    a fee mode from ``FEE_MODES``."""
    alpha = require_finite("alpha", alpha, positive)
    if not (contract_len >= 1 and contract_len % 1 == 0):  # also refuses nan and inf
        raise ValidationError(f"contract_len must be an integer >= 1, got {contract_len!r}")
    if not math.isfinite(alpha * contract_len):
        raise ValidationError(f"alpha * contract_len must be finite, got {alpha!r} * {contract_len!r}")
    if fee_mode not in FEE_MODES:
        raise ValidationError(f"fee_mode must be one of {FEE_MODES}, got {fee_mode!r}")
    return alpha, int(contract_len), fee_mode


@dataclass(frozen=True)
class SlotInput:
    """One month of exogenous data: demand, both plan rates, and base load."""

    demand_kwh: float
    fixed_rate: float
    variable_rate: float
    base_load_kwh: float

    def __post_init__(self):
        for name in ("demand_kwh", "fixed_rate", "variable_rate", "base_load_kwh"):
            object.__setattr__(self, name, require_finite(name, getattr(self, name)))


@dataclass(frozen=True)
class Trace:
    """Ordered monthly slots; must be nonempty."""

    slots: tuple[SlotInput, ...]

    def __init__(self, slots: Iterable[SlotInput]):
        slots = tuple(slots)
        if not slots:
            raise ValidationError("trace must contain at least one slot")
        for i, s in enumerate(slots):
            if not isinstance(s, SlotInput):
                raise ValidationError(f"slot {i + 1} is not a SlotInput")
        object.__setattr__(self, "slots", slots)

    def __len__(self) -> int:
        return len(self.slots)


@dataclass(frozen=True)
class CostSeries:
    """Per-slot cost pair (g0, g1): the cost of each plan for that month.

    This is the only view of the input the schedule algorithms ever see.
    Entries must be finite but may be negative (the underusage correction can
    push g0 below zero, and adversarial instances are unconstrained).
    """

    g0: tuple[float, ...]
    g1: tuple[float, ...]

    def __init__(self, g0: Iterable[float], g1: Iterable[float]):
        g0 = tuple(map(float, g0))
        g1 = tuple(map(float, g1))
        if len(g0) != len(g1):
            raise ValidationError(f"g0/g1 length mismatch: {len(g0)} vs {len(g1)}")
        if not g0:
            raise ValidationError("cost series must be nonempty")
        if not math.isfinite(sum(g0) + sum(g1)):  # a finite sum rules out inf and nan
            for t, (a, b) in enumerate(zip(g0, g1), start=1):
                if not (math.isfinite(a) and math.isfinite(b)):
                    raise ValidationError(f"non-finite cost pair at slot {t}")
        object.__setattr__(self, "g0", g0)
        object.__setattr__(self, "g1", g1)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "CostSeries":
        pairs = list(pairs)
        return cls((p[0] for p in pairs), (p[1] for p in pairs))

    @property
    def pairs(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.g0, self.g1))

    def pair(self, t: int) -> tuple[float, float]:
        """Cost pair of slot t (1-based)."""
        if not 1 <= t <= len(self.g0):
            raise IndexError(f"slot index {t} out of range [1, {len(self.g0)}]")
        return self.g0[t - 1], self.g1[t - 1]

    def __len__(self) -> int:
        return len(self.g0)


@dataclass(frozen=True)
class Schedule:
    """Binary plan choice per slot, with the implicit boundary s_0 = 0."""

    states: tuple[int, ...]

    def __init__(self, states: Iterable[int]):
        states = tuple(states)
        if not states:
            raise ValidationError("schedule must be nonempty")
        if states.count(0) + states.count(1) != len(states):  # the loop's check, in C
            for t, s in enumerate(states, start=1):
                if s not in (0, 1):
                    raise ValidationError(f"schedule entry at slot {t} must be 0 or 1, got {s!r}")
        object.__setattr__(self, "states", tuple(map(int, states)))

    def __len__(self) -> int:
        return len(self.states)


def slot_cost(slot: SlotInput, underusage_rate: float, plan: int) -> float:
    """Monthly cost of one plan for one slot.

    Plan 1 (variable) pays demand times the variable rate. Plan 0 (fixed)
    pays demand times the fixed rate, plus the variable-fixed spread on usage
    above 1.1*B, minus the underusage correction at ``underusage_rate`` on the
    shortfall below 0.9*B.

    Args:
        slot: the month's demand, rates, and base load.
        underusage_rate: correction rate H in $/kWh, >= 0.
        plan: 0 (fixed-rate) or 1 (variable-rate).

    Returns:
        The dollar cost. Piecewise linear in demand with breakpoints at
        0.9*B and 1.1*B; may be negative for plan 0 under heavy underusage.
    """
    h = require_finite("underusage_rate", underusage_rate)
    if plan == 1:
        return slot.demand_kwh * slot.variable_rate
    if plan != 0:
        raise ValidationError(f"plan must be 0 or 1, got {plan!r}")
    e, p0, p1, b = slot.demand_kwh, slot.fixed_rate, slot.variable_rate, slot.base_load_kwh
    overusage = max(e - 1.1 * b, 0.0)
    underusage = max(0.9 * b - e, 0.0)
    return e * p0 + (p1 - p0) * overusage - h * underusage


def cost_series(trace: Trace, underusage_rate: float) -> CostSeries:
    """Evaluate both plans for every slot of a trace."""
    return CostSeries(
        (slot_cost(s, underusage_rate, 0) for s in trace.slots),
        (slot_cost(s, underusage_rate, 1) for s in trace.slots),
    )


def _check_lengths(sched: Schedule, cs: CostSeries) -> int:
    if len(sched) != len(cs):
        raise ValidationError(f"schedule length {len(sched)} != series length {len(cs)}")
    return len(cs)


def sp_cost(sched: Schedule, cs: CostSeries, beta: float) -> float:
    """Total cost under a constant cancellation fee.

    Sums g_t(s_t) plus ``beta`` for every 0 -> 1 transition, with s_0 = 0.
    The horizon simply ends at T; closing back to state 0 is free.
    """
    _check_lengths(sched, cs)
    beta = require_finite("beta", beta)
    total = 0.0
    prev = 0
    for s, a, b in zip(sched.states, cs.g0, cs.g1):
        total += b if s else a
        if s > prev:
            total += beta
        prev = s
    return total


def p2_cost(sched: Schedule, cs: CostSeries, beta: float) -> float:
    """Half-fee symmetric form of the constant-fee cost.

    Charges beta/2 per unit of state movement over t = 1..T+1 under the
    boundary s_0 = s_{T+1} = 0 (slot T+1 serves for free). Equals
    :func:`sp_cost` for every schedule because each up move is eventually
    matched by a down move.
    """
    _check_lengths(sched, cs)
    beta = require_finite("beta", beta)
    half = beta / 2.0
    total = 0.0
    prev = 0
    for s, a, b in zip(sched.states, cs.g0, cs.g1):
        total += (b if s else a) + half * abs(s - prev)
        prev = s
    total += half * abs(0 - prev)
    return total


def zero_runs(sched: Schedule) -> list[tuple[int, int]]:
    """Maximal runs of state 0 as 1-based inclusive (start, end) pairs."""
    runs = []
    start = None
    for t, s in enumerate(sched.states, start=1):
        if s == 0:
            if start is None:
                start = t
        elif start is not None:
            runs.append((start, t - 1))
            start = None
    if start is not None:
        runs.append((start, len(sched)))
    return runs


def dsp_cost(
    sched: Schedule,
    cs: CostSeries,
    alpha: float,
    contract_len: int,
    fee_mode: str = "literal",
) -> float:
    """Total cost under a linearly decreasing cancellation fee.

    Each maximal fixed-plan run of length ``d`` within [1, T] must satisfy
    d <= contract_len and incurs a fee ``alpha * (contract_len - d)``. In
    ``literal`` mode every run is charged, including one that ends at the
    horizon; in ``transition-only`` mode only runs actually followed by a
    switch to the variable plan are charged. The boundary slots outside
    [1, T] never count toward run durations.

    Raises:
        InfeasibleScheduleError: some run exceeds ``contract_len``.
    """
    period = _check_lengths(sched, cs)
    alpha, contract_len, fee_mode = fee_terms(alpha, contract_len, fee_mode)
    total = 0.0
    for s, a, b in zip(sched.states, cs.g0, cs.g1):
        total += b if s else a
    for start, end in zero_runs(sched):
        length = end - start + 1
        if length > contract_len:
            raise InfeasibleScheduleError(
                f"fixed-plan run [{start}, {end}] lasts {length} > contract_len {contract_len}"
            )
        if fee_mode == "literal" or end < period:
            total += alpha * (contract_len - length)
    return total


def parse_trace(data: bytes | str) -> Trace:
    """Parse a trace CSV with header ``t,e,p0,p1,B``.

    Rows carry a consecutive integer slot index starting at 1 (a gap is an
    error) and four nonnegative finite values (demand, fixed rate, variable
    rate, base load). UTF-8, LF or CRLF.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceParseError(f"trace is not valid UTF-8: {exc}") from None
    else:
        text = data
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise TraceParseError("empty trace: missing header") from None
    if [h.strip() for h in header] != ["t", "e", "p0", "p1", "B"]:
        raise TraceParseError(f"bad header {header!r}, expected ['t', 'e', 'p0', 'p1', 'B']")
    slots = []
    prev_t = 0
    for row_no, row in enumerate(reader, start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # tolerate a trailing blank line
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
            values = [float(v) for v in row[1:]]
        except ValueError:
            raise TraceParseError(f"row {row_no}: non-numeric value in {row[1:]!r}") from None
        try:
            slots.append(SlotInput(*values))
        except ValidationError as exc:
            raise TraceParseError(f"row {row_no}: {exc}") from None
    if not slots:
        raise TraceParseError("trace contains no data rows")
    return Trace(slots)
