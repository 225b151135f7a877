"""Adversarial instance generators and competitive-ratio measurement.

The adaptive adversary plays the standard two-state game: each slot it
charges a unit of cost against whichever plan the online player currently
occupies, so any player pays every slot while an offline schedule can dodge
most charges. Driving the unit small relative to the fee pushes the
deterministic algorithm's realized ratio toward its worst case of 3.

The fixed lower-bound instance for the randomized/continuous pair front-loads
a single small charge against the fixed plan and then penalizes the variable
plan forever, making any hedging overpay by a factor approaching 2.

A matrix of replicate schedules is priced in one call, by the left folds
that price every schedule: ``batch_sp_costs`` under the constant fee,
:func:`planswitch.tariff.dsp_costs` under the decreasing fee. The evaluation
core :func:`_price` prices every rule that ``run`` and ``monte_carlo`` report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .chase import (
    DeltaTrace,
    OnlineState,
    SeededUniforms,
    _chase,
    _csp_fold,
    _delta_rows,
    _offline,
    clamp_step,
    delta_trace,
    gchase_step,
    ofa_s,
)
from .oracles import _dp, dp_dsp
from .tariff import (
    CostSeries,
    Schedule,
    ValidationError,
    _dsp_fold,
    _sp_fold,
    dsp_cost,
    require_finite,
    require_int,
    sp_cost,
    sp_costs,
)

__all__ = [
    "RatioReport",
    "competitive_ratio",
    "random_cost_series",
    "random_costs",
    "random_schedule",
    "randomized_lb_instance",
    "gchase_player",
    "deterministic_adversary",
    "measure_ratio",
    "measure_ratio_dsp",
    "monte_carlo",
    "simulate_randomized_batch",
    "batch_sp_costs",
]


@dataclass(frozen=True)
class RatioReport:
    """Cost of an algorithm against the offline optimum on one instance.

    ``ratio`` is ``alg_cost / opt_cost``, or None (undefined) when the
    optimum is zero. Randomized measurements carry the replication mean,
    its standard error, and the replication count; ``alg_cost`` then holds
    the mean.
    """

    alg_cost: float
    opt_cost: float
    ratio: Optional[float]
    mean: Optional[float] = None
    stderr: Optional[float] = None
    n_runs: Optional[int] = None


def competitive_ratio(cost: float, opt_cost: float) -> Optional[float]:
    """``cost / opt_cost``, or None (undefined) when the optimum is not positive."""
    return cost / opt_cost if opt_cost > 0.0 else None


def _mean_stderr(costs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's mean of (rows x n) replicate costs and its standard error ``std(ddof=1) / sqrt(n)``, a row whose
    sum or square overflows on its costs scaled by a power of two: exact, so no bits move where both are finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std, scale = costs.mean(axis=1), costs.std(axis=1, ddof=1), np.ones(len(costs))
        big = ~(np.isfinite(mean) & np.isfinite(std))
        if big.any():
            scale[big] = np.ldexp(1.0, np.frexp(np.abs(costs[big]).max(axis=1))[1] - 1)
            scaled = costs[big] / scale[big, None]
            mean[big], std[big] = scaled.mean(axis=1), scaled.std(axis=1, ddof=1)
    return mean * scale, std / math.sqrt(costs.shape[1]) * scale


def _finite(name: str, numbers: dict) -> dict:
    """``numbers`` (a rule's report, by key), refused by name if one is not None and overflows a float."""
    for key, value in numbers.items():
        if value is not None and not math.isfinite(value):
            raise ValidationError(f"{key} of {name} overflows a float: {value!r}")
    return numbers


def _make_report(alg_cost, opt_cost, **extra) -> RatioReport:
    return RatioReport(alg_cost, opt_cost, competitive_ratio(alg_cost, opt_cost), **extra)


def random_cost_series(
    rng: np.random.Generator, period: int, low: float = 0.0, high: float = 10.0
) -> CostSeries:
    """Uniform random cost pairs, the workhorse of the property suites."""
    return CostSeries(*random_costs(rng, period, low, high))


def random_costs(rng: np.random.Generator, shape: int | tuple[int, ...], low: float = 0.0,
                 high: float = 10.0) -> np.ndarray:
    """The draw of :func:`random_cost_series` as one array: g0, then g1, each of
    ``shape`` (a period, or a stack's rows x period)."""
    return rng.uniform(low, high, size=(2, *np.atleast_1d(shape)))


def random_schedule(rng: np.random.Generator, period: int) -> Schedule:
    return Schedule(rng.integers(0, 2, size=period))


def randomized_lb_instance(beta: float, small_delta: float, horizon: int) -> CostSeries:
    """Tight instance for the factor-2 bound of the continuous algorithm.

    Slot 1 charges ``small_delta * beta`` against the fixed plan; every later
    slot charges the same amount against the variable plan. Staying put costs
    the offline player ``small_delta * beta``, while the continuous algorithm
    pays ``(2 - small_delta)`` times that.
    """
    beta = require_finite("beta", beta, positive=True)
    if not 0.0 < small_delta < 1.0:
        raise ValidationError(f"small_delta must lie in (0, 1), got {small_delta!r}")
    horizon = require_int("horizon", horizon, 2)
    g0 = np.zeros(horizon)
    g0[0] = small_delta * beta
    return CostSeries(g0, g0[0] - g0)


def gchase_player(beta: float) -> Callable[[float, float], int]:
    """Stateful step callable running the deterministic online rule.

    Feed one cost pair per slot; returns the plan chosen for that slot. The
    callable maintains the clamped gap internally, so callers (in particular
    the adaptive adversary) see nothing but emitted states.
    """
    state = OnlineState.initial(beta)

    def step(g0: float, g1: float) -> int:
        nonlocal state
        value = clamp_step(state.prev_delta, g0 - g1, state.beta)
        state, s = gchase_step(state, value)
        return s

    return step


def deterministic_adversary(
    make_player: Callable[[], Callable[[float, float], int]],
    beta: float,
    horizon: int,
    unit: float,
) -> tuple[CostSeries, RatioReport]:
    """Adaptive lower-bound game against an online player.

    Each slot charges ``unit`` against the plan the player occupied entering
    the slot, then lets the player react. The adversary is strictly causal:
    it sees only the states the player has already emitted. Returns the
    realized cost series and the player's ratio against the offline optimum,
    the backward pass.
    """
    horizon = require_int("horizon", horizon, 1)
    beta = require_finite("beta", beta, positive=True)
    unit = require_finite("unit", unit, positive=True)
    player = make_player()
    states = [0]  # s_0 = 0, then the plan the player picks in each slot
    for _ in range(horizon):
        states.append(player(unit, 0.0) if states[-1] == 0 else player(0.0, unit))
    sched = Schedule(states[1:])  # refuses a plan that is not 0 or 1, naming its slot
    fixed = np.concatenate(([True], sched.states[:-1] == 0))  # the plan entering each slot is fixed
    cs = CostSeries(np.where(fixed, unit, 0.0), np.where(fixed, 0.0, unit))
    return cs, measure_ratio(lambda dt: sched, cs, beta)


def measure_ratio(
    alg: Callable[[DeltaTrace], Schedule],
    cs: CostSeries,
    beta: float,
) -> RatioReport:
    """Run a constant-fee algorithm on an instance and compare with the optimum."""
    dt = delta_trace(cs, beta)
    alg_cost = sp_cost(alg(dt), cs, beta)
    opt_cost = sp_cost(ofa_s(dt), cs, beta)
    return _make_report(alg_cost, opt_cost)


def measure_ratio_dsp(
    alg: Callable[[CostSeries], Schedule | tuple[Schedule, int]],
    cs: CostSeries,
    alpha: float,
    contract_len: int,
    fee_mode: str = "literal",
) -> RatioReport:
    """Decreasing-fee counterpart of :func:`measure_ratio`; optimum via the DP."""
    out = alg(cs)
    sched = out[0] if isinstance(out, tuple) else out
    alg_cost = dsp_cost(sched, cs, alpha, contract_len, fee_mode)
    opt_cost = dp_dsp(cs, alpha, contract_len, fee_mode).best_cost
    return _make_report(alg_cost, opt_cost)


def simulate_randomized_batch(dt: DeltaTrace, n_runs: int, seed: int) -> np.ndarray:
    """States of ``n_runs`` independent randomized-rule runs, one row per run.

    Replication i draws its slot-indexed uniforms from a generator seeded
    ``seed + i``, exactly as the scalar fold does, so the rows are
    bit-identical to running :func:`planswitch.chase.gchase_r` once per seed.
    """
    return _chase(dt.values, -dt.beta, SeededUniforms(seed, n_runs, len(dt)))[0]


def batch_sp_costs(states: np.ndarray, cs: CostSeries, beta: float) -> np.ndarray:
    """Constant-fee cost of each row of a (runs x T) 0/1 state matrix on one
    series: :func:`planswitch.tariff.sp_costs`, so row i's cost is
    :func:`planswitch.tariff.sp_cost` of row i, bit for bit."""
    return sp_costs(states, cs.g0, cs.g1, beta)


def monte_carlo(cs: CostSeries, beta: float, n_runs: int, seed: int) -> RatioReport:
    """Replicate the randomized rule :func:`planswitch.chase.gchase_r` through :func:`_price` and report its mean
    cost, stderr and ratio to the offline optimum. Replication i draws from a generator seeded ``seed + i``, so
    results are deterministic in (seed, n_runs) and independent of evaluation order. A number that overflows a
    float is refused by name, as ``run`` refuses it."""
    n_runs = require_int("n_runs", n_runs, 2)
    fee = np.array([require_finite("beta", beta, positive=True)])  # the CostSeries record checked the costs
    with np.errstate(over="ignore", invalid="ignore"):
        priced = _price(cs.g0[None], cs.g1[None], fee, ("gchase_r",), SeededUniforms(seed, n_runs, len(cs)))
    (mean,), (stderr,), (opt,) = (v.tolist() for v in (*priced["gchase_r"][:2], priced["ofa"][0]))
    _finite("gchase_r", {"cost": mean, "opt_cost": opt, "stderr": stderr, "ratio": competitive_ratio(mean, opt)})
    return _make_report(mean, opt, mean=mean, stderr=stderr, n_runs=n_runs)


def _price(g0: np.ndarray, g1: np.ndarray, fee: np.ndarray, algorithms, draws=None, guard: int | None = None,
           literal: bool = True) -> dict[str, tuple]:
    """The one evaluation core, on checked input: costs (rows x T, or one row for every fee row, as ``draws``
    need), one fee per row (beta, or alpha under the decreasing fee's contract-expiry ``guard``, in ``literal``
    mode or not) and the draws of gchase_r. Each fee row's gap trace, its optimum (the backward pass, or the DP
    under a guard), each named rule (the randomized one on every draw row) and one fold of each, fee terms
    repeated per replicate. Returns, by name (the optimum as "ofa" and "dp"), costs per fee row (replicate means
    for gchase_r), their stderr or None, states (fractions for cchase) and forced switches per kernel row or
    None. An overflow warns, unless the caller silences it to refuse the number by name."""
    beta, drift = (fee, np.zeros(len(fee))) if guard is None else (fee * guard, fee)
    values, neg = _delta_rows(g0 - g1, beta, drift), -beta[:, None]
    if guard is None:
        objective, terms, opt = _sp_fold, (fee,), _offline(values, neg)
    else:
        objective, terms = _dsp_fold, (fee, np.full(len(fee), guard), np.full(len(fee), literal))
        opt = _dp(g0, g1, *terms)[0]
    fold = lambda states: objective(states, g0, g1, *(np.repeat(v, len(states) // len(fee)) for v in terms))
    priced = dict.fromkeys(("ofa", "dp"), (fold(opt), None, opt, None))
    for name in algorithms:
        if name in ("gchase", "gchase_r"):
            states, forced = _chase(values, neg, draws if name == "gchase_r" else None, guard)
            costs = fold(states)
            stats = (costs, None) if name == "gchase" else _mean_stderr(costs.reshape(len(fee), -1))
            priced[name] = (*stats, states, forced)
        elif name == "cchase":
            x = (beta[:, None] + values[:, 1:]) / beta[:, None]
            priced[name] = (_csp_fold(x, g0, g1, beta), None, x, None)
    return priced
