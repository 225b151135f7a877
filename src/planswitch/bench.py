"""Trace-driven benchmark harness.

Reproduces the evaluation protocol on synthetic or user-supplied monthly
traces: build both plans' cost series (underusage rate defaults to a tenth of
the month's fixed rate), run the selected algorithms, and report each one's
cost and savings against a stay-put benchmark customer. The benchmark
customer never switches and pays no fees: all-variable pays the variable bill
for every month, all-fixed the fixed bill.

Fee regimes: ``constant`` uses a flat cancellation fee ``beta`` and the
backward pass as the offline reference; ``linear`` uses a per-residual-month
fee ``alpha`` over ``contract_len`` months and the dynamic program as the
reference. Sweeps drive the headline fee and, in the linear regime, derive
``alpha = fee / contract_len`` so the two regimes are comparable point by
point on the same trace.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import asdict, dataclass, replace
from typing import Iterator, Optional

import numpy as np

from .adversary import (
    _finite,
    _price,
    competitive_ratio,
    deterministic_adversary,
    gchase_player,
    random_cost_series,
    random_costs,
)
from .chase import SeededUniforms, _warn_forced
from .oracles import _search, brute_force_dsps, dp_dsps, phi_identity_dsps, phi_identity_sps
from .tariff import (
    FEE_MODES,
    CostSeries,
    Trace,
    ValidationError,
    _dsp_fold,
    _fixed_runs,
    _row_blocks,
    _sp_fold,
    cost_series,
    cost_stack,
    fee_terms,
    p2_costs,
    parse_trace,
    require_finite,
    require_finite_rows,
    require_int,
)

__all__ = [
    "RunConfig",
    "ALGORITHMS",
    "BENCHMARK_PLANS",
    "FEE_REGIMES",
    "PROFILES",
    "protocol_cost_series",
    "synth_trace",
    "trace_to_csv",
    "run_report",
    "report_json",
    "sweep",
    "sweep_csv",
    "run_verify_suite",
    "VERIFY_SUITES",
]

logger = logging.getLogger(__name__)

FEE_REGIMES = ("constant", "linear")
BENCHMARK_PLANS = ("all-variable", "all-fixed")
PROFILES = ("seasonal", "flat")
# Each algorithm and the fee regimes it runs in. In the linear regime ofa
# reports the dynamic program's optimum, as dp does.
ALGORITHMS = {
    "ofa": FEE_REGIMES,
    "dp": ("linear",),
    "gchase": FEE_REGIMES,
    "gchase_r": FEE_REGIMES,
    "cchase": ("constant",),
}
# Per-month underusage rate as a share of that month's fixed rate, unless h_rate is set.
H_SCALE = 0.1

# Synthetic-trace calibration: US-style monthly household consumption and
# NY-style retail rates in $/kWh.
MEAN_DEMAND_KWH = 765.0
SEASONAL_AMPLITUDE = 0.25
DEMAND_NOISE_SIGMA = 0.18
FIXED_RATE_MEAN = 0.098
FIXED_RATE_SIGMA = 0.002
VARIABLE_RATE_MEAN = 0.115
VARIABLE_RATE_AMPLITUDE = 0.12
VARIABLE_RATE_SIGMA = 0.008
MIN_RATE = 0.01

# Most fee points a sweep evaluates: more is a mistyped step, not a study.
MAX_SWEEP_POINTS = 100_000

# Most months synth_trace builds: ten times the largest trace the acceptance
# tests time (`run` peaks at about 0.2 GB on 1M months). More is a mistyped
# flag, which would otherwise fail inside numpy's allocator.
MAX_SYNTH_SLOTS = 10_000_000

# Most replicates a run or sweep draws: ten thousand times the protocol's 100. One gchase_r run
# at the bound on the default 12 months takes about 11 s and peaks at 64 MB on a 2-core VM, nearly
# all of it seeding 1e6 generators; more is a mistyped flag, which would fail in numpy's allocator.
MAX_MC_RUNS = 1_000_000


@dataclass(frozen=True)
class RunConfig:
    """Everything one benchmark run needs; defaults mirror the protocol
    settings (12-month contract, $100 fee, $10 per residual month, 100
    randomized replications, stay-put variable-rate benchmark)."""

    trace_path: Optional[str] = None
    synth_slots: int = 12
    profile: str = "seasonal"
    h_rate: Optional[float] = None  # None: per-slot H = H_SCALE * fixed_rate
    beta: float = 100.0
    alpha: float = 10.0
    contract_len: int = 12
    fee_regime: str = "constant"
    fee_mode: str = "literal"
    algorithms: tuple[str, ...] = ("ofa", "gchase", "gchase_r")
    mc_runs: int = 100
    seed: int = 0
    benchmark: str = "all-variable"

    def __post_init__(self):
        """The input boundary of run and sweep: every field the regime uses is checked here and kept as its
        check returns it; a fee field it does not use is echoed if finite, a numpy scalar as a Python number."""
        for name in ("beta", "alpha", "contract_len"):
            if isinstance(getattr(self, name), np.generic):
                object.__setattr__(self, name, getattr(self, name).item())
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        path = os.fspath(self.trace_path) if isinstance(self.trace_path, os.PathLike) else self.trace_path
        if not (path is None or isinstance(path, str)):  # open() takes an int as a file descriptor
            raise ValidationError(f"trace_path must be a str or a path naming one, got {self.trace_path!r}")
        object.__setattr__(self, "trace_path", path)
        for name, allowed in (("fee_regime", FEE_REGIMES), ("benchmark", BENCHMARK_PLANS)):
            if getattr(self, name) not in allowed:
                raise ValidationError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        if not self.algorithms:
            raise ValidationError("select at least one algorithm")
        for i, a in enumerate(self.algorithms):
            if a not in ALGORITHMS:
                raise ValidationError(f"unknown algorithm {a!r}, expected one of {tuple(ALGORITHMS)}")
            if a in self.algorithms[:i]:
                raise ValidationError(f"algorithm {a!r} is selected more than once")
            if self.fee_regime not in ALGORITHMS[a]:
                raise ValidationError(f"{a} runs in the {' and '.join(ALGORITHMS[a])} fee regime only")
        if self.fee_regime == "constant":
            object.__setattr__(self, "beta", require_finite("beta", self.beta, positive=True))
        else:
            alpha, cap, _ = fee_terms(self.alpha, self.contract_len, self.fee_mode, positive=True)
            object.__setattr__(self, "alpha", alpha)
            object.__setattr__(self, "contract_len", cap)
        for name in ("beta", "alpha", "contract_len"):  # the used ones are finite by now; JSON has no NaN or inf
            if isinstance(getattr(self, name), float) and not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, even unused in the {self.fee_regime} fee regime, "
                                      f"got {getattr(self, name)!r}")
        if self.h_rate is not None:
            object.__setattr__(self, "h_rate", require_finite("h_rate", self.h_rate))
        # synth_trace checks the slots' range: a trace file needs none
        object.__setattr__(self, "synth_slots", require_int("synth_slots", self.synth_slots))
        object.__setattr__(self, "mc_runs", require_int("mc_runs", self.mc_runs, 2, MAX_MC_RUNS))
        object.__setattr__(self, "seed", require_int("seed", self.seed, 0))


def protocol_cost_series(trace: Trace, h_rate: Optional[float] = None) -> CostSeries:
    """Cost series under the protocol's underusage rule.

    A fixed ``h_rate`` applies everywhere when given; otherwise each month
    uses ``H_SCALE`` times its own fixed rate.
    """
    return cost_series(trace, H_SCALE * trace.slots.fixed_rate if h_rate is None else h_rate)


def synth_trace(slots: int, seed: int, profile: str = "seasonal") -> Trace:
    """Seeded synthetic monthly trace.

    ``seasonal``: demand follows a period-12 sinusoid around 765 kWh with
    multiplicative lognormal noise; the variable rate follows its own
    seasonal cycle around $0.115/kWh while the fixed rate hovers near
    $0.098/kWh; each month's base load is the same month's demand one cycle
    earlier (the seasonal baseline stands in for the unobserved first cycle).
    ``flat`` drops the seasonality from demand and prices. A slot count or
    seed that is not an integer, more than ``MAX_SYNTH_SLOTS`` months, or a
    negative seed, is refused before any array is built.
    """
    slots = require_int("slots", slots, 1, MAX_SYNTH_SLOTS)
    seed = require_int("seed", seed, 0)
    if profile not in PROFILES:
        raise ValidationError(f"unknown profile {profile!r}")
    rng = np.random.default_rng(seed)
    t = np.arange(1, slots + 1)
    if profile == "seasonal":
        demand_base = MEAN_DEMAND_KWH * (1.0 + SEASONAL_AMPLITUDE * np.sin(2.0 * np.pi * (t - 4) / 12.0))
        variable_base = VARIABLE_RATE_MEAN * (
            1.0 + VARIABLE_RATE_AMPLITUDE * np.sin(2.0 * np.pi * (t + 1) / 12.0)
        )
    else:
        demand_base = np.full(slots, MEAN_DEMAND_KWH)
        variable_base = np.full(slots, VARIABLE_RATE_MEAN)
    # E[lognormal(-s^2/2, s)] = 1, so demand stays calibrated to the mean.
    noise = rng.lognormal(mean=-0.5 * DEMAND_NOISE_SIGMA**2, sigma=DEMAND_NOISE_SIGMA, size=slots)
    demand = demand_base * noise
    p1 = np.clip(variable_base + rng.normal(0.0, VARIABLE_RATE_SIGMA, size=slots), MIN_RATE, None)
    p0 = np.clip(FIXED_RATE_MEAN + rng.normal(0.0, FIXED_RATE_SIGMA, size=slots), MIN_RATE, None)
    base = demand_base.copy()
    if slots > 12:
        base[12:] = demand[:-12]
    return Trace(np.column_stack((demand, p0, p1, base)))


def trace_to_csv(trace: Trace) -> str:
    lines = ["t,e,p0,p1,B"]
    for i, (e, p0, p1, b) in enumerate(trace.slots.tolist(), start=1):
        lines.append(f"{i},{e!r},{p0!r},{p1!r},{b!r}")
    return "\n".join(lines) + "\n"


def _load_trace(config: RunConfig) -> Trace:
    if config.trace_path is not None:
        with open(config.trace_path, "rb") as fh:
            return parse_trace(fh.read())
    return synth_trace(config.synth_slots, config.seed, config.profile)


def _benchmark_cost(config: RunConfig, cs: CostSeries) -> float:
    return float(sum((cs.g1 if config.benchmark == "all-variable" else cs.g0).tolist()))


def _setup(config: RunConfig) -> tuple[CostSeries, float, SeededUniforms]:
    """What run and sweep share: the cost series, the benchmark bill and the replicate draws. The draws
    do not depend on the fee; :class:`SeededUniforms` keeps them when one kernel block takes them all."""
    cs = protocol_cost_series(_load_trace(config), config.h_rate)
    return cs, _benchmark_cost(config, cs), SeededUniforms(config.seed, config.mc_runs, len(cs))


def _evaluate(config: RunConfig, cs: CostSeries, bench_cost: float, draws, fees: list) -> Iterator[dict[str, dict]]:
    """Each configured algorithm's report at each checked fee (beta or alpha), a dict per fee in fee order, from
    one :func:`_price` call with a row per fee (``draws`` from :func:`_setup`). Each report, its forced switches
    logged first: cost, benchmark cost, savings, schedule (None for the randomized rule), ratio to the optimum,
    and the randomized rule's stderr and replicate count. A number that overflows a float is refused by name."""
    # RunConfig checked the terms and CostSeries the costs: the core runs unchecked
    guard = None if config.fee_regime == "constant" else config.contract_len
    with np.errstate(over="ignore", invalid="ignore"):  # the report names a number that overflows
        priced = _price(cs.g0[None], cs.g1[None], np.array(fees), config.algorithms, draws, guard,
                        config.fee_mode == "literal")
    for i, opt_cost in enumerate(priced["ofa"][0].tolist()):
        reports = {}
        for name in config.algorithms:
            costs, stderrs, states, forced = priced[name]
            cost, stderr = costs[i].item(), None if stderrs is None else stderrs[i].item()
            if forced is not None:
                forced = forced.reshape(len(fees), -1)[i]  # the fee's kernel rows: its replicates, or its one row
                _warn_forced(forced, guard, "gchase_dsp" if name == "gchase" else name)
            savings = 100.0 * (bench_cost - cost) / bench_cost if bench_cost > 0.0 else None
            if savings is not None and math.isinf(savings):  # 100 x the gap overflowed: take it on costs / 128, exact
                savings = 100.0 * (bench_cost / 128.0 - cost / 128.0) / bench_cost * 128.0
            numbers = _finite(name, {"cost": cost, "benchmark_cost": bench_cost, "savings_pct": savings,
                                     "ratio_vs_offline": competitive_ratio(cost, opt_cost), "stderr": stderr})
            randomized = name == "gchase_r"
            reports[name] = {"algorithm": name, **numbers, "schedule": None if randomized else states[i].tolist(),
                             "mc_runs": len(forced) if randomized else None}
        yield reports


def config_echo(config: RunConfig) -> dict:
    """The provenance block every report carries: full config, seed included."""
    return {**asdict(config), "h_scale": H_SCALE}


def run_report(config: RunConfig) -> dict:
    """Run the configured algorithms on one trace and assemble the report."""
    cs, bench_cost, draws = _setup(config)
    fee = config.alpha if config.fee_regime == "linear" else config.beta
    return {
        "config": config_echo(config),
        "slots": len(cs),
        "benchmark_cost": bench_cost,
        "reports": next(_evaluate(config, cs, bench_cost, draws, [fee])),
    }


def report_json(report: dict) -> str:
    """Stable-key-order JSON, byte-identical for identical configs and seeds.

    The bytes are those of ``json.dumps(report, sort_keys=True, indent=2)``,
    written by a small recursive writer: the stdlib's indented dump runs its
    pure-Python encoder, so each nonempty list of plain ints and floats (the
    schedules) goes through the C encoder instead, one item per line. A dict
    key that is not a string raises ``TypeError``.
    """

    def write(obj, depth: int) -> str:
        inner = "\n" + "  " * (depth + 1)
        if isinstance(obj, dict):
            if not obj:
                return "{}"
            for key in obj:
                if not isinstance(key, str):
                    raise TypeError(f"report keys must be str, not {type(key).__name__}")
            body = ("," + inner).join(f"{json.dumps(k)}: {write(obj[k], depth + 1)}" for k in sorted(obj))
            return f"{{{inner}{body}\n{'  ' * depth}}}"
        if isinstance(obj, (list, tuple)):
            if not obj:
                return "[]"
            if set(map(type, obj)) <= {int, float}:
                body = json.dumps(obj)[1:-1].replace(", ", "," + inner)
            else:
                body = ("," + inner).join(write(v, depth + 1) for v in obj)
            return f"[{inner}{body}\n{'  ' * depth}]"
        return json.dumps(obj)

    return write(report, 0) + "\n"


def sweep(config: RunConfig, fee_from: float, fee_to: float, fee_step: float) -> tuple[list[str], list[list]]:
    """Savings per algorithm across a range of headline fees.

    One row per fee value on a shared trace (same seed at every point). The constant regime sets beta to
    the fee; the linear regime divides the fee by the contract length to get alpha. Fees are evaluated in
    chunks, cut by :func:`_row_blocks` at 2T cells per replicate. The offline optimum's
    cost must be non-decreasing in the fee; violations are logged, not raised. More than
    ``MAX_SWEEP_POINTS`` fee points, a fee or step that is not finite, or a fee whose beta or alpha
    RunConfig refuses, is refused before the trace is read.
    """
    fee_from, fee_to, fee_step = (require_finite(name, value) for name, value in
                                  (("fee_from", fee_from), ("fee_to", fee_to), ("fee_step", fee_step)))
    if fee_from > fee_to:
        raise ValidationError(f"fee_from {fee_from} > fee_to {fee_to}")
    if fee_step <= 0.0:
        raise ValidationError(f"fee_step must be > 0, got {fee_step!r}")
    span = (fee_to - fee_from) / fee_step + 1e-9
    if not span < MAX_SWEEP_POINTS:
        raise ValidationError(f"fees {fee_from} to {fee_to} by {fee_step} exceed {MAX_SWEEP_POINTS} points")
    if not fee_from > 0.0:
        raise ValidationError(f"fee_from must be > 0, got {fee_from!r}")
    fees = [fee_from + i * fee_step for i in range(int(math.floor(span)) + 1)]
    key, scale = ("beta", 1) if config.fee_regime == "constant" else ("alpha", config.contract_len)
    # beta = fee / 1 and alpha = fee / contract_len rise with the fee: the ends bound every point's check
    replace(config, **{key: fees[0] / scale}), replace(config, **{key: fees[-1] / scale})
    cs, bench_cost, draws = _setup(config)
    header = ["fee"] + [f"{a}_savings_pct" for a in config.algorithms]
    rows, prev_opt = [], -math.inf
    for chunk in _row_blocks(len(fees), 2 * len(cs) * config.mc_runs):
        for fee, reports in zip(fees[chunk], _evaluate(config, cs, bench_cost, draws,
                                                       [fee / scale for fee in fees[chunk]])):
            opt_cost = next((reports[a]["cost"] for a in ("ofa", "dp") if a in reports), prev_opt)
            if opt_cost < prev_opt - 1e-9:
                logger.warning("offline optimum cost decreased from %.6f to %.6f at fee %.4f", prev_opt, opt_cost, fee)
            prev_opt = max(prev_opt, opt_cost)
            rows.append([fee] + [reports[a]["savings_pct"] for a in config.algorithms])
    return header, rows


def sweep_csv(header: list[str], rows: list[list], config: Optional[RunConfig] = None) -> str:
    lines = []
    if config is not None:
        lines.append("# config: " + json.dumps(config_echo(config), sort_keys=True))
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join("" if v is None else repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Verification suites: scaled-down versions of the acceptance properties,
# runnable from the command line with any seed. A suite draws its instances'
# horizons first, then each horizon's instances as one (rows x T) stack.
# ---------------------------------------------------------------------------

# The fees the suites' random instances draw from.
SP_FEES = (0.5, 1.0, 2.0, 5.0)
DSP_FEES = (0.0, 0.1, 1.0)
MC_FEES = (1.0, 2.0)
# verify montecarlo's band in standard errors: a correct program fails a seed with probability at most 1e-4,
# split by Bonferroni over both tails of up to 5 x (2 + 10) = 60 comparisons (two means and 10 marginals each).
# NormalDist().inv_cdf(1 - 1e-4 / 120) written out, as importing statistics adds about 6 ms to every CLI call.
MC_Z = 4.790137978787522


def _horizons(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """The horizons of ``n`` random instances of 1 to 12 slots: each horizon drawn, and how many have it."""
    # np.bincount, not np.unique, whose sort maps about 0.4 MB more of numpy into each verify process
    return [(period, k) for period, k in enumerate(np.bincount(rng.integers(1, 13, n)).tolist()) if k]


def _sp_stacks(rng: np.random.Generator, n: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``n`` random constant-fee instances, one stack per horizon: g0 and g1
    as (k x T) arrays, then the k instances' fees."""
    return [(*random_costs(rng, (k, period)), rng.choice(SP_FEES, k)) for period, k in _horizons(rng, n)]


def _verify_oracle(seed: int) -> tuple[bool, list[str]]:
    rng = np.random.default_rng(seed)
    sp_failures = 0
    n_sp = 200
    for g0, g1, beta in _sp_stacks(rng, n_sp):  # checked here: the core, the search and the fold run unchecked
        g0, g1 = cost_stack(g0, g1)
        costs = _price(g0, g1, require_finite_rows("beta", beta, len(g0), positive=True), ())["ofa"][0]
        best = _sp_fold(_search(g0, g1, beta=beta)[0], g0, g1, beta)
        sp_failures += int(np.count_nonzero(np.abs(costs - best) > 1e-9))
    dsp_failures = 0
    n_dsp = 100
    for period, k in _horizons(rng, n_dsp):  # the DP, the code under test, and the search each check the stack
        g0, g1 = random_costs(rng, (k, period))
        fees = rng.choice(DSP_FEES, k), rng.integers(1, period + 1, k), rng.choice(FEE_MODES, k)
        terms = fees[0], fees[1], fees[2] == "literal"  # the fee columns as the fold takes them
        costs = _dsp_fold(dp_dsps(g0, g1, *fees)[0], g0, g1, *terms)
        best = _dsp_fold(brute_force_dsps(g0, g1, *fees)[0], g0, g1, *terms)
        dsp_failures += int(np.count_nonzero(np.abs(costs - best) > 1e-9))
    lines = [f"offline vs exhaustive: {n_sp} instances, {sp_failures} failures",
             f"dp vs exhaustive: {n_dsp} instances (both fee modes), {dsp_failures} failures"]
    return sp_failures == 0 and dsp_failures == 0, lines


def _verify_ratio(seed: int) -> tuple[bool, list[str]]:
    rng = np.random.default_rng(seed)
    violations = 0
    n = 2000
    for g0, g1, beta in _sp_stacks(rng, n):  # checked here: the core runs unchecked, as it does for run
        g0, g1 = cost_stack(g0, g1)
        priced = _price(g0, g1, require_finite_rows("beta", beta, len(g0), positive=True), ("gchase",))
        violations += int(np.count_nonzero(priced["gchase"][0] > 3.0 * priced["ofa"][0] + 1e-9))
    _, report = deterministic_adversary(lambda: gchase_player(1.0), 1.0, 600, 0.01)
    adv_ok = report.ratio is not None and report.ratio >= 2.9
    lines = [f"factor-3 bound: {n} random instances, {violations} violations",
             f"adaptive adversary realized ratio: {report.ratio:.4f} (floor 2.9)"]
    return violations == 0 and adv_ok, lines


def _verify_montecarlo(seed: int) -> tuple[bool, list[str]]:
    rng = np.random.default_rng(seed)
    failures = 0
    n_inst, n_runs = 5, 4000
    for k in range(n_inst):
        period = int(rng.integers(2, 11))
        beta = MC_FEES[rng.integers(0, len(MC_FEES))]
        cs = random_cost_series(rng, period)
        draws = SeededUniforms(seed + 1000 * k, n_runs, period)  # as monte_carlo draws them
        priced = _price(cs.g0[None], cs.g1[None], np.array([beta]), ("gchase_r", "cchase"), draws)
        (mean,), (stderr,), states, _ = priced["gchase_r"]
        if abs(mean - priced["cchase"][0][0]) > MC_Z * stderr + 1e-9:
            failures += 1
        if mean > 2.0 * priced["ofa"][0][0] + MC_Z * stderr + 1e-9:
            failures += 1
        for p, e in zip(priced["cchase"][2][0].tolist(), states.mean(axis=0)):  # the continuous rule's fractions
            if abs(e - p) > MC_Z * math.sqrt(p * (1.0 - p) / n_runs) + 1e-12:
                failures += 1
    return failures == 0, [f"randomized vs continuous: {n_inst} instances x {n_runs} runs, {failures} failures"]


def _verify_identity(seed: int) -> tuple[bool, list[str]]:
    # Checked per horizon stack; the decreasing-fee contract length is each
    # schedule's longest fixed run, or 1 without one.
    rng = np.random.default_rng(seed)
    failures = 0
    n = 300
    for period, k in _horizons(rng, n):
        g0, g1 = random_costs(rng, (k, period))
        states = rng.integers(0, 2, size=(k, period))  # random_schedule's draw
        beta, alpha = rng.uniform(0.1, 5.0, k), rng.uniform(0.0, 1.0, k)
        sp, rhs = phi_identity_sps(states, g0, g1, beta)
        failures += np.count_nonzero(np.abs(sp - rhs) > 1e-9)
        failures += np.count_nonzero(np.abs(sp - p2_costs(states, g0, g1, beta)) > 1e-9)
        cap = np.maximum(_fixed_runs(states)[0].max(axis=1), 1)
        lhs, rhs = phi_identity_dsps(states, g0, g1, alpha, cap)
        failures += np.count_nonzero(np.abs(lhs - rhs) > 1e-9)
    lines = [f"segment identities and cost equivalence: {n} random triples, {failures} failures"]
    return failures == 0, lines


VERIFY_SUITES = {
    "oracle": _verify_oracle,
    "ratio": _verify_ratio,
    "montecarlo": _verify_montecarlo,
    "identity": _verify_identity,
}


def run_verify_suite(name: str, seed: int) -> tuple[bool, list[str]]:
    """Run one named verification suite, or all of them with each line tagged by its suite."""
    seed = require_int("seed", seed, 0)
    if name != "all" and name not in VERIFY_SUITES:
        raise ValidationError(f"unknown suite {name!r}, expected one of {tuple(VERIFY_SUITES)} or 'all'")
    ok, lines = True, []
    for key in VERIFY_SUITES if name == "all" else (name,):
        suite_ok, suite_lines = VERIFY_SUITES[key](seed)
        ok = ok and suite_ok
        tag = f"[{key}] " if name == "all" else ""
        lines += [tag + line for line in [*suite_lines, "PASS" if suite_ok else "FAIL"]]
    return ok, lines
