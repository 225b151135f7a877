"""The four workloads: their inputs, made from the seed, and their output checks.

A workload is a list of CLI commands (the argv after ``planswitch``) plus one
checker per command. A checker takes the command's stdout and returns the
problems it finds; an empty list means the output is correct. References are
computed once, when the workload is built, by ``reference`` and never by the
program's own algorithms.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref

CONSTANT_SLOTS = 100_000
LINEAR_SLOTS = 20_000
SWEEP_SLOTS = 36
VERIFY_SEEDS_PER_PASS = 4
VERIFY_SUITES = ("oracle", "ratio", "identity")

# Relative tolerance for comparing a total the program sums in one order with
# the same total summed here in another.
REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    commands: tuple[tuple[str, ...], ...]
    checkers: tuple[Callable[[str], list[str]], ...]


def seasonal_trace(slots: int, seed: int) -> dict[str, np.ndarray]:
    """Seeded monthly trace: seasonal demand around 765 kWh, a fixed rate near
    $0.098/kWh, and a seasonal variable rate around $0.105/kWh scaled by a
    slow market cycle, so that each plan is the cheaper one for stretches of
    months and the algorithms switch. Each month's base load is the demand
    one year earlier."""
    rng = np.random.default_rng(seed)
    t = np.arange(1, slots + 1)
    season = 765.0 * (1.0 + 0.25 * np.sin(2.0 * np.pi * (t - 4) / 12.0))
    e = season * rng.lognormal(-0.5 * 0.18**2, 0.18, size=slots)
    market = np.empty(slots)
    level = 0.0
    for i, shock in enumerate(rng.normal(0.0, 0.03, size=slots).tolist()):
        level = 0.97 * level + shock  # AR(1): regimes lasting a few years
        market[i] = level
    p1 = np.clip(0.105 * (1.0 + 0.12 * np.sin(2.0 * np.pi * (t + 1) / 12.0)) * np.exp(market)
                 + rng.normal(0.0, 0.008, size=slots), 0.01, None)
    p0 = np.clip(0.098 + rng.normal(0.0, 0.002, size=slots), 0.01, None)
    base = season.copy()
    base[12:] = e[:-12]
    return {"e": e, "p0": p0, "p1": p1, "base": base}


def write_trace_csv(trace: dict[str, np.ndarray], path: str) -> None:
    cols = [trace[k].tolist() for k in ("e", "p0", "p1", "base")]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,e,p0,p1,B\n")
        fh.writelines(f"{i},{e!r},{p0!r},{p1!r},{b!r}\n"
                      for i, (e, p0, p1, b) in enumerate(zip(*cols), start=1))


def read_trace_csv(path: str) -> dict[str, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {"e": data[:, 1], "p0": data[:, 2], "p1": data[:, 3], "base": data[:, 4]}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _report_constant(seed: int, workdir: str) -> Workload:
    beta, runs = 100.0, 100
    path = os.path.join(workdir, "trace-constant.csv")
    write_trace_csv(seasonal_trace(CONSTANT_SLOTS, seed), path)
    g0, g1 = ref.plan_costs(**read_trace_csv(path))
    opt = ref.sp_opt(g0, g1, beta)
    bench_cost = float(g1.sum())

    def check(text: str) -> list[str]:
        rep = json.loads(text)
        r = rep["reports"]
        bad = []
        if rep["slots"] != CONSTANT_SLOTS:
            bad.append(f"slots {rep['slots']} != {CONSTANT_SLOTS}")
        if not _close(rep["benchmark_cost"], bench_cost):
            bad.append(f"benchmark_cost {rep['benchmark_cost']} != reference {bench_cost}")
        ofa_cost = ref.sp_cost(r["ofa"]["schedule"], g0, g1, beta)
        if not _close(r["ofa"]["cost"], ofa_cost):
            bad.append(f"ofa cost {r['ofa']['cost']} != its schedule's cost {ofa_cost}")
        if not _close(r["ofa"]["cost"], opt):
            bad.append(f"ofa cost {r['ofa']['cost']} != reference DP {opt}")
        if not _close(r["gchase"]["cost"], ref.sp_cost(r["gchase"]["schedule"], g0, g1, beta)):
            bad.append("gchase cost differs from its schedule's cost")
        if not _close(r["cchase"]["cost"], ref.csp_cost(r["cchase"]["schedule"], g0, g1, beta)):
            bad.append("cchase cost differs from its schedule's cost")
        if r["gchase"]["cost"] > 3.0 * opt * (1.0 + REL_TOL):
            bad.append(f"gchase {r['gchase']['cost']} > 3 * opt {opt}")
        if r["cchase"]["cost"] > 2.0 * opt * (1.0 + REL_TOL):
            bad.append(f"cchase {r['cchase']['cost']} > 2 * opt {opt}")
        mean, stderr = r["gchase_r"]["cost"], r["gchase_r"]["stderr"]
        if r["gchase_r"]["mc_runs"] != runs or stderr is None:
            bad.append("gchase_r did not report its replicate count and stderr")
        elif abs(mean - r["cchase"]["cost"]) > 5.0 * stderr:
            bad.append(f"gchase_r mean {mean} more than 5 stderr ({stderr}) from cchase")
        return bad

    cmd = ("run", "--trace", path, "--fee-regime", "constant", "--beta", "100",
           "--algorithms", "ofa,gchase,gchase_r,cchase", "--mc-runs", str(runs), "--seed", str(seed))
    return Workload((cmd,), (check,))


def _report_linear(seed: int, workdir: str) -> Workload:
    alpha, length, runs = 10.0, 24, 20
    path = os.path.join(workdir, "trace-linear.csv")
    write_trace_csv(seasonal_trace(LINEAR_SLOTS, seed), path)
    g0, g1 = ref.plan_costs(**read_trace_csv(path))
    opt = ref.dsp_opt(g0, g1, alpha, length)

    def check(text: str) -> list[str]:
        r = json.loads(text)["reports"]
        bad = []
        if not _close(r["ofa"]["cost"], opt):
            bad.append(f"ofa cost {r['ofa']['cost']} != reference DP {opt}")
        for name in ("ofa", "gchase"):
            cost = ref.dsp_cost(r[name]["schedule"], g0, g1, alpha, length)
            if math.isinf(cost):
                bad.append(f"{name} schedule has a fixed run longer than {length}")
            elif not _close(r[name]["cost"], cost):
                bad.append(f"{name} cost {r[name]['cost']} != its schedule's cost {cost}")
        for name in ("gchase", "gchase_r"):
            if r[name]["cost"] < opt * (1.0 - REL_TOL):
                bad.append(f"{name} cost {r[name]['cost']} < opt {opt}")
        if r["gchase_r"]["mc_runs"] != runs:
            bad.append("gchase_r did not report its replicate count")
        return bad

    cmd = ("run", "--trace", path, "--fee-regime", "linear", "--contract-len", str(length),
           "--alpha", "10", "--algorithms", "ofa,gchase,gchase_r", "--mc-runs", str(runs),
           "--seed", str(seed))
    return Workload((cmd,), (check,))


def _sweep(seed: int, workdir: str) -> Workload:
    # The program synthesizes this trace from --seed; the checks read the same
    # months back through its public synth_trace and price them here.
    from planswitch.bench import synth_trace

    slots = synth_trace(SWEEP_SLOTS, seed).slots
    g0, g1 = ref.plan_costs(
        [s.demand_kwh for s in slots], [s.fixed_rate for s in slots],
        [s.variable_rate for s in slots], [s.base_load_kwh for s in slots])
    bench_cost = float(g1.sum())
    fees = [float(f) for f in range(1, 101)]
    length = 12

    def savings(cost: float) -> float:
        return 100.0 * (bench_cost - cost) / bench_cost

    def checker(regime: str):
        if regime == "constant":
            ends = {i: savings(ref.sp_opt(g0, g1, fees[i])) for i in (0, -1)}
        else:
            ends = {i: savings(ref.dsp_opt(g0, g1, fees[i] / length, length)) for i in (0, -1)}

        def check(text: str) -> list[str]:
            lines = text.splitlines()
            rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
            bad = []
            if not lines[0].startswith("# config:"):
                bad.append("missing config line")
            if len(rows) != len(fees):
                return bad + [f"{len(rows)} rows for {len(fees)} fees"]
            ofa = [float(row["ofa_savings_pct"]) for row in rows]
            for i, row in enumerate(rows):
                if float(row["fee"]) != fees[i]:
                    bad.append(f"row {i + 1}: fee {row['fee']} != {fees[i]}")
                for alg in ("gchase", "gchase_r"):
                    if float(row[f"{alg}_savings_pct"]) > ofa[i] + 1e-9:
                        bad.append(f"fee {fees[i]}: {alg} saves more than ofa")
                if i and ofa[i] > ofa[i - 1] + 1e-9:
                    bad.append(f"fee {fees[i]}: ofa savings rose from {ofa[i - 1]} to {ofa[i]}")
            for i in (0, -1):
                if abs(ofa[i] - ends[i]) > 1e-9:
                    bad.append(f"fee {fees[i]}: ofa savings {ofa[i]} != reference DP {ends[i]}")
            return bad

        return check

    base = ("sweep", "--slots", str(SWEEP_SLOTS), "--seed", str(seed), "--from", "1", "--to", "100",
            "--step", "1", "--algorithms", "ofa,gchase,gchase_r", "--mc-runs", "100")
    cmds = (base + ("--fee-regime", "constant"),
            base + ("--fee-regime", "linear", "--contract-len", str(length)))
    return Workload(cmds, (checker("constant"), checker("linear")))


_RATIO = re.compile(r"adaptive adversary realized ratio: (\S+)")


def _verify_check(suite: str):
    def check(text: str) -> list[str]:
        lines = text.splitlines()
        bad = [] if lines and lines[-1] == "PASS" else ["suite did not report PASS"]
        if suite == "ratio":
            m = _RATIO.search(text)
            if m is None:
                bad.append("no adversary ratio reported")
            elif not 2.9 <= float(m.group(1)) <= 3.0:
                bad.append(f"adversary ratio {m.group(1)} outside [2.9, 3]")
        return bad

    return check


def _verify(seed: int, workdir: str) -> Workload:
    # Several suite seeds per pass, disjoint between workload seeds, so a pass
    # does about a second of work.
    seeds = range(VERIFY_SEEDS_PER_PASS * seed, VERIFY_SEEDS_PER_PASS * (seed + 1))
    runs = [(suite, s) for s in seeds for suite in VERIFY_SUITES]
    return Workload(tuple(("verify", suite, "--seed", str(s)) for suite, s in runs),
                    tuple(_verify_check(suite) for suite, _ in runs))


_BUILDERS = {
    "report-constant": _report_constant,
    "report-linear": _report_linear,
    "sweep": _sweep,
    "verify": _verify,
}
NAMES = tuple(_BUILDERS)


def build(name: str, seed: int, workdir: str) -> Workload:
    """Write the workload's inputs under ``workdir`` and compute its references."""
    os.makedirs(workdir, exist_ok=True)
    return _BUILDERS[name](seed, workdir)
