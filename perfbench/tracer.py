"""Per-layer spans and counts, taken by wrapping the program's functions from outside.

Layers are the package's modules. The program binds most names with
``from .x import f``, and ``chase`` calls ``delta_trace`` through its own
globals, so a wrapper is installed in every ``planswitch`` module whose
namespace holds the original function, which is where callers look it up.
``gchase_r`` is not wrapped: ``adversary.monte_carlo`` tests its identity.
Nor are ``monte_carlo`` and ``marginal_probabilities``: only ``verify
montecarlo`` reaches them, and no workload runs it. Per-slot functions
(``slot_cost``, ``SlotInput``) are not wrapped;
their cost shows in their caller's self time.

A span's self time is its duration minus the time of the spans it directly
encloses. A wrapper's own bookkeeping after the wrapped call returns is
subtracted from the caller's self time too, so counting does not inflate it.
"""

from __future__ import annotations

import json
import logging
import sys
import time

import numpy as np

# (module, function, span name, counter). A counter turns a call's arguments
# and result into count increments for the current pass.
_TARGETS = (
    ("tariff", "parse_trace", "tariff.parse_trace", lambda a, r: {"tariff.parse_trace.slots": len(r)}),
    ("tariff", "cost_series", "tariff.cost_series", None),
    ("bench", "protocol_cost_series", "tariff.cost_series", None),
    ("tariff", "sp_cost", "tariff.sp_cost", None),
    ("tariff", "dsp_cost", "tariff.dsp_cost", None),
    ("chase", "delta_trace", "chase.delta_trace", None),
    ("chase", "ofa_s", "chase.ofa_s", None),
    ("chase", "gchase_s", "chase.gchase_s", None),
    ("chase", "cchase", "chase.cchase", None),
    ("chase", "csp_cost", "chase.csp_cost", None),
    ("chase", "gchase_dsp", "chase.gchase_dsp", lambda a, r: {"chase.forced_switches": r[1]}),
    ("chase", "gchase_r_dsp", "chase.gchase_r_dsp", lambda a, r: {"chase.forced_switches": r[1]}),
    ("oracles", "dp_dsp", "oracles.dp_dsp",
     lambda a, r: {"oracles.dp_dsp.cells": len(a[0]) * (int(a[2]) + 1)}),
    ("oracles", "brute_force_sp", "oracles.brute_force_sp",
     lambda a, r: {"oracles.schedules_enumerated": 2 ** len(a[0])}),
    ("oracles", "brute_force_dsp", "oracles.brute_force_dsp",
     lambda a, r: {"oracles.schedules_enumerated": 2 ** len(a[0])}),
    ("adversary", "simulate_randomized_batch", "adversary.simulate_randomized_batch",
     lambda a, r: {"adversary.simulate_randomized_batch.replicates": r.shape[0],
                   "adversary.simulate_randomized_batch.slots": r.shape[1]}),
    ("adversary", "batch_sp_costs", "adversary.batch_sp_costs", None),
    ("adversary", "deterministic_adversary", "adversary.deterministic_adversary", None),
    ("bench", "run_report", "bench.run_report", None),
    ("bench", "sweep", "bench.sweep", lambda a, r: {"bench.sweep.points": len(r[1])}),
    ("bench", "run_verify_suite", "bench.run_verify_suite", None),
    ("bench", "synth_trace", "bench.synth_trace", None),
    ("bench", "report_json", "bench.report_json", None),
    ("bench", "sweep_csv", "bench.sweep_csv", None),
    ("cli", "main", "cli.main", None),
)

class Tracer:
    """Installs the wrappers, keeps every span in memory, and sums self time
    and counts per pass. ``install`` and ``remove`` bracket one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (pass, id, parent id, name, start, end)
        self.passes: list[dict[str, float]] = []
        self._stack: list[list] = []  # [span id, child time]
        self._saved: list[tuple] = []
        self._next_id = 1

    # -- one pass ---------------------------------------------------------

    def install(self) -> None:
        import planswitch

        self._pass = {}
        self._inputs: dict[tuple, object] = {}
        self._seeds: set = set()
        self._boundary = [0, 0]
        mods = [m for n, m in sys.modules.items() if n == "planswitch" or n.startswith("planswitch.")]
        for modname, fname, span, counter in _TARGETS:
            orig = getattr(getattr(planswitch, modname), fname)
            wrapper = self._wrap(orig, span, counter)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        default_rng = np.random.default_rng
        self._saved.append((np.random, "default_rng", default_rng))

        def counted_rng(seed=None):
            self._count("adversary.rng_built", 1)
            self._seeds.add(seed if isinstance(seed, int) else repr(seed))
            return default_rng(seed)

        np.random.default_rng = counted_rng
        self._log_filter = _CountingFilter(self)
        self._loggers = [lg for n, lg in logging.root.manager.loggerDict.items()
                         if n.startswith("planswitch") and isinstance(lg, logging.Logger)]
        for lg in self._loggers:
            lg.addFilter(self._log_filter)

    def remove(self, output_bytes: int) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()
        for lg in self._loggers:
            lg.removeFilter(self._log_filter)
        p = self._pass
        calls = p.get("chase.delta_trace.calls", 0)
        p["chase.delta_trace.distinct_ratio"] = len(self._inputs) / calls if calls else 0.0
        built = p.get("adversary.rng_built", 0)
        p["adversary.rng_useful_ratio"] = len(self._seeds) / built if built else 0.0
        hits, slots = self._boundary
        p["chase.boundary_share"] = hits / slots if slots else 0.0
        parsed = p.pop("tariff.parse_trace.slots", 0)
        p["tariff.parse_trace.ns_per_slot"] = 1e9 * p.get("tariff.parse_trace.s", 0.0) / parsed if parsed else 0.0
        p["cli.output_bytes"] = output_bytes
        self._inputs.clear()
        self.passes.append(p)

    # -- wrappers -----------------------------------------------------------

    def _count(self, name: str, n: float) -> None:
        self._pass[name] = self._pass.get(name, 0) + n

    def _wrap(self, fn, span: str, counter):
        stack, spans, tracer, acc = self._stack, self.spans, self, self._pass
        pass_no = len(self.passes)
        key_s, key_calls = span + ".s", span + ".calls"
        is_delta = span == "chase.delta_trace"

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((pass_no, span_id, parent, span, start, end))
                acc[key_s] = acc.get(key_s, 0.0) + (end - start) - frame[1]
                acc[key_calls] = acc.get(key_calls, 0) + 1
                if stack:
                    stack[-1][1] += end - start
            if counter is not None:
                for name, n in counter(args, result).items():
                    acc[name] = acc.get(name, 0) + n
            if is_delta:
                tracer._delta_counts(args[0], result)
            if stack:
                stack[-1][1] += time.perf_counter() - end
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _delta_counts(self, cs, dt) -> None:
        # Keying on the series object (kept alive for the pass, so its id is
        # not reused) plus the fee parameters counts distinct inputs.
        self._inputs.setdefault((id(cs), dt.beta, dt.drift), cs)
        values = dt.values[1:]
        self._boundary[0] += values.count(0.0) + values.count(-dt.beta)
        self._boundary[1] += len(values)

    def write_spans(self, path: str) -> None:
        """One JSON array per span, after a first line naming the fields."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["pass", "id", "parent", "name", "start", "end"]}) + "\n")
            fh.writelines(json.dumps(span, separators=(",", ":")) + "\n" for span in self.spans)


class _CountingFilter(logging.Filter):
    """Counts the program's log records without changing where they go."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    def filter(self, record: logging.LogRecord) -> bool:
        self.tracer._count("bench.log_records", 1)
        return True
