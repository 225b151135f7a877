import json
import math
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import fields, replace
from statistics import NormalDist

import numpy as np
import pytest

from planswitch import (
    RunConfig,
    ValidationError,
    cost_series,
    delta_trace,
    dsp_cost,
    gchase_r,
    gchase_r_dsp,
    parse_trace,
    protocol_cost_series,
    report_json,
    run_report,
    run_verify_suite,
    sp_cost,
    sweep,
    sweep_csv,
    synth_trace,
    trace_to_csv,
)
from planswitch import bench, tariff
from planswitch.bench import FEE_REGIMES, MAX_MC_RUNS, MAX_SWEEP_POINTS, MAX_SYNTH_SLOTS, config_echo
from planswitch.cli import _config_from_args, build_parser, main
from planswitch.tariff import MAX_CONTRACT_LEN


class TestSynth:
    def test_deterministic(self):
        a = trace_to_csv(synth_trace(12, seed=1))
        b = trace_to_csv(synth_trace(12, seed=1))
        assert a == b

    def test_seed_changes_output(self):
        assert trace_to_csv(synth_trace(12, seed=1)) != trace_to_csv(synth_trace(12, seed=2))

    @pytest.mark.parametrize("slots, seed, field", [(3.5, 1, "slots"), (3, 1.5, "seed"), (3.0, 1, "slots")])
    def test_non_integer_slots_or_seed_rejected(self, slots, seed, field):
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            synth_trace(slots, seed)

    def test_zero_slots_rejected(self):
        with pytest.raises(ValidationError):
            synth_trace(0, seed=1)

    def test_largest_trace_passes_the_size_check(self, monkeypatch):
        class Checked(Exception):
            pass

        def checked(*args):
            raise Checked

        monkeypatch.setattr(np.random, "default_rng", checked)  # stops before anything is built
        with pytest.raises(Checked):
            synth_trace(MAX_SYNTH_SLOTS, seed=0)
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            synth_trace(12, seed=-1)

    def test_mean_demand_calibrated(self):
        trace = synth_trace(1200, seed=3)
        mean = np.mean([s.demand_kwh for s in trace.slots])
        assert abs(mean - 765.0) / 765.0 < 0.05

    def test_base_load_is_previous_cycle_demand(self):
        trace = synth_trace(30, seed=4)
        for t in range(13, 31):
            assert trace.slots[t - 1].base_load_kwh == trace.slots[t - 13].demand_kwh

    def test_csv_roundtrips_through_parser(self):
        trace = synth_trace(24, seed=5)
        parsed = parse_trace(trace_to_csv(trace).encode())
        assert len(parsed) == 24
        assert parsed.slots[7].demand_kwh == trace.slots[7].demand_kwh

    def test_flat_profile(self):
        trace = synth_trace(6, seed=6, profile="flat")
        assert len(trace) == 6


class TestProtocolCostSeries:
    def test_default_scales_fixed_rate(self):
        trace = synth_trace(12, seed=7)
        cs = protocol_cost_series(trace)
        # each month's H is a tenth of its own fixed rate
        own = cost_series(trace, [0.1 * s.fixed_rate for s in trace.slots])
        assert (cs.g0.tolist(), cs.g1.tolist()) == (own.g0.tolist(), own.g1.tolist())

    def test_fixed_rate_override(self):
        trace = synth_trace(12, seed=8)
        cs = protocol_cost_series(trace, h_rate=0.0)
        assert cs.g0.tolist() == cost_series(trace, 0.0).g0.tolist()


class TestRunConfigValidation:
    def test_needs_algorithms(self):
        with pytest.raises(ValidationError):
            RunConfig(algorithms=())

    def test_unknown_algorithm(self):
        with pytest.raises(ValidationError):
            RunConfig(algorithms=("ofa", "magic"))

    def test_dp_only_in_linear_regime(self):
        with pytest.raises(ValidationError):
            RunConfig(algorithms=("dp",), fee_regime="constant")

    def test_cchase_only_in_constant_regime(self):
        with pytest.raises(ValidationError):
            RunConfig(algorithms=("cchase",), fee_regime="linear")

    @pytest.mark.parametrize("runs", [1, 0, -3])
    def test_needs_two_replicates_for_a_stderr(self, runs):
        with pytest.raises(ValidationError, match="mc_runs"):
            RunConfig(mc_runs=runs)

    def test_duplicate_algorithm(self):
        with pytest.raises(ValidationError, match="more than once"):
            RunConfig(algorithms=("ofa", "gchase", "ofa"))

    @pytest.mark.parametrize("kwargs, needle", [
        (dict(fee_regime="linear", contract_len=0), "contract_len"),
        (dict(fee_regime="linear", contract_len=2.5), "contract_len"),
        (dict(fee_regime="linear", alpha=0.0), "alpha"),
        (dict(fee_regime="linear", alpha=1e308), "alpha \\* contract_len"),
        (dict(fee_regime="linear", fee_mode="sometimes"), "fee_mode"),
        (dict(beta=0.0), "beta"),
        (dict(beta=float("nan")), "beta"),
        (dict(h_rate=-0.1), "h_rate"),
        (dict(seed=-1), "seed"),
        (dict(fee_regime="flat"), "fee_regime"),
        (dict(benchmark="none"), "benchmark"),
    ])
    def test_field_named_in_error(self, kwargs, needle):
        with pytest.raises(ValidationError, match=needle):
            RunConfig(**kwargs)

    @pytest.mark.parametrize("field", ["synth_slots", "mc_runs", "seed"])
    @pytest.mark.parametrize("value", [2.5, 3.0, "3", None])
    def test_counts_and_seed_must_be_integers(self, field, value):
        # 2.5 would run 2 replicates yet echo 2.5, and a float slot count or seed would fail inside numpy
        with pytest.raises(ValidationError, match=f"{field} must be an integer, got {value!r}"):
            RunConfig(**{field: value})

    def test_numpy_integers_echoed_as_ints(self):
        cfg = RunConfig(synth_slots=np.int64(12), mc_runs=np.int32(5), seed=np.uint8(3))
        assert report_json(run_report(cfg)) == report_json(run_report(RunConfig(synth_slots=12, mc_runs=5, seed=3)))

    @pytest.mark.parametrize("given, plain", [
        (dict(fee_regime="linear", contract_len=np.int64(12)), dict(fee_regime="linear", contract_len=12)),
        (dict(fee_regime="linear", contract_len=12.0), dict(fee_regime="linear", contract_len=12)),
        (dict(fee_regime="linear", alpha=np.float32(10)), dict(fee_regime="linear", alpha=10.0)),
        (dict(beta=np.float32(100)), dict(beta=100.0)),
        (dict(h_rate=np.float32(0.01)), dict(h_rate=float(np.float32(0.01)))),
        # a fee field the regime does not use
        (dict(alpha=np.float32(1)), dict(alpha=1.0)),
        (dict(contract_len=np.int64(6)), dict(contract_len=6)),
        (dict(fee_regime="linear", beta=np.float32(5)), dict(fee_regime="linear", beta=5.0)),
    ], ids=["contract_len-int64", "contract_len-12.0", "alpha", "beta", "h_rate", "unused-alpha",
            "unused-contract_len", "unused-beta"])
    def test_fee_fields_echoed_as_python_numbers(self, given, plain):
        assert report_json(run_report(RunConfig(**given))) == report_json(run_report(RunConfig(**plain)))

    def test_unused_fee_fields_not_checked(self):
        RunConfig(fee_regime="constant", contract_len=0, alpha=-1.0)
        RunConfig(fee_regime="linear", beta=0.0)

    def test_echo_lists_every_field_and_the_underusage_scale(self):
        cfg = RunConfig(seed=3, algorithms=("ofa", "gchase"))
        echo = config_echo(cfg)
        assert set(echo) == {f.name for f in fields(RunConfig)} | {"h_scale"}
        assert echo["h_scale"] == 0.1 and echo["algorithms"] == ("ofa", "gchase")


class TestRunReport:
    def test_worst_case_orderings_hold(self):
        cfg = RunConfig(synth_slots=12, beta=100.0, seed=42,
                        algorithms=("ofa", "gchase", "gchase_r", "cchase"))
        report = run_report(cfg)
        ofa = report["reports"]["ofa"]["cost"]
        gch = report["reports"]["gchase"]["cost"]
        mc = report["reports"]["gchase_r"]
        cch = report["reports"]["cchase"]["cost"]
        assert ofa <= gch + 1e-9
        assert gch <= 3 * ofa + 1e-9
        assert mc["cost"] <= 2 * ofa + 3 * (mc["stderr"] or 0.0) + 1e-9
        assert cch <= 2 * ofa + 1e-9

    @pytest.mark.parametrize("regime", FEE_REGIMES)
    def test_bytes_independent_of_the_block_size(self, monkeypatch, regime):
        # one tariff.BLOCK_CELLS cuts the kernel blocks (T cells a row), the fold blocks (2T) and the
        # draw reuse: blocks of one row, of three kernel rows, of three fold rows, and one block
        cfg = RunConfig(synth_slots=36, seed=2, fee_regime=regime, contract_len=4, alpha=20.0,
                        algorithms=("ofa", "gchase", "gchase_r"), mc_runs=20)
        want = report_json(run_report(cfg))
        for cells in (1, 3 * 36, 3 * 2 * 36, tariff.BLOCK_CELLS):
            monkeypatch.setattr(tariff, "BLOCK_CELLS", cells)
            assert report_json(run_report(cfg)) == want

    def test_byte_identical_under_fixed_seed(self):
        cfg = RunConfig(synth_slots=12, seed=9)
        assert report_json(run_report(cfg)).encode() == report_json(run_report(cfg)).encode()

    def test_savings_definition(self):
        cfg = RunConfig(synth_slots=12, seed=10, algorithms=("ofa",))
        report = run_report(cfg)
        bench = report["benchmark_cost"]
        entry = report["reports"]["ofa"]
        assert entry["savings_pct"] == pytest.approx(
            100.0 * (bench - entry["cost"]) / bench
        )
        # the offline optimum can always imitate the benchmark customer
        assert entry["savings_pct"] >= -1e-9

    def test_linear_regime_uses_dp_reference(self):
        cfg = RunConfig(synth_slots=12, seed=11, fee_regime="linear",
                        alpha=10.0, contract_len=12,
                        algorithms=("ofa", "dp", "gchase", "gchase_r"), mc_runs=20)
        report = run_report(cfg)
        assert report["reports"]["ofa"]["cost"] == report["reports"]["dp"]["cost"]
        assert report["reports"]["gchase"]["ratio_vs_offline"] >= 1.0 - 1e-9

    def test_linear_batch_logs_one_forced_line(self, caplog):
        cfg = RunConfig(synth_slots=36, seed=16, fee_regime="linear", alpha=10.0,
                        contract_len=4, algorithms=("gchase_r",), mc_runs=25)
        with caplog.at_level("WARNING"):
            run_report(cfg)
        lines = [r.getMessage() for r in caplog.records if "forced" in r.getMessage()]
        assert len(lines) == 1
        cs = protocol_cost_series(synth_trace(36, 16))
        total = sum(gchase_r_dsp(cs, 10.0, 4, np.random.default_rng(16 + i))[1] for i in range(25))
        assert total > 0
        assert f"forced {total} switch(es) over 25 replicate(s)" in lines[0]

    def test_linear_batch_equals_single_calls(self):
        cfg = RunConfig(synth_slots=30, seed=17, fee_regime="linear", alpha=10.0,
                        contract_len=6, algorithms=("gchase_r",), mc_runs=12)
        entry = run_report(cfg)["reports"]["gchase_r"]
        cs = protocol_cost_series(synth_trace(30, 17))
        costs = np.array([
            dsp_cost(gchase_r_dsp(cs, 10.0, 6, np.random.default_rng(17 + i))[0], cs, 10.0, 6)
            for i in range(12)
        ])
        assert entry["cost"] == float(costs.mean())
        assert entry["stderr"] == float(costs.std(ddof=1) / np.sqrt(12))

    def test_constant_batch_equals_single_calls(self):
        # each replicate is priced as sp_cost prices its schedule, bit for bit
        cfg = RunConfig(synth_slots=30, seed=18, algorithms=("gchase_r",), mc_runs=12)
        entry = run_report(cfg)["reports"]["gchase_r"]
        cs = protocol_cost_series(synth_trace(30, 18))
        dt = delta_trace(cs, 100.0)
        costs = np.array([sp_cost(gchase_r(dt, np.random.default_rng(18 + i)), cs, 100.0) for i in range(12)])
        assert entry["cost"] == float(costs.mean())
        assert entry["stderr"] == float(costs.std(ddof=1) / np.sqrt(12))

    def test_trace_file_input(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(trace_to_csv(synth_trace(12, seed=12)))
        report = run_report(RunConfig(trace_path=str(path), seed=12, algorithms=("ofa",)))
        assert report["slots"] == 12


def stdlib_report_json(report) -> str:
    """Oracle of report_json: the stdlib's indented dump."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


class TestReportJson:
    @pytest.mark.parametrize("regime", FEE_REGIMES)
    def test_run_reports_match_stdlib(self, regime):
        algorithms = tuple(a for a, regimes in bench.ALGORITHMS.items() if regime in regimes)
        report = run_report(RunConfig(synth_slots=40, seed=3, fee_regime=regime, algorithms=algorithms))
        assert isinstance(report["reports"]["cchase" if regime == "constant" else "dp"]["schedule"][0],
                          float if regime == "constant" else int)
        assert report_json(report) == stdlib_report_json(report)

    @pytest.mark.parametrize("report", [
        {"empty": [], "one": [7], "one_float": [0.25], "none": None, "tuple": (1, 2)},
        {"costs": [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324], "cost": -0.0},
        {"a": {"b": {"c": [1, 2.5], "d": []}, "e": [[1, 2], [], [3.0], {"f": [4]}]}, "g": 1},
        {"mixed": [1, True, None], "bools": [True, False], "strings": ["x", "y"], "numpy": [np.float64(1.5)]},
        {"keys": {"b": [2], "a": [1], "c": "@list0:0"}},
        [1, 2, 3],
        [],
        7,
    ])
    def test_matches_stdlib(self, report):
        assert report_json(report) == stdlib_report_json(report)

    def test_strings_escaped_as_stdlib(self):
        report = run_report(RunConfig(synth_slots=12, seed=4, algorithms=("ofa", "cchase")))
        for text in ("Zürich €5 ☃", 'say "hi"', "back\\slash \\u00e9", '\\"\n\t\x00', "ключ"):
            report["config"]["trace_path"] = text
            report["reports"]["ofa"][text] = [text, {text: text}]
            assert report_json(report) == stdlib_report_json(report)

    @pytest.mark.parametrize("key", [1, 2.5, None, True])
    def test_non_string_key_refused(self, key):
        # json.dumps would write str(key); a report's keys are strings
        with pytest.raises(TypeError, match="report keys must be str"):
            report_json({"reports": {"ofa": {"cost": 1.0, key: [1, 2]}}})

    @pytest.mark.parametrize("path", ["@list0:0", '"@list0:0"', "@list0:1 @list1:0", 'x"@list0:0', "@list0:"])
    def test_placeholder_text_in_strings(self, path):
        report = run_report(RunConfig(synth_slots=12, seed=4, algorithms=("ofa", "gchase", "cchase")))
        report["config"]["trace_path"] = path
        report["reports"]["ofa"]["algorithm"] = path
        assert report_json(report) == stdlib_report_json(report)


class TestSweep:
    def test_full_fee_range_row_count(self):
        cfg = RunConfig(synth_slots=12, seed=13, algorithms=("ofa", "gchase"))
        header, rows = sweep(cfg, 1.0, 100.0, 1.0)
        assert header == ["fee", "ofa_savings_pct", "gchase_savings_pct"]
        assert len(rows) == 100

    def test_single_point(self):
        cfg = RunConfig(synth_slots=12, seed=13, algorithms=("ofa",))
        _, rows = sweep(cfg, 5.0, 5.0, 1.0)
        assert len(rows) == 1
        assert rows[0][0] == 5.0

    def test_range_validation(self):
        cfg = RunConfig(synth_slots=12, seed=13, algorithms=("ofa",))
        with pytest.raises(ValidationError):
            sweep(cfg, 10.0, 5.0, 1.0)
        with pytest.raises(ValidationError):
            sweep(cfg, 1.0, 5.0, 0.0)

    def test_point_count_capped_before_any_work(self, monkeypatch):
        def no_work(*_):
            raise AssertionError("evaluated a refused sweep")

        monkeypatch.setattr(bench, "_load_trace", no_work)
        cfg = RunConfig(synth_slots=12, seed=13, algorithms=("ofa",))
        for fee_from, fee_to, step in [(1.0, 2.0, 1e-12), (0.0, float(MAX_SWEEP_POINTS), 1.0),
                                       (1.0, 5.0, 1e-320)]:
            with pytest.raises(ValidationError, match="points"):
                sweep(cfg, fee_from, fee_to, step)

    def test_point_count_at_cap_accepted(self, monkeypatch):
        class Evaluated(Exception):
            pass

        def stop(*_):
            raise Evaluated

        monkeypatch.setattr(bench, "_evaluate", stop)
        cfg = RunConfig(synth_slots=12, seed=13, algorithms=("ofa",))
        with pytest.raises(Evaluated):
            sweep(cfg, 1.0, float(MAX_SWEEP_POINTS), 1.0)

    @pytest.mark.parametrize("block_cells", [tariff.BLOCK_CELLS, 0])
    @pytest.mark.parametrize("regime", FEE_REGIMES)
    def test_shared_draws_match_fresh_points(self, monkeypatch, regime, block_cells):
        # drawn once (fits a block) or re-drawn per point, each point equals a fresh run
        monkeypatch.setattr(tariff, "BLOCK_CELLS", block_cells)
        cfg = RunConfig(synth_slots=30, seed=4, fee_regime=regime, contract_len=6,
                        algorithms=("gchase", "gchase_r"), mc_runs=8)
        _, rows = sweep(cfg, 10.0, 50.0, 20.0)
        for fee, *savings in rows:
            point = replace(cfg, beta=fee) if regime == "constant" else replace(cfg, alpha=fee / 6)
            reports = run_report(point)["reports"]
            assert savings == [reports[a]["savings_pct"] for a in cfg.algorithms]

    def test_replicate_generators_built_once(self, monkeypatch):
        seeds = []
        default_rng = np.random.default_rng

        def counted(seed=None):
            seeds.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counted)
        cfg = RunConfig(synth_slots=12, seed=3, algorithms=("ofa", "gchase_r"), mc_runs=10)
        _, rows = sweep(cfg, 1.0, 20.0, 1.0)
        assert len(rows) == 20
        assert sorted(seeds) == [3] + list(range(3, 13))  # the synthetic trace, then one per replicate

    @pytest.mark.parametrize("regime", FEE_REGIMES)
    def test_benchmark_bill_summed_once_per_command(self, monkeypatch, regime):
        calls = []
        real = bench._benchmark_cost
        monkeypatch.setattr(bench, "_benchmark_cost", lambda *args: calls.append(args) or real(*args))
        cfg = RunConfig(synth_slots=12, seed=5, fee_regime=regime)
        report = run_report(cfg)
        assert len(calls) == 1
        assert all(r["benchmark_cost"] == report["benchmark_cost"] for r in report["reports"].values())
        _, rows = sweep(cfg, 1.0, 10.0, 1.0)
        assert len(rows) == 10 and len(calls) == 2

    def test_nonpositive_fee_refused_before_any_work(self, monkeypatch):
        def no_work(*_):
            raise AssertionError("loaded a trace for a refused sweep")

        monkeypatch.setattr(bench, "_load_trace", no_work)
        for regime in FEE_REGIMES:
            with pytest.raises(ValidationError, match="fee_from"):
                sweep(RunConfig(fee_regime=regime, algorithms=("ofa",)), 0.0, 10.0, 1.0)

    @pytest.mark.parametrize("fees, needle", [
        ((5e-324, 1.0, 0.5), "alpha must be finite and > 0, got 0.0"),  # the first point's alpha underflows
        ((1e308, 1.7976931348623157e308, 7.976931348623157e307), "alpha * contract_len must be finite"),
    ], ids=["first", "last"])
    def test_point_fees_refused_before_any_work(self, monkeypatch, fees, needle):
        def no_work(*_):
            raise AssertionError("loaded a trace for a refused sweep")

        monkeypatch.setattr(bench, "_load_trace", no_work)
        with pytest.raises(ValidationError, match=re.escape(needle)):
            sweep(RunConfig(fee_regime="linear", contract_len=12, algorithms=("ofa",)), *fees)

    def test_numpy_fees_swept_as_python_floats(self):
        # float32 fees were stepped in float32 arithmetic, and the rows held float32 fees
        cfg = RunConfig(synth_slots=12, seed=13, algorithms=("ofa",))
        low, high = np.float32(0.1), np.float32(0.5)
        assert sweep(cfg, low, high, 0.1) == sweep(cfg, float(low), float(high), 0.1)

    def test_huge_fees_keep_the_optimum_monotone(self, caplog):
        # alpha near 6e307: the DP's float rounding once swamped the costs, and the optimum fell as the fee rose
        cfg = RunConfig(synth_slots=12, fee_regime="linear", contract_len=3)
        with caplog.at_level("WARNING"):
            sweep(cfg, 1e308, 1.7976931348623157e308, 1e307)
        assert not [r for r in caplog.records if "decreased" in r.getMessage()]

    def test_regimes_share_the_trace(self):
        # same seed -> same trace, so fee columns align point by point and the
        # two sweeps are directly comparable
        base = dict(synth_slots=12, seed=14, algorithms=("ofa", "gchase"))
        _, rows_c = sweep(RunConfig(fee_regime="constant", **base), 12.0, 60.0, 12.0)
        _, rows_l = sweep(RunConfig(fee_regime="linear", **base), 12.0, 60.0, 12.0)
        assert [r[0] for r in rows_c] == [r[0] for r in rows_l]
        for row in rows_c + rows_l:
            assert all(np.isfinite(v) for v in row[1:])

    def test_csv_shape(self):
        cfg = RunConfig(synth_slots=12, seed=15, algorithms=("ofa",))
        header, rows = sweep(cfg, 1.0, 3.0, 1.0)
        text = sweep_csv(header, rows, cfg)
        lines = text.strip().split("\n")
        assert lines[0].startswith("# config: ")
        assert '"seed": 15' in lines[0]
        assert lines[1] == "fee,ofa_savings_pct"
        assert len(lines) == 5


class TestVerifySuites:
    def test_oracle_suite_passes(self):
        ok, lines = run_verify_suite("oracle", 42)
        assert ok
        assert any("0 failures" in line for line in lines)

    def test_identity_suite_passes(self):
        ok, _ = run_verify_suite("identity", 42)
        assert ok

    def test_ratio_suite_passes(self):
        ok, lines = run_verify_suite("ratio", 42)
        assert ok
        assert lines[0] == "factor-3 bound: 2000 random instances, 0 violations"
        assert lines[-1] == "PASS"

    @pytest.mark.parametrize("seed", range(16))
    @pytest.mark.parametrize("suite", ["oracle", "ratio", "identity"])
    def test_suite_lines_are_pinned(self, suite, seed):
        # Lines the suites printed before they evaluated their instances in stacks; the
        # oracle suite's second line has since gained its own failure count.
        want = {
            "oracle": ["offline vs exhaustive: 200 instances, 0 failures",
                       "dp vs exhaustive: 100 instances (both fee modes), 0 failures", "PASS"],
            "ratio": ["factor-3 bound: 2000 random instances, 0 violations",
                      "adaptive adversary realized ratio: 2.9800 (floor 2.9)", "PASS"],
            "identity": ["segment identities and cost equivalence: 300 random triples, 0 failures", "PASS"],
        }
        assert run_verify_suite(suite, seed) == (True, want[suite])

    def test_montecarlo_band_is_the_declared_false_alarm_rate(self):
        # 1e-4 per seed, split over both tails of 5 instances x (2 means + up to 10 marginals)
        assert bench.MC_Z == NormalDist().inv_cdf(1.0 - 1e-4 / (2 * 5 * (2 + 10)))

    def test_unknown_suite(self):
        with pytest.raises(ValidationError):
            run_verify_suite("everything", 42)

    @pytest.mark.parametrize("suite", ["oracle", "all"])
    def test_non_integer_seed_refused(self, suite):
        with pytest.raises(ValidationError, match="seed must be an integer, got 1.5"):
            run_verify_suite(suite, 1.5)

    def test_oracle_suite_catches_a_wrong_offline_pass(self, monkeypatch):
        real = bench.offline_states
        monkeypatch.setattr(bench, "offline_states", lambda values, beta: np.ones_like(real(values, beta)))
        ok, lines = run_verify_suite("oracle", 4)
        assert not ok
        assert lines[0].startswith("offline vs exhaustive: 200 instances, ")
        assert not lines[0].endswith(" 0 failures")
        assert lines[1] == "dp vs exhaustive: 100 instances (both fee modes), 0 failures"
        assert lines[-1] == "FAIL"

    def test_oracle_suite_catches_a_wrong_dp(self, monkeypatch):
        real = bench.dp_dsp

        def off_by_one(*args):
            res = real(*args)
            return replace(res, best_cost=res.best_cost + 1.0)

        monkeypatch.setattr(bench, "dp_dsp", off_by_one)
        ok, lines = run_verify_suite("oracle", 4)
        assert not ok
        assert lines[:2] == ["offline vs exhaustive: 200 instances, 0 failures",
                             "dp vs exhaustive: 100 instances (both fee modes), 100 failures"]
        assert lines[-1] == "FAIL"

    @staticmethod
    def _only_identity_fails(affected):
        # ``affected`` collects, during the run, how many instances the mutant changes: each must fail.
        ok, lines = run_verify_suite("all", 4)
        failures = sum(affected)
        assert not ok and failures > 0
        assert f"[identity] segment identities and cost equivalence: 300 random triples, {failures} failures" in lines
        assert [line for line in lines if line.endswith(("PASS", "FAIL"))] == [
            "[oracle] PASS", "[ratio] PASS", "[montecarlo] PASS", "[identity] FAIL"]

    def test_identity_suite_catches_a_p2_form_without_its_closing_fee(self, monkeypatch):
        real, ends_on_plan_1 = bench.p2_costs, []

        def no_closing_fee(states, g0, g1, beta):
            ends_on_plan_1.append(int(states[:, -1].sum()))
            return real(states, g0, g1, beta) - beta / 2.0 * states[:, -1]

        monkeypatch.setattr(bench, "p2_costs", no_closing_fee)
        self._only_identity_fails(ends_on_plan_1)

    def test_identity_suite_catches_a_dropped_segment_fee(self, monkeypatch):
        real, with_runs = bench.phi_identity_dsps, []

        def one_fee_dropped(states, g0, g1, alpha, contract_len):
            lhs, rhs = real(states, g0, g1, alpha, contract_len)
            has_run = (states == 0).any(axis=1)
            with_runs.append(int(has_run.sum()))
            return lhs, rhs - np.where(has_run, alpha * contract_len, 0.0)

        monkeypatch.setattr(bench, "phi_identity_dsps", one_fee_dropped)
        self._only_identity_fails(with_runs)

    @pytest.mark.parametrize("seed", [4, 5, 6, 7])
    def test_suites_draw_each_horizon_as_one_stack(self, monkeypatch, seed):
        recorded = {name: [] for name in ("delta_traces", "brute_force_dsps", "phi_identity_sps")}

        def recording(name, fn):
            def wrapper(*args):
                recorded[name].append(args)
                return fn(*args)
            return wrapper

        for name in recorded:
            monkeypatch.setattr(bench, name, recording(name, getattr(bench, name)))

        def stacks(suite, name, n, costs_at=0):
            # The stacks ``name`` receives in one run of ``suite``: n instances, one stack per horizon.
            for calls in recorded.values():
                calls.clear()
            assert run_verify_suite(suite, seed)[0]
            periods = []
            for args in recorded[name]:
                g0, g1 = args[costs_at:costs_at + 2]
                assert g0.shape == g1.shape
                assert min(g0.min(), g1.min()) >= 0.0 and max(g0.max(), g1.max()) < 10.0
                periods += [g0.shape[1]] * len(g0)
            assert len(periods) == n and set(periods) <= set(range(1, 13))
            assert len(recorded[name]) == len(set(periods))
            return recorded[name]

        for suite, n in (("oracle", 200), ("ratio", 2000)):
            for g0, _, beta in stacks(suite, "delta_traces", n):
                assert beta.shape == (len(g0),) and set(beta.tolist()) <= set(bench.SP_FEES)
        modes = set()
        for g0, _, alpha, cap, mode in stacks("oracle", "brute_force_dsps", 100):
            assert set(alpha.tolist()) <= set(bench.DSP_FEES)
            assert cap.shape == (len(g0),) and cap.min() >= 1 and cap.max() <= g0.shape[1]
            modes.update(mode.tolist())
        assert modes == {"literal", "transition-only"}
        for states, g0, _, beta in stacks("identity", "phi_identity_sps", 300, costs_at=1):
            assert states.shape == g0.shape and set(np.unique(states).tolist()) <= {0, 1}
            assert beta.shape == (len(g0),) and beta.min() >= 0.1 and beta.max() < 5.0

    @pytest.mark.parametrize("suite, calls", [
        ("identity", {}),
        ("oracle", {"dp_dsp": 100}),
    ])
    def test_suites_price_whole_stacks(self, monkeypatch, suite, calls):
        # A one-row objective or identity per instance would make these suites several times slower;
        # only the DP under test runs per instance, and prices its own optimum without a checked dsp_cost.
        from planswitch import oracles, tariff

        one_row = {f.__name__: f for f in (tariff.sp_cost, tariff.p2_cost, tariff.dsp_cost, tariff.zero_runs,
                                           oracles.phi_identity_sp, oracles.phi_identity_dsp, oracles.dp_dsp)}
        counts, depth = Counter(), [0]

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[f"{name} within dp_dsp" if depth[0] else name] += 1
                depth[0] += name == "dp_dsp"
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= name == "dp_dsp"
            return wrapper

        wrappers = {name: counted(name, fn) for name, fn in one_row.items()}
        for module in [m for n, m in sys.modules.items() if n.startswith("planswitch")]:
            for attr, value in list(vars(module).items()):
                for name, fn in one_row.items():
                    if value is fn:
                        monkeypatch.setattr(module, attr, wrappers[name])
        assert run_verify_suite(suite, 4)[0]
        assert dict(counts) == calls


class TestCli:
    def test_run_writes_deterministic_json(self, tmp_path, capsys):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        args = ["run", "--slots", "12", "--seed", "5", "--algorithms", "ofa,gchase",
                "--mc-runs", "10"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert set(report["reports"]) == {"ofa", "gchase"}

    def test_synth_then_run_roundtrip(self, tmp_path):
        trace_path = tmp_path / "t.csv"
        assert main(["synth", "-T", "12", "--seed", "3", "--out", str(trace_path)]) == 0
        out = tmp_path / "r.json"
        assert main(["run", "--trace", str(trace_path), "--algorithms", "ofa",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["slots"] == 12

    def test_sweep_csv_output(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--slots", "12", "--seed", "2", "--algorithms", "ofa",
                     "--from", "1", "--to", "5", "--step", "1", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 7  # provenance comment + header + 5 fee rows
        assert lines[0].startswith("# config: ")

    def test_verify_exit_codes(self, capsys):
        assert main(["verify", "identity", "--seed", "7"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_bad_suite_rejected_by_parser(self, capsys):
        assert main(["verify", "everything"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "invalid choice" in err

    def test_bad_trace_path_is_an_error(self, capsys):
        assert main(["run", "--trace", "/nonexistent/t.csv"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_zero_slots_is_an_error(self, capsys):
        assert main(["synth", "-T", "0"]) == 2

    @pytest.mark.parametrize("flags", [[], ["--fee-regime", "linear"], ["--algorithms", "cchase"]])
    def test_overflowing_trace_names_its_slot(self, flags, tmp_path, capsys):
        # finite months whose cost overflows: the cost series refuses the slot, as one error line
        path = tmp_path / "t.csv"
        path.write_text("t,e,p0,p1,B\n1,100,0.1,0.12,100\n2,1e308,10.0,0.1,1e308\n")
        assert main(["run", "--trace", str(path), *flags]) == 2
        assert capsys.readouterr().err == "error: non-finite cost pair at slot 2\n"

    @pytest.mark.parametrize("argv", [["run"], ["sweep"], ["synth"], ["verify", "oracle"]])
    def test_negative_seed_names_the_flag(self, argv, capsys):
        assert main(argv + ["--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("slots", [MAX_SYNTH_SLOTS + 1, 100_000_000_000])
    @pytest.mark.parametrize("command", ["synth", "run"])
    def test_oversized_synthetic_trace_is_refused(self, command, slots, capsys, monkeypatch):
        def allocated(*args):
            raise AssertionError("synth_trace went past its size check")

        monkeypatch.setattr(np.random, "default_rng", allocated)
        assert main([command, "--slots", str(slots)]) == 2
        assert capsys.readouterr().err == f"error: slots must be <= {MAX_SYNTH_SLOTS}, got {slots}\n"

    def test_single_replicate_is_an_error(self, capsys):
        assert main(["run", "--slots", "12", "--mc-runs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "mc_runs must be >= 2" in err

    @pytest.mark.parametrize("runs", [MAX_MC_RUNS + 1, 100_000_000_000])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_oversized_replicate_count_is_refused(self, command, runs, capsys, monkeypatch):
        def allocated(*args):
            raise AssertionError("the replicate count went past its check")

        monkeypatch.setattr(np.random, "default_rng", allocated)
        assert main([command, "--slots", "12", "--mc-runs", str(runs)]) == 2
        assert capsys.readouterr().err == f"error: mc_runs must be <= {MAX_MC_RUNS}, got {runs}\n"

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 931. GiB for an array with shape (1000000, 1000000) and data type int8", None),
        ("", "MemoryError"),
    ], ids=["numpy", "bare"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_memory_error_is_one_line(self, command, message, line, capsys, monkeypatch):
        # run --slots 1000000 --mc-runs 1000000 asks for a 931 GiB state matrix. Whether a host refuses
        # that allocation depends on its overcommit setting, so the evaluation raises here instead.
        def refused(*args):
            raise MemoryError(message)

        monkeypatch.setattr(bench, "_evaluate", refused)
        assert main([command, "--slots", "12"]) == 2
        assert capsys.readouterr().err == f"error: {line or message}\n"

    def test_oversized_sweep_is_an_error(self, capsys):
        assert main(["sweep", "--slots", "12", "--from", "1", "--to", "2", "--step", "1e-12"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "points" in err

    def test_gapped_trace_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "gap.csv"
        path.write_text("t,e,p0,p1,B\n1,100,0.10,0.12,100\n5,90,0.1,0.11,100\n")
        assert main(["run", "--trace", str(path), "--algorithms", "ofa"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "row 2" in err


# One flag per RunConfig field: the flag, its argument, and the field's value.
CONFIG_FLAGS = [
    ("--trace", "t.csv", "trace_path", "t.csv"),
    ("--slots", "24", "synth_slots", 24),
    ("--profile", "flat", "profile", "flat"),
    ("--h-rate", "0.02", "h_rate", 0.02),
    ("--beta", "5", "beta", 5.0),
    ("--alpha", "2.5", "alpha", 2.5),
    ("--contract-len", "6", "contract_len", 6),
    ("--fee-regime", "linear", "fee_regime", "linear"),
    ("--fee-mode", "transition-only", "fee_mode", "transition-only"),
    ("--algorithms", " ofa, ,gchase ", "algorithms", ("ofa", "gchase")),
    ("--mc-runs", "7", "mc_runs", 7),
    ("--seed", "3", "seed", 3),
    ("--benchmark", "all-fixed", "benchmark", "all-fixed"),
]


class TestCliConfigDefaults:
    """A run or sweep flag left out takes RunConfig's default, so the two cannot drift apart."""

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_no_flags_give_the_dataclass_defaults(self, command):
        assert _config_from_args(build_parser().parse_args([command])) == RunConfig()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("flag, arg, field, value", CONFIG_FLAGS, ids=[f[0] for f in CONFIG_FLAGS])
    def test_one_flag_sets_one_field(self, command, flag, arg, field, value):
        config = _config_from_args(build_parser().parse_args([command, flag, arg]))
        assert config == replace(RunConfig(), **{field: value})

    def test_every_field_has_a_flag(self):
        assert sorted(f[2] for f in CONFIG_FLAGS) == sorted(f.name for f in fields(RunConfig))

    def test_sweep_range_and_out_keep_their_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert (args.fee_from, args.fee_to, args.fee_step, args.out) == (1.0, 100.0, 1.0, None)


# Each is refused by RunConfig or sweep before the trace is read, so the
# missing trace file the test names is never reported.
BAD_FLAGS = [
    (["sweep", "--fee-regime", "linear", "--contract-len", "0"], "contract_len"),
    (["run", "--fee-regime", "linear", "--contract-len", "-3"], "contract_len"),
    (["run", "--fee-regime", "linear", "--contract-len", "99999999999999999999", "--alpha", "1e-300"],
     "contract_len must be <= 9007199254740992"),
    (["sweep", "--fee-regime", "linear", "--contract-len", "9007199254740993"], "contract_len must be <="),
    (["sweep", "--fee-regime", "linear", "--from", "5e-324", "--to", "5e-324", "--contract-len", "12"],
     "error: alpha must be finite and > 0, got 0.0"),
    (["run", "--algorithms", "ofa,ofa"], "more than once"),
    (["sweep", "--algorithms", "ofa,gchase,ofa"], "more than once"),
    (["run", "--fee-regime", "linear", "--alpha", "1e308"], "alpha * contract_len"),
    (["run", "--fee-regime", "linear", "--alpha", "0"], "alpha"),
    (["run", "--fee-regime", "linear", "--alpha", "nan"], "alpha"),
    (["run", "--beta", "0"], "beta"),
    (["run", "--beta", "inf"], "beta"),
    (["run", "--h-rate", "-1"], "h_rate"),
    (["run", "--seed", "-1"], "seed"),
    (["sweep", "--seed", "-1"], "seed"),
    (["run", "--mc-runs", "1"], "mc_runs"),
    (["run", "--algorithms", "dp"], "linear"),
    (["run", "--fee-regime", "linear", "--algorithms", "cchase"], "constant"),
    (["run", "--algorithms", "magic"], "unknown algorithm"),
    (["run", "--algorithms", ","], "at least one"),
    (["sweep", "--fee-regime", "constant", "--from", "0"], "fee_from"),
    (["sweep", "--fee-regime", "linear", "--from", "-5"], "fee_from"),
    (["sweep", "--from", "5", "--to", "1"], "fee_from"),
    (["sweep", "--step", "0"], "fee_step"),
    (["sweep", "--from", "1", "--to", "2", "--step", "1e-12"], "points"),
    (["sweep", "--from", "nan"], "fee_from"),
    (["sweep", "--to", "nan"], "fee_to"),
    (["sweep", "--step", "nan"], "fee_step"),
    (["sweep", "--from", "inf", "--to", "inf"], "fee_from"),
    (["run", "--fee-regime", "bogus"], "invalid choice"),
    (["sweep", "--fee-mode", "both"], "invalid choice"),
    (["run", "--benchmark", "none"], "invalid choice"),
    (["run", "--beta", "abc"], "invalid float value"),
    (["sweep", "--step", "x"], "invalid float value"),
    (["run", "--mc-runs", "1.5"], "invalid int value"),
    (["sweep", "--contract-len", "twelve"], "invalid int value"),
    (["run", "--no-such-flag"], "unrecognized arguments"),
    (["run", "--beta"], "expected one argument"),
]


@pytest.mark.parametrize("command", [["run"], ["sweep", "--from", "1", "--to", "2"]])
def test_longest_contract_is_accepted(capsys, command):
    assert main(command + ["--fee-regime", "linear", "--slots", "30", "--contract-len", str(MAX_CONTRACT_LEN),
                           "--alpha", "1e-300", "--algorithms", "ofa,gchase,gchase_r", "--mc-runs", "10"]) == 0
    assert capsys.readouterr().err == ""


# Trace file contents (None: no such file) that fail while the trace is read.
BAD_TRACES = [
    (b"t,e,p0,p1,B\n1,100,0.10,0.12,100\n5,90,0.1,0.11,100\n", "row 2"),
    (b"t,x,p0,p1,B\n1,100,0.10,0.12,100\n", "header"),
    (b"t,e,p0,p1,B\n1,100,abc,0.12,100\n", "non-numeric"),
    (b"t,e,p0,p1,B\n1,-100,0.10,0.12,100\n", "row 1"),
    (b"t,e,p0,p1,B\n", "no data rows"),
    (b"", "empty trace"),
    (b"t,e,p0,p1,B\n1,\xff,0.1,0.1,1\n", "UTF-8"),
    (b"t,e,p0,p1,B\n1,1,1,1,1\n2," + b"1" * 200_000 + b",1,1,1\n", "row 2: field larger than field limit"),
    (b"t,e,p0,p1," + b"B" * 200_000 + b"\n1,1,1,1,1\n", "bad header: field larger than field limit"),
    (None, "No such file"),
]


@pytest.mark.parametrize(
    "argv, trace, needle",
    [pytest.param(argv, None, needle, id=" ".join(argv)) for argv, needle in BAD_FLAGS]
    + [pytest.param(["run"], trace, needle, id=f"trace {needle}") for trace, needle in BAD_TRACES],
)
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, argv, trace, needle):
    path = tmp_path / "t.csv"
    if trace is not None:
        path.write_bytes(trace)
    assert main(argv + ["--trace", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert needle in err and "Traceback" not in err


# Fees that RunConfig accepts, with costs near the top of the float range: the
# replicate statistics and the savings overflowed on the way to finite values.
HUGE_FEES = [
    ["run", "--fee-regime", "linear", "--alpha", "1e294", "--contract-len", "1000000"],
    ["run", "--fee-regime", "linear", "--alpha", "1e303", "--contract-len", "100000", "--slots", "12"],
    ["sweep", "--fee-regime", "linear", "--from", "1e300", "--to", "1e300", "--step", "1",
     "--contract-len", "1000000"],
]


@pytest.mark.parametrize("argv", HUGE_FEES, ids=["run-stderr", "run-mean", "sweep"])
def test_huge_fees_write_finite_numbers_and_no_warning(argv):
    src = os.path.dirname(os.path.dirname(bench.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-m", "planswitch.cli", *argv], capture_output=True, env=env,
                         timeout=120, text=True)
    assert out.returncode == 0, out.stderr
    assert not any(word in out.stdout for word in ("Infinity", "NaN", "inf")), out.stdout
    assert "RuntimeWarning" not in out.stderr


# Each month's variable bill is 1e308, so the all-variable benchmark's total is not a float.
HUGE_BILLS = "".join(f"{t},1e300,1e7,1e8,1e300\n" for t in (1, 2, 3))
# The plans' bills alternate between 1e308 and 0, so every schedule's total overflows.
ALTERNATING_BILLS = "".join(f"{t},1e300,{1e8 * (t % 2)},{1e8 * (1 - t % 2)},1e300\n" for t in range(1, 13))


@pytest.mark.parametrize("argv, rows, message", [
    (["run"], HUGE_BILLS, "benchmark_cost of ofa overflows a float: inf"),
    (["sweep", "--from", "1", "--to", "2"], HUGE_BILLS, "benchmark_cost of ofa overflows a float: inf"),
    (["run", "--fee-regime", "linear", "--alpha", "1e290", "--contract-len", "2"], ALTERNATING_BILLS,
     "cost of ofa overflows a float: inf"),
], ids=["run-benchmark", "sweep-benchmark", "run-cost"])
def test_overflowing_number_exits_2_with_one_line(tmp_path, capsys, argv, rows, message):
    path = tmp_path / "t.csv"
    path.write_text("t,e,p0,p1,B\n" + rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow on the way warns nothing
        assert main(argv + ["--trace", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
