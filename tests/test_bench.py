import json

import numpy as np
import pytest

from planswitch import (
    RunConfig,
    ValidationError,
    dsp_cost,
    gchase_r_dsp,
    parse_trace,
    protocol_cost_series,
    report_json,
    run_report,
    run_verify_suite,
    sweep,
    sweep_csv,
    synth_trace,
    trace_to_csv,
)
from planswitch import bench
from planswitch.bench import MAX_SWEEP_POINTS
from planswitch.cli import main


class TestSynth:
    def test_deterministic(self):
        a = trace_to_csv(synth_trace(12, seed=1))
        b = trace_to_csv(synth_trace(12, seed=1))
        assert a == b

    def test_seed_changes_output(self):
        assert trace_to_csv(synth_trace(12, seed=1)) != trace_to_csv(synth_trace(12, seed=2))

    def test_zero_slots_rejected(self):
        with pytest.raises(ValidationError):
            synth_trace(0, seed=1)

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
        # spot-check one underusing month by recomputing with the slot's own H
        from planswitch import slot_cost

        for i, s in enumerate(trace.slots):
            assert cs.g0[i] == slot_cost(s, 0.1 * s.fixed_rate, 0)

    def test_fixed_rate_override(self):
        trace = synth_trace(12, seed=8)
        cs = protocol_cost_series(trace, h_rate=0.0)
        from planswitch import slot_cost

        assert cs.g0[0] == slot_cost(trace.slots[0], 0.0, 0)


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

    def test_trace_file_input(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(trace_to_csv(synth_trace(12, seed=12)))
        report = run_report(RunConfig(trace_path=str(path), seed=12, algorithms=("ofa",)))
        assert report["slots"] == 12


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

    def test_unknown_suite(self):
        with pytest.raises(ValidationError):
            run_verify_suite("everything", 42)


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

    def test_bad_suite_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["verify", "everything"])

    def test_bad_trace_path_is_an_error(self, capsys):
        assert main(["run", "--trace", "/nonexistent/t.csv"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_zero_slots_is_an_error(self, capsys):
        assert main(["synth", "-T", "0"]) == 2

    def test_single_replicate_is_an_error(self, capsys):
        assert main(["run", "--slots", "12", "--mc-runs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "mc_runs must be >= 2" in err

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
