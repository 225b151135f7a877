"""Command-line front end: run, sweep, synth, verify."""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .bench import (
    ALGORITHMS,
    BENCHMARK_PLANS,
    FEE_REGIMES,
    PROFILES,
    VERIFY_SUITES,
    RunConfig,
    report_json,
    run_report,
    run_verify_suite,
    sweep,
    sweep_csv,
    synth_trace,
    trace_to_csv,
)
from .tariff import FEE_MODES, TraceParseError, ValidationError

ALGORITHMS_HELP = "comma-separated, each at most once: " + ", ".join(
    f"{name} ({' or '.join(regimes)})" for name, regimes in ALGORITHMS.items())


class _Parser(argparse.ArgumentParser):
    """Reports a malformed flag as a ValidationError, so that ``main`` prints it
    as the one ``error:`` line and exit 2 every other bad input gets."""

    def error(self, message: str):
        raise ValidationError(message)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """The RunConfig fields; a flag left out takes the field's default (argument_default=SUPPRESS)."""
    p.add_argument("--trace", dest="trace_path", metavar="TRACE",
                   help="trace CSV path (header t,e,p0,p1,B); omit to synthesize")
    p.add_argument("--slots", dest="synth_slots", metavar="SLOTS", type=int,
                   help="synthetic trace length in months")
    p.add_argument("--profile", choices=PROFILES)
    p.add_argument("--h-rate", type=float,
                   help="fixed underusage rate $/kWh; default is 0.1x each month's fixed rate")
    p.add_argument("--beta", type=float, help="constant cancellation fee ($)")
    p.add_argument("--alpha", type=float, help="fee per residual contract month ($)")
    p.add_argument("--contract-len", type=int, help="fixed-rate contract length (months)")
    p.add_argument("--fee-regime", choices=FEE_REGIMES)
    p.add_argument("--fee-mode", choices=FEE_MODES)
    p.add_argument("--algorithms", type=lambda s: tuple(a.strip() for a in s.split(",") if a.strip()),
                   help=ALGORITHMS_HELP)
    p.add_argument("--mc-runs", type=int, help="randomized-algorithm replications")
    p.add_argument("--seed", type=int)
    p.add_argument("--benchmark", choices=BENCHMARK_PLANS)
    p.add_argument("--out", default=None, help="write output here instead of stdout")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    given = vars(args)
    return RunConfig(**{f.name: given[f.name] for f in dataclasses.fields(RunConfig) if f.name in given})


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="planswitch",
        description="Plan-switching algorithms: benchmark runs, fee sweeps, trace synthesis, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the selected algorithms on one trace, JSON report",
                           argument_default=argparse.SUPPRESS)
    _add_config_flags(p_run)

    p_sweep = sub.add_parser("sweep", help="savings per algorithm across a fee range, CSV report",
                             argument_default=argparse.SUPPRESS)
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--from", dest="fee_from", type=float, default=1.0)
    p_sweep.add_argument("--to", dest="fee_to", type=float, default=100.0)
    p_sweep.add_argument("--step", dest="fee_step", type=float, default=1.0)

    p_synth = sub.add_parser("synth", help="write a synthetic trace CSV")
    p_synth.add_argument("--slots", "-T", type=int, default=RunConfig.synth_slots)
    p_synth.add_argument("--seed", type=int, default=RunConfig.seed)
    p_synth.add_argument("--profile", default=RunConfig.profile, choices=PROFILES)
    p_synth.add_argument("--out", help="write output here instead of stdout")

    p_verify = sub.add_parser("verify", help="run a property suite; nonzero exit on failure")
    p_verify.add_argument("suite", choices=[*VERIFY_SUITES, "all"])
    p_verify.add_argument("--seed", type=int, default=42)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "run":
            report = run_report(_config_from_args(args))
            _emit(report_json(report), args.out)
            return 0
        if args.command == "sweep":
            config = _config_from_args(args)
            header, rows = sweep(config, args.fee_from, args.fee_to, args.fee_step)
            _emit(sweep_csv(header, rows, config), args.out)
            return 0
        if args.command == "synth":
            trace = synth_trace(args.slots, args.seed, args.profile)
            _emit(trace_to_csv(trace), args.out)
            return 0
        if args.command == "verify":
            ok, lines = run_verify_suite(args.suite, args.seed)
            for line in lines:
                print(line)
            return 0 if ok else 1
    except (ValidationError, TraceParseError, OSError, ValueError, MemoryError) as exc:
        print("error:", str(exc) or type(exc).__name__, file=sys.stderr)  # numpy names a refused allocation
        return 2
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
