"""Benchmark of the planswitch CLI: run, sweep and verify, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload report-constant --seed 1 --seconds 15 --trace 0

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the end-to-end
ones; with ``--trace 1`` a separate traced run reports per-layer self times
and counts. See README.md in this directory for the workloads and metrics.
"""

import os
import sys

# One thread per BLAS/OpenMP pool, set before numpy is imported here or in any
# child process, so that the load is one process on one core at a time.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_ROUNDS = 3
SETUP_PROBES_FIRST = 3
SETUP_PROBES_PER_ROUND = 2
IMPORT_PROBE = ("-c", "import planswitch.cli")

# Workload and metric names, with their units, come from BENCHMARK.json at the
# repository root, one directory up.
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


class Spawner:
    """Client of spawner.py: runs one command at a time in a small helper process."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, args, tag: str) -> tuple[dict, str, str]:
        """Run ``python args...``; returns the spawner's reply, stdout and stderr."""
        out = os.path.join(self.workdir, f"{tag}.out")
        err = os.path.join(self.workdir, f"{tag}.err")
        req = {"argv": [sys.executable, *args], "stdout": out, "stderr": err}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner exited")
        with open(out, encoding="utf-8") as fo, open(err, encoding="utf-8") as fe:
            return json.loads(reply), fo.read(), fe.read()

    def probe(self) -> float:
        reply, _, err = self.run(IMPORT_PROBE, "probe")
        if reply["returncode"] != 0:
            raise RuntimeError(f"importing planswitch.cli failed: {err.strip()}")
        return reply["wall_s"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Tally:
    """Counts operations and checks each output against the workload's checker
    and against the first output of the same command."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.stderr_lines = 0
        self.first: list = [None] * len(wl.commands)

    def record(self, i: int, returncode, out: str, err: str) -> None:
        self.attempted += 1
        self.stderr_lines += err.count("\n")
        if returncode != 0:
            self.failed += 1
            self._say(i, [f"exit {returncode}: {err.strip()[-500:]}"])
            return
        try:
            problems = self.wl.checkers[i](out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if self.first[i] is None:
            self.first[i] = out
        elif out != self.first[i]:
            problems.append("output bytes differ from the first pass")
        if problems:
            self.failed += 1
            self.correct = False
            self._say(i, problems)

    def _say(self, i: int, problems: list[str]) -> None:
        cmd = " ".join(self.wl.commands[i])
        for line in problems[:5]:
            print(f"FAIL [{cmd}]: {line}", file=sys.stderr)


def run_pass(wl, tally: Tally) -> tuple[float, float, int]:
    """One in-process pass through ``planswitch.cli.main``; returns wall and CPU
    seconds and the bytes written to stdout. The program's stdout and stderr are
    captured, not printed."""
    from planswitch import cli

    results = []
    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for argv in wl.commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crash is a failed operation, not a benchmark error
                rc = "exception"
                err.write(traceback.format_exc())
        results.append((rc, out.getvalue(), err.getvalue()))
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    for i, (rc, out, err) in enumerate(results):
        tally.record(i, rc, out, err)
    return wall, cpu, sum(len(out.encode()) for _, out, _ in results)


def _rounds(seconds: float):
    """Yield round numbers until ``seconds`` have passed, and at least MIN_ROUNDS."""
    start = time.perf_counter()
    n = 0
    while n < MIN_ROUNDS or time.perf_counter() - start < seconds:
        yield n
        n += 1


def measure(wl, spawner: Spawner, seconds: float) -> tuple[Tally, dict, str]:
    """End-to-end run. The commands run once through the CLI, for peak memory;
    then rounds of one in-process pass, the calibration work and two fresh
    interpreters importing the CLI, until ``seconds`` have passed."""
    from calibration import REFERENCE_CPU_S, Calibration

    tally = Tally(wl)
    spawner.probe()  # untimed: compiles the package's bytecode
    cli_wall, peak_kb = 0.0, 0
    for i, argv in enumerate(wl.commands):
        reply, out, err = spawner.run(("-m", "planswitch.cli", *argv), "cli")
        tally.record(i, reply["returncode"], out, err)
        cli_wall += reply["wall_s"]
        peak_kb = max(peak_kb, reply["maxrss_kb"])
    calibration = Calibration()
    run_pass(wl, tally)  # untimed warm-up
    cal = [calibration.cpu_s()]
    probes = [spawner.probe() for _ in range(SETUP_PROBES_FIRST)]
    setup = [p / cal[-1] for p in probes]
    walls, cpus, rel = [], [], []
    for _ in _rounds(seconds):
        wall, cpu, _ = run_pass(wl, tally)
        cal.append(calibration.cpu_s())
        walls.append(wall)
        cpus.append(cpu)
        rel.append(cpu / (0.5 * (cal[-2] + cal[-1])))
        round_probes = [spawner.probe() for _ in range(SETUP_PROBES_PER_ROUND)]
        probes += round_probes
        setup += [p / cal[-1] for p in round_probes]
    metrics = {"setup_s": REFERENCE_CPU_S * statistics.median(setup),
               "pass_cal": statistics.median(rel), "peak_rss_mb": peak_kb / 1024.0}
    summary = (f"{len(walls)} rounds, {len(probes)} import probes; medians pass_s "
               f"{statistics.median(walls):.4f} cpu_s {statistics.median(cpus):.4f} "
               f"calibration_s {statistics.median(cal):.4f} import_s {statistics.median(probes):.4f}; "
               f"one CLI run cli_s {cli_wall:.4f}; cpu_s {_fmt(cpus)}; "
               f"program stderr lines {tally.stderr_lines}")
    return tally, {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}, summary


def measure_traced(wl, seconds: float, spans_path: str) -> tuple[Tally, dict, str]:
    """Traced run: alternate untraced and traced passes; per-layer figures are
    medians over the traced passes, and the overhead is the difference of the
    two pass-time medians."""
    from tracer import Tracer

    tally = Tally(wl)
    tracer = Tracer()
    run_pass(wl, tally)  # untimed warm-up
    plain, traced = [], []
    for _ in _rounds(seconds):
        plain.append(run_pass(wl, tally)[0])
        tracer.install()
        out_bytes = 0
        try:
            wall, _, out_bytes = run_pass(wl, tally)
        finally:
            tracer.remove(out_bytes)
        traced.append(wall)
    tracer.write_spans(spans_path)
    values = {name: statistics.median(p.get(name, 0) for p in tracer.passes)
              for name in PER_LAYER if not name.startswith("trace.")}
    overhead = statistics.median(traced) - statistics.median(plain)
    values.update({
        "trace.pass_s": statistics.median(traced),
        "trace.untraced_pass_s": statistics.median(plain),
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / statistics.median(plain),
    })
    summary = (f"{len(traced)} traced and {len(plain)} untraced passes; "
               f"{len(tracer.spans)} spans written to {os.path.relpath(spans_path)}")
    return tally, {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}, summary


def _fmt(values) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "planswitch", "cli.py")):
        print("error: src/planswitch not found; run from the repository root", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = src
    sys.path.insert(0, src)
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}")
    os.makedirs(workdir, exist_ok=True)
    # Started before numpy is imported, so the helper stays small.
    spawner = None if args.trace else Spawner(workdir)
    try:
        import workloads

        wl = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            tally, metrics, summary = measure_traced(wl, args.seconds, os.path.join(workdir, "spans.jsonl"))
        else:
            tally, metrics, summary = measure(wl, spawner, args.seconds)
    finally:
        if spawner is not None:
            spawner.close()
    result = {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    with open(os.path.join(workdir, f"result-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    print(f"{args.workload} seed {args.seed}: {summary}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
