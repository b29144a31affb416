#!/usr/bin/env python3
"""Benchmark of the spinbath command line: end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload echo-default --seed 0 --seconds 10 --trace 0

The workload's CLI command runs as a child process, one at a time (a closed
loop with one client), with BLAS and OpenMP pinned to one thread and the
CLI's default ``--threads 1``.  The workload seed is passed to the command
as ``--seed``.

--trace 0  runs the command once to warm up (checked, not timed), then
           repeats a cycle of one ``--dry-run`` (setup_s), one full run
           and one run of the fixed reference program
           (perfbench/reference_load.py) until the next cycle would
           overrun --seconds (at least one cycle), and prints the
           end-to-end metrics as medians over the cycles.
--trace 1  runs the command once untraced and once traced in-process
           (perfbench/trace_child.py), and prints the per-layer metrics.

Every run is checked: exit code 0, finite signals with |S| <= 1 + 1e-9,
byte-identical output files across the runs of one invocation and, at
seed 0, every CSV cell within 1e-10 of perfbench/reference/<workload>.csv.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A fuller record (environment,
every sample, failures) goes to .perfbench-work/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORK = ".perfbench-work"  # relative to ROOT, so output metadata is stable
CLI = "import sys; from spinbath.cli import main; sys.exit(main())"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
REFERENCE_ATOL = 1e-10
SIGNAL_LIMIT = 1.0 + 1e-9
MIN_COVERAGE = 0.95
# Every end-to-end quantity a --trace 0 run prints, with its unit; the
# result line carries those BENCHMARK.json lists.
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "points_per_s": "1/s",
                    "ref_s": "s", "wall_rel": "ratio"}


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]
    smoke: tuple[str, ...]  # a tiny configuration of the same command


# Why each workload is here: BENCHMARK.json and README.md in this directory.
# Each command is sized to take a few seconds, so one run of the benchmark
# holds several samples of it.
WORKLOADS = {
    "echo-default": Workload(
        ("echo", "--n-baths", "2"),
        ("echo", "--n-baths", "1", "--tau", "0:30us:10")),
    "bath-large-nv": Workload(
        ("echo", "--central", "nv", "--n-spins", "400", "--n-baths", "1",
         "--tau", "0:30us:4"),
        ("echo", "--central", "nv", "--n-spins", "150", "--n-baths", "1",
         "--tau", "0:30us:4")),
}

def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics, in the
    order BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    ended: float  # time.time() when the child had exited


def child_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("SPINBATH_OUT", None)
    return env


def spawn(cmd: list[str], log_path: str) -> Sample:
    """Run one child to completion; wall time, CPU time and peak RSS."""
    env = child_env()
    with open(os.devnull, "wb") as devnull, open(log_path, "wb") as log:
        env["PERFBENCH_LAUNCH"] = repr(time.time())  # read by trace_child
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                stdout=devnull, stderr=log)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0, proc.returncode, time.time())


def read_csv(text: str) -> tuple[list[str], list[list[float]]]:
    lines = text.strip().splitlines()
    return lines[0].split(","), [[float(c) for c in line.split(",")]
                                 for line in lines[1:]]


def max_deviation(text: str, reference: str) -> float:
    """Largest absolute cell difference; inf if the shapes differ."""
    header, rows = read_csv(text)
    ref_header, ref_rows = read_csv(reference)
    if header != ref_header or [len(r) for r in rows] != \
            [len(r) for r in ref_rows]:
        return math.inf
    return max((abs(a - b) for row, ref in zip(rows, ref_rows)
                for a, b in zip(row, ref)), default=0.0)


def output_files(out_dir: str) -> dict[str, bytes]:
    path = os.path.join(ROOT, out_dir)
    if not os.path.isdir(path):
        return {}
    files = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            files[name] = fh.read()
    return files


class Checker:
    """Correctness of every run; failures feed error_rate."""

    def __init__(self, reference: str | None):
        self.reference = reference
        self.first: dict[str, bytes] | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, reasons: list[str]):
        self.attempted += 1
        if reasons:
            self.failures.append(f"{label}: {'; '.join(reasons)}")

    def check(self, out_dir: str, exit_code: int) -> list[str]:
        """Reasons the run at out_dir failed; empty if it passed."""
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        files = output_files(out_dir)
        csv_names = [name for name in files if name.endswith(".csv")]
        if len(csv_names) != 1:
            return [f"expected one CSV output, found {csv_names}"]
        text = files[csv_names[0]].decode()
        header, rows = read_csv(text)
        column = header.index("signal")
        reasons = []
        if not all(math.isfinite(v) for row in rows for v in row):
            reasons.append("non-finite value")
        worst = max(abs(row[column]) for row in rows)
        if worst > SIGNAL_LIMIT:
            reasons.append(f"|S| = {worst!r} > 1 + 1e-9")
        if self.first is None:
            self.first = files
        elif files != self.first:
            reasons.append("rerun not byte-identical")
        if self.reference is not None:
            deviation = max_deviation(text, self.reference)
            if not deviation <= REFERENCE_ATOL:
                reasons.append(f"deviation {deviation!r} from the reference "
                               f"> {REFERENCE_ATOL}")
        return reasons


def curve_points(out_dir: str) -> int:
    """Curve points produced: baths x taus x fields."""
    files = output_files(out_dir)
    meta = next(json.loads(b) for n, b in files.items()
                if n.endswith(".meta.json"))
    csv = next(b for n, b in files.items() if n.endswith(".csv"))
    return int(meta["n_baths"]) * len(read_csv(csv.decode())[1])


class Bench:
    def __init__(self, name: str, cli_args: list[str], seed: int,
                 checker: Checker):
        self.name = name
        self.cli_args = cli_args
        self.seed = seed
        self.checker = checker
        self.out = os.path.join(WORK, "out", name)
        self.log = os.path.join(ROOT, WORK, f"{name}.stderr.log")

    def run(self, label: str, dry_run: bool = False,
            script: list[str] | None = None) -> Sample:
        shutil.rmtree(os.path.join(ROOT, self.out), ignore_errors=True)
        head = script or ["-c", CLI]
        extra = ["--dry-run"] if dry_run else []
        sample = spawn([sys.executable, *head, *self.cli_args,
                        "--out", self.out, *extra], self.log)
        if dry_run:
            reasons = [] if sample.exit_code == 0 else \
                [f"exit code {sample.exit_code}"]
        else:
            reasons = self.checker.check(self.out, sample.exit_code)
        if reasons:
            with open(self.log, encoding="utf-8", errors="replace") as fh:
                tail = fh.read().strip().splitlines()[-1:]
            reasons += tail
        self.checker.record(label, reasons)
        return sample

    def reference(self) -> Sample:
        """One run of the fixed reference program (reference_load.py)."""
        sample = spawn([sys.executable, os.path.join(HERE,
                                                     "reference_load.py")],
                       self.log)
        reasons = [] if sample.exit_code == 0 else \
            [f"exit code {sample.exit_code}"]
        self.checker.record("reference load", reasons)
        return sample

    def end_to_end(self, seconds: float) -> dict[str, list[float]]:
        """Warm up once, then repeat a cycle of a dry run, a full run and a
        reference run while a further cycle still fits in ``seconds``.
        All three are spread over the same window, so they see the same
        machine; wall_rel divides each full run by the reference run of its
        cycle."""
        self.run("warm-up")
        setup: list[float] = []
        runs: list[Sample] = []
        refs: list[Sample] = []
        start = time.perf_counter()
        while True:
            setup.append(self.run(f"dry-run {len(setup)}",
                                  dry_run=True).wall_s)
            runs.append(self.run(f"run {len(runs)}"))
            refs.append(self.reference())
            elapsed = time.perf_counter() - start
            if elapsed * (len(runs) + 1) / len(runs) > seconds:
                break
        points = curve_points(self.out) if runs[-1].exit_code == 0 else 0
        return {
            "wall_s": [s.wall_s for s in runs],
            "cpu_s": [s.cpu_s for s in runs],
            "setup_s": setup,
            "peak_rss_mb": [s.peak_rss_mb for s in runs],
            "points_per_s": [points / s.wall_s for s in runs],
            "ref_s": [r.wall_s for r in refs],
            "wall_rel": [s.wall_s / r.wall_s for s, r in zip(runs, refs)],
        }

    def traced(self) -> dict[str, list[float]]:
        untraced = self.run("untraced run")
        spans_path = os.path.join(ROOT, WORK,
                                  f"{self.name}-seed{self.seed}.spans.json")
        if os.path.exists(spans_path):
            os.remove(spans_path)
        traced = self.run("traced run", script=[
            os.path.join(HERE, "trace_child.py"), spans_path])
        if not os.path.exists(spans_path):
            return {}
        with open(spans_path, encoding="utf-8") as fh:
            trace = json.load(fh)
        metrics = dict(trace["metrics"])
        metrics["cli.out_bytes"] = sum(
            len(b) for b in output_files(self.out).values())
        # the child's spans, plus its exit, timed from its last stamp
        exit_s = traced.ended - trace["end_wall"]
        metrics["trace.coverage"] = \
            (trace["covered_s"] + exit_s) / traced.wall_s
        metrics["trace.overhead"] = traced.wall_s / untraced.wall_s - 1.0
        if metrics["trace.coverage"] < MIN_COVERAGE:
            self.checker.failures.append(
                f"traced run: named spans cover "
                f"{metrics['trace.coverage']:.3f} < {MIN_COVERAGE} of its "
                f"wall time")
        return {name: [value] for name, value in metrics.items()}


def script_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration of the workload, for tests; "
                             "no reference check")
    return parser.parse_args(argv)


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def environment() -> dict:
    """Where the numbers were taken; imports numpy after pinning threads."""
    import importlib.metadata

    import numpy

    blas: dict = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}"
                .strip(),
        "threads": {name: os.environ[name] for name in PINNED},
        "cli_threads": "default (--threads 1)",
        "loop": "closed, 1 client",
        "git_commit": git_commit(),
    }


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n}, too few for a tail percentile"
    ordered = sorted(values)
    return f"n={n}, p{100 * (n - 10) // n}={ordered[n - 11]:.6g}"


def main(argv: list[str] | None = None) -> int:
    args = script_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "spinbath", "cli.py")):
        print(f"no spinbath source under {ROOT}/src", file=sys.stderr)
        return 2
    os.environ.update(PINNED)
    # a terminated benchmark still stops its running child (see spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    os.makedirs(os.path.join(ROOT, WORK), exist_ok=True)
    workload = WORKLOADS[args.workload]
    cli_args = [*(workload.smoke if args.smoke else workload.args),
                "--seed", str(args.seed)]
    reference = None
    if args.seed == 0 and not args.smoke:
        with open(os.path.join(HERE, "reference", f"{args.workload}.csv"),
                  encoding="utf-8") as fh:
            reference = fh.read()
    checker = Checker(reference)
    bench = Bench(args.workload, cli_args, args.seed, checker)
    env = environment()
    samples = bench.traced() if args.trace else bench.end_to_end(args.seconds)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    printed = units if args.trace else END_TO_END_UNITS
    medians = {name: statistics.median(samples[name]) for name in printed
               if name in samples}
    metrics = {name: {"value": medians[name], "unit": unit}
               for name, unit in units.items() if name in medians}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"spinbath {' '.join(cli_args)}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, value in medians.items():
        detail = "" if args.trace else \
            f"  median, {tail_percentile(samples[name])}"
        print(f"{name:<40} {value:<14.6g} {printed[name]}{detail}")
    failed = len(checker.failures)
    print(f"{'error_rate':<40} {failed / checker.attempted:<14.6g} 1  "
          f"({failed} failed of {checker.attempted} runs)")
    for failure in checker.failures:
        print("FAILED " + failure)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "smoke": args.smoke, "command": cli_args,
              "environment": env, "samples": samples,
              "failures": checker.failures}
    with open(os.path.join(ROOT, WORK, f"result-{args.workload}-seed"
                           f"{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0 and len(metrics) == len(units),
                      "attempted": checker.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
