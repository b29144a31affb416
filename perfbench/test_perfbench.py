"""Tests of the benchmark itself, on tiny configurations of each workload.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from spinbath.bathgen import child_seed, cluster_bath, generate_bath  # noqa: E402

SEED = 3


def bench(workload: str, trace: int, cwd: str = ROOT, script: str = None):
    return subprocess.run(
        [sys.executable, script or os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "0",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def printed_metrics(stdout: str) -> tuple[list[tuple[str, str]], dict]:
    """(name, unit) of every human-readable metric line, and the result."""
    lines = stdout.strip().splitlines()
    rows = []
    for line in lines[2:-1]:
        if not line.startswith("FAILED"):
            fields = line.split()
            rows.append((fields[0], fields[2]))
    return rows, json.loads(lines[-1])


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_end_to_end_metrics_printed_once_with_units(workload):
    proc = bench(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    rows, result = printed_metrics(proc.stdout)
    assert rows == list(run.END_TO_END_UNITS.items()) + [("error_rate", "1")]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 4  # warm-up, dry run, run, reference
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        run.metric_units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_metrics_and_group_counts(workload):
    proc = bench(workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    rows, result = printed_metrics(proc.stdout)
    units = run.metric_units("per_layer")
    assert rows == list(units.items()) + [("error_rate", "1")]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == list(units)
    assert result["correct"] and result["failed"] == 0
    assert metrics["trace.coverage"] >= run.MIN_COVERAGE

    args = run.WORKLOADS[workload].smoke
    n_baths = int(args[args.index("--n-baths") + 1])
    n_spins = int(args[args.index("--n-spins") + 1]) \
        if "--n-spins" in args else 125
    sizes = {1: 0, 2: 0, 3: 0}
    for index in range(n_baths):
        bath = generate_bath(child_seed(SEED, index), n_spins)
        for group in cluster_bath(bath, 3):
            sizes[len(group)] += 1
    for size, count in sizes.items():
        assert metrics[f"bathgen.groups_size{size}"] == count
    assert metrics["bathgen.cluster_bath.calls"] == n_baths
    assert metrics["bathgen.pairs"] == n_baths * n_spins * (n_spins - 1) // 2


def reference_copy(tmp_path, workload="echo-default") -> str:
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(os.path.join(HERE, "reference", f"{workload}.csv"),
                out / "echo.csv")
    return str(out)


def perturb(out_dir: str, row: int, delta: float):
    path = os.path.join(out_dir, "echo.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    tau, signal = lines[row].split(",")
    lines[row] = f"{tau},{float(signal) + delta!r}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_text(workload="echo-default") -> str:
    with open(os.path.join(HERE, "reference", f"{workload}.csv"),
              encoding="utf-8") as fh:
        return fh.read()


def test_reference_copy_passes(tmp_path):
    checker = run.Checker(reference_text())
    assert checker.check(reference_copy(tmp_path), 0) == []


@pytest.mark.parametrize("delta,reason", [
    (2e-10, "from the reference"),
    (-2e-10, "from the reference"),
    (float("nan"), "non-finite"),
])
def test_reference_check_rejects_perturbed_copy(tmp_path, delta, reason):
    out = reference_copy(tmp_path)
    perturb(out, 40, delta)
    reasons = run.Checker(reference_text()).check(out, 0)
    assert any(reason in r for r in reasons), reasons


def test_perturbation_within_tolerance_passes(tmp_path):
    out = reference_copy(tmp_path)
    perturb(out, 40, 1e-12)
    assert run.Checker(reference_text()).check(out, 0) == []


def test_signal_bound_and_rerun_identity(tmp_path):
    out = reference_copy(tmp_path)
    checker = run.Checker(None)
    assert checker.check(out, 0) == []
    perturb(out, 1, 1.0)
    reasons = checker.check(out, 0)
    assert any("|S|" in r for r in reasons), reasons
    assert any("byte-identical" in r for r in reasons), reasons
    assert checker.check(out, 1) == ["exit code 1"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("echo-default", trace=0, cwd=str(tmp_path),
                 script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
