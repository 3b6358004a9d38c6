"""Tests of the benchmark itself: tiny runs of every workload.

    python3 -m pytest bench

Each workload runs twice untraced and twice traced at --seconds 1. Every
run must pass its output check and print exactly the metrics BENCHMARK.json
names; the exact counts must repeat across runs of one seed and agree
between traced and untraced runs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import check
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3
COUNTS = ("solver.rounds", "solver.nonconverged", "waterfill.find_water_level.bins")


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=300,
    )


def run_ok(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", str(SEED),
                 "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    window = next(json.loads(line.split(": ", 1)[1]) for line in lines
                  if line.startswith("# window: "))
    return result, window


def declared(kind):
    return {m["name"]: m["unit"] for m in CONFIG[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in CONFIG["workloads"]])
def test_tiny_runs_are_correct_complete_and_repeatable(workload):
    plain = [run_ok(workload, 0) for _ in range(2)]
    traced = [run_ok(workload, 1) for _ in range(2)]
    for (result, _), kind in zip(plain + traced, ["end_to_end"] * 2 + ["per_layer"] * 2):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == declared(kind)
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    windows = [w for _, w in plain + traced]
    assert all(w == windows[0] for w in windows)  # counts and digest
    layer = [r["metrics"] for r, _ in traced]
    exact = [*COUNTS, *(k for k in layer[0] if k.endswith(".calls"))]
    assert all(layer[0][k]["value"] == layer[1][k]["value"] for k in exact)
    assert layer[0]["solver.rounds"]["value"] == windows[0]["rounds"]
    assert layer[0]["solver.nonconverged"]["value"] == windows[0]["nonconverged"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in CONFIG["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", CONFIG["workloads"][0]["name"], "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_check_rejects_a_profile_off_the_best_response():
    rng = np.random.default_rng(0)
    Q, N = 2, 6
    F = rng.uniform(0.0, 0.3, size=(Q, Q, N))
    F[np.arange(Q), np.arange(Q)] = 0.0
    sigma2 = rng.uniform(0.1, 1.0, size=(Q, N))
    P, pmax, eps = np.ones(Q), np.ones((Q, N)), np.full(Q, 0.05)
    p = np.full((Q, N), 1.0 / N)
    for _ in range(500):  # Jacobi rounds of the check's own best response
        levels = check.phi(F, sigma2, eps, p)
        mu = check.bisect_water_levels(levels, P, pmax)
        p = np.clip(mu[:, None] - levels, 0.0, pmax)
    assert check.check_solve(F, sigma2, P, pmax, eps, p, converged=True) == []

    moved = p.copy()
    k_hi, k_lo = np.argmax(moved[0]), np.argmin(moved[0])
    moved[0, k_hi] -= 1e-4
    moved[0, k_lo] += 1e-4  # same budget, no longer a best response
    assert any("KKT" in s for s in check.check_solve(F, sigma2, P, pmax, eps, moved, True))
    assert check.check_solve(F, sigma2, P, pmax, eps, moved, converged=False) == []
    assert any("budget" in s for s in check.check_solve(F, sigma2, P, pmax, eps, p * 1.01, False))


def test_host_scale_uses_the_samples_around_each_op():
    host = run.HostSpeed(np)
    host.at = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    host.samples = [1.0, 1.0, 2.0, 4.0, 1.0, 1.0]
    # an op at 2.5 s sits between the samples at 1, 2 and those at 3, 4;
    # ops before the first or after the last sample use the nearest ones
    got = host.scales(np.array([2.5, -1.0, 9.0]))
    assert got == pytest.approx(run.REF_NOMINAL_S / np.array([2.0, 1.0, 1.0]))
