"""Tests of the benchmark itself: every workload at toy size in both modes,
the refusal to run without the program, and the spectral reference."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(script, workload, trace):
    return subprocess.run(
        [sys.executable, str(script), "--smoke", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric(workload, trace):
    done = run_benchmark(HERE / "run.py", workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if trace == 0:
        assert all(v > 0 for v in metrics.values())
    elif workload == "enum_sweeps":
        assert metrics["cli.known_failures"] == 1
        assert metrics["graphs.read_graph_calls"] == 0 and metrics["control.select_nodes_calls"] == 0
    else:
        assert metrics["graphs.read_graph_calls"] == 3
        assert metrics["dynamics.spectral_radius_calls"] == 3
        assert metrics["dynamics.sigma_abs_err"] < checks.SIGMA_ATOL


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = run_benchmark(tmp_path / HERE.name / "run.py", "ba_hetero", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_counts_that_differ_between_passes_are_caught():
    counts = {name: 3 for name, unit in run.PER_LAYER if unit == "count"}
    assert run.counts_repeat_between_passes([counts, dict(counts)])
    assert not run.counts_repeat_between_passes(
        [counts, {**counts, "dynamics.spectral_radius_iters": 4}])


def test_lanczos_matches_dense_eigensolver():
    rng = np.random.default_rng(3)
    n = 40
    pairs = {tuple(sorted(p)) for p in rng.integers(0, n, size=(90, 2)).tolist() if p[0] != p[1]}
    edges = np.array(sorted(pairs))
    mu, w = rng.uniform(0.1, 1.0, n), rng.uniform(0.0, 0.3, n)
    h = np.diag(1.0 - mu)
    for i, j in edges:
        h[i, j] += w[i]
        h[j, i] += w[j]
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    sigma, residual, _ = checks.lanczos_sigma(n, src, dst, mu, w)
    assert residual < 1e-9
    assert abs(sigma - max(abs(np.linalg.eigvals(h)))) < 1e-10
