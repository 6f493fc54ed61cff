"""Smoke test of the benchmark itself, on a 1,000-node graph and tiny budgets.

    python3 -m pytest perfbench/test_smoke.py

Every workload runs untraced and traced in a fresh process, as the
benchmark is meant to be run, and must pass its output checks and emit
exactly the metric names and units that BENCHMARK.json lists.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCHMARK = json.load(_f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_workload_emits_every_metric(workload, trace, section):
    proc = run_bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "seed=3" in proc.stdout


def test_benchmark_lists_the_workloads_it_runs():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import workloads
    finally:
        del sys.path[:2]
    assert WORKLOADS == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
