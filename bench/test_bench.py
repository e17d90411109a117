"""Smoke tests of the benchmark itself.

Run from the repository root with ``python -m pytest bench -q``.  Each
workload runs in smoke mode (a handful of requests), untraced and traced,
and must print every metric BENCHMARK.json declares, with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, *args, timeout=170):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_declared_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        for m in declared:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    else:
        assert result["metrics"]["trace.overhead_frac"]["value"] != 0.0


def test_inputs_follow_the_seed(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    for name in WORKLOADS:
        a = workloads.build(name, 5, workdir=str(tmp_path))
        b = workloads.build(name, 5, workdir=str(tmp_path))
        c = workloads.build(name, 6, workdir=str(tmp_path))
        assert repr(a) == repr(b)
        assert repr(a) != repr(c)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                     "--seconds", "1", "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
