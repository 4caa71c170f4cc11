"""Reduced-size run of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload at the "smoke" size, untraced and traced, and checks
that the last stdout line carries every metric BENCHMARK.json names, with
its unit, and that the output checks ran and passed.
"""

import json
import math
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])
    env = json.loads(lines[-2])["env"]
    assert env["nproc"] >= 1 and env["blas_threads"] == env["nproc"]


def test_refuses_tree_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
