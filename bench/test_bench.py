"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest bench/test_bench.py -q

Each workload runs a few light ops of each kind on the reference seed, with
tracing off and on.  Every declared metric must be emitted with its declared
unit, every output must match the stored reference, and no op may fail.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCE_SEED = 0

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    DECLARED = json.load(_handle)
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
            "--seed", str(REFERENCE_SEED), "--seconds", "0.1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_and_no_op_fails(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]
    if trace:
        assert result["metrics"]["failed_ops"]["value"] == 0
    record_path = os.path.join(
        BENCH_DIR, "results", f"BENCH_{workload}_seed{REFERENCE_SEED}_trace{trace}.json")
    with open(record_path, encoding="utf-8") as handle:
        assert json.load(handle)["reference_checked"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = _run(str(tmp_path), WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
