"""Self-checks of the benchmark (not part of the repository's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py
    python3 perfbench/test_perfbench.py

For one seed, the per-layer counts of a traced run with a fixed number of
units must repeat exactly across two processes; a second seed must run
clean; and BENCHMARK.json and spec.json must describe the same metrics.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
UNITS = 8  # one untraced and one traced block of run.py's TRACE_BLOCK units
WORKLOADS = ("session", "base-update", "cluster-job")
COUNT_UNITS = ("count", "B")


def traced_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--units", str(UNITS), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result


def counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in COUNT_UNITS}


def check_workload(workload: str) -> None:
    first, second = traced_run(workload, 7), traced_run(workload, 7)
    assert first["attempted"] == second["attempted"]
    assert counts(first) == counts(second)
    assert counts(first)["diskfs.read.stat_calls"] > 0
    if workload == "base-update":
        assert counts(first)["commit.entries"] == 37
        assert counts(first)["commit.base_nodes_loaded"] > 40_000
    traced_run(workload, 8)


def test_session_counts_repeat():
    check_workload("session")


def test_base_update_counts_repeat():
    check_workload("base-update")


def test_cluster_job_counts_repeat():
    check_workload("cluster-job")


def test_spec_matches_benchmark():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert sorted(names) == sorted(spec["metrics"])
    assert [w["name"] for w in bench["workloads"]] == list(spec["workloads"])


if __name__ == "__main__":
    test_spec_matches_benchmark()
    for name in WORKLOADS:
        check_workload(name)
        print(f"{name}: counts repeat")
