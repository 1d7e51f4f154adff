"""Run the benchmark several times and summarize the spread.

    python3 perfbench/sweep.py --runs 10 --seed 1
    python3 perfbench/sweep.py --workload session --runs 5

Each run is a separate `run.py` process with its own seed (seed, seed+1,
...), one after another.  For every end-to-end metric the summary shows the
median and quartiles over the runs and the quartile spread as a share of
the median, against the metric's bound in BENCHMARK.json.  One traced run
per workload then gives its share of self time per layer, so a later change
can point at the layer its saving came from.  Exits non-zero if any run
failed a correctness check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("session", "base-update", "cluster-job")


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stderr[-4000:])
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    result["wall_s"] = time.monotonic() - started
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """median, q1, q3 and (q3 - q1) / median, as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default all three)")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds per run (default: run_seconds of BENCHMARK.json)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or list(WORKLOADS)

    plain: dict[str, list[dict]] = {}
    traced: dict[str, dict] = {}
    for workload in workloads:
        plain[workload] = [one_run(workload, args.seed + i, seconds, 0) for i in range(args.runs)]
        traced[workload] = one_run(workload, args.seed, seconds, 1)
    ok = all(r["correct"] for w in workloads for r in (*plain[w], traced[w]))

    for workload in workloads:
        runs = plain[workload]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        wall = max(r["wall_s"] for r in runs)
        print(f"== {workload}: {len(runs)} runs (longest {wall:.0f} s), {attempted} operations, "
              f"{failed} failed (fail_ratio {failed / max(attempted, 1):.6f})")
        for entry in spec["end_to_end"]:
            values = [r["metrics"][entry["name"]]["value"] for r in runs if entry["name"] in r["metrics"]]
            if not values:
                continue
            med, q1, q3, rel = spread(values)
            flag = "ok" if rel <= entry["bound"] / 3 else ("wide" if rel <= entry["bound"] else "OVER")
            print(f"   {entry['name']:<18} median {med:14.4f} {entry['unit']:<4} "
                  f"q1 {q1:14.4f}  q3 {q3:14.4f}  spread {rel:7.3f} / bound {entry['bound']:.2f} {flag}")

    layers = ("model", "diskfs", "planner", "executor", "registry", "commit", "cluster", "bench")
    print("== traced run: share of self time per layer (%)")
    print("   " + f"{'layer':<22}" + "".join(f"{w:>14}" for w in workloads))
    for name in (*(f"{layer}.self_pct" for layer in layers), "commit.total_pct",
                 "trace.overhead_ratio", "cluster.deploy_size_ratio"):
        cells = [traced[w]["metrics"].get(name, {}).get("value") for w in workloads]
        print(f"   {name:<22}" + "".join(f"{'-':>14}" if v is None else f"{v:14.3f}" for v in cells))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
