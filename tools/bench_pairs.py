"""Run perfbench in paired runs of two checkouts and write a BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . --out BENCH_12.json \\
        session:1-10 held-out=session:11 cluster-job:1-5 base-update:1-6 session-units=session:21-23:400

Each RUN is [LABEL=]WORKLOAD:SEEDS[:UNITS]; SEEDS is a list such as 1-10
or 1,3,5, LABEL defaults to the workload and UNITS passes --units to
perfbench.  For each seed, `python3 perfbench/run.py --workload W --seed N`
runs once in each checkout, the two sides taking turns at running first.
Each checkout runs its own sources and its own copy of perfbench.  Then
one more run per side, of the first seed, is made in process and records
`cue.diskfs.cache_counters()` (null where the checkout has none), with a
<prefix>hit_ratio for each <prefix>hits and <prefix>misses pair.

The record of each RUN keeps every run, and for each end-to-end metric of
BENCHMARK.json (the change's copy) each side's median and quartiles
(statistics.quantiles(n=4, method="inclusive")), the pairs the change won
(ties count for neither), change_vs_parent (the change's median over the
parent's, less one), the parent's q3 - q1, and whether that is a gain: the
change won at least nine pairs in ten and its median is better by more
than the parent's q3 - q1.  Two more flags use the metric's bound:
worse_than_bound (the change's median is worse than the parent's by more
than the bound) and unresolved (the parent's q3 - q1 over its median
exceeds the bound, and not every change run beats every parent run); each
flagged metric is printed after its RUN, and so is failed_share_rose: the
change's failed / attempted operations exceed the parent's.  The file is
rewritten after every pair, and a record of another label already in it
is kept.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")

# one in-process perfbench run that prints the process's entry cache counters last
_COUNTERS_RUN = """
import json, runpy, sys
sys.argv = ["perfbench/run.py", *sys.argv[1:]]
sys.path.insert(0, "perfbench")
try:
    runpy.run_path("perfbench/run.py", run_name="__main__")
except SystemExit:
    pass
try:
    from cue.diskfs import cache_counters
except ImportError:
    print("null")
else:
    print(json.dumps(cache_counters()))
"""


def parse_run(spec: str) -> tuple[str, str, list[int], int | None]:
    """LABEL, workload, seeds and units of one [LABEL=]WORKLOAD:SEEDS[:UNITS]."""
    label, _, rest = spec.rpartition("=")
    workload, seeds, *units = rest.split(":")
    if not workload or not seeds or len(units) > 1:
        raise argparse.ArgumentTypeError(f"not [LABEL=]WORKLOAD:SEEDS[:UNITS]: {spec!r}")
    numbers: list[int] = []
    for part in seeds.split(","):
        lo, _, hi = part.partition("-")
        numbers += range(int(lo), int(hi or lo) + 1)
    return label or workload, workload, numbers, int(units[0]) if units else None


def last_json(stdout: str, what: str):
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{what} printed nothing")
    return json.loads(lines[-1])


def run_once(checkout: Path, args: list[str]) -> dict:
    """One perfbench run in a checkout: its final JSON line."""
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=checkout,
                          capture_output=True, text=True)
    try:
        return last_json(done.stdout, f"perfbench in {checkout}")
    except (RuntimeError, json.JSONDecodeError) as err:
        raise RuntimeError(f"{err}; exit {done.returncode}; stderr:\n{done.stderr[-2000:]}") from None


def counters_once(checkout: Path, args: list[str]) -> dict | None:
    """cue.diskfs.cache_counters() after one in-process perfbench run."""
    done = subprocess.run([sys.executable, "-c", _COUNTERS_RUN, *args], cwd=checkout,
                          capture_output=True, text=True)
    counters = last_json(done.stdout, f"the counters run in {checkout}")
    return None if counters is None else with_hit_ratios(counters)


def with_hit_ratios(counters: dict) -> dict:
    """counters plus <prefix>hit_ratio for each <prefix>hits and <prefix>misses pair."""
    ratios = {}
    for name, hits in counters.items():
        prefix = name.removesuffix("hits")
        if prefix != name and prefix + "misses" in counters:
            total = hits + counters[prefix + "misses"]
            if total:
                ratios[prefix + "hit_ratio"] = round(hits / total, 4)
    return {**counters, **ratios}


def summary(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def metric_record(better: str, bound: float, runs: list[dict], name: str) -> dict:
    sign = 1 if better == "lower" else -1  # sign * (parent - change) > 0: the change is better
    values = {side: [run[side]["metrics"][name]["value"] for run in runs] for side in SIDES}
    record = {"better": better, **{side: summary(values[side]) for side in SIDES}}
    record["change_wins"] = sum(sign * (p - c) > 0 for p, c in zip(values["parent"], values["change"]))
    parent, change = record["parent"], record["change"]
    record["change_vs_parent"] = round(change["median"] / parent["median"] - 1, 4) if parent["median"] else None
    record["parent_iqr"] = round(parent["q3"] - parent["q1"], 4)
    record["gain"] = (record["change_wins"] >= 0.9 * len(runs)
                      and sign * (parent["median"] - change["median"]) > record["parent_iqr"])
    record["worse_than_bound"] = (record["change_vs_parent"] is not None
                                  and sign * record["change_vs_parent"] > bound)
    beats_all = all(sign * (p - c) > 0 for p in values["parent"] for c in values["change"])
    record["unresolved"] = (bool(parent["median"]) and record["parent_iqr"] / abs(parent["median"]) > bound
                            and not beats_all)
    return record


def workload_record(workload: str, seeds: list[int], units: int | None, runs: list[dict],
                    end_to_end: list[dict], counters: dict | None) -> dict:
    failed = {side: sum(run[side]["failed"] for run in runs) for side in SIDES}
    attempted = {side: sum(run[side]["attempted"] for run in runs) for side in SIDES}
    share = {side: failed[side] / attempted[side] if attempted[side] else 0.0 for side in SIDES}
    return {
        "workload": workload,
        "seeds": seeds[: len(runs)],
        "units": units,
        "pairs": len(runs),
        "correct": all(run[side]["correct"] for run in runs for side in SIDES),
        "failed": failed,
        "attempted": attempted,
        "failed_share_rose": share["change"] > share["parent"],
        "metrics": {m["name"]: metric_record(m["better"], m["bound"], runs, m["name"]) for m in end_to_end},
        "cache_counters": counters,
        "runs": [
            {"seed": run["seed"], "first": run["first"],
             **{side: {k: v["value"] for k, v in run[side]["metrics"].items()} for side in SIDES}}
            for run in runs
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--about", default=None, help="what the change does, kept in the file")
    parser.add_argument("runs", nargs="+", type=parse_run, metavar="RUN")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    if args.about is not None:
        out["about"] = args.about
    out.update({
        "command": "python3 perfbench/run.py --workload W --seed N [--units U]",
        "machine": f"{os.cpu_count()} CPUs, {platform.machine()}, {platform.system()} {platform.release()}, "
                   f"Python {platform.python_version()}, uid {os.getuid()}",
        "protocol": "tools/bench_pairs.py: each side runs from its own checkout; pairs alternate which side "
                    "runs first. Quartiles: statistics.quantiles(n=4, method='inclusive'). change_wins counts "
                    "the pairs in which the change was better.",
    })
    records = out.setdefault("workloads", {})

    for label, workload, seeds, units in args.runs:
        common = ["--workload", workload, *(["--units", str(units)] if units is not None else [])]
        runs: list[dict] = []
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            run = {"seed": seed, "first": order[0]}
            for side in order:
                run[side] = run_once(checkouts[side], [*common, "--seed", str(seed)])
            runs.append(run)
            records[label] = workload_record(workload, seeds, units, runs, spec["end_to_end"], None)
            args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
            print(f"{label} seed {seed}: " + ", ".join(
                f"{m['name']} {run['parent']['metrics'][m['name']]['value']:.4g} -> "
                f"{run['change']['metrics'][m['name']]['value']:.4g}" for m in spec["end_to_end"]), flush=True)
        counters = {side: counters_once(checkouts[side], [*common, "--seed", str(seeds[0])]) for side in SIDES}
        records[label] = workload_record(workload, seeds, units, runs, spec["end_to_end"], counters)
        args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
        if records[label]["failed_share_rose"]:
            print(f"{label}: failed_share_rose: failed {records[label]['failed']} of attempted "
                  f"{records[label]['attempted']}", flush=True)
        for name, metric in records[label]["metrics"].items():
            for flag in ("worse_than_bound", "unresolved"):
                if metric[flag]:
                    print(f"{label}: {name} {flag}: parent {metric['parent']} -> change {metric['change']}, "
                          f"change_vs_parent {metric['change_vs_parent']}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
