"""tools/bench_pairs.py against two stub checkouts whose run.py prints fixed JSON."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"

# a stub perfbench: its metrics depend on the checkout and the seed only, and
# each run appends "<side> <seed>" to the shared log
STUB_RUN = """
import json, sys
from pathlib import Path
here = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(here / "src"))
args = sys.argv[1:]
seed = int(args[args.index("--seed") + 1])
side = here.name
with open(here.parent / "log", "a") as fh:
    fh.write(f"{side} {seed}\\n")
list_us = {"parent": 100.0 + seed, "change": 60.0 + seed}[side]
rss = {"parent": 50.0, "change": 50.0 + (seed % 2)}[side]
print("# a stub workload")
print(json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": {
    "list_p50_us": {"value": list_us, "unit": "us"},
    "throughput_ops_s": {"value": 1000.0 - list_us, "unit": "1/s"},
    "peak_rss_mib": {"value": rss, "unit": "MiB"},
}}))
"""

STUB_DISKFS = """
def cache_counters():
    return {"hits": 3, "misses": 1, "listing_hits": 1, "listing_misses": 1, "lookup_hits": 7, "lookup_misses": 1}
"""

SPEC = {"end_to_end": [
    {"name": "list_p50_us", "unit": "us", "better": "lower", "bound": 0.25},
    {"name": "throughput_ops_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.1},
]}


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stub(root: Path, side: str, *, counters: bool) -> Path:
    checkout = root / side
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(STUB_RUN)
    (checkout / "BENCHMARK.json").write_text(json.dumps(SPEC))
    (checkout / "src" / "cue").mkdir(parents=True)
    (checkout / "src" / "cue" / "__init__.py").write_text("")
    (checkout / "src" / "cue" / "diskfs.py").write_text(STUB_DISKFS if counters else "")
    return checkout


def test_paired_runs_and_their_summary(tool, tmp_path):
    parent, change = stub(tmp_path, "parent", counters=False), stub(tmp_path, "change", counters=True)
    out = tmp_path / "BENCH_0.json"
    out.write_text(json.dumps({"workloads": {"kept": {"pairs": 1}}}))
    assert tool.main(["--parent", str(parent), "--change", str(change), "--out", str(out),
                      "--about", "a stub", "session:1-4", "units=session:7:400"]) == 0

    log = (tmp_path / "log").read_text().split()
    pairs = [log[i : i + 4] for i in range(0, 16, 4)]  # the four paired runs of session:1-4
    assert [p[0::2] for p in pairs] == [["parent", "change"], ["change", "parent"]] * 2
    assert [p[1] for p in pairs] == ["1", "2", "3", "4"]
    # then one counters run per side of seed 1, and units:7 as one pair and its counters runs
    assert log[16:] == ["parent", "1", "change", "1", "parent", "7", "change", "7", "parent", "7", "change", "7"]

    bench = json.loads(out.read_text())
    assert bench["about"] == "a stub" and bench["workloads"]["kept"] == {"pairs": 1}
    record = bench["workloads"]["session"]
    assert record["seeds"] == [1, 2, 3, 4] and record["pairs"] == 4 and record["units"] is None
    assert record["correct"] is True
    assert record["failed"] == {"parent": 0, "change": 0}
    assert record["attempted"] == {"parent": 40, "change": 40}
    assert record["failed_share_rose"] is False
    assert [run["first"] for run in record["runs"]] == ["parent", "change", "parent", "change"]

    listing = record["metrics"]["list_p50_us"]
    q1, median, q3 = statistics.quantiles([101.0, 102.0, 103.0, 104.0], n=4, method="inclusive")
    assert listing["parent"] == {"median": median, "q1": q1, "q3": q3}
    assert listing["change"]["median"] == 62.5
    assert listing["change_wins"] == 4
    assert listing["change_vs_parent"] == round(62.5 / 102.5 - 1, 4)
    assert listing["parent_iqr"] == round(q3 - q1, 4)
    assert listing["gain"] is True
    assert record["metrics"]["throughput_ops_s"]["change_wins"] == 4  # higher is better
    assert listing["worse_than_bound"] is False and listing["unresolved"] is False
    rss = record["metrics"]["peak_rss_mib"]
    assert rss["change_wins"] == 0 and rss["gain"] is False  # ties count for neither side

    assert record["cache_counters"]["parent"] is None
    assert record["cache_counters"]["change"] == {
        "hits": 3, "misses": 1, "listing_hits": 1, "listing_misses": 1, "lookup_hits": 7, "lookup_misses": 1,
        "hit_ratio": 0.75, "listing_hit_ratio": 0.5, "lookup_hit_ratio": 0.875,
    }
    units = bench["workloads"]["units"]
    assert units["units"] == 400 and units["pairs"] == 1
    assert units["metrics"]["list_p50_us"]["parent"] == {"median": 107.0, "q1": 107.0, "q3": 107.0}


def test_hit_ratio_of_every_pair(tool):
    counters = {"hits": 1, "misses": 3, "new_hits": 2, "new_misses": 0, "idle_hits": 0, "idle_misses": 0,
                "lone_hits": 5, "watches": 4}
    assert tool.with_hit_ratios(counters) == {**counters, "hit_ratio": 0.25, "new_hit_ratio": 1.0}


def test_run_specs(tool):
    assert tool.parse_run("session:1-3,7") == ("session", "session", [1, 2, 3, 7], None)
    assert tool.parse_run("held-out=cluster-job:11:250") == ("held-out", "cluster-job", [11], 250)
    with pytest.raises(Exception):
        tool.parse_run("session")


def runs_of(name: str, parent: list[float], change: list[float]) -> list[dict]:
    return [{side: {"metrics": {name: {"value": value}}} for side, value in (("parent", p), ("change", c))}
            for p, c in zip(parent, change)]


def test_worse_than_bound_and_unresolved(tool):
    # a setup time that spreads wider than its 25% bound over runs of one parent
    spread = [0.078, 0.080, 0.082, 0.090, 0.120, 0.150, 0.171]
    record = tool.metric_record("lower", 0.25, runs_of("setup_s", spread, [0.106] * 7), "setup_s")
    assert record["worse_than_bound"] is False  # 0.106 / 0.090 - 1 = +17.8%, within the bound
    assert record["unresolved"] is True

    record = tool.metric_record("lower", 0.25, runs_of("setup_s", [0.080] * 4, [0.1063] * 4), "setup_s")
    assert record["worse_than_bound"] is True  # +32.9% against a 25% bound
    assert record["unresolved"] is False  # the parent's runs do not spread at all

    # every change run beats every parent run: wide parent spread, but resolved
    record = tool.metric_record("lower", 0.25, runs_of("setup_s", spread, [0.05] * 7), "setup_s")
    assert record["unresolved"] is False and record["worse_than_bound"] is False

    # higher is better: a throughput that fell by 30% is worse than a 25% bound
    record = tool.metric_record("higher", 0.25, runs_of("throughput_ops_s", [100.0] * 3, [70.0] * 3),
                                "throughput_ops_s")
    assert record["worse_than_bound"] is True and record["unresolved"] is False


def test_failed_share_rose(tool):
    def runs(failed: dict, attempted: dict) -> list[dict]:
        return [{"seed": 1, "first": "parent", **{side: {
            "correct": True, "failed": failed[side], "attempted": attempted[side], "metrics": {}}
            for side in ("parent", "change")}}]

    assert tool.workload_record("w", [1], None, runs({"parent": 1, "change": 2}, {"parent": 100, "change": 100}),
                                [], None)["failed_share_rose"] is True
    # more failures over more attempts: the same share
    assert tool.workload_record("w", [1], None, runs({"parent": 1, "change": 2}, {"parent": 100, "change": 200}),
                                [], None)["failed_share_rose"] is False
    assert tool.workload_record("w", [1], None, runs({"parent": 0, "change": 0}, {"parent": 0, "change": 0}),
                                [], None)["failed_share_rose"] is False
