"""Run one benchmark workload against cue's public API and report it.

    python3 perfbench/run.py --workload session --seed 1 --trace 0

Builds the workload's fixture from the seed, several times, and times how
long cue takes to come up on each: its objects constructed and each
user's first unit of work run (set-up time is the median).  Then it runs
units of work in a closed loop with one client until --seconds have
passed (default: run_seconds of BENCHMARK.json): the next unit starts
when the last one returns.  Every output is checked; a mismatch counts as
a failed operation and makes the exit code non-zero.  All state lives in
a fresh directory under .perfbench-tmp/ in the checkout, removed at exit;
only the sandbox backend is used.

With --trace 0 the last line holds the end-to-end metrics named in
BENCHMARK.json; with --trace 1, the per-layer metrics from a traced run,
in which every other block of units runs with the layer wrappers of
tracing.py installed.
"""

from __future__ import annotations

import argparse
import array
import fcntl
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
# traced and untraced units alternate in blocks of this many, a multiple of
# every workload's user count, so both sides see every user equally
TRACE_BLOCK = 4
OPS = ("read", "stat", "write", "list")
STEP_KINDS = ("MAKE_DIRS", "OVERLAY_MOUNT", "BIND_MOUNT")
PHASES = ("recover", "scan", "plan", "stage", "journal", "apply", "clear")


def _workloads():
    from base_update import BaseUpdate
    from cluster_job import ClusterJob
    from session import Session

    return {cls.name: cls for cls in (Session, BaseUpdate, ClusterJob)}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["session", "base-update", "cluster-job"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--units", type=int, default=None,
                        help="run exactly this many units instead of --seconds (for repeatability checks)")
    return parser.parse_args(argv)


class Measurement:
    """Everything one process measured, before it is turned into metrics."""

    def __init__(self, workload, run, setups_ns, units, profile, steps):
        self.workload = workload
        self.run = run
        self.setups_ns = setups_ns
        self.units = units  # (duration_ns, traced)
        self.profile = profile
        self.steps = steps  # step kind -> [elapsed_us, ...] from traced executions


def measure(name: str, seed: int, seconds: float, trace: bool, units, scratch: Path) -> Measurement:
    from common import Run, clock
    from tracing import Profile, Tracer

    cls = _workloads()[name]
    run = Run()
    setups_ns = []
    healthy = True
    # set-up time leaves out writing the fixture: that is the harness's own
    # code, and its time swings with the filesystem's recent deletions
    for k in range(SETUPS):
        workload = cls(scratch / f"setup{k}", seed)
        workload.setup()
        gc.collect()
        gc.freeze()  # as in the timed loop: no collection walks the new fixture
        t0 = clock()
        try:
            workload.start()
            # each user's first unit: first-time directories, cold caches
            for index in range(-workload.users, 0):
                workload.unit(index, run)
        except Exception:
            run.fail(f"set-up {k} aborted: {traceback.format_exc()}")
            healthy = False
            break
        setups_ns.append(clock() - t0)
        gc.unfreeze()
    # the spare copies stay on disk until exit, so no run measures right
    # after a mass deletion of its own (see spread_allocations)
    run.forget_samples()
    workload.work_done = 0

    tracer = Tracer() if trace else None
    profile = Profile()
    steps: dict[str, list[int]] = {}
    durations = []
    gc.collect()
    gc.freeze()  # keep the fixture and the expected views out of collections
    deadline = clock() + int(seconds * 1e9)
    index = 0
    while healthy and ((index < units) if units is not None else (clock() < deadline)):
        workload.reset(index)
        traced = tracer is not None and (index // TRACE_BLOCK) % 2 == 1
        run.tracer = tracer if traced else None
        if traced:
            tracer.install()
        t0 = clock()
        try:
            workload.unit(index, run)
        except Exception:
            run.fail(f"unit {index} aborted: {traceback.format_exc()}")
            break
        finally:
            dt = clock() - t0
            if traced:
                tracer.uninstall()
                for fname, report in tracer.returns:
                    if fname == "executor.execute":
                        for outcome in report.outcomes:
                            steps.setdefault(outcome.kind, []).append(outcome.elapsed_us)
                profile.wall_ns += dt
                tracer.flush(profile)
        durations.append((dt, traced))
        index += 1
    return Measurement(workload, run, setups_ns, durations, profile, steps)


# ---------------------------------------------------------------------------
# metrics

def _pct(ordered, q):
    from common import quantile

    return quantile(ordered, q) if ordered else 0.0


def end_to_end(m: Measurement) -> dict[str, float]:
    samples = {k: sorted(v) for k, v in m.run.samples.items()}
    cycles = sorted(d for d, traced in m.units if not traced)
    us = lambda kind, q: _pct(samples.get(kind, []), q) / 1e3
    return {
        "setup_s": statistics.median(m.setups_ns) / 1e9,
        "throughput_ops_s": m.workload.work_done / (sum(d for d, _ in m.units) / 1e9),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cycle_p50_ms": _pct(cycles, 0.5) / 1e6,
        "read_p50_us": us("read", 0.5),
        "stat_p50_us": us("stat", 0.5),
        "list_p50_us": us("list", 0.5),
    }


def per_layer(m: Measurement) -> dict[str, float]:
    from tracing import LAYERS

    prof = m.profile
    wall = prof.wall_ns or 1
    out: dict[str, float] = {}
    spent = 0
    for layer in LAYERS:
        own = prof.layer_self_ns(layer)
        spent += own
        out[f"{layer}.self_pct"] = 100.0 * own / wall
    out["bench.self_pct"] = 100.0 * (wall - spent) / wall
    for op in OPS:
        n = prof.roots.get(op, 0) or 1
        model_acc = prof.root_layer(op, "model")
        disk_acc = prof.root_layer(op, "diskfs")
        out[f"model.{op}.self_us"] = model_acc[0] / n / 1e3
        out[f"model.{op}.calls"] = model_acc[1] / n
        out[f"diskfs.{op}.self_us"] = disk_acc[0] / n / 1e3
        out[f"diskfs.{op}.stat_calls"] = disk_acc[2] / n
        out[f"diskfs.{op}.scandir_calls"] = disk_acc[3] / n
        out[f"diskfs.{op}.open_calls"] = disk_acc[4] / n
    bare = sorted(m.run.bare_read_ns)
    out["os.bare_read_us"] = _pct(bare, 0.5) / 1e3
    logins = prof.roots.get("login", 0) or 1
    out["planner.plan_us"] = prof.root_layer("login", "planner")[0] / logins / 1e3
    for fname, metric in (
        ("executor.execute", "executor.execute_us"),
        ("executor.teardown", "executor.teardown_us"),
        ("registry.Registry.register", "registry.register_us"),
        ("registry.Registry.remove", "registry.remove_us"),
    ):
        calls, incl, _ = prof.name(fname)
        out[metric] = incl / (calls or 1) / 1e3
    for kind in STEP_KINDS:
        values = m.steps.get(kind, [])
        executions = len(m.steps.get("EXEC", [])) or 1
        out[f"executor.step.{kind.lower()}_us"] = sum(values) / executions

    stats = m.run.extra.get("commit", [])
    total = sum(s["total"] for s in stats) or 1
    for phase in PHASES:
        out[f"commit.{phase}_pct"] = 100.0 * sum(s[phase] for s in stats) / total
    commits = len(stats) or 1
    out["commit.total_pct"] = 100.0 * prof.name("commit.run_commit")[1] / wall
    out["commit.entries"] = sum(s["entries"] for s in stats) / commits
    out["commit.payload_bytes"] = sum(s["payload_bytes"] for s in stats) / commits
    out["commit.fsync_calls"] = sum(v[6] for (root, _), v in prof.by_root_layer.items() if root == "commit") / commits
    loaded = sum(s["base_nodes_loaded"] for s in stats)
    out["commit.base_nodes_loaded"] = loaded / commits
    out["commit.useful_ratio"] = sum(s["entries"] for s in stats) / loaded if loaded else 0.0

    for fname, metric in (
        ("cluster.attach_login", "cluster.attach_login_pct"),
        ("cluster.deploy_job", "cluster.deploy_pct"),
        ("cluster.node_view", "cluster.node_view_pct"),
        ("cluster.release_job", "cluster.release_pct"),
    ):
        out[metric] = 100.0 * prof.name(fname)[1] / wall
    deploys = m.run.extra.get("deploy_bytes", [])
    out["cluster.deploy_bytes_written"] = sum(deploys) / len(deploys) if deploys else 0.0
    small = sorted(m.run.samples.get("deploy_node_small", []))
    large = sorted(m.run.samples.get("deploy_node_large", []))
    out["cluster.deploy_size_ratio"] = _pct(large, 0.5) / _pct(small, 0.5) if small and large else 0.0

    traced = sorted(d for d, t in m.units if t)
    plain = sorted(d for d, t in m.units if not t)
    out["trace.overhead_ratio"] = _pct(traced, 0.5) / _pct(plain, 0.5) if traced and plain else 0.0
    return out


# ---------------------------------------------------------------------------
# reporting

# Printed, not in BENCHMARK.json: each exists on only some workloads, or its
# run-to-run spread here is wider than any bound (login and write create
# files, whose cost swings with the filesystem's recent deletions).  Only
# where the sample count supports the percentile:
# (name, sample kind, quantile, ns per unit, unit)
NAMED = (
    ("login_p50_ms", "login", 0.5, 1e6, "ms"),
    ("login_p90_ms", "login", 0.9, 1e6, "ms"),
    ("read_p90_us", "read", 0.9, 1e3, "us"),
    ("read_p99_us", "read", 0.99, 1e3, "us"),
    ("write_p50_us", "write", 0.5, 1e3, "us"),
    ("write_p90_us", "write", 0.9, 1e3, "us"),
    ("write_p99_us", "write", 0.99, 1e3, "us"),
    ("commit_p50_ms", "commit", 0.5, 1e6, "ms"),
    ("deploy_p50_ms", "deploy", 0.5, 1e6, "ms"),
    ("job_p50_ms", "job", 0.5, 1e6, "ms"),
)


def report_samples(m: Measurement) -> None:
    from common import tail_percentile

    samples = {k: sorted(v) for k, v in m.run.samples.items()}
    samples[{"cluster-job": "job"}.get(m.workload.name, "unit")] = sorted(d for d, t in m.units if not t)
    print(f"# {m.workload.name}: {len(m.units)} units, {m.workload.work_done} work items, "
          f"{m.run.attempted} operations, {m.run.failed} failed, closed loop, 1 client")
    print(f"#   fail_ratio {m.run.failed / max(m.run.attempted, 1):.6f}")
    for message, count in sorted(m.run.known_defects.items()):
        print(f"#   known defect, {count} times: {message}")
    for name, kind, q, scale, unit in NAMED:
        ordered = samples.get(kind, [])
        if ordered and (q == 0.5 or len(ordered) * (1 - q) >= 10):
            print(f"#   {name} {_pct(ordered, q) / scale:.4f} {unit} (n={len(ordered)})")
    for kind, ordered in sorted(samples.items()):
        if not ordered:
            continue
        tail = tail_percentile(len(ordered))
        line = f"#   {kind:<17} n={len(ordered):<7} p50={_pct(ordered, 0.5) / 1e3:12.1f} us"
        if tail > 0.5:
            line += f"  p{tail * 100:g}={_pct(ordered, tail) / 1e3:12.1f} us"
        print(line)


def report_layers(m: Measurement) -> None:
    from tracing import LAYERS

    prof = m.profile
    print(f"# traced units: {sum(1 for _, t in m.units if t)}, wall {prof.wall_ns / 1e6:.1f} ms")
    print("# self time per op (us) by layer; share of traced wall time")
    roots = [r for r in ("login", "read", "stat", "write", "list", "remove", "commit",
                         "deploy", "node_view", "release", "logout") if r in prof.roots]
    print("#   " + f"{'layer':<10}" + "".join(f"{r:>11}" for r in roots) + f"{'share%':>9}")
    for layer in LAYERS:
        cells = "".join(f"{prof.root_layer(r, layer)[0] / prof.roots[r] / 1e3:11.1f}" for r in roots)
        print(f"#   {layer:<10}{cells}{100 * prof.layer_self_ns(layer) / (prof.wall_ns or 1):9.1f}")
    executions = len(m.steps.get("EXEC", [])) or 1
    print("#   executor.step_us per execution: "
          + " ".join(f"{kind.lower()}={sum(v) / executions:.1f}" for kind, v in sorted(m.steps.items())))
    commits = m.run.extra.get("commit", [])
    if commits:
        print(f"#   commit phases, mean us over {len(commits)} traced commits: "
              + " ".join(f"{k}={statistics.fmean(s[k] for s in commits) / 1e3:.0f}" for k in (*PHASES, "total")))
    for fname in ("cluster.attach_login", "cluster.deploy_job", "cluster.node_view", "cluster.release_job"):
        calls, incl, _ = prof.name(fname)
        if calls:
            print(f"#   {fname}_us {incl / calls / 1e3:.1f} (n={calls})")


def spread_allocations(directory: Path) -> None:
    """Mark directory as a top-level directory for ext4's inode allocator.

    ext4 without a journal skips inodes freed in the last minutes when it
    allocates new ones, scanning past every such inode in a block group; a
    run that creates files where the previous run deleted tens of thousands
    pays hundreds of microseconds per created file.  With this flag each
    run's directory starts in a block group of its own.  Best effort: other
    filesystems refuse the flag and are left as they are.
    """
    fs_ioc_getflags, fs_ioc_setflags, fs_topdir_fl = 0x80086601, 0x40086602, 0x00020000
    fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    try:
        flags = array.array("i", [0])
        fcntl.ioctl(fd, fs_ioc_getflags, flags, True)
        if not flags[0] & fs_topdir_fl:
            flags[0] |= fs_topdir_fl
            fcntl.ioctl(fd, fs_ioc_setflags, flags, True)
    except OSError:
        pass
    finally:
        os.close(fd)


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cue" / "__init__.py").is_file():
        print(f"perfbench: no cue sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for var in ("CUE_STATE_ROOT", "CUE_SHARED_ROOT", "CUE_COMMIT_KILL_AT"):
        os.environ.pop(var, None)
    spec = load_benchmark()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    parent = ROOT / ".perfbench-tmp"
    parent.mkdir(exist_ok=True)
    spread_allocations(parent)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=parent))
    try:
        m = measure(args.workload, args.seed, seconds, bool(args.trace), args.units, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for message in m.run.messages:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    if len(m.setups_ns) < SETUPS:
        return 1
    report_samples(m)
    if args.trace:
        report_layers(m)
        values, wanted = per_layer(m), spec["per_layer"]
    else:
        values, wanted = end_to_end(m), spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        print(f"{entry['name']:<34} {values[entry['name']]:>16.4f} {entry['unit']}")
    correct = m.run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": m.run.attempted,
        "failed": m.run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
