"""Benchmark harness: container startup, file-operation stress, command
overhead.

Methodology follows the runtime's measurement discipline: a monotonic
microsecond clock, an untimed warm-up before sampling, seeded
deterministic file sets, and for stress runs the same operation performed
once through the merged view and once on the bare lower tree so the
overhead ratio isolates the layering cost.  File sets are generated in
the lower layer before timing starts; reads stream to a discard sink and
writes flip every bit of the content.

The two sides of a stress run are paired at a fine grain, so that drift
in machine speed charges both alike: a big file's two streams interleave
chunk by chunk, and each small file's view operation is timed back to
back with the same operation on its bare twin (same syscalls: read the
file, then reopen it for writing), the side that goes first alternating
file by file.  Small files get two untimed passes, not one, because the
view's first pass is the copy-up that creates the upper files; after
them small-write measures the view's cached upper-file path (lookup
included) against the bare tree.

Reports are machine-readable (JSON, optional CSV) and their summary
statistics are recomputable from the raw samples.
"""

from __future__ import annotations

import array
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .diskfs import DiskOverlay, tree_bytes
from .errors import CommandNotFound, InsufficientSpace
from .executor import Backend, _now_us, execute, teardown
from .planner import default_config, plan_create
from .registry import ContainerRecord, Registry

__all__ = [
    "Summary",
    "BenchReport",
    "StressSpec",
    "STRESS_SCENARIOS",
    "bench_startup",
    "bench_file_stress",
    "bench_exec",
]

_INVERT = bytes(b ^ 0xFF for b in range(256))
_CHUNK = 4 * 1024 * 1024

STRESS_SCENARIOS = ("small-read", "small-write", "big-read", "big-write")


@dataclass(frozen=True)
class Summary:
    mean: float
    median: float
    p95: float

    @classmethod
    def of(cls, samples: Sequence[int]) -> "Summary":
        ordered = sorted(samples)
        rank = max(0, -(-95 * len(ordered) // 100) - 1)  # nearest-rank p95
        return cls(
            mean=statistics.fmean(ordered),
            median=statistics.median(ordered),
            p95=float(ordered[rank]),
        )


@dataclass
class BenchReport:
    scenario: str
    n_iterations: int
    samples: list[int]  # microseconds
    summary: Summary
    baseline_samples: list[int] = field(default_factory=list)
    baseline_summary: Optional[Summary] = None
    overhead_ratio: Optional[float] = None
    comparison: Optional[dict] = None  # reserved for external tooling
    meta: dict = field(default_factory=dict)

    @classmethod
    def build(cls, scenario, samples, baseline_samples=(), **meta) -> "BenchReport":
        report = cls(
            scenario=scenario,
            n_iterations=len(samples),
            samples=list(samples),
            summary=Summary.of(samples),
            meta=dict(meta),
        )
        if baseline_samples:
            report.baseline_samples = list(baseline_samples)
            report.baseline_summary = Summary.of(baseline_samples)
            if report.baseline_summary.mean > 0:
                report.overhead_ratio = report.summary.mean / report.baseline_summary.mean - 1.0
        return report

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "BenchReport":
        raw = json.loads(text)
        raw["summary"] = Summary(**raw["summary"])
        if raw.get("baseline_summary"):
            raw["baseline_summary"] = Summary(**raw["baseline_summary"])
        return cls(**raw)

    def to_csv(self) -> str:
        lines = ["scenario,iteration,micros"]
        for i, sample in enumerate(self.samples):
            lines.append(f"{self.scenario},{i},{sample}")
        for i, sample in enumerate(self.baseline_samples):
            lines.append(f"{self.scenario}-baseline,{i},{sample}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# startup

def bench_startup(
    n: int,
    *,
    state_root: str | Path,
    host_root: str = "/",
    backend: Backend | str = Backend.SANDBOX,
) -> BenchReport:
    """Create and tear down n fresh containers sequentially, timing
    plan_create + execute for each; space overhead is recorded per
    container."""
    if n < 1:
        raise ValueError("n must be >= 1")
    state_root = str(state_root)
    registry = Registry(state_root)
    samples: list[int] = []
    space: list[int] = []

    def one(user: str, timed: bool) -> None:
        t0 = _now_us()
        plan = plan_create(default_config(user, state_root=state_root, host_root=host_root))
        report = execute(plan, backend)
        elapsed = _now_us() - t0
        registry.register(ContainerRecord.of(plan.config))
        if timed:
            samples.append(elapsed)
            space.append(
                tree_bytes(plan.config.upper_dir)
                + tree_bytes(plan.config.work_dir)
                + registry.record_path(user).stat().st_size
            )
        teardown(report.handle)
        registry.remove(user)
        shutil.rmtree(Path(plan.config.upper_dir).parent, ignore_errors=True)

    incomplete = False
    try:
        one("bench-warmup", timed=False)
        for i in range(n):
            one(f"bench-{i:05d}", timed=True)
    except Exception as err:
        if not samples:
            raise
        incomplete = True
        error = str(err)
    report = BenchReport.build(
        "startup",
        samples,
        backend=str(Backend(backend).value),
        space_overhead_bytes=space,
        max_space_overhead_bytes=max(space, default=0),
    )
    if incomplete:
        report.meta["incomplete"] = True
        report.meta["error"] = error
    return report


# ---------------------------------------------------------------------------
# file stress

@dataclass(frozen=True)
class StressSpec:
    scenario: str  # one of STRESS_SCENARIOS
    small_count: int = 10_000
    small_size: int = 16
    big_bytes: int = 1024**3  # production-scale default; desk runs pass >= 64 MiB
    seed: int = 20_26
    iterations: int = 3

    def __post_init__(self) -> None:
        if self.scenario not in STRESS_SCENARIOS:
            raise ValueError(f"scenario must be one of {STRESS_SCENARIOS}")
        if self.small_count < 1 or self.small_size < 0 or self.big_bytes < 1:
            raise ValueError("invalid stress sizes")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")

    @property
    def is_small(self) -> bool:
        return self.scenario.startswith("small-")

    @property
    def is_write(self) -> bool:
        return self.scenario.endswith("-write")

    def total_bytes(self) -> int:
        return self.small_count * self.small_size if self.is_small else self.big_bytes


def _spread_allocations(directory: Path) -> None:
    """Set ext4's FS_TOPDIR_FL on directory, so that each directory made in
    it starts in a block group of its own.

    Without it, the lower, bare and upper directories start in adjacent
    block groups and their files spill into each other's.  ext4 without a
    journal skips inodes freed in the last half minute, so right after
    another run's mass deletion the two sides come out laid out unlike
    each other, their files' inodes spread over different numbers of
    inode-table blocks.  Best effort: other filesystems refuse the flag.
    """
    get_flags, set_flags, topdir = 0x80086601, 0x40086602, 0x00020000
    fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    try:
        flags = array.array("i", [0])
        fcntl.ioctl(fd, get_flags, flags, True)
        flags[0] |= topdir
        fcntl.ioctl(fd, set_flags, flags, True)
    except OSError:
        pass
    finally:
        os.close(fd)


def _generate_files(target: Path, spec: StressSpec) -> list[str]:
    """Seeded deterministic file set under target/stress; returns the
    container-relative paths."""
    import random

    rng = random.Random(spec.seed)
    stress = target / "stress"
    stress.mkdir(parents=True)
    names: list[str] = []
    if spec.is_small:
        for i in range(spec.small_count):
            name = f"f{i:06d}.dat"
            (stress / name).write_bytes(rng.randbytes(spec.small_size))
            names.append(f"/stress/{name}")
    else:
        with open(stress / "big.bin", "wb") as fh:
            remaining = spec.big_bytes
            while remaining > 0:
                chunk = rng.randbytes(min(_CHUNK, remaining))
                fh.write(chunk)
                remaining -= len(chunk)
        names.append("/stress/big.bin")
    return names


def _dual_stream_read(first: Path, second: Path) -> tuple[int, int]:
    """Stream both files chunk-interleaved, timing each side separately, so
    machine-level slow periods charge both sides equally."""
    t_first = t_second = 0
    with open(first, "rb") as fa, open(second, "rb") as fb:
        while True:
            t0 = _now_us()
            chunk_a = fa.read(_CHUNK)
            t_first += _now_us() - t0
            t0 = _now_us()
            chunk_b = fb.read(_CHUNK)
            t_second += _now_us() - t0
            if not chunk_a and not chunk_b:
                return t_first, t_second


def _dual_stream_flip(first: Path, second: Path) -> tuple[int, int]:
    """Chunk-interleaved in-place bit flip of both files, timed per side."""
    t_first = t_second = 0

    def step(fh, offset: int) -> tuple[int, int]:
        t0 = _now_us()
        fh.seek(offset)
        chunk = fh.read(_CHUNK)
        if chunk:
            fh.seek(offset)
            fh.write(chunk.translate(_INVERT))
        return len(chunk), _now_us() - t0

    with open(first, "r+b") as fa, open(second, "r+b") as fb:
        off_a = off_b = 0
        while True:
            n, dt = step(fa, off_a)
            off_a += n
            t_first += dt
            done_a = n == 0
            n, dt = step(fb, off_b)
            off_b += n
            t_second += dt
            if done_a and n == 0:
                return t_first, t_second


# timed samples for the big-file scenarios accumulate this many interleaved
# passes; page-cached windows are cheap, and VM/network filesystems need
# heavy averaging before microsecond ratios mean anything. an even count
# also returns flipped content to its original bytes
_BIG_PASSES = 10


def _small_paired_pass(
    spec: StressSpec, view: DiskOverlay, paths: list[str], bare_reals: list[Path], parity: int
) -> tuple[int, int]:
    """One pass over the small-file set; each file's view operation is
    timed back to back with the same operation on its bare twin, and the
    side that goes first alternates file by file (flipped by parity), so
    drift within a pass charges both sides alike.  Returns the summed
    (view, bare) times in microseconds."""
    if spec.is_write:
        read, write = view.read_file, view.write_file

        def on_view(path: str) -> None:
            write(path, read(path).translate(_INVERT))

        def on_bare(real: Path) -> None:
            data = real.read_bytes().translate(_INVERT)
            with open(real, "wb") as fh:  # as write_file on a cached upper file
                fh.write(data)

    else:
        on_view = view.read_file

        def on_bare(real: Path) -> None:
            real.read_bytes()

    clock = time.perf_counter_ns  # per-file times are tens of microseconds
    view_ns = bare_ns = 0
    for index, (path, real) in enumerate(zip(paths, bare_reals)):
        if (index + parity) % 2 == 0:
            t0 = clock()
            on_view(path)
            t1 = clock()
            on_bare(real)
            t2 = clock()
            view_ns += t1 - t0
            bare_ns += t2 - t1
        else:
            t0 = clock()
            on_bare(real)
            t1 = clock()
            on_view(path)
            t2 = clock()
            bare_ns += t1 - t0
            view_ns += t2 - t1
    return view_ns // 1000, bare_ns // 1000


def bench_file_stress(spec: StressSpec, *, workdir: str | Path) -> BenchReport:
    """Overhead of the layered view versus the bare lower tree.

    The file set is generated in the lower layer (and an identical bare
    tree) once, from the seed.  Small files are paired file by file: two
    untimed passes bring both sides to the same on-disk state (the first
    is the view's copy-up), then each iteration sums the per-file times of
    one paired pass per side.  The big file is paired chunk by chunk: one
    untimed pass, then each iteration keeps the median of interleaved
    passes whose side order alternates.
    """
    workdir = Path(workdir)
    # workdir and its parents may not exist yet: probe the nearest ancestor that does
    probe = next(p for p in (workdir, *workdir.parents) if p.exists())
    free = shutil.disk_usage(probe).free
    # lower + bare + copied-up upper, plus slack
    if spec.total_bytes() * 3 + 64 * 1024 * 1024 > free:
        raise InsufficientSpace(
            f"need about {spec.total_bytes() * 3} bytes under {workdir}, {free} free"
        )

    area = workdir / "stress-run"
    area.mkdir(parents=True)
    _spread_allocations(area)  # the view's layers and the bare tree: one block group each
    lower = area / "lower"
    upper = area / "upper"
    bare = area / "bare"
    upper.mkdir()
    paths = _generate_files(lower, spec)
    _generate_files(bare, spec)
    view = DiskOverlay([lower], upper)
    bare_reals = [bare.joinpath(*p.strip("/").split("/")) for p in paths]

    overlay_samples: list[int] = []
    bare_samples: list[int] = []
    try:
        if spec.is_small:
            # two untimed passes: on the view side the first one is the
            # copy-up, which creates the upper files, while the bare side
            # rewrites its files in place; after the second, every timed
            # pass on either side rewrites a file already rewritten in place
            for parity in (0, 1):
                _small_paired_pass(spec, view, paths, bare_reals, parity)
            for iteration in range(spec.iterations):
                overlay_us, bare_us = _small_paired_pass(
                    spec, view, paths, bare_reals, iteration % 2
                )
                overlay_samples.append(overlay_us)
                bare_samples.append(bare_us)
        else:
            # paired design: the two streams interleave chunk by chunk so a
            # slow machine period charges both sides alike, and each sample
            # is the median pass duration, shedding leftover spikes
            dual = _dual_stream_flip if spec.is_write else _dual_stream_read
            # resolved once, before the warm-up: the open-once/read-many
            # pattern the kernel's dentry cache gives real containers
            overlay_real = view.path_for_update(paths[0]) if spec.is_write else view.real_path(paths[0])
            bare_real = bare_reals[0]
            dual(overlay_real, bare_real)  # warm-up, untimed
            for _ in range(spec.iterations):
                overlay_passes: list[int] = []
                bare_passes: list[int] = []
                for pass_index in range(_BIG_PASSES):
                    if pass_index % 2 == 0:
                        overlay_us, bare_us = dual(overlay_real, bare_real)
                    else:
                        bare_us, overlay_us = dual(bare_real, overlay_real)
                    overlay_passes.append(overlay_us)
                    bare_passes.append(bare_us)
                overlay_samples.append(int(statistics.median(overlay_passes)))
                bare_samples.append(int(statistics.median(bare_passes)))
    finally:
        shutil.rmtree(area, ignore_errors=True)

    return BenchReport.build(
        spec.scenario,
        overlay_samples,
        bare_samples,
        file_count=spec.small_count if spec.is_small else 1,
        file_bytes=spec.small_size if spec.is_small else spec.big_bytes,
        seed=spec.seed,
    )


# ---------------------------------------------------------------------------
# command overhead

def bench_exec(
    command: Sequence[str],
    repetitions: int = 10,
    *,
    state_root: str | Path,
    host_root: str = "/",
    backend: Backend | str = Backend.SANDBOX,
) -> BenchReport:
    """Time a command inside a fresh container versus bare.

    The container is created untimed for each repetition; only the
    command's wall time is sampled, with identical spawn paths on both
    sides so the ratio isolates the merged-view cost.
    """
    command = list(command)
    if not command:
        raise CommandNotFound("empty command")
    resolved = shutil.which(command[0])
    if resolved is None:
        raise CommandNotFound(command[0])
    command[0] = resolved
    state_root = str(state_root)

    plan = plan_create(
        default_config("bench-exec", state_root=state_root, host_root=host_root)
    )
    report = execute(plan, backend)
    merged = plan.config.merged_dir
    bare_cwd = Path(state_root) / "bench-exec-bare"
    bare_cwd.mkdir(parents=True, exist_ok=True)

    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "HOME": str(bare_cwd)}
    # uninstalled checkouts need this so `python -m cue.workloads` resolves
    if os.environ.get("PYTHONPATH"):
        env["PYTHONPATH"] = os.environ["PYTHONPATH"]

    def run_once(cwd: str | Path) -> tuple[int, int]:
        t0 = _now_us()
        proc = subprocess.run(
            command, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        return _now_us() - t0, proc.returncode

    inside_samples: list[int] = []
    bare_samples: list[int] = []
    exit_codes: list[int] = []
    try:
        run_once(merged)  # warm-up
        run_once(bare_cwd)
        for _ in range(repetitions):
            elapsed, code = run_once(merged)
            inside_samples.append(elapsed)
            exit_codes.append(code)
            elapsed, _ = run_once(bare_cwd)
            bare_samples.append(elapsed)
    finally:
        teardown(report.handle)
        shutil.rmtree(Path(plan.config.upper_dir).parent, ignore_errors=True)
        shutil.rmtree(bare_cwd, ignore_errors=True)

    return BenchReport.build(
        "exec",
        inside_samples,
        bare_samples,
        command=command,
        exit_codes=exit_codes,
        backend=str(Backend(backend).value),
    )
