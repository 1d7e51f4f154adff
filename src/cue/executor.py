"""Applies setup plans through the sandbox or kernel backend.

The sandbox backend runs everywhere: directories are really created and
the merged view is served lazily through DiskOverlay, while namespace,
capability, and chroot steps are recorded as simulated in the transcript.
The kernel backend needs root and does all of it for real (kernel.run_plan).
Both backends hand back their step outcomes, and one loop in execute()
turns them into the report and the transcript.

Either way the runtime stays daemon-less: execute() spawns nothing that
outlives it except the container's own entry process, and a kernel
container's mounts live exactly as long as its processes.

Note on the base-update immediacy claim: in the sandbox view, every
change the kernel reported before an operation began is visible to it
(diskfs names what inotify does not report).  The kernel backend
inherits whatever the host union filesystem guarantees for concurrent
lower modification, which is weaker; treat live lower edits under
running kernel containers as best-effort.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

from .diskfs import DiskOverlay
from .errors import NotFound, PrivilegeRequired, RegistryConflict, StepFailed, WouldBlock
from .planner import BindMode, ContainerConfig, MaskMode, SetupPlan, StepKind
from .registry import FileLock

__all__ = [
    "Backend",
    "StepStatus",
    "StepOutcome",
    "ExecutionReport",
    "execute",
    "teardown",
    "view_for",
    "recorded_config",
    "load_meta",
    "meta_path",
]

META_NAME = "container.json"
TRANSCRIPT_NAME = "transcript.txt"


class Backend(Enum):
    SANDBOX = "sandbox"
    KERNEL = "kernel"


class StepStatus(Enum):
    OK = "OK"
    SIMULATED = "SIMULATED"
    FAILED = "FAILED"


@dataclass(frozen=True)
class StepOutcome:
    ordinal: int
    kind: str
    status: StepStatus
    detail: str = "-"
    elapsed_us: int = 0


@dataclass
class ExecutionReport:
    backend: Backend
    outcomes: list[StepOutcome] = field(default_factory=list)
    handle: str = ""  # the container's work dir; stable across processes
    entry_exit_code: Optional[int] = None

    @property
    def ok(self) -> bool:
        return all(o.status is not StepStatus.FAILED for o in self.outcomes)


def meta_path(work_dir: str | Path) -> Path:
    return Path(work_dir) / META_NAME


def _now_us() -> int:
    return time.perf_counter_ns() // 1000


def _exec_lock_path(upper_dir: str) -> Path:
    upper = Path(upper_dir)
    return upper.parent / (upper.name + ".lock")


def view_for(meta: dict) -> DiskOverlay:
    """The merged view a recorded description opens: a container's
    container.json (load_meta) or a compute node's attachment.json.  Both
    carry "lowers" (bottom first), "upper" and "masks" ([path, "empty"|"ro"])."""
    return DiskOverlay(meta["lowers"], meta["upper"], masks=meta["masks"])


def recorded_config(meta: dict, entry_command: Sequence[str]) -> ContainerConfig:
    """The config a container.json records (its layers, masks, devices and
    hostname), with a new entry command."""
    (host_root,) = meta["lowers"]
    masks = [(p, MaskMode.EMPTY_BIND if m == "empty" else MaskMode.READ_ONLY_REMOUNT)
             for p, m in meta["masks"]]
    return ContainerConfig(meta["user"], host_root, meta["upper"], meta["work"], meta["merged"],
                           meta["hostname"], meta["devices"], masks, entry_command)


def execute(
    plan: SetupPlan,
    backend: Backend | str = Backend.SANDBOX,
    *,
    run_entry: bool = False,
) -> ExecutionReport:
    """Apply every step of the plan, in ordinal order.

    Each backend hands back its (ordinal, status, detail, elapsed_us) step
    outcomes in order, and one loop records them: at the first FAILED step
    it writes the transcript, removes the directories this execution
    created, and raises StepFailed with the report attached.
    With run_entry=False the final Exec step is recorded as deferred so
    creating a container does not block on an interactive shell.
    """
    backend = Backend(backend)
    if backend is Backend.KERNEL and os.geteuid() != 0:
        raise PrivilegeRequired("kernel backend requires root")

    overlay = plan.step(StepKind.OVERLAY_MOUNT)
    if Path(overlay.args[0]).resolve() == Path(overlay.args[3]).resolve():
        raise StepFailed(overlay.ordinal, "refusing self-overlay: lower equals merged")

    # reject two executions competing for one writable upper layer
    lock = FileLock(_exec_lock_path(plan.config.upper_dir))
    try:
        lock.acquire(blocking=False)
    except WouldBlock:
        raise RegistryConflict(
            f"another execution holds the upper layer {plan.config.upper_dir}"
        ) from None
    try:
        cfg, work = plan.config, Path(plan.config.work_dir)
        t0, created = _now_us(), []
        for path in map(Path, plan.steps[0].args):
            if not path.exists():
                path.mkdir(parents=True)
                created.append(path)
        (work / ".empty").mkdir(exist_ok=True)
        outcomes = [(0, StepStatus.OK, "-", _now_us() - t0)]
        if backend is Backend.KERNEL:
            from .kernel import run_plan

            ran, entry_rc = run_plan(plan, run_entry)
            outcomes += [(o, StepStatus.OK if ok else StepStatus.FAILED, d, 0) for o, ok, d in ran]
        else:
            ran, entry_rc = _run_sandbox(plan, run_entry)
            outcomes += ran

        report, lines = ExecutionReport(backend=backend), []
        for ordinal, status, detail, elapsed in outcomes:
            step = plan.steps[ordinal]
            report.outcomes.append(StepOutcome(ordinal, step.kind.value, status, detail, elapsed))
            lines.append(f"{step.to_line()} -> {status.value}" + (f" ({detail})" if detail != "-" else ""))
            if status is StepStatus.FAILED:
                # transcript first: unwinding may remove the work dir itself
                if work.is_dir():
                    (work / TRANSCRIPT_NAME).write_text("\n".join(lines) + "\n", encoding="utf-8")
                for path in reversed(created):
                    shutil.rmtree(path, ignore_errors=True)
                err = StepFailed(ordinal, detail)
                err.report = report  # type: ignore[attr-defined]
                raise err

        report.handle = cfg.work_dir
        if run_entry:
            report.entry_exit_code = entry_rc
        meta = {
            "backend": backend.value,
            "user": cfg.user,
            "hostname": cfg.hostname,
            "lowers": [cfg.host_root],
            "upper": cfg.upper_dir,
            "work": cfg.work_dir,
            "merged": cfg.merged_dir,
            "masks": [(p, "empty" if m is MaskMode.EMPTY_BIND else "ro") for p, m in cfg.mask_paths],
            "devices": [list(d) for d in cfg.device_allow],
        }
        meta_path(work).write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
        if backend is Backend.KERNEL:
            lines.append("# uid-mapping host-root")
        (work / TRANSCRIPT_NAME).write_text("\n".join(lines) + "\n", encoding="utf-8")
        return report
    finally:
        lock.release()


def _run_sandbox(plan: SetupPlan, run_entry: bool) -> tuple[list, int]:
    """Outcomes of the plan's steps after MakeDirs, up to the first failure,
    and the entry's exit code (0 when it is deferred).

    Directories are real and the merged view is served lazily (view_for),
    so the mount steps only check their sources; namespaces, hostname,
    proc remount, capability drop and chroot are recorded as simulated.
    """
    outcomes = []
    entry_rc = 0
    for step in plan.steps[1:]:
        t0 = _now_us()
        status, detail = StepStatus.SIMULATED, "-"
        if step.kind is StepKind.OVERLAY_MOUNT:
            lower = step.args[0]
            if Path(lower).is_dir():
                status, detail = StepStatus.OK, "lazy merged view bound"
            else:
                status, detail = StepStatus.FAILED, f"lower layer missing: {lower}"
        elif step.kind is StepKind.BIND_MOUNT:
            src, _, mode = step.args
            if mode in (BindMode.READ_ONLY.value, BindMode.READ_WRITE.value) and not Path(src).exists():
                status, detail = StepStatus.FAILED, f"bind source missing: {src}"
        elif step.kind is StepKind.EXEC and not run_entry:
            detail = "deferred"
        elif step.kind is StepKind.EXEC:
            env = {
                "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
                "HOME": plan.config.merged_dir,
            }
            if os.environ.get("TERM"):
                env["TERM"] = os.environ["TERM"]
            try:
                entry_rc = subprocess.run(list(step.args), cwd=plan.config.merged_dir, env=env).returncode
                status, detail = StepStatus.OK, f"exit={entry_rc}"
            except OSError as err:
                status, detail = StepStatus.FAILED, f"cannot exec {step.args[0]}: {err}"
        outcomes.append((step.ordinal, status, detail, _now_us() - t0))
        if status is StepStatus.FAILED:
            break
    return outcomes, entry_rc


def load_meta(handle: str | Path) -> dict:
    path = meta_path(handle)
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise NotFound(f"no live container at {handle}") from None
    if "lower" in meta:  # recorded before containers kept a list of lowers
        meta["lowers"] = [meta.pop("lower")]
    return meta


def teardown(handle: str | Path) -> None:
    """Retire a container: the merged materialization goes away, the upper
    layer (the user's persistent delta) stays."""
    meta = load_meta(handle)
    merged = Path(meta["merged"])
    if merged.exists():
        shutil.rmtree(merged, ignore_errors=True)
    meta_path(handle).unlink()
