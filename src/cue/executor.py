"""Applies setup plans through the sandbox or kernel backend.

The sandbox backend runs everywhere: directories are really created and
the merged view is served lazily through DiskOverlay, while namespace,
capability, and chroot steps are recorded as simulated in the transcript.
The kernel backend needs root and does all of it for real.

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
from typing import Optional

from .diskfs import DiskOverlay
from .errors import NotFound, PrivilegeRequired, RegistryConflict, StepFailed, WouldBlock
from .planner import BindMode, SetupPlan, StepKind
from .registry import FileLock

__all__ = [
    "Backend",
    "StepStatus",
    "StepOutcome",
    "ExecutionReport",
    "execute",
    "teardown",
    "view_for",
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
    total_elapsed_us: int = 0
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


def _masks_from_plan(plan: SetupPlan) -> list[tuple[str, str]]:
    return [
        (path, "empty" if mode.value == "empty-bind" else "ro")
        for path, mode in plan.config.mask_paths
    ]


def view_for(meta: dict) -> DiskOverlay:
    """Merged view of a sandbox container, from its work-dir metadata."""
    return DiskOverlay(
        [meta["lower"]],
        meta["upper"],
        masks=[tuple(m) for m in meta.get("masks", [])],
    )


def execute(
    plan: SetupPlan,
    backend: Backend | str = Backend.SANDBOX,
    *,
    run_entry: bool = False,
) -> ExecutionReport:
    """Apply every step of the plan, in ordinal order.

    The first failing step terminates execution and unwinds the steps
    already applied, in reverse order.  With run_entry=False the final
    Exec step is recorded as deferred so creating a container does not
    block on an interactive shell.
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
        return _Execution(plan, backend, run_entry).run()
    finally:
        lock.release()


class _Execution:
    def __init__(self, plan: SetupPlan, backend: Backend, run_entry: bool):
        self.plan = plan
        self.cfg = plan.config
        self.backend = backend
        self.run_entry = run_entry
        self.report = ExecutionReport(backend=backend)
        self.created_dirs: list[Path] = []
        self.started = _now_us()

    # -- bookkeeping --------------------------------------------------------

    def record(self, step, status: StepStatus, detail: str = "-", t0: int = 0) -> None:
        elapsed = _now_us() - t0 if t0 else 0
        self.report.outcomes.append(
            StepOutcome(step.ordinal, step.kind.value, status, detail, elapsed)
        )

    def fail(self, step, reason: str) -> StepFailed:
        self.record(step, StepStatus.FAILED, reason)
        self.report.total_elapsed_us = _now_us() - self.started
        self._write_transcript_and_unwind()
        err = StepFailed(step.ordinal, reason)
        err.report = self.report  # type: ignore[attr-defined]
        return err

    def _write_transcript_and_unwind(self) -> None:
        # transcript first: unwinding may remove the work dir itself
        self._write_transcript([])
        for path in reversed(self.created_dirs):
            shutil.rmtree(path, ignore_errors=True)

    def _write_transcript(self, extra: list[str]) -> None:
        work = Path(self.cfg.work_dir)
        if not work.is_dir():
            return
        by_ordinal = {o.ordinal: o for o in self.report.outcomes}
        lines = []
        for step in self.plan.steps:
            out = by_ordinal.get(step.ordinal)
            if out is None:
                continue
            suffix = f" -> {out.status.value}"
            if out.detail and out.detail != "-":
                suffix += f" ({out.detail})"
            lines.append(step.to_line() + suffix)
        lines.extend(extra)
        (work / TRANSCRIPT_NAME).write_text("\n".join(lines) + "\n", encoding="utf-8")

    def _write_meta(self) -> None:
        meta = {
            "backend": self.backend.value,
            "user": self.cfg.user,
            "hostname": self.cfg.hostname,
            "lower": self.cfg.host_root,
            "upper": self.cfg.upper_dir,
            "work": self.cfg.work_dir,
            "merged": self.cfg.merged_dir,
            "masks": _masks_from_plan(self.plan),
            "devices": [list(d) for d in self.cfg.device_allow],
            "created_dirs": [str(p) for p in self.created_dirs],
        }
        meta_path(self.cfg.work_dir).write_text(
            json.dumps(meta, indent=2) + "\n", encoding="utf-8"
        )

    # -- execution ------------------------------------------------------------

    def run(self) -> ExecutionReport:
        make_dirs = self.plan.steps[0]
        t0 = _now_us()
        for raw in make_dirs.args:
            path = Path(raw)
            if not path.exists():
                path.mkdir(parents=True)
                self.created_dirs.append(path)
        (Path(self.cfg.work_dir) / ".empty").mkdir(exist_ok=True)
        self.record(make_dirs, StepStatus.OK, t0=t0)

        if self.backend is Backend.KERNEL:
            self._run_kernel()
        else:
            self._run_sandbox()

        self.report.handle = self.cfg.work_dir
        self.report.total_elapsed_us = _now_us() - self.started
        self._write_meta()
        self._write_transcript(
            ["# uid-mapping host-root"] if self.backend is Backend.KERNEL else []
        )
        return self.report

    def _run_sandbox(self) -> None:
        for step in self.plan.steps[1:]:
            t0 = _now_us()
            if step.kind is StepKind.OVERLAY_MOUNT:
                lower = step.args[0]
                if not Path(lower).is_dir():
                    raise self.fail(step, f"lower layer missing: {lower}")
                self.record(step, StepStatus.OK, "lazy merged view bound", t0)
            elif step.kind is StepKind.BIND_MOUNT:
                src, _, mode = step.args
                if mode in (BindMode.READ_ONLY.value, BindMode.READ_WRITE.value):
                    if not Path(src).exists():
                        raise self.fail(step, f"bind source missing: {src}")
                self.record(step, StepStatus.SIMULATED, t0=t0)
            elif step.kind is StepKind.EXEC:
                if not self.run_entry:
                    self.record(step, StepStatus.SIMULATED, "deferred", t0)
                    continue
                env = {
                    "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
                    "HOME": self.cfg.merged_dir,
                }
                if os.environ.get("TERM"):
                    env["TERM"] = os.environ["TERM"]
                try:
                    proc = subprocess.run(list(step.args), cwd=self.cfg.merged_dir, env=env)
                except OSError as err:
                    raise self.fail(step, f"cannot exec {step.args[0]}: {err}")
                self.report.entry_exit_code = proc.returncode
                self.record(step, StepStatus.OK, f"exit={proc.returncode}", t0)
            else:
                # namespaces, hostname, proc remount, capability drop, chroot
                self.record(step, StepStatus.SIMULATED, t0=t0)

    def _run_kernel(self) -> None:
        from .kernel import KernelWorker

        failures: list[tuple[int, str]] = []

        def report_step(ordinal: int, ok: bool, detail: str) -> None:
            if ordinal < 0:
                failures.append((len(self.plan.steps) - 1, detail))
                return
            step = self.plan.steps[ordinal]
            if ok:
                self.record(step, StepStatus.OK, detail)
            else:
                failures.append((ordinal, detail))

        entry_rc = KernelWorker(self.plan, self.run_entry).run(report_step)
        if failures:
            ordinal, reason = failures[0]
            raise self.fail(self.plan.steps[ordinal], reason)
        if self.run_entry:
            self.report.entry_exit_code = entry_rc


def load_meta(handle: str | Path) -> dict:
    path = meta_path(handle)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise NotFound(f"no live container at {handle}") from None


def teardown(handle: str | Path) -> None:
    """Retire a container: the merged materialization goes away, the upper
    layer (the user's persistent delta) stays."""
    meta = load_meta(handle)
    merged = Path(meta["merged"])
    if merged.exists():
        shutil.rmtree(merged, ignore_errors=True)
    meta_path(handle).unlink()
