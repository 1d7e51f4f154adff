"""Privileged backend: real namespaces, mounts, and capability drops.

Runs the plan in a double fork: the first child unshares mount/pid/uts,
the second (pid 1 of the new pid namespace) performs every mount, drops
capabilities, chroots into the merged view, and execs the entry command.
Step statuses stream back over a pipe.  All mounts live in the private
mount namespace, so they unwind when the container's processes exit; on a
mid-plan failure the worker also unmounts explicitly in reverse order.

The entry process keeps real uid 0 (no user-namespace mapping); whether
that uid may do anything interesting is decided by the capability table,
which is applied to the bounding set and all three capset vectors.
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path

from .capabilities import CapabilitySet

__all__ = ["kernel_available", "KernelWorker", "CAP_NUMBERS"]

_libc = ctypes.CDLL("libc.so.6", use_errno=True)

CLONE_NEWNS = 0x00020000
CLONE_NEWUTS = 0x04000000
CLONE_NEWPID = 0x20000000

MS_RDONLY = 1
MS_REMOUNT = 32
MS_BIND = 4096
MS_REC = 16384
MS_PRIVATE = 1 << 18

PR_CAPBSET_DROP = 24

_LINUX_CAPABILITY_VERSION_3 = 0x20080522

# Stable kernel ABI numbers (include/uapi/linux/capability.h).
CAP_NUMBERS = {
    "CAP_CHOWN": 0,
    "CAP_DAC_OVERRIDE": 1,
    "CAP_DAC_READ_SEARCH": 2,
    "CAP_FOWNER": 3,
    "CAP_FSETID": 4,
    "CAP_KILL": 5,
    "CAP_SETGID": 6,
    "CAP_SETUID": 7,
    "CAP_SETPCAP": 8,
    "CAP_LINUX_IMMUTABLE": 9,
    "CAP_NET_BIND_SERVICE": 10,
    "CAP_NET_BROADCAST": 11,
    "CAP_NET_ADMIN": 12,
    "CAP_NET_RAW": 13,
    "CAP_IPC_LOCK": 14,
    "CAP_IPC_OWNER": 15,
    "CAP_SYS_MODULE": 16,
    "CAP_SYS_RAWIO": 17,
    "CAP_SYS_CHROOT": 18,
    "CAP_SYS_PTRACE": 19,
    "CAP_SYS_PACCT": 20,
    "CAP_SYS_ADMIN": 21,
    "CAP_SYS_BOOT": 22,
    "CAP_SYS_NICE": 23,
    "CAP_SYS_RESOURCE": 24,
    "CAP_SYS_TIME": 25,
    "CAP_SYS_TTY_CONFIG": 26,
    "CAP_MKNOD": 27,
    "CAP_LEASE": 28,
    "CAP_AUDIT_WRITE": 29,
    "CAP_AUDIT_CONTROL": 30,
    "CAP_SETFCAP": 31,
    "CAP_MAC_OVERRIDE": 32,
    "CAP_MAC_ADMIN": 33,
    "CAP_SYSLOG": 34,
    "CAP_WAKE_ALARM": 35,
    "CAP_BLOCK_SUSPEND": 36,
    "CAP_AUDIT_READ": 37,
}


class _CapHeader(ctypes.Structure):
    _fields_ = [("version", ctypes.c_uint32), ("pid", ctypes.c_int)]


class _CapData(ctypes.Structure):
    _fields_ = [
        ("effective", ctypes.c_uint32),
        ("permitted", ctypes.c_uint32),
        ("inheritable", ctypes.c_uint32),
    ]


def _oserror(what: str) -> OSError:
    errno = ctypes.get_errno()
    return OSError(errno, f"{what}: {os.strerror(errno)}")


def _unshare(flags: int) -> None:
    if _libc.unshare(flags) != 0:
        raise _oserror(f"unshare(0x{flags:x})")


def _mount(src, target, fstype, flags, data) -> None:
    rc = _libc.mount(
        src.encode() if src else None,
        str(target).encode(),
        fstype.encode() if fstype else None,
        flags,
        data.encode() if data else None,
    )
    if rc != 0:
        raise _oserror(f"mount {src} -> {target}")


def _umount(target) -> None:
    _libc.umount2(str(target).encode(), 0)


def _sethostname(name: str) -> None:
    raw = name.encode()
    if _libc.sethostname(raw, len(raw)) != 0:
        raise _oserror(f"sethostname({name})")


def _capset_mask(mask: int) -> None:
    """Lower effective/permitted/inheritable to their intersection with mask."""
    header = _CapHeader(version=_LINUX_CAPABILITY_VERSION_3, pid=0)
    current = (_CapData * 2)()
    if _libc.capget(ctypes.byref(header), current) != 0:
        raise _oserror("capget")
    header = _CapHeader(version=_LINUX_CAPABILITY_VERSION_3, pid=0)
    data = (_CapData * 2)()
    for i, shift in ((0, 0), (1, 32)):
        word = (mask >> shift) & 0xFFFFFFFF
        data[i].permitted = current[i].permitted & word
        data[i].effective = current[i].effective & word
        data[i].inheritable = current[i].inheritable & word
    if _libc.capset(ctypes.byref(header), data) != 0:
        raise _oserror("capset")


def drop_capabilities(policy: CapabilitySet, keep_transient: frozenset[str] = frozenset()) -> None:
    """Restrict the bounding set and all capset vectors to the allow list.

    Capabilities cannot be raised, only kept or dropped, so the result is
    the intersection of the allow list with what the launcher holds.
    keep_transient names caps left in effective/permitted (never in the
    bounding set) so the remaining setup steps can finish; callers shed
    them with shed_transient() immediately afterwards.
    """
    allowed = {CAP_NUMBERS[name] for name in policy.allowed() if name in CAP_NUMBERS}
    transient = {CAP_NUMBERS[name] for name in keep_transient if name in CAP_NUMBERS}
    try:
        last_cap = int(Path("/proc/sys/kernel/cap_last_cap").read_text())
    except OSError:
        last_cap = max(CAP_NUMBERS.values())
    for cap in range(last_cap + 1):
        if cap in allowed:
            continue
        if _libc.prctl(PR_CAPBSET_DROP, cap, 0, 0, 0) != 0:
            raise _oserror(f"prctl(PR_CAPBSET_DROP, {cap})")
    mask = 0
    for cap in allowed | transient:
        mask |= 1 << cap
    _capset_mask(mask)


def shed_transient(policy: CapabilitySet) -> None:
    """Drop everything outside the allow list from the capset vectors."""
    mask = 0
    for name in policy.allowed():
        if name in CAP_NUMBERS:
            mask |= 1 << CAP_NUMBERS[name]
    _capset_mask(mask)


def kernel_available(scratch: Path) -> tuple[bool, str]:
    """Probe whether this host can run the kernel backend (forked, so the
    calling process keeps its namespaces)."""
    if os.geteuid() != 0:
        return False, "not running as root"
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            _unshare(CLONE_NEWNS | CLONE_NEWUTS | CLONE_NEWPID)
            _mount("none", "/", None, MS_REC | MS_PRIVATE, None)
            base = Path(scratch)
            base.mkdir(parents=True, exist_ok=True)
            _mount("tmpfs", base, "tmpfs", 0, "size=16m")
            for sub in ("upper", "work", "merged"):
                (base / sub).mkdir()
            _mount(
                "overlay",
                base / "merged",
                "overlay",
                0,
                f"lowerdir=/,upperdir={base}/upper,workdir={base}/work",
            )
            _umount(base / "merged")
            _umount(base)
            code = 0
        except OSError as err:
            os.write(write_fd, str(err).encode()[:200])
        finally:
            os.close(write_fd)
            os._exit(code)
    os.close(write_fd)
    reason = os.read(read_fd, 256).decode(errors="replace")
    os.close(read_fd)
    _, status = os.waitpid(pid, 0)
    ok = os.waitstatus_to_exitcode(status) == 0
    return ok, reason or ("ok" if ok else "probe failed")


class KernelWorker:
    """Executes the namespace/mount/exec part of a plan in forked children.

    The caller (executor) handles MakeDirs, locking, transcripts, and
    report assembly; this class owns everything that needs privilege.
    """

    def __init__(self, plan, run_entry: bool):
        self.plan = plan
        self.run_entry = run_entry

    def run(self, report_step) -> int:
        """Fork off the container; report_step(ordinal, ok, detail) is called
        for each privileged step. Returns the entry's exit code (0 when the
        entry is deferred)."""
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            try:
                self._child_outer(write_fd)
            except BaseException as err:  # never unwind into the caller
                try:
                    os.write(write_fd, f"ABORT {err}\n".encode())
                except OSError:
                    pass
                os._exit(11)
            os._exit(0)
        os.close(write_fd)
        entry_rc = 0
        with os.fdopen(read_fd) as pipe:
            for line in pipe:
                line = line.rstrip("\n")
                if line.startswith("STEP "):
                    _, ordinal, status, detail = line.split(" ", 3)
                    report_step(int(ordinal), status == "OK", detail)
                elif line.startswith("ABORT "):
                    report_step(-1, False, line[len("ABORT "):])
        _, status = os.waitpid(pid, 0)
        rc = os.waitstatus_to_exitcode(status)
        if self.run_entry:
            entry_rc = rc
        return entry_rc

    # -- children ----------------------------------------------------------

    def _report(self, fd: int, ordinal: int, ok: bool, detail: str) -> None:
        detail = detail.replace("\n", " ") or "-"
        os.write(fd, f"STEP {ordinal} {'OK' if ok else 'FAILED'} {detail}\n".encode())

    def _child_outer(self, fd: int) -> None:
        from .planner import StepKind  # local import to keep fork cheap

        ns_steps = [s for s in self.plan.steps if s.kind is StepKind.NEW_NAMESPACE]
        try:
            _unshare(CLONE_NEWNS | CLONE_NEWUTS | CLONE_NEWPID)
            _mount("none", "/", None, MS_REC | MS_PRIVATE, None)
        except OSError as err:
            for step in ns_steps:
                self._report(fd, step.ordinal, False, str(err))
            os._exit(11)
        for step in ns_steps:
            self._report(fd, step.ordinal, True, "unshared")
        inner = os.fork()
        if inner == 0:
            try:
                self._child_inner(fd)
            except BaseException as err:
                try:
                    os.write(fd, f"ABORT {err}\n".encode())
                except OSError:
                    pass
                os._exit(11)
            os._exit(0)
        _, status = os.waitpid(inner, 0)
        rc = os.waitstatus_to_exitcode(status)
        os._exit(rc if rc >= 0 else 128 - rc)

    def _child_inner(self, fd: int) -> None:
        from .planner import StepKind

        cfg = self.plan.config
        mounted: list[str] = []

        def do(step, fn) -> None:
            try:
                fn()
            except OSError as err:
                self._report(fd, step.ordinal, False, str(err))
                for target in reversed(mounted):
                    _umount(target)
                os._exit(11)
            self._report(fd, step.ordinal, True, "-")

        for step in self.plan.steps:
            if step.kind is StepKind.OVERLAY_MOUNT:
                lower, upper, work, merged = step.args

                def overlay():
                    _mount(
                        "overlay",
                        merged,
                        "overlay",
                        0,
                        f"lowerdir={lower},upperdir={upper},workdir={work}",
                    )
                    mounted.append(merged)

                do(step, overlay)
            elif step.kind is StepKind.SET_HOSTNAME:
                do(step, lambda: _sethostname(step.args[0]))
            elif step.kind is StepKind.BIND_MOUNT:
                do(step, self._binder(step, mounted))
            elif step.kind is StepKind.REMOUNT_PROC:
                proc = Path(cfg.merged_dir) / "proc"

                def remount_proc():
                    proc.mkdir(parents=True, exist_ok=True)
                    _mount("proc", proc, "proc", 0, None)
                    mounted.append(str(proc))

                do(step, remount_proc)
            elif step.kind is StepKind.DROP_CAPABILITIES:
                do(
                    step,
                    lambda: drop_capabilities(
                        self.plan.capability_set,
                        keep_transient=frozenset({"CAP_SYS_CHROOT"}),
                    ),
                )
            elif step.kind is StepKind.CHANGE_ROOT:
                def change_root():
                    os.chroot(cfg.merged_dir)
                    os.chdir("/")
                    # the one capability held past the drop step, now shed
                    shed_transient(self.plan.capability_set)

                do(step, change_root)
            elif step.kind is StepKind.EXEC:
                if not self.run_entry:
                    self._report(fd, step.ordinal, True, "deferred")
                    os._exit(0)
                self._report(fd, step.ordinal, True, "exec")
                env = {
                    "PATH": "/usr/local/sbin:/usr/local/bin:/usr/sbin:/usr/bin:/sbin:/bin",
                    "HOME": "/root",
                }
                if os.environ.get("TERM"):
                    env["TERM"] = os.environ["TERM"]
                os.close(fd)
                os.execvpe(step.args[0], list(step.args), env)

    def _binder(self, step, mounted: list[str]):
        from .planner import BindMode

        src, dst, mode = step.args

        def bind():
            dst_path = Path(dst)
            if mode == BindMode.REMOUNT_RO.value:
                _mount(src, dst, None, MS_BIND, None)
                _mount(None, dst, None, MS_BIND | MS_REMOUNT | MS_RDONLY, None)
                mounted.append(dst)
                return
            src_path = Path(src)
            if mode == BindMode.EMPTY.value:
                src_path.mkdir(parents=True, exist_ok=True)
                dst_path.mkdir(parents=True, exist_ok=True)
            else:
                dst_path.parent.mkdir(parents=True, exist_ok=True)
                if src_path.is_dir():
                    dst_path.mkdir(exist_ok=True)
                else:
                    dst_path.touch(exist_ok=True)
            _mount(src, dst, None, MS_BIND, None)
            mounted.append(dst)
            if mode in (BindMode.READ_ONLY.value, BindMode.EMPTY.value):
                _mount(None, dst, None, MS_BIND | MS_REMOUNT | MS_RDONLY, None)

        return bind
