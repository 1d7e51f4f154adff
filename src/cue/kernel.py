"""Privileged backend: real namespaces, mounts, and capability drops.

run_plan() runs the plan in a double fork: the first child unshares
mount/pid/uts, the second (pid 1 of the new pid namespace) performs every
mount, drops capabilities, chroots into the merged view, and execs the
entry command.  All mounts live in the private mount namespace, so they
unwind when the container's processes exit; on a mid-plan failure pid 1
also unmounts explicitly in reverse order.

Both children report each step they run on one pipe, one line per step:

    <ordinal> OK|FAILED <detail>

with "-" for an empty detail.  An unexpected error in either child is
reported as a FAILED line on the plan's last step (EXEC).

The entry process keeps real uid 0 (no user-namespace mapping); whether
that uid may do anything interesting is decided by the capability table,
which is applied to the bounding set and all three capset vectors.
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path

from .capabilities import CapabilitySet
from .planner import BindMode, SetupPlan, SetupStep, StepKind

__all__ = ["kernel_available", "run_plan", "CAP_NUMBERS"]

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


def _cap_mask(names) -> int:
    return sum({1 << CAP_NUMBERS[name] for name in names if name in CAP_NUMBERS})


def drop_capabilities(policy: CapabilitySet) -> None:
    """Restrict the bounding set and all capset vectors to the allow list.

    Capabilities cannot be raised, only kept or dropped, so the result is
    the intersection of the allow list with what the launcher holds.
    CAP_SYS_CHROOT stays in effective/permitted (never in the bounding
    set) so the chroot step can run; that step sheds it.
    """
    allowed = _cap_mask(policy.allowed())
    try:
        last_cap = int(Path("/proc/sys/kernel/cap_last_cap").read_text())
    except OSError:
        last_cap = max(CAP_NUMBERS.values())
    for cap in range(last_cap + 1):
        if not allowed >> cap & 1 and _libc.prctl(PR_CAPBSET_DROP, cap, 0, 0, 0) != 0:
            raise _oserror(f"prctl(PR_CAPBSET_DROP, {cap})")
    _capset_mask(allowed | _cap_mask(["CAP_SYS_CHROOT"]))


def _report(fd: int, ordinal: int, ok: bool, detail: str) -> None:
    detail = detail.replace("\n", " ") or "-"
    os.write(fd, f"{ordinal} {'OK' if ok else 'FAILED'} {detail}\n".encode())


def _fork(fd: int, last: int, body) -> int:
    """Fork a child that runs body() and exits with code 11 should body
    return or raise; an error it raises is reported as step last FAILED."""
    pid = os.fork()
    if pid == 0:
        try:
            body()
        except BaseException as err:  # never unwind into the caller
            _report(fd, last, False, str(err))
        finally:
            os._exit(11)
    return pid


def _wait(pid: int) -> int:
    """Exit code of a child; 128 + signal number when a signal ended it."""
    rc = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return rc if rc >= 0 else 128 - rc


def kernel_available(scratch: Path) -> tuple[bool, str]:
    """Probe whether this host can run the kernel backend (forked, so the
    calling process keeps its namespaces)."""
    if os.geteuid() != 0:
        return False, "not running as root"
    read_fd, write_fd = os.pipe()
    pid = _fork(write_fd, 0, lambda: _probe(Path(scratch)))
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        reason = pipe.read().split(" ", 2)[-1].strip()
    ok = _wait(pid) == 0
    return ok, reason or ("ok" if ok else "probe failed")


def _probe(base: Path) -> None:
    _unshare(CLONE_NEWNS | CLONE_NEWUTS | CLONE_NEWPID)
    _mount("none", "/", None, MS_REC | MS_PRIVATE, None)
    base.mkdir(parents=True, exist_ok=True)
    _mount("tmpfs", base, "tmpfs", 0, "size=16m")
    for sub in ("upper", "work", "merged"):
        (base / sub).mkdir()
    options = f"lowerdir=/,upperdir={base}/upper,workdir={base}/work"
    _mount("overlay", base / "merged", "overlay", 0, options)
    os._exit(0)  # the mounts go with the private namespace


def run_plan(plan: SetupPlan, run_entry: bool) -> tuple[list[tuple[int, bool, str]], int]:
    """Run the namespace/mount/exec steps of plan in a forked container.

    Returns the (ordinal, ok, detail) outcomes the container reported, in
    order, and the entry's exit code (0 when the entry is deferred).  The
    caller (executor) handles MakeDirs, locking, transcripts, and report
    assembly.
    """
    read_fd, write_fd = os.pipe()
    pid = _fork(write_fd, plan.steps[-1].ordinal, lambda: _outer(plan, run_entry, write_fd))
    os.close(write_fd)
    outcomes = []
    with os.fdopen(read_fd) as pipe:
        for line in pipe:
            ordinal, status, detail = line.rstrip("\n").split(" ", 2)
            outcomes.append((int(ordinal), status == "OK", detail))
    rc = _wait(pid)
    return outcomes, rc if run_entry else 0


def _outer(plan: SetupPlan, run_entry: bool, fd: int) -> None:
    """First child: unshare the namespaces, then wait for pid 1."""
    try:
        _unshare(CLONE_NEWNS | CLONE_NEWUTS | CLONE_NEWPID)
        _mount("none", "/", None, MS_REC | MS_PRIVATE, None)
        ok, detail = True, "unshared"
    except OSError as err:
        ok, detail = False, str(err)
    for step in plan.steps:
        if step.kind is StepKind.NEW_NAMESPACE:
            _report(fd, step.ordinal, ok, detail)
    if not ok:
        os._exit(11)
    os._exit(_wait(_fork(fd, plan.steps[-1].ordinal, lambda: _container(plan, run_entry, fd))))


def _container(plan: SetupPlan, run_entry: bool, fd: int) -> None:
    """Pid 1 of the new pid namespace: every in-container step, then exec."""
    mounted: list[str] = []
    *steps, entry = plan.steps
    for step in steps:
        if step.kind in (StepKind.MAKE_DIRS, StepKind.NEW_NAMESPACE):
            continue  # done by the executor and the first child
        try:
            _perform(step, plan, mounted)
        except OSError as err:
            _report(fd, step.ordinal, False, str(err))
            for target in reversed(mounted):
                _umount(target)
            os._exit(11)
        _report(fd, step.ordinal, True, "-")
    _report(fd, entry.ordinal, True, "exec" if run_entry else "deferred")
    if not run_entry:
        os._exit(0)
    env = {
        "PATH": "/usr/local/sbin:/usr/local/bin:/usr/sbin:/usr/bin:/sbin:/bin",
        "HOME": "/root",
    }
    if os.environ.get("TERM"):
        env["TERM"] = os.environ["TERM"]
    os.execvpe(entry.args[0], list(entry.args), env)  # the pipe is close-on-exec


def _perform(step: SetupStep, plan: SetupPlan, mounted: list[str]) -> None:
    """Apply one in-container step, appending each mount it makes to mounted."""
    if step.kind is StepKind.OVERLAY_MOUNT:
        lower, upper, work, merged = step.args
        _mount("overlay", merged, "overlay", 0, f"lowerdir={lower},upperdir={upper},workdir={work}")
        mounted.append(merged)
    elif step.kind is StepKind.SET_HOSTNAME:
        _sethostname(step.args[0])
    elif step.kind is StepKind.BIND_MOUNT:
        src, dst, mode = step.args
        if mode == BindMode.EMPTY.value:
            os.makedirs(src, exist_ok=True)
            os.makedirs(dst, exist_ok=True)
        elif mode != BindMode.REMOUNT_RO.value:
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            if os.path.isdir(src):
                os.makedirs(dst, exist_ok=True)
            else:
                Path(dst).touch(exist_ok=True)
        _mount(src, dst, None, MS_BIND, None)
        mounted.append(dst)
        if mode != BindMode.READ_WRITE.value:
            _mount(None, dst, None, MS_BIND | MS_REMOUNT | MS_RDONLY, None)
    elif step.kind is StepKind.REMOUNT_PROC:
        proc = os.path.join(plan.config.merged_dir, "proc")
        os.makedirs(proc, exist_ok=True)
        _mount("proc", proc, "proc", 0, None)
        mounted.append(proc)
    elif step.kind is StepKind.DROP_CAPABILITIES:
        drop_capabilities(plan.capability_set)
    elif step.kind is StepKind.CHANGE_ROOT:
        os.chroot(step.args[0])
        os.chdir("/")
        # shed CAP_SYS_CHROOT, held past the drop step for this chroot
        _capset_mask(_cap_mask(plan.capability_set.allowed()))
