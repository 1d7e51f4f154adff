"""Kernel-backend smoke tests; run only where real namespaces/overlay work.

The host filesystem may reject overlayfs upperdirs (e.g. network roots),
so the scratch fixture puts upper/work/merged on a tmpfs.  It mounts that
tmpfs in the test's private mount namespace (conftest's private_mounts),
which execute()'s forks and run_inside()'s subprocesses inherit, so no
test mount ever shows in the host's mount namespace.
"""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cue.errors import StepFailed
from cue.executor import Backend, StepStatus, execute, load_meta
from cue.kernel import kernel_available
from cue.planner import ContainerConfig, StepKind, plan_create

pytestmark = pytest.mark.skipif(os.geteuid() != 0, reason="kernel backend needs root")

_libc = ctypes.CDLL("libc.so.6", use_errno=True)


@pytest.fixture(scope="module")
def kernel_ok(tmp_path_factory):
    ok, reason = kernel_available(tmp_path_factory.mktemp("probe") / "scratch")
    if not ok:
        pytest.skip(f"kernel backend unavailable: {reason}")
    return True


@pytest.fixture
def scratch(tmp_path, private_mounts):
    """tmpfs-backed scratch if the host fs cannot host an overlay upperdir;
    mounted in the test's private mount namespace."""
    base = tmp_path / "kscratch"
    base.mkdir()
    rc = _libc.mount(b"tmpfs", str(base).encode(), b"tmpfs", 0, b"size=256m")
    if rc != 0:
        pytest.skip("cannot mount scratch tmpfs")
    yield base
    _libc.umount2(str(base).encode(), 0)


def kernel_config(scratch: Path, entry=("/bin/true",), **extra) -> ContainerConfig:
    return ContainerConfig(
        user="kuser",
        host_root="/",
        upper_dir=str(scratch / "upper"),
        work_dir=str(scratch / "work"),
        merged_dir=str(scratch / "merged"),
        entry_command=tuple(entry),
        **extra,
    )


def run_inside(scratch: Path, shell_cmd: str) -> subprocess.CompletedProcess:
    """Full create+enter in a child process so mounts never leak upward."""
    code = f"""
import sys
sys.path.insert(0, {str(Path(__file__).parent.parent / 'src')!r})
from cue.executor import execute
from cue.planner import ContainerConfig, plan_create
cfg = ContainerConfig(
    user="kuser",
    host_root="/",
    upper_dir={str(scratch / 'upper')!r},
    work_dir={str(scratch / 'work')!r},
    merged_dir={str(scratch / 'merged')!r},
    entry_command=("/bin/sh", "-c", {shell_cmd!r}),
)
report = execute(plan_create(cfg), "kernel", run_entry=True)
sys.exit(report.entry_exit_code or 0)
"""
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )


class TestKernelBackend:
    def test_plan_executes_and_defers_entry(self, kernel_ok, scratch):
        report = execute(plan_create(kernel_config(scratch)), "kernel")
        assert report.ok
        assert report.backend is Backend.KERNEL
        meta = load_meta(report.handle)
        assert meta["backend"] == "kernel"

    def test_hostname_inside_container(self, kernel_ok, scratch):
        proc = run_inside(scratch, "cat /proc/sys/kernel/hostname")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "cue-kuser"
        # the host hostname is untouched
        assert Path("/proc/sys/kernel/hostname").read_text().strip() != "cue-kuser"

    def test_process_isolation(self, kernel_ok, scratch):
        proc = run_inside(scratch, "ls /proc | grep -c '^[0-9][0-9]*$'")
        assert proc.returncode == 0, proc.stderr
        # only the container's own processes: sh + grep/ls, never the host's
        assert int(proc.stdout.strip()) <= 4

    def test_write_lands_in_upper_not_host(self, kernel_ok, scratch):
        # /lib may be a symlink (usr-merge); the copy-up then lands under
        # upper/usr/lib, so search the whole upper delta for the marker
        marker = "cue-kernel-test-marker.txt"
        proc = run_inside(scratch, f"echo customized > /lib/{marker} && cat /lib/{marker}")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "customized"
        hits = list((scratch / "upper").rglob(marker))
        assert hits, "copy-up must materialize the write in the upper layer"
        assert hits[0].read_text().strip() == "customized"
        assert not Path(f"/lib/{marker}").exists()
        assert not Path(f"/usr/lib/{marker}").exists()

    def test_capabilities_dropped(self, kernel_ok, scratch):
        proc = run_inside(scratch, "grep CapBnd /proc/self/status")
        assert proc.returncode == 0, proc.stderr
        mask = int(proc.stdout.strip().split()[1], 16)
        from cue.capabilities import user_policy
        from cue.kernel import CAP_NUMBERS

        launcher_bnd = 0
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("CapBnd:"):
                launcher_bnd = int(line.split()[1], 16)
        # kept: allow list intersected with what the launcher itself held
        for name in user_policy().allowed():
            bit = 1 << CAP_NUMBERS[name]
            if launcher_bnd & bit:
                assert mask & bit, f"{name} should remain"
        # dropped: everything else, denied or merely unlisted
        for name in ("CAP_SYS_ADMIN", "CAP_SYS_MODULE", "CAP_MKNOD", "CAP_NET_RAW",
                     "CAP_SYS_CHROOT", "CAP_SETPCAP", "CAP_SYS_PTRACE"):
            assert not mask & (1 << CAP_NUMBERS[name]), f"{name} should be dropped"

    def test_mount_forbidden_inside(self, kernel_ok, scratch):
        proc = run_inside(scratch, "mount -t tmpfs none /mnt 2>/dev/null")
        assert proc.returncode != 0


class TestKernelFailures:
    def test_failed_bind_mount_names_its_step(self, kernel_ok, scratch):
        plan = plan_create(kernel_config(scratch, device_allow=(("/dev/cue-missing", "rw"),)))
        (bind,) = [
            s for s in plan.steps
            if s.kind is StepKind.BIND_MOUNT and s.args[0] == "/dev/cue-missing"
        ]
        with pytest.raises(StepFailed) as info:
            execute(plan, "kernel")
        assert info.value.ordinal == bind.ordinal
        outcomes = info.value.report.outcomes
        assert [o.ordinal for o in outcomes] == list(range(bind.ordinal + 1))
        assert all(o.status is StepStatus.OK for o in outcomes[:-1])
        assert outcomes[-1].status is StepStatus.FAILED
        for o in outcomes[:-1]:
            want = "unshared" if o.kind == StepKind.NEW_NAMESPACE.value else "-"
            assert o.detail == want, o

    def test_missing_entry_command_fails_exec_step(self, kernel_ok, scratch):
        plan = plan_create(kernel_config(scratch, entry=("/cue-no-such-command",)))
        with pytest.raises(StepFailed) as info:
            execute(plan, "kernel", run_entry=True)
        assert info.value.ordinal == plan.steps[-1].ordinal


def store_kernel_markers(tree, root: Path) -> None:
    """Materialize a model tree with the kernel union filesystem's native
    markers: 0:0 char-device whiteouts and trusted.overlay.opaque."""
    import stat as stat_m

    from cue.model import RegularFile, Symlink, Whiteout

    root.mkdir(parents=True, exist_ok=True)

    def store_dir(node, real: Path) -> None:
        if node.opaque:
            os.setxattr(real, b"trusted.overlay.opaque", b"y")
        for name, child in node.children.items():
            target = real / name
            if isinstance(child, Whiteout):
                os.mknod(target, 0o600 | stat_m.S_IFCHR, os.makedev(0, 0))
            elif isinstance(child, RegularFile):
                target.write_bytes(child.content)
            elif isinstance(child, Symlink):
                os.symlink(child.target, target)
            else:
                target.mkdir()
                store_dir(child, target)

    store_dir(tree.root, root)


class TestBackendAgreement:
    def test_file_semantics_agree_with_sandbox_view(self, kernel_ok, scratch):
        """For the same stack, bytes visible through a real overlay mount
        match the sandbox view's lazy resolution, path for path."""
        import ctypes

        import stackgen
        from cue.diskfs import DiskOverlay, store_tree
        from cue.model import RegularFile, Symlink

        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        for seed in (3, 7, 11):
            stack = stackgen.random_stack(seed, node_budget=30)
            base = scratch / f"agree{seed}"
            lower = base / "lower"
            kupper = base / "kupper"
            supper = base / "supper"
            work = base / "work"
            merged = base / "merged"
            for d in (base, work, merged):
                d.mkdir(parents=True, exist_ok=True)
            store_tree(stack.lower, lower, marker_aware=False)
            store_tree(stack.upper, supper, marker_aware=True)  # sandbox markers
            try:
                store_kernel_markers(stack.upper, kupper)  # native markers
            except OSError as err:
                pytest.skip(f"cannot create native markers: {err}")
            opts = f"lowerdir={lower},upperdir={kupper},workdir={work}".encode()
            rc = libc.mount(b"overlay", str(merged).encode(), b"overlay", 0, opts)
            assert rc == 0, os.strerror(ctypes.get_errno())
            try:
                view = DiskOverlay([lower], supper)

                def crosses_symlink(p: str) -> bool:
                    # the model resolves lexically; the kernel walks through
                    # symlinks, so paths under one are legitimately different
                    parts = p.strip("/").split("/")
                    for i in range(1, len(parts)):
                        anc = view.resolve("/" + "/".join(parts[:i]))
                        if isinstance(anc.node, Symlink):
                            return True
                    return False

                for path in stackgen.probe_paths(stack):
                    if crosses_symlink(path):
                        continue
                    kernel_path = merged / path.lstrip("/")
                    res = view.resolve(path)
                    if isinstance(res.node, RegularFile):
                        assert kernel_path.is_file(), (seed, path)
                        assert kernel_path.read_bytes() == res.node.content, (seed, path)
                    elif isinstance(res.node, Symlink):
                        assert os.readlink(kernel_path) == res.node.target, (seed, path)
                    elif res.found:
                        assert kernel_path.is_dir(), (seed, path)
                    else:
                        assert not os.path.lexists(kernel_path), (seed, path)
            finally:
                libc.umount2(str(merged).encode(), 0)
