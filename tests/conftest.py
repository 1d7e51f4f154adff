import ctypes
import os

import pytest

CLONE_NEWNS = 0x00020000
MS_REC = 16384
MS_PRIVATE = 1 << 18


@pytest.fixture
def private_mounts():
    """Run the test in a private mount namespace, so the mounts it makes
    (and those of the processes it forks) never reach the host's.

    Leaving the namespace returns the test process to the host's and
    resets its working directory, which is restored afterwards; the
    namespace and its mounts go away with the last process in it.
    """
    libc = ctypes.CDLL("libc.so.6", use_errno=True)
    host = os.open("/proc/self/ns/mnt", os.O_RDONLY | os.O_CLOEXEC)
    cwd = os.getcwd()
    try:
        if libc.unshare(CLONE_NEWNS) != 0:
            pytest.skip(f"cannot unshare the mount namespace: {os.strerror(ctypes.get_errno())}")
        try:
            if libc.mount(b"none", b"/", None, MS_REC | MS_PRIVATE, None) != 0:
                pytest.skip(f"cannot make / private: {os.strerror(ctypes.get_errno())}")
            yield
        finally:
            if libc.setns(host, CLONE_NEWNS) != 0:
                raise OSError(ctypes.get_errno(), "setns back to the host mount namespace")
            os.chdir(cwd)
    finally:
        os.close(host)


@pytest.fixture(scope="module")
def kernel_ok(tmp_path_factory):
    """Skip, with the probe's reason, where the kernel backend cannot run."""
    from cue.kernel import kernel_available

    ok, reason = kernel_available(tmp_path_factory.mktemp("probe") / "scratch")
    if not ok:
        pytest.skip(f"kernel backend unavailable: {reason}")
    return True


@pytest.fixture
def scratch(tmp_path, private_mounts):
    """tmpfs-backed scratch if the host fs cannot host an overlay upperdir;
    mounted in the test's private mount namespace."""
    libc = ctypes.CDLL("libc.so.6", use_errno=True)
    base = tmp_path / "kscratch"
    base.mkdir()
    if libc.mount(b"tmpfs", str(base).encode(), b"tmpfs", 0, b"size=256m") != 0:
        pytest.skip("cannot mount scratch tmpfs")
    yield base
    libc.umount2(str(base).encode(), 0)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL/SKIP line per acceptance criterion at the end of a run."""
    rows = {}
    for status in ("passed", "failed", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            if report.when == "call" or (report.when == "setup" and status == "skipped"):
                rows[name] = status.upper()
    if rows:
        terminalreporter.section("acceptance criteria")
        for name in sorted(rows):
            terminalreporter.write_line(f"{rows[name]:7s} {name}")
