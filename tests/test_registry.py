import json
import os
import signal
import time

import pytest

from cue.errors import Duplicate, InvalidConfig, NotFound, WouldBlock
from cue.registry import ContainerRecord, FileLock, Registry


@pytest.fixture
def registry(tmp_path):
    reg = Registry(tmp_path / "state")
    reg._volumes = tmp_path / "volumes"  # test convenience for record()
    return reg


def record(user="alice", *, registry=None, **kw) -> ContainerRecord:
    base = dict(
        user=user,
        upper_dir=f"/v/{user}/upper",
        work_dir=f"/v/{user}/work",
        merged_dir=f"/v/{user}/merged",
        hostname=f"cue-{user}",
    )
    if registry is not None:
        # live records must point at real directories
        for field in ("upper_dir", "work_dir", "merged_dir"):
            path = registry._volumes / user / field.removesuffix("_dir")
            path.mkdir(parents=True, exist_ok=True)
            base[field] = str(path)
    else:
        base["status"] = "Stopped"
    base.update(kw)
    return ContainerRecord(**base)


class TestRecords:
    def test_register_then_lookup(self, registry):
        registry.register(record("alice", registry=registry))
        got = registry.lookup("alice")
        assert got is not None
        assert got.hostname == "cue-alice"
        assert got.status == "Created"

    def test_register_twice_is_duplicate(self, registry):
        registry.register(record("alice"))
        with pytest.raises(Duplicate):
            registry.register(record("alice"))

    def test_same_user_different_kind_allowed(self, registry):
        registry.register(record("root-sandbox"))
        registry.register(record("root-sandbox", kind="RootSandbox"))
        assert len(registry.list()) == 2

    def test_lookup_unknown_is_none(self, registry):
        assert registry.lookup("ghost") is None

    def test_remove(self, registry):
        registry.register(record("alice"))
        registry.remove("alice")
        assert registry.lookup("alice") is None
        with pytest.raises(NotFound):
            registry.remove("alice")

    def test_status_update_visible(self, registry):
        registry.register(record("alice", registry=registry))
        registry.set_status("alice", "User", "Running")
        assert registry.lookup("alice").status == "Running"

    def test_live_record_requires_real_paths(self, registry):
        from cue.errors import StorageFailure

        with pytest.raises(StorageFailure):
            registry.register(record("alice", status="Created"))
        # a stopped record may reference retired paths
        registry.register(record("alice"))
        with pytest.raises(StorageFailure):
            registry.set_status("alice", "User", "Running")

    def test_list_sorted_by_user(self, registry):
        for user in ("carol", "alice", "bob"):
            registry.register(record(user))
        assert [r.user for r in registry.list()] == ["alice", "bob", "carol"]

    def test_created_at_is_rfc3339(self, registry):
        registry.register(record("alice"))
        raw = json.loads(registry.record_path("alice").read_text())
        assert set(raw) == {
            "user",
            "upper_dir",
            "work_dir",
            "merged_dir",
            "hostname",
            "created_at",
            "status",
            "kind",
        }
        assert "T" in raw["created_at"]
        assert raw["created_at"].endswith("+00:00")

    def test_validation(self):
        with pytest.raises(ValueError):
            record("alice", kind="Bogus")
        with pytest.raises(ValueError):
            record("alice", status="Bogus")


class TestIdentifiers:
    def test_valid_ids_map_under_the_state_root(self, registry):
        path = registry.record_path("root-sandbox", "RootSandbox")
        assert path == registry.state_root / "containers" / "RootSandbox" / "root-sandbox.json"
        registry.acquire_record_lock("root-sandbox", "RootSandbox").release()

    @pytest.mark.parametrize("user", ["../x", "a/b", "", "Alice", "-a", "a-", ".x", None])
    def test_bad_user_refused(self, registry, user):
        with pytest.raises(InvalidConfig) as exc:
            registry.record_path(user)
        assert exc.value.exit_code == 2
        with pytest.raises(InvalidConfig):
            registry.acquire_record_lock(user)
        with pytest.raises(InvalidConfig):
            registry.lookup(user)
        assert not registry.state_root.exists()

    @pytest.mark.parametrize("kind", ["Bogus", "../User", "user", ""])
    def test_unknown_kind_refused(self, registry, kind):
        with pytest.raises(InvalidConfig):
            registry.record_path("alice", kind)
        with pytest.raises(InvalidConfig):
            registry.acquire_record_lock("alice", kind)
        assert not registry.state_root.exists()


class TestTornRecords:
    def test_reader_ignores_stale_temp_file(self, registry):
        registry.register(record("alice"))
        # simulate a crash between temp write and rename
        stale = registry.record_path("alice").with_name(".alice.json.tmp-999")
        stale.write_text("{ not json")
        assert registry.lookup("alice").user == "alice"
        assert [r.user for r in registry.list()] == ["alice"]

    def test_update_is_atomic_swap(self, registry):
        registry.register(record("alice"))
        before = registry.record_path("alice").read_text()
        registry.set_status("alice", "User", "Stopped")
        after = registry.record_path("alice").read_text()
        # both snapshots parse cleanly: no intermediate state on disk
        ContainerRecord.from_json(before)
        assert ContainerRecord.from_json(after).status == "Stopped"


class TestCommitLock:
    def test_release_then_reacquire(self, registry):
        lock = registry.acquire_commit_lock()
        lock.release()
        registry.acquire_commit_lock().release()

    def test_contention_two_processes(self, registry):
        lock = registry.acquire_commit_lock()
        try:
            pid = os.fork()
            if pid == 0:  # child: must fail non-blocking
                code = 1
                try:
                    registry.acquire_commit_lock()
                except WouldBlock:
                    code = 42
                except BaseException:
                    code = 43
                os._exit(code)
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 42
        finally:
            lock.release()

    def test_lock_released_when_holder_dies(self, registry):
        pid = os.fork()
        if pid == 0:  # child takes the lock and waits to be killed
            try:
                registry.acquire_commit_lock()
                signal.pause()
            finally:
                os._exit(0)
        time.sleep(0.2)
        with pytest.raises(WouldBlock):
            registry.acquire_commit_lock()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        deadline = time.monotonic() + 5
        while True:
            try:
                registry.acquire_commit_lock().release()
                break
            except WouldBlock:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)

    def test_context_manager(self, registry):
        with registry.acquire_commit_lock() as lock:
            assert lock.held
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    FileLock(registry.commit_lock_path()).acquire(blocking=False)
                except WouldBlock:
                    code = 42
                except BaseException:
                    code = 43
                os._exit(code)
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 42
        # released on exit: a fresh acquire succeeds
        FileLock(registry.commit_lock_path()).acquire(blocking=False).release()


class TestRecordLock:
    def test_per_record_isolation(self, registry):
        a = registry.acquire_record_lock("alice")
        b = registry.acquire_record_lock("bob")
        with pytest.raises(WouldBlock):
            registry.acquire_record_lock("alice")
        a.release()
        b.release()
        registry.acquire_record_lock("alice").release()
