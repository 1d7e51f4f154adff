import os
import shutil

import pytest

import stackgen
from cue import commit, diskfs, model
from cue.errors import StageFailure
from cue.model import JournalState, LayerStack


def materialize(stack, tmp_path, tag=""):
    lower = tmp_path / f"lower{tag}"
    upper = tmp_path / f"upper{tag}"
    diskfs.store_tree(stack.lower, lower, marker_aware=False)
    diskfs.store_tree(stack.upper, upper, marker_aware=True)
    return lower, upper


def reload_lower(lower):
    return diskfs.load_tree(lower, marker_aware=False, deep=True)


class TestCommitApplies:
    def test_update_and_whiteout(self, tmp_path):
        stack = LayerStack(
            lower=stackgen.build_tree(
                {"bin": {"python": b"2.7"}, "etc": {"old.conf": b"stale"}}
            ),
            upper=stackgen.build_tree(
                {"bin": {"python": b"3.5"}, "etc": {"old.conf": model.Whiteout()}}
            ),
        )
        lower, upper = materialize(stack, tmp_path)
        result = commit.run_commit(lower, upper, tmp_path / "journals")
        assert result.applied
        assert result.journal_path.name.endswith(".committed")
        after = reload_lower(lower)
        assert after == model.flatten(stack)
        assert after.get("/bin/python") == model.RegularFile(b"3.5")
        assert after.get("/etc/old.conf") is None
        # the consumed upper is cleared so the sandbox matches the new base
        assert list(upper.iterdir()) == []

    def test_empty_upper_is_noop(self, tmp_path):
        stack = LayerStack(
            lower=stackgen.build_tree({"a": b"x"}), upper=model.empty_tree()
        )
        lower, upper = materialize(stack, tmp_path)
        before = reload_lower(lower)
        result = commit.run_commit(lower, upper, tmp_path / "journals")
        assert result.entries == ()
        assert reload_lower(lower) == before

    def test_seeded_stacks_match_flatten(self, tmp_path):
        for seed in range(25):
            stack = stackgen.random_stack(seed, node_budget=40)
            lower, upper = materialize(stack, tmp_path, tag=str(seed))
            commit.run_commit(lower, upper, tmp_path / f"journals{seed}")
            assert reload_lower(lower) == model.flatten(stack), seed

    def test_second_commit_is_identity(self, tmp_path):
        stack = stackgen.random_stack(3)
        lower, upper = materialize(stack, tmp_path)
        commit.run_commit(lower, upper, tmp_path / "journals")
        first = reload_lower(lower)
        result = commit.run_commit(lower, upper, tmp_path / "journals")
        assert result.entries == ()
        assert reload_lower(lower) == first

    def test_journal_retained_and_parseable(self, tmp_path):
        stack = stackgen.random_stack(5)
        lower, upper = materialize(stack, tmp_path)
        result = commit.run_commit(lower, upper, tmp_path / "journals")
        header, entries = commit._read_journal(result.journal_path)
        assert header["lower"] == str(lower)
        assert entries == result.entries


class TestStageFailure:
    def test_insufficient_space(self, tmp_path, monkeypatch):
        stack = LayerStack(
            lower=model.empty_tree(),
            upper=stackgen.build_tree({"big": b"x" * 4096}),
        )
        lower, upper = materialize(stack, tmp_path)
        usage = shutil.disk_usage(tmp_path)
        monkeypatch.setattr(
            commit.shutil, "disk_usage", lambda p: usage._replace(free=16)
        )
        before = reload_lower(lower)
        with pytest.raises(StageFailure):
            commit.run_commit(lower, upper, tmp_path / "journals")
        assert reload_lower(lower) == before
        aborted = list((tmp_path / "journals").glob("*.aborted"))
        assert len(aborted) <= 1  # journal may not have been written yet

    def test_stage_interruption_leaves_lower_untouched(self, tmp_path):
        stack = stackgen.random_stack(11)
        lower, upper = materialize(stack, tmp_path)
        before = reload_lower(lower)

        def hook(point, index):
            if point == "pre-commit":
                raise OSError("injected crash before commit point")

        with pytest.raises(StageFailure):
            commit.run_commit(lower, upper, tmp_path / "journals", fault_hook=hook)
        assert reload_lower(lower) == before
        assert list((tmp_path / "journals").glob("*.aborted"))
        assert not list((tmp_path / "journals").glob("*.staged"))


class TestKillBasedFaults:
    def run_with_kill(self, lower, upper, journals, kill_at) -> int:
        pid = os.fork()
        if pid == 0:
            code = 0
            try:
                counter = {"n": 0}

                def hook(point, index):
                    if counter["n"] == kill_at:
                        os._exit(99)
                    counter["n"] += 1

                commit.run_commit(lower, upper, journals, fault_hook=hook)
            except BaseException:
                code = 1
            os._exit(code)
        _, status = os.waitpid(pid, 0)
        return os.waitstatus_to_exitcode(status)

    def test_kill_between_stage_and_commit(self, tmp_path):
        stack = stackgen.random_stack(21, node_budget=60)
        lower, upper = materialize(stack, tmp_path)
        before = reload_lower(lower)
        journals = tmp_path / "journals"
        payloads = sum(1 for e in model.stage_merge(stack.lower.root, stack.upper.root) if e.checksum is not None)
        n_pre_commit = payloads + 2  # stage-entry points + journal-write + pre-commit
        assert n_pre_commit >= 3
        for kill_at in range(min(n_pre_commit, 8)):
            rc = self.run_with_kill(lower, upper, journals, kill_at)
            assert rc == 99, kill_at
            assert reload_lower(lower) == before, kill_at
            actions = commit.recover(journals)
            assert all(state is JournalState.ABORTED for _, state in actions)
            assert reload_lower(lower) == before, kill_at

    def test_kill_after_commit_point_is_replayed(self, tmp_path):
        stack = stackgen.random_stack(8, node_budget=60)
        lower2, upper2 = materialize(stack, tmp_path, tag="2")
        journals2 = tmp_path / "journals2"

        def kill_post_commit(point, index):
            if point == "post-commit":
                os._exit(99)

        pid = os.fork()
        if pid == 0:
            try:
                commit.run_commit(lower2, upper2, journals2, fault_hook=kill_post_commit)
            finally:
                os._exit(0)
        os.waitpid(pid, 0)
        committed = list(journals2.glob("*.committed"))
        assert committed
        commit.recover(journals2)
        assert reload_lower(lower2) == model.flatten(stack)


class TestRecovery:
    def test_recover_empty_dir(self, tmp_path):
        assert commit.recover(tmp_path / "none") == []

    def test_orphan_staging_cleaned(self, tmp_path):
        journals = tmp_path / "journals"
        (journals / "commit-orphan-1").mkdir(parents=True)
        actions = commit.recover(journals)
        assert not (journals / "commit-orphan-1").exists()
        assert actions


class TestLazyBase:
    """Planning reads the base only along the delta's paths."""

    def build(self, tmp_path):
        lower = tmp_path / "lower"
        diskfs.store_tree(stackgen.build_tree({
            "etc": {"a.conf": b"old", "b.conf": b"gone"},
            "opt": {"pkg": {"old1": b"1", "old2": b"2"}},
            "usr": {"share": {"doc": {f"f{i}": b"d" for i in range(20)}}},
            "var": {"log": {"syslog": b"s"}},
            "home": {"u": {"notes": b"n"}},
        }), lower, marker_aware=False)
        upper = tmp_path / "upper"
        diskfs.store_tree(stackgen.build_tree({
            "etc": {"a.conf": b"new", "b.conf": model.Whiteout()},
            "opt": {"pkg": {"__opaque__": True, "fresh": b"f"}},
            "srv": {"site": {"index": b"i"}},
        }), upper, marker_aware=True)
        return lower, upper

    def test_base_read_only_along_the_delta(self, tmp_path, monkeypatch):
        lower, upper = self.build(tmp_path)
        delta = {p for p, _ in diskfs.load_tree(upper).walk()}
        scans, lstats, loads = [], [], []
        scandir, lstat, load_tree = os.scandir, os.lstat, diskfs.load_tree

        def record_scandir(path="."):
            scans.append(os.path.normpath(str(path)))  # rmtree passes fds
            return scandir(path)

        def record_lstat(path, *args, **kwargs):
            lstats.append(os.path.normpath(str(path)))
            return lstat(path, *args, **kwargs)

        def record_load(root, **kwargs):
            loads.append(str(root))
            return load_tree(root, **kwargs)

        monkeypatch.setattr(os, "scandir", record_scandir)
        monkeypatch.setattr(os, "lstat", record_lstat)
        monkeypatch.setattr(diskfs, "load_tree", record_load)
        result = commit.run_commit(lower, upper, tmp_path / "journals")
        monkeypatch.undo()

        base = str(lower)
        under_base = lambda paths: [p for p in paths if p == base or p.startswith(base + "/")]
        assert under_base(scans) == [str(lower / "opt" / "pkg")]  # the opaque directory
        for untouched in ("usr", "var", "home"):
            assert not [p for p in lstats if p.startswith(str(lower / untouched))], untouched
        # every base path probed is a delta path, or an entry the journal deletes
        deleted = {e.path for e in result.entries if e.op is model.JournalOp.DELETE_FROM_LOWER}
        for path in under_base(lstats):
            assert path[len(base):] in delta | deleted, path
        assert loads == [str(upper)]
        assert reload_lower(lower).get("/opt/pkg") == model.Directory(
            children={"fresh": model.RegularFile(b"f")}
        )

    def test_same_journal_as_a_full_base_load(self, tmp_path):
        lower, upper = self.build(tmp_path)
        (lower / "etc" / ".wh.a.conf").write_bytes(b"not a marker in the base")
        (lower / "opt" / "pkg" / ".wh.old1").write_bytes(b"")
        os.mkfifo(lower / "etc" / "fifo")
        os.mkfifo(lower / "opt" / "pkg" / "pipe")
        (upper / "etc" / ".wh.fifo").touch()  # whiteout over an unmodeled base entry
        full = diskfs.load_tree(lower, marker_aware=False, deep=False).root
        upper_root = diskfs.load_tree(upper, marker_aware=True, deep=True).root
        expected = model.stage_merge(full, upper_root)
        lazy = diskfs.layer_root(lower, marker_aware=False)
        assert model.stage_merge(lazy, upper_root) == expected
        assert commit.run_commit(lower, upper, tmp_path / "journals").entries == expected

    def test_seeded_journals_match_a_full_base_load(self, tmp_path):
        for seed in range(25):
            stack = stackgen.random_stack(seed, node_budget=40)
            lower, upper = materialize(stack, tmp_path, tag=str(seed))
            upper_root = diskfs.load_tree(upper, marker_aware=True, deep=True).root
            full = diskfs.load_tree(lower, marker_aware=False, deep=False).root
            lazy = diskfs.layer_root(lower, marker_aware=False)
            assert model.stage_merge(lazy, upper_root) == model.stage_merge(full, upper_root), seed

    def test_missing_base_raises_and_leaves_no_journal(self, tmp_path):
        upper = tmp_path / "upper"
        diskfs.store_tree(stackgen.build_tree({"a": b"x"}), upper, marker_aware=True)
        journals = tmp_path / "journals"
        with pytest.raises(FileNotFoundError):
            commit.run_commit(tmp_path / "no-base", upper, journals)
        assert list(journals.iterdir()) == []
        assert (upper / "a").read_bytes() == b"x"

    def test_unreadable_base_path_fails_the_plan(self, tmp_path, monkeypatch):
        lower, upper = self.build(tmp_path)
        lstat = os.lstat
        denied = str(lower / "etc" / "a.conf")

        def deny(path, *args, **kwargs):
            if os.fspath(path) == denied:
                raise PermissionError(13, "denied", denied)
            return lstat(path, *args, **kwargs)

        monkeypatch.setattr(os, "lstat", deny)
        with pytest.raises(PermissionError):
            commit.run_commit(lower, upper, tmp_path / "journals")
        monkeypatch.undo()
        assert list((tmp_path / "journals").iterdir()) == []
        assert (lower / "etc" / "a.conf").read_bytes() == b"old"
