import builtins
import errno
import gc
import json
import os
import random
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


def is_payload(edit) -> bool:
    return isinstance(edit[1], (model.RegularFile, model.Symlink))


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

    def test_back_to_back_commits_keep_every_journal(self, tmp_path):
        lower, upper = materialize(stackgen.random_stack(5), tmp_path)
        journals = tmp_path / "journals"
        results = []
        for i in range(5):
            (upper / f"new{i}").write_bytes(b"%d" % i)
            results.append(commit.run_commit(lower, upper, journals))
        kept = sorted(journals.glob("*.committed"))
        assert len(kept) == 5
        assert kept == sorted(r.journal_path for r in results)

        class Crash(BaseException):
            pass

        def die_before_the_journal(point, index):
            if point == "journal-write":
                raise Crash

        (upper / "late").write_bytes(b"x")
        with pytest.raises(Crash):
            commit.run_commit(lower, upper, journals, fault_hook=die_before_the_journal)
        (orphan,) = [p for p in journals.iterdir() if p.is_dir()]
        assert commit.recover(journals) == [(orphan, JournalState.ABORTED)]
        assert not orphan.exists()


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
        payloads = sum(1 for e in model.stage_merge(stack.lower.root, stack.upper.root) if is_payload(e))
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

    def refuses(self, tmp_path, header: dict, line: str) -> None:
        """A surviving committed journal in an older format stops the next
        commit before the base is touched."""
        stack = LayerStack(lower=stackgen.build_tree({"keep": b"k"}), upper=model.empty_tree())
        lower, upper = materialize(stack, tmp_path)
        journals = tmp_path / "journals"
        old_id = "commit-20250101T000000-1"
        (journals / old_id).mkdir(parents=True)  # its staging area survives
        header = {"id": old_id, "lower": str(lower), "upper": str(upper), "clear_upper": True, **header}
        journal = journals / (old_id + ".committed")
        journal.write_text(json.dumps(header) + f"\n{line}\nEND 1\n")
        with pytest.raises(StageFailure, match="is in format None, not 3, and cannot be replayed") as err:
            commit.run_commit(lower, upper, journals)
        assert str(journal) in str(err.value)
        assert reload_lower(lower) == stack.lower

    def test_pre_pack_journal_is_refused(self, tmp_path):
        self.refuses(tmp_path, {}, "DeleteFromLower /keep -")

    def test_older_pack_journal_is_refused(self, tmp_path):
        digest = model.content_checksum(b"k")
        self.refuses(tmp_path, {"pack": {digest: [0, 1, False]}}, f"CopyToLower /keep {digest}")


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
        deleted = {e.path for e in result.entries if e.kind == "drop"}
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
        entries = commit.run_commit(lower, upper, tmp_path / "journals").entries
        assert [(e.kind, e.path) for e in entries] == [
            (commit._kind(node), model.join_path(parts)) for parts, node in expected
        ]

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


def base_update_stack() -> LayerStack:
    """A base-update-sized delta: 20 config edits, a 4 MiB binary swap (and
    a symlink to it), 5 deletions and a new directory of 10 files over a
    small base."""
    rng = random.Random(7)
    etc = {f"s{i:02d}": {f"c{j:02d}.conf": rng.randbytes(64) for j in range(10)} for i in range(4)}
    bulk = {f"d{i:02d}": {f"f{j:03d}": rng.randbytes(16) for j in range(20)} for i in range(5)}
    lower = {"etc": etc, "bin": {"tool": rng.randbytes(4096)}, "opt": {}, **bulk}
    upper_etc: dict = {}
    for i, j in sorted(rng.sample([(i, j) for i in range(4) for j in range(10)], 20)):
        upper_etc.setdefault(f"s{i:02d}", {})[f"c{j:02d}.conf"] = rng.randbytes(rng.randint(64, 4096))
    upper_bulk: dict = {}
    for i, j in sorted(rng.sample([(i, j) for i in range(5) for j in range(20)], 5)):
        upper_bulk.setdefault(f"d{i:02d}", {})[f"f{j:03d}"] = model.Whiteout()
    upper = {
        "etc": upper_etc,
        "bin": {"tool": rng.randbytes(4 * 1024 * 1024), "tool.current": model.Symlink("tool")},
        "opt": {"pkg00000": {f"lib{n:02d}.so": rng.randbytes(rng.randint(64, 16384)) for n in range(10)}},
        **upper_bulk,
    }
    return LayerStack(lower=stackgen.build_tree(lower), upper=stackgen.build_tree(upper))


def find_pack(journals):
    (pack,) = journals.glob("commit-*/pack")
    return pack


class TestPackStaging:
    """Each payload is read once, into one pack that is fsynced once."""

    def test_two_fsyncs_per_commit(self, tmp_path, monkeypatch):
        stack = base_update_stack()
        lower, upper = materialize(stack, tmp_path)
        fsyncs = []
        fsync = os.fsync

        def record_fsync(fd):
            fsyncs.append(fd)
            fsync(fd)

        monkeypatch.setattr(os, "fsync", record_fsync)
        commit.run_commit(lower, upper, tmp_path / "journals")
        monkeypatch.undo()
        assert len(fsyncs) == 2  # the pack, then the journal
        assert reload_lower(lower) == model.flatten(stack)

    def test_each_payload_opened_once_and_upper_loaded_shallow(self, tmp_path, monkeypatch):
        stack = base_update_stack()
        lower, upper = materialize(stack, tmp_path)
        opened, loads = [], []
        os_open, builtin_open, load_tree = os.open, builtins.open, diskfs.load_tree

        def record_os_open(path, *args, **kwargs):
            opened.append(os.fspath(path))
            return os_open(path, *args, **kwargs)

        def record_open(file, *args, **kwargs):
            if not isinstance(file, int):
                opened.append(os.fspath(file))
            return builtin_open(file, *args, **kwargs)

        def record_load(root, **kwargs):
            loads.append(kwargs)
            return load_tree(root, **kwargs)

        monkeypatch.setattr(os, "open", record_os_open)
        monkeypatch.setattr(builtins, "open", record_open)
        monkeypatch.setattr(diskfs, "load_tree", record_load)
        result = commit.run_commit(lower, upper, tmp_path / "journals")
        monkeypatch.undo()

        payload_paths = [str(upper) + e.path for e in result.entries if e.digest is not None]
        assert len(payload_paths) == 32
        payload_paths.remove(str(upper / "bin" / "tool.current"))  # a symlink: never opened
        # directories are opened too, by the clearing rmtree
        assert sorted(p for p in opened if p in payload_paths) == sorted(payload_paths)
        assert loads == [{"marker_aware": True, "deep": False}]
        assert reload_lower(lower) == model.flatten(stack)

    def test_identical_payloads_share_one_range(self, tmp_path):
        stack = LayerStack(
            lower=model.empty_tree(),
            upper=stackgen.build_tree({"a": b"same bytes", "b": {"c": b"same bytes"}, "d": b"other"}),
        )
        lower, upper = materialize(stack, tmp_path)
        journals = tmp_path / "journals"
        sizes = []

        def hook(point, index):
            if point == "pre-commit":
                sizes.append(find_pack(journals).stat().st_size)

        result = commit.run_commit(lower, upper, journals, fault_hook=hook)
        header, _ = commit._read_journal(result.journal_path)
        digest = model.content_checksum(b"same bytes")
        assert [e.digest for e in result.entries if e.digest] == [
            digest, digest, model.content_checksum(b"other")
        ]
        assert header["pack"] == {
            digest: [0, 10],
            model.content_checksum(b"other"): [10, 5],
        }
        assert sizes == [15]
        assert reload_lower(lower) == model.flatten(stack)

    def test_symlink_round_trips_through_the_pack(self, tmp_path):
        stack = LayerStack(
            lower=stackgen.build_tree({"lib": {"libz.so": b"old"}}),
            upper=stackgen.build_tree({"lib": {
                "libz.so": model.Symlink("libz.so.1"),
                "libz.so.1": b"z" * 100,
                "dangling": model.Symlink("/nowhere/at/all"),
            }}),
        )
        lower, upper = materialize(stack, tmp_path)
        result = commit.run_commit(lower, upper, tmp_path / "journals")
        digest = model.content_checksum(b"libz.so.1")
        assert commit.Entry("link", "/lib/libz.so", digest) in result.entries
        assert commit._read_journal(result.journal_path)[0]["pack"][digest] == [15, 9]  # after "/nowhere/at/all"
        assert os.readlink(lower / "lib" / "libz.so") == "libz.so.1"
        assert os.readlink(lower / "lib" / "dangling") == "/nowhere/at/all"
        assert reload_lower(lower) == model.flatten(stack)

    def test_file_and_symlink_with_the_same_bytes_share_one_range(self, tmp_path):
        stack = LayerStack(
            lower=model.empty_tree(),
            upper=stackgen.build_tree({"f": b"target", "l": model.Symlink("target")}),
        )
        lower, upper = materialize(stack, tmp_path)
        result = commit.run_commit(lower, upper, tmp_path / "journals")
        digest = model.content_checksum(b"target")
        assert result.entries == (commit.Entry("file", "/f", digest), commit.Entry("link", "/l", digest))
        assert commit._read_journal(result.journal_path)[0]["pack"] == {digest: [0, 6]}
        assert (lower / "f").read_bytes() == b"target"
        assert os.readlink(lower / "l") == "target"
        assert reload_lower(lower) == model.flatten(stack)

    def test_upper_file_growing_mid_stream_fails_the_stage(self, tmp_path, monkeypatch):
        stack = base_update_stack()
        lower, upper = materialize(stack, tmp_path)
        before = reload_lower(lower)
        tool = str(upper / "bin" / "tool")
        readv = os.readv
        grown = []

        def grow(fd, buffers):
            n = readv(fd, buffers)
            if not grown and os.readlink(f"/proc/self/fd/{fd}") == tool:
                grown.append(True)
                with open(tool, "ab") as fh:
                    fh.write(b"appended while staging")
            return n

        monkeypatch.setattr(os, "readv", grow)
        journals = tmp_path / "journals"
        with pytest.raises(StageFailure, match="payload changed while staging: /bin/tool"):
            commit.run_commit(lower, upper, journals)
        monkeypatch.undo()
        assert grown
        assert reload_lower(lower) == before
        # the stage failed before its journal was written: nothing is left
        # that recovery could take for a commit
        left = sorted(p.name for p in journals.iterdir())
        assert all(name.endswith(".aborted") for name in left), left
        assert commit.recover(journals) == []

    def test_copy_without_copy_file_range(self, tmp_path, monkeypatch):
        stack = base_update_stack()
        lower, upper = materialize(stack, tmp_path)

        def unsupported(*args):
            raise OSError(errno.EXDEV, "cross-device copy")

        monkeypatch.setattr(os, "copy_file_range", unsupported)
        commit.run_commit(lower, upper, tmp_path / "journals")
        assert reload_lower(lower) == model.flatten(stack)

    def test_kill_at_every_apply_entry_then_recover(self, tmp_path):
        stack = base_update_stack()
        assert len(model.stage_merge(stack.lower.root, stack.upper.root)) == 38
        kill_at_every_apply_entry_then_recover(stack, tmp_path)

    def test_replaying_a_committed_journal_twice(self, tmp_path):
        replay_a_committed_journal_twice(base_update_stack(), tmp_path)


def kill_at_every_apply_entry_then_recover(stack, tmp_path) -> None:
    """Kill the committer before each applied entry in turn; recovery
    finishes the commit to flatten(stack) every time."""
    expected = model.flatten(stack)
    n_entries = len(model.stage_merge(stack.lower.root, stack.upper.root))
    for kill_at in range(n_entries):
        lower, upper = materialize(stack, tmp_path, tag=str(kill_at))
        journals = tmp_path / f"journals{kill_at}"

        def hook(point, index):
            if point == "apply-entry" and index == kill_at:
                os._exit(99)

        pid = os.fork()
        if pid == 0:
            try:
                commit.run_commit(lower, upper, journals, fault_hook=hook)
            finally:
                os._exit(0)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 99, kill_at
        actions = commit.recover(journals)
        assert [state for _, state in actions] == [JournalState.COMMITTED], kill_at
        assert reload_lower(lower) == expected, kill_at
        assert list(upper.iterdir()) == [], kill_at
        assert list(journals.iterdir()) == [actions[0][0]], kill_at


def replay_a_committed_journal_twice(stack, tmp_path) -> None:
    """Recovery replays a committed journal over a base it already
    finished, and lands on flatten(stack) again."""
    lower, upper = materialize(stack, tmp_path)
    journals = tmp_path / "journals"

    def kill_post_commit(point, index):
        if point == "post-commit":
            os._exit(99)

    pid = os.fork()
    if pid == 0:
        try:
            commit.run_commit(lower, upper, journals, fault_hook=kill_post_commit)
        finally:
            os._exit(0)
    os.waitpid(pid, 0)
    (staging,) = [p for p in journals.iterdir() if p.is_dir()]
    shutil.copytree(staging, tmp_path / "staging-copy")
    for _ in range(2):
        assert [s for _, s in commit.recover(journals)] == [JournalState.COMMITTED]
        assert reload_lower(lower) == model.flatten(stack)
        assert not staging.exists()
        shutil.copytree(tmp_path / "staging-copy", staging)
    commit.recover(journals)
    assert reload_lower(lower) == model.flatten(stack)


# a node of one kind in the upper over a node of another kind in the base
KIND_CHANGES = {
    "file-over-directory": (
        {"etc": {"d": {"a": b"a", "sub": {"b": b"b"}}, "keep": b"k"}},
        {"etc": {"d": b"a file now"}},
    ),
    "directory-over-file": (
        {"etc": {"d": b"a file", "keep": b"k"}},
        {"etc": {"d": {"n": b"n", "sub": {"m": b"m"}}}},
    ),
    "opaque-directory-over-file": (
        {"etc": {"d": b"a file", "keep": b"k"}},
        {"etc": {"d": {"__opaque__": True, "n": b"n"}}},
    ),
}


@pytest.mark.parametrize("case", sorted(KIND_CHANGES))
class TestKindChanges:
    def stack(self, case):
        lower, upper = KIND_CHANGES[case]
        return LayerStack(lower=stackgen.build_tree(lower), upper=stackgen.build_tree(upper))

    def test_commit_applies(self, tmp_path, case):
        stack = self.stack(case)
        lower, upper = materialize(stack, tmp_path)
        result = commit.run_commit(lower, upper, tmp_path / "journals")
        assert reload_lower(lower) == model.flatten(stack)
        assert [e.path for e in result.entries][0] == "/etc/d"  # one entry changes the kind

    def test_kill_at_every_apply_entry_then_recover(self, tmp_path, case):
        kill_at_every_apply_entry_then_recover(self.stack(case), tmp_path)

    def test_replaying_a_committed_journal_twice(self, tmp_path, case):
        replay_a_committed_journal_twice(self.stack(case), tmp_path)


class TestJournalFormat:
    def test_journal_line_round_trip(self, tmp_path):
        stack = LayerStack(
            lower=stackgen.build_tree({"a": b"x", "gone": b"g"}),
            upper=stackgen.build_tree({
                "a": b"y", "sp ace": b"z", "gone": model.Whiteout(), "d": {"l": model.Symlink("a b")},
            }),
        )
        lower, upper = materialize(stack, tmp_path)
        result = commit.run_commit(lower, upper, tmp_path / "journals")
        assert [e.kind for e in result.entries] == ["file", "dir", "link", "drop", "file"]
        for entry in result.entries:
            assert commit.Entry.parse(entry.line()) == entry
        lines = result.journal_path.read_text().splitlines()
        assert json.loads(lines[0])["format"] == commit.FORMAT
        assert lines[1:] == [e.line() for e in result.entries] + ["END 5"]
        assert "drop /gone -" in lines


class TestNoCyclicGarbage:
    """Commit and view writes leave nothing for the cyclic collector."""

    def test_commit_and_view_write_leave_no_cycles(self, tmp_path):
        stack = base_update_stack()
        lower, upper = materialize(stack, tmp_path)
        (tmp_path / "view-upper").mkdir()
        view = diskfs.DiskOverlay([lower], tmp_path / "view-upper")
        gc.collect()
        gc.disable()
        try:
            commit.run_commit(lower, upper, tmp_path / "journals")
            assert gc.collect() == 0
            view.write_file("/etc/s00/new.conf", b"x" * 100)
            view.remove("/d00/f000")
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert view.resolve("/d00/f000").outcome is model.ResolutionKind.HIDDEN


class TestRecoveryScan:
    def test_one_scandir_and_no_stat_per_journal(self, tmp_path, monkeypatch):
        journals = tmp_path / "journals"
        journals.mkdir()
        for i in range(300):  # retained journals of applied commits
            (journals / f"commit-{i:06d}-1-{i}.committed").write_text("{}\n")
        (journals / "commit-orphan-1-0").mkdir()  # a stage that never wrote its journal
        scans, stats = [], []
        scandir, stat, lstat = os.scandir, os.stat, os.lstat
        monkeypatch.setattr(os, "scandir", lambda path: scans.append(str(path)) or scandir(path))
        monkeypatch.setattr(os, "stat", lambda path, *a, **k: stats.append(str(path)) or stat(path, *a, **k))
        monkeypatch.setattr(os, "lstat", lambda path, *a, **k: stats.append(str(path)) or lstat(path, *a, **k))
        actions = commit.recover(journals)
        monkeypatch.undo()
        assert actions == [(journals / "commit-orphan-1-0", JournalState.ABORTED)]
        assert scans.count(str(journals)) == 1
        assert not [p for p in stats if p.startswith(str(journals) + "/commit-0")]
        assert len(os.listdir(journals)) == 300


class TestUpperLoadStaysOutOfTheCache:
    def test_commit_adds_no_watch(self, tmp_path):
        stack = LayerStack(
            lower=stackgen.build_tree({"a": {"b": {"c": {"old": b"o"}}, "keep": b"k"}}),
            upper=stackgen.build_tree({
                "a": {"b": {"c": {"new": b"n"}, "x": {"y": b"y"}}, "keep": model.Whiteout()},
                "top": {"mid": {"low": b"l"}},
            }),
        )
        lower, upper = materialize(stack, tmp_path)
        (tmp_path / "scratch").mkdir()
        view = diskfs.DiskOverlay([lower], tmp_path / "scratch")
        for path, _ in stack.upper.walk():  # the base along the delta is watched already
            view.resolve(path)
        before = diskfs.cache_counters()["watches"]
        commit.run_commit(lower, upper, tmp_path / "journals")
        assert diskfs.cache_counters()["watches"] == before
        assert reload_lower(lower) == model.flatten(stack)
        assert not any(key[0].startswith(f"{upper}/") for key in diskfs._CACHE.dirs)


def _raw(name: bytes) -> str:
    return os.fsdecode(name)


def non_utf8_stack() -> LayerStack:
    return LayerStack(
        lower=stackgen.build_tree({_raw(b"gone\xfd"): b"g", "d": {_raw(b"old\xff"): b"o", "keep": b"k"}}),
        upper=stackgen.build_tree({
            _raw(b"\xff"): b"new",
            _raw(b"gone\xfd"): model.Whiteout(),
            "d": {_raw(b"old\xff"): b"updated", _raw(b"sub\xfe"): {"f": b"f"}},
            "l": model.Symlink(_raw(b"target\xfa")),
        }),
    )


class TestNonUtf8Names:
    def test_file_lands_under_its_raw_bytes(self, tmp_path):
        stack = non_utf8_stack()
        lower, upper = materialize(stack, tmp_path)
        result = commit.run_commit(lower, upper, tmp_path / "journals")
        assert sorted(os.listdir(bytes(lower))) == [b"d", b"l", b"\xff"]
        assert sorted(os.listdir(os.path.join(bytes(lower), b"d"))) == [b"keep", b"old\xff", b"sub\xfe"]
        with open(os.path.join(bytes(lower), b"\xff"), "rb") as fh:
            assert fh.read() == b"new"
        assert os.readlink(os.path.join(bytes(lower), b"l")) == b"target\xfa"
        assert reload_lower(lower) == model.flatten(stack)
        assert commit._read_journal(result.journal_path)[1] == result.entries

    def test_replayed_journal_applies_the_same(self, tmp_path):
        replay_a_committed_journal_twice(non_utf8_stack(), tmp_path)
