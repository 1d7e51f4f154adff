"""Transactional merge of an upper layer into the lower layer on disk.

The administrator's global update runs in two phases.  Staging computes
the journal from the pure model, streams every payload into one pack file
in the staging area, and writes the journal file (`*.staged`): nothing in
the lower tree has been touched, and any interruption leaves a journal
that recovery marks `*.aborted`.  The commit point is a single atomic
rename to `*.committed`; after it, entries are applied to the lower tree
from the pack (write-temp + rename per file, so a torn apply is
impossible at the record level) and the consumed upper layer is cleared.
A crash after the commit point is finished by replaying the journal on
recovery; application is idempotent, so every entry lands effectively
once either way.

Planning reads the upper layer's shape without file content and the base
only along the delta's paths: the base reaches the model as a lazy
directory (one lstat per probed path, one scandir under each opaque upper
directory that covers a base directory), so the plan costs what the delta
costs, not what the base costs.  The plan leaves a placeholder where each
payload's checksum goes.

Staging reads each payload once: it streams the file through one reused
buffer into `<staging>/pack`, hashing as it goes, and an upper file whose
size or mtime changes meanwhile fails the stage.  Identical payloads take
one range of the pack.  The pack is fsynced once, before the journal is
written and fsynced, so payload data is durable before the commit point;
a whole stage costs two fsyncs.  The journal header's "pack" maps each
digest to [offset, length, is_symlink], which apply and recovery copy out
of the pack with copy_file_range.

Journals are retained under `<state_root>/journals`.  Callers must hold
the registry's exclusive commit lock.

Fault injection: pass fault_hook(point, index); it is invoked at every
staging step and around the commit point, and may raise (or kill the
process) to simulate a crash.  The env var CUE_COMMIT_KILL_AT=<n> arms a
hook that hard-kills the process at the n-th point, for multi-process
fault drills.
"""

from __future__ import annotations

import errno
import hashlib
import itertools
import json
import os
import shutil
import stat as stat_m
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

from . import diskfs, model
from .errors import StageFailure
from .model import JournalEntry, JournalOp, JournalState

__all__ = ["CommitResult", "run_commit", "recover", "install_env_fault_hook"]

FaultHook = Callable[[str, int], None]

_SUFFIX = {
    JournalState.STAGED: ".staged",
    JournalState.COMMITTED: ".committed",
    JournalState.ABORTED: ".aborted",
}
_PACK = "pack"  # the staging area's one payload file
_CHUNK = 1024 * 1024
_SEQUENCE = itertools.count()  # journal ids taken by this process


@dataclass
class CommitResult:
    journal_path: Path
    state: JournalState
    entries: tuple[JournalEntry, ...]

    @property
    def applied(self) -> bool:
        return self.state is JournalState.COMMITTED


def install_env_fault_hook() -> Optional[FaultHook]:
    """Hook that hard-kills the process at the CUE_COMMIT_KILL_AT-th point."""
    armed = os.environ.get("CUE_COMMIT_KILL_AT")
    if armed is None:
        return None
    target = int(armed)
    counter = {"n": 0}

    def hook(point: str, index: int) -> None:
        if counter["n"] == target:
            os._exit(99)
        counter["n"] += 1

    return hook


def _journal_base(path: Path) -> str:
    base = path.name
    for suffix in _SUFFIX.values():
        if base.endswith(suffix):
            return base[: -len(suffix)]
    return base


def _with_state(path: Path, state: JournalState) -> Path:
    return path.with_name(_journal_base(path) + _SUFFIX[state])


def run_commit(
    lower_dir: str | Path,
    upper_dir: str | Path,
    journal_dir: str | Path,
    *,
    clear_upper: bool = True,
    fault_hook: Optional[FaultHook] = None,
) -> CommitResult:
    """Merge upper_dir into lower_dir; both are plain layer directories.

    Raises StageFailure with the lower tree untouched when staging cannot
    complete; otherwise returns the committed, fully applied result.
    """
    lower_dir = Path(lower_dir)
    upper_dir = Path(upper_dir)
    journal_dir = Path(journal_dir)
    journal_dir.mkdir(parents=True, exist_ok=True)
    hook = fault_hook or install_env_fault_hook() or (lambda point, index: None)

    recover(journal_dir)  # finish or abort anything a dead process left

    lower = diskfs.layer_root(lower_dir, marker_aware=False)
    try:
        upper_tree = diskfs.load_tree(upper_dir, marker_aware=True, deep=False)
    except OSError as err:
        raise StageFailure(f"unreadable upper layer: {err}") from err
    payloads: dict[str, Optional[str]] = {}  # path -> symlink target, None for a file

    def slot(path: str, node: model.Node) -> str:
        payloads[path] = node.target if isinstance(node, model.Symlink) else None
        return path  # placeholder until staging has streamed the digest

    planned = model.stage_merge(lower, upper_tree.root, checksum=slot)

    # ns clock plus a per-process sequence: unique even for back-to-back
    # commits, and sorted in commit order
    journal_id = f"commit-{time.time_ns()}-{os.getpid()}-{next(_SEQUENCE)}"
    staging = journal_dir / journal_id
    staged_path = journal_dir / (journal_id + _SUFFIX[JournalState.STAGED])
    header = {
        "id": journal_id,
        "lower": str(lower_dir),
        "upper": str(upper_dir),
        "clear_upper": clear_upper,
    }

    try:
        staging.mkdir()
        digests, header["pack"] = _stage(staging, str(upper_dir), payloads, hook)
        entries = tuple(
            e if e.checksum is None else replace(e, checksum=digests[e.path]) for e in planned
        )
        hook("journal-write", 0)
        _write_journal(staged_path, header, entries)
        hook("pre-commit", 0)
    except StageFailure:
        _abort_stage(staged_path, staging)
        raise
    except OSError as err:
        _abort_stage(staged_path, staging)
        raise StageFailure(str(err)) from err

    # ---- commit point: one atomic rename ---------------------------------
    committed_path = _with_state(staged_path, JournalState.COMMITTED)
    os.replace(staged_path, committed_path)
    hook("post-commit", 0)

    _apply(committed_path, header, entries, hook)
    return CommitResult(
        journal_path=committed_path,
        state=JournalState.COMMITTED,
        entries=entries,
    )


def _abort_stage(staged_path: Path, staging: Path) -> None:
    shutil.rmtree(staging, ignore_errors=True)
    if staged_path.exists():
        os.replace(staged_path, _with_state(staged_path, JournalState.ABORTED))


# ---------------------------------------------------------------------------
# staging

def _stage(
    staging: Path, upper_dir: str, payloads: dict[str, Optional[str]], hook: FaultHook
) -> tuple[dict[str, str], dict[str, list]]:
    """Stream every payload once into the pack, hashing it on the way.

    payloads maps each payload path, in journal order, to its symlink
    target (None for a regular file).  Returns each path's digest and the
    pack index, digest -> [offset, length, is_symlink].  The free-space
    check runs before any payload IO so a hopeless stage fails at once,
    lower untouched; the pack is fsynced once, after its last payload.
    """
    upper = upper_dir.rstrip("/")
    needed = 0
    for path, target in payloads.items():
        if target is None:
            try:
                needed += os.lstat(upper + path).st_size
            except OSError as err:
                raise StageFailure(f"unreadable upper node {path}: {err}") from err
    free = shutil.disk_usage(staging).free
    if needed > free:
        raise StageFailure(f"insufficient space: need {needed} bytes, {free} free")

    digests: dict[str, str] = {}
    index: dict[str, list] = {}
    end = 0  # the pack's length; a duplicate payload written past it is dropped
    view = memoryview(bytearray(max(1, min(_CHUNK, needed))))  # reused by every file
    pack = os.open(staging / _PACK, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC, 0o600)
    try:
        for i, (path, target) in enumerate(payloads.items()):
            hook("stage-entry", i)
            hasher = hashlib.sha256()
            if target is None:
                length = _stream(upper + path, path, pack, end, hasher, view)
            else:
                data = target.encode("utf-8")
                hasher.update(data)
                _write_at(pack, data, end)
                length = len(data)
            digest = digests[path] = hasher.hexdigest()
            known = index.get(digest)
            if known is None:
                index[digest] = [end, length, target is not None]
                end += length
            elif known[2] != (target is not None):
                # the journal line names only the digest, which must tell
                # apply what kind of node to make
                raise StageFailure(f"same bytes as a file and as a symlink: {path}")
        os.ftruncate(pack, end)
        os.fsync(pack)
    finally:
        os.close(pack)
    return digests, index


def _stream(real: str, path: str, pack: int, offset: int, hasher, view: memoryview) -> int:
    """Copy the upper file at real into the pack at offset through view,
    hashing it; returns its length."""
    try:
        fd = os.open(real, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK | os.O_CLOEXEC)
    except OSError as err:
        raise StageFailure(f"unreadable upper node {path}: {err}") from err
    try:
        before = os.fstat(fd)
        if not stat_m.S_ISREG(before.st_mode):
            raise StageFailure(f"payload changed while staging: {path}")
        length = 0
        while n := os.readv(fd, [view]):
            chunk = view[:n]
            hasher.update(chunk)
            _write_at(pack, chunk, offset + length)
            length += n
        after = os.fstat(fd)
    finally:
        os.close(fd)
    if (before.st_size, before.st_mtime_ns) != (after.st_size, after.st_mtime_ns) or length != after.st_size:
        raise StageFailure(f"payload changed while staging: {path}")
    return length


def _write_at(fd: int, data, offset: int) -> None:
    view = memoryview(data)
    while view:
        n = os.pwrite(fd, view, offset)
        view, offset = view[n:], offset + n


def _write_journal(path: Path, header: dict, entries) -> None:
    with open(path, "x", encoding="utf-8") as fh:  # never replaces another journal
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for entry in entries:
            fh.write(entry.to_line() + "\n")
        fh.write(f"END {len(entries)}\n")
        fh.flush()
        os.fsync(fh.fileno())


def _read_journal(path: Path) -> tuple[dict, tuple[JournalEntry, ...]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    body = lines[1:]
    if not body or not body[-1].startswith("END "):
        raise StageFailure(f"truncated journal: {path}")
    if int(body[-1].split()[1]) != len(body) - 1:
        raise StageFailure(f"journal entry count mismatch: {path}")
    return header, tuple(JournalEntry.from_line(line) for line in body[:-1])


# ---------------------------------------------------------------------------
# application and recovery

def _apply(journal_path: Path, header: dict, entries, hook: FaultHook) -> None:
    if "pack" not in header:
        raise StageFailure(f"journal {journal_path} predates the pack format and cannot be replayed")
    lower = header["lower"]
    staging = os.path.join(journal_path.parent, header["id"])
    index = header["pack"]
    pack = os.open(os.path.join(staging, _PACK), os.O_RDONLY | os.O_CLOEXEC) if index else -1
    try:
        for i, entry in enumerate(entries):
            hook("apply-entry", i)
            real = os.path.join(lower, *model.split_path(entry.path))
            if entry.op is JournalOp.DELETE_FROM_LOWER:
                diskfs._rm_real(real)
            elif entry.op is JournalOp.COPY_TO_LOWER:
                if entry.checksum is None:
                    try:
                        is_dir = stat_m.S_ISDIR(os.lstat(real).st_mode)
                    except FileNotFoundError:
                        is_dir = False
                    if not is_dir:
                        diskfs._rm_real(real)
                        os.mkdir(real)
                else:
                    offset, length, is_symlink = index[entry.checksum]
                    diskfs._rm_real(real)
                    if is_symlink:
                        target = os.pread(pack, length, offset)
                        if len(target) != length:
                            raise StageFailure(f"truncated pack: {length} bytes at {offset}")
                        os.symlink(target.decode("utf-8"), real)
                    else:
                        tmp = real + ".cue-apply-tmp"
                        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_CLOEXEC, 0o666)
                        try:
                            _copy_range(pack, fd, offset, length)
                        finally:
                            os.close(fd)
                        os.replace(tmp, real)
            # MARK_OPAQUE_APPLIED: realized by the surrounding deletes
    finally:
        if pack >= 0:
            os.close(pack)

    hook("apply-done", 0)
    if header.get("clear_upper", True):
        _clear_dir(header["upper"])
    shutil.rmtree(staging, ignore_errors=True)


def _copy_range(src: int, dst: int, offset: int, length: int) -> None:
    """Copy length bytes at offset of src to the start of dst."""
    done = 0
    copy = getattr(os, "copy_file_range", None)  # Linux only
    try:
        while copy is not None and done < length:
            n = copy(src, dst, length - done, offset + done, done)
            if n == 0:
                break
            done += n
    except OSError as err:
        # not every kernel copies between filesystems (or at all)
        if err.errno not in (errno.EXDEV, errno.ENOSYS, errno.EINVAL, errno.EOPNOTSUPP):
            raise
    while done < length:
        chunk = os.pread(src, min(_CHUNK, length - done), offset + done)
        if not chunk:
            break
        _write_at(dst, chunk, done)
        done += len(chunk)
    if done != length:
        raise StageFailure(f"truncated pack: {length} bytes at {offset}, got {done}")


def _clear_dir(path: str) -> None:
    try:
        with os.scandir(path) as scan:
            children = [entry.path for entry in scan]
    except (FileNotFoundError, NotADirectoryError):
        return
    for child in children:
        diskfs._rm_real(child)


def recover(journal_dir: str | Path) -> list[tuple[Path, JournalState]]:
    """Finish interrupted commits.

    `*.staged` journals become `*.aborted` (their lower trees were never
    touched); `*.committed` journals with a surviving staging area are
    replayed to completion; orphan staging directories (crash before the
    journal file existed) are discarded.  Returns the (journal, resulting
    state) pairs acted on.
    """
    journal_dir = Path(journal_dir)
    actions: list[tuple[Path, JournalState]] = []
    if not journal_dir.is_dir():
        return actions
    for path in sorted(journal_dir.glob("*.staged")):
        aborted = _with_state(path, JournalState.ABORTED)
        os.replace(path, aborted)
        shutil.rmtree(journal_dir / _journal_base(path), ignore_errors=True)
        actions.append((aborted, JournalState.ABORTED))
    for path in sorted(journal_dir.glob("*.committed")):
        staging = journal_dir / _journal_base(path)
        if not staging.is_dir():
            continue  # fully applied already
        header, entries = _read_journal(path)
        _apply(path, header, entries, lambda point, index: None)
        actions.append((path, JournalState.COMMITTED))
    for staging in sorted(journal_dir.glob("commit-*")):
        if not staging.is_dir():
            continue
        base = staging.name
        if not any((journal_dir / (base + s)).exists() for s in _SUFFIX.values()):
            shutil.rmtree(staging, ignore_errors=True)
            actions.append((staging, JournalState.ABORTED))
    return actions
