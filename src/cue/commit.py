"""Transactional merge of an upper layer into the lower layer on disk.

The administrator's global update runs in two phases.  Staging plans the
merge with the pure model (model.stage_merge: the edits that turn the
base into the merged tree), streams every payload into one pack file in
the staging area, and writes the journal file (`*.staged`): nothing in
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
costs, not what the base costs.

Staging reads each payload once: it streams the file through one reused
buffer into `<staging>/pack`, hashing as it goes, and an upper file whose
size or mtime changes meanwhile fails the stage.  Identical payloads take
one range of the pack, whatever kind of node they belong to.  The pack is
fsynced once, before the journal is written and fsynced, so payload data
is durable before the commit point; a whole stage costs two fsyncs.

This module owns the journal file format.  Line one is a JSON header:
"format" (FORMAT), "id", "lower", "upper", and "pack", which maps each
payload digest (sha256 hex) to its [offset, length] in the pack.  Then
one line per edit, `<kind> <path> <digest|->`:

    drop <path> -         remove the entry at path, if any
    dir <path> -          make sure a plain directory is there, keeping one that is
    file <path> <digest>  put a regular file holding the payload, replacing whatever is there
    link <path> <digest>  put a symlink whose target is the payload, likewise

and last `END <entry count>`.  Recovery refuses a journal in any other
format with a StageFailure naming it.  Journals are retained under
`<state_root>/journals`.  Callers must hold the registry's exclusive
commit lock.

Fault injection: pass fault_hook(point, index); it is invoked at every
staging step, around the commit point and before each applied entry
(index: the entry's position in the journal), and may raise (or kill the
process) to simulate a crash.
"""

from __future__ import annotations

import errno
import itertools
import json
import os
import shutil
import stat as stat_m
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

from . import diskfs, model
from .errors import StageFailure
from .model import Directory, JournalState, RegularFile, Symlink

__all__ = ["FORMAT", "Entry", "CommitResult", "run_commit", "recover"]

FORMAT = 3  # the two formats before it wrote no "format" field
FaultHook = Callable[[str, int], None]

_SUFFIX = {
    JournalState.STAGED: ".staged",
    JournalState.COMMITTED: ".committed",
    JournalState.ABORTED: ".aborted",
}
_PACK = "pack"  # the staging area's one payload file
_CHUNK = 1024 * 1024
_SEQUENCE = itertools.count()  # journal ids taken by this process


class Entry(NamedTuple):
    """One journal line: an edit to the base, its payload named by digest."""

    kind: str  # drop, dir, file or link
    path: str
    digest: Optional[str] = None  # file and link only

    def line(self) -> str:
        return f"{self.kind} {self.path} {self.digest or '-'}"

    @classmethod
    def parse(cls, line: str) -> "Entry":
        kind, rest = line.split(" ", 1)
        path, digest = rest.rsplit(" ", 1)
        return cls(kind, path, None if digest == "-" else digest)


def _kind(node: Optional[model.Node]) -> str:
    if node is None:
        return "drop"
    if isinstance(node, Directory):
        return "dir"
    return "link" if isinstance(node, Symlink) else "file"


@dataclass
class CommitResult:
    journal_path: Path
    state: JournalState
    entries: tuple[Entry, ...]

    @property
    def applied(self) -> bool:
        return self.state is JournalState.COMMITTED


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
    hook = fault_hook or (lambda point, index: None)

    recover(journal_dir)  # finish or abort anything a dead process left

    lower = diskfs.layer_root(lower_dir, marker_aware=False)
    try:
        upper_tree = diskfs.load_tree(upper_dir, marker_aware=True, deep=False)
    except OSError as err:
        raise StageFailure(f"unreadable upper layer: {err}") from err
    edits = model.stage_merge(lower, upper_tree.root)

    # ns clock plus a per-process sequence: unique even for back-to-back
    # commits, and sorted in commit order
    journal_id = f"commit-{time.time_ns()}-{os.getpid()}-{next(_SEQUENCE)}"
    staging = journal_dir / journal_id
    staged_path = journal_dir / (journal_id + _SUFFIX[JournalState.STAGED])
    header = {"format": FORMAT, "id": journal_id, "lower": str(lower_dir), "upper": str(upper_dir)}

    try:
        staging.mkdir()
        entries, header["pack"] = _stage(staging, str(upper_dir), edits, hook)
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
    staging: Path, upper_dir: str, edits: Sequence[model.Edit], hook: FaultHook
) -> tuple[tuple[Entry, ...], dict[str, list[int]]]:
    """Journal entries for the edits, each payload streamed once into the
    pack and hashed on the way.

    Returns the entries and the pack index, digest -> [offset, length].
    The free-space check runs before any payload IO so a hopeless stage
    fails at once, lower untouched; the pack is fsynced once, after its
    last payload.
    """
    import hashlib  # only staging hashes: cue.commit is imported by processes that never do
    upper = upper_dir.rstrip("/")
    needed = 0
    for parts, node in edits:
        if isinstance(node, RegularFile):
            path = model.join_path(parts)
            try:
                needed += os.lstat(upper + path).st_size
            except OSError as err:
                raise StageFailure(f"unreadable upper node {path}: {err}") from err
    free = shutil.disk_usage(staging).free
    if needed > free:
        raise StageFailure(f"insufficient space: need {needed} bytes, {free} free")

    entries: list[Entry] = []
    index: dict[str, list[int]] = {}
    end = 0  # the pack's length; a duplicate payload written past it is dropped
    view = memoryview(bytearray(max(1, min(_CHUNK, needed))))  # reused by every file
    pack = os.open(staging / _PACK, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC, 0o600)
    try:
        for i, (parts, node) in enumerate(edits):
            kind, path = _kind(node), model.join_path(parts)
            if kind in ("drop", "dir"):
                entries.append(Entry(kind, path))
                continue
            hook("stage-entry", i)
            hasher = hashlib.sha256()
            if isinstance(node, Symlink):
                data = os.fsencode(node.target)
                hasher.update(data)
                _write_at(pack, data, end)
                length = len(data)
            else:
                length = _stream(upper + path, path, pack, end, hasher, view)
            digest = hasher.hexdigest()
            if digest not in index:
                index[digest] = [end, length]
                end += length
            entries.append(Entry(kind, path, digest))
        os.ftruncate(pack, end)
        os.fsync(pack)
    finally:
        os.close(pack)
    return tuple(entries), index


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


def _write_journal(path: Path, header: dict, entries: tuple[Entry, ...]) -> None:
    # never replaces another journal; a path that is not UTF-8 keeps its raw bytes
    with open(path, "x", encoding="utf-8", errors="surrogateescape") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for entry in entries:
            fh.write(entry.line() + "\n")
        fh.write(f"END {len(entries)}\n")
        fh.flush()
        os.fsync(fh.fileno())


def _read_journal(path: Path) -> tuple[dict, tuple[Entry, ...]]:
    lines = path.read_text(encoding="utf-8", errors="surrogateescape").splitlines()
    header = json.loads(lines[0])
    if header.get("format") != FORMAT:
        raise StageFailure(
            f"journal {path} is in format {header.get('format')}, not {FORMAT}, and cannot be replayed"
        )
    body = lines[1:]
    if not body or not body[-1].startswith("END "):
        raise StageFailure(f"truncated journal: {path}")
    if int(body[-1].split()[1]) != len(body) - 1:
        raise StageFailure(f"journal entry count mismatch: {path}")
    return header, tuple(Entry.parse(line) for line in body[:-1])


# ---------------------------------------------------------------------------
# application and recovery

def _apply(journal_path: Path, header: dict, entries: tuple[Entry, ...], hook: FaultHook) -> None:
    lower = header["lower"]
    staging = os.path.join(journal_path.parent, header["id"])
    index = header["pack"]
    pack = os.open(os.path.join(staging, _PACK), os.O_RDONLY | os.O_CLOEXEC) if index else -1
    try:
        for i, (kind, path, digest) in enumerate(entries):
            hook("apply-entry", i)
            real = os.path.join(lower, *model.split_path(path))
            if kind == "drop":
                diskfs._rm_real(real)
            elif kind == "dir":
                try:
                    os.mkdir(real)
                except FileExistsError:
                    if not stat_m.S_ISDIR(os.lstat(real).st_mode):
                        diskfs._rm_real(real)
                        os.mkdir(real)
            elif kind == "link":
                offset, length = index[digest]
                target = os.pread(pack, length, offset)
                if len(target) != length:
                    raise StageFailure(f"truncated pack: {length} bytes at {offset}")
                diskfs._rm_real(real)
                os.symlink(os.fsdecode(target), real)
            else:
                offset, length = index[digest]
                # removed first, not renamed over: ext4 (auto_da_alloc)
                # writes a file renamed over another out at once, about
                # 100 times slower for a 4 MiB file
                diskfs._rm_real(real)
                tmp = real + ".cue-apply-tmp"
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_CLOEXEC, 0o666)
                try:
                    _copy_range(pack, fd, offset, length)
                finally:
                    os.close(fd)
                os.replace(tmp, real)
    finally:
        if pack >= 0:
            os.close(pack)

    hook("apply-done", 0)
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
    try:  # one scandir classifies everything: no stat per journal
        with os.scandir(journal_dir) as scan:
            is_dir = {entry.name: entry.is_dir() for entry in scan}
    except (FileNotFoundError, NotADirectoryError):
        return actions
    for name in sorted(is_dir):
        if name.endswith(_SUFFIX[JournalState.STAGED]):
            path = journal_dir / name
            aborted = _with_state(path, JournalState.ABORTED)
            os.replace(path, aborted)
            shutil.rmtree(journal_dir / _journal_base(path), ignore_errors=True)
            actions.append((aborted, JournalState.ABORTED))
    for name in sorted(is_dir):  # a fully applied journal has no staging area left
        path = journal_dir / name
        if name.endswith(_SUFFIX[JournalState.COMMITTED]) and is_dir.get(_journal_base(path)):
            header, entries = _read_journal(path)
            _apply(path, header, entries, lambda point, index: None)
            actions.append((path, JournalState.COMMITTED))
    for name in sorted(is_dir):  # a staging area no journal names: a crash before the journal existed
        if name.startswith("commit-") and is_dir[name] and not any(name + s in is_dir for s in _SUFFIX.values()):
            shutil.rmtree(journal_dir / name, ignore_errors=True)
            actions.append((journal_dir / name, JournalState.ABORTED))
    return actions
