"""Transactional merge of an upper layer into the lower layer on disk.

The administrator's global update runs in two phases.  Staging computes
the journal from the pure model, copies every payload into a content-
addressed staging area, and writes the journal file (`*.staged`): nothing
in the lower tree has been touched, and any interruption leaves a journal
that recovery marks `*.aborted`.  The commit point is a single atomic
rename to `*.committed`; after it, entries are applied to the lower tree
from the staged payloads (write-temp + rename per file, so a torn apply
is impossible at the record level) and the consumed upper layer is
cleared.  A crash after the commit point is finished by replaying the
journal on recovery; application is idempotent, so every entry lands
effectively once either way.

Planning reads the whole upper layer but the base only along the delta's
paths: the base reaches the model as a lazy directory (one lstat per
probed path, one scandir under each opaque upper directory that covers a
base directory), so the plan costs what the delta costs, not what the
base costs.

Journals are retained under `<state_root>/journals`.  Callers must hold
the registry's exclusive commit lock.

Fault injection: pass fault_hook(point, index); it is invoked at every
staging step and around the commit point, and may raise (or kill the
process) to simulate a crash.  The env var CUE_COMMIT_KILL_AT=<n> arms a
hook that hard-kills the process at the n-th point, for multi-process
fault drills.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
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
_SYMLINK_EXT = ".lnk"


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


def journal_state(path: Path) -> JournalState:
    for state, suffix in _SUFFIX.items():
        if path.name.endswith(suffix):
            return state
    raise ValueError(f"not a journal file: {path}")


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
        upper_tree = diskfs.load_tree(upper_dir, marker_aware=True, deep=True)
    except OSError as err:
        raise StageFailure(f"unreadable upper layer: {err}") from err
    entries = model.stage_merge(lower, upper_tree.root)

    journal_id = f"commit-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
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
        _stage_payloads(staging, upper_dir, entries, hook)
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

def _payload_path(staging: Path, checksum: str, symlink: bool) -> Path:
    return staging / (checksum + (_SYMLINK_EXT if symlink else ""))


def _stage_payloads(staging: Path, upper_dir: Path, entries, hook: FaultHook) -> None:
    """Copy every payload into the staging area under its checksum.

    The free-space check runs before any payload IO so a hopeless stage
    fails immediately, lower untouched.
    """
    sources: list[tuple[JournalEntry, Path, bool]] = []
    needed = 0
    for entry in entries:
        if entry.op is not JournalOp.COPY_TO_LOWER or entry.checksum is None:
            continue
        real = upper_dir.joinpath(*model.split_path(entry.path))
        try:
            if real.is_symlink():
                sources.append((entry, real, True))
            else:
                needed += real.lstat().st_size
                sources.append((entry, real, False))
        except OSError as err:
            raise StageFailure(f"unreadable upper node {entry.path}: {err}") from err
    free = shutil.disk_usage(staging).free
    if needed > free:
        raise StageFailure(f"insufficient space: need {needed} bytes, {free} free")

    for index, (entry, real, is_symlink) in enumerate(sources):
        hook("stage-entry", index)
        target = _payload_path(staging, entry.checksum, is_symlink)
        if target.exists():
            continue
        tmp = target.with_name(target.name + ".tmp")
        hasher = hashlib.sha256()
        try:
            if is_symlink:
                payload = os.readlink(real).encode("utf-8")
                hasher.update(payload)
                tmp.write_bytes(payload)
            else:
                with open(real, "rb") as src, open(tmp, "wb") as dst:
                    while chunk := src.read(1024 * 1024):
                        hasher.update(chunk)
                        dst.write(chunk)
                    dst.flush()
                    os.fsync(dst.fileno())
        except OSError as err:
            raise StageFailure(f"unreadable upper node {entry.path}: {err}") from err
        if hasher.hexdigest() != entry.checksum:
            tmp.unlink(missing_ok=True)
            raise StageFailure(f"payload changed while staging: {entry.path}")
        os.replace(tmp, target)


def _write_journal(path: Path, header: dict, entries) -> None:
    with open(path, "w", encoding="utf-8") as fh:
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
    lower = Path(header["lower"])
    staging = journal_path.parent / header["id"]

    for index, entry in enumerate(entries):
        hook("apply-entry", index)
        real = lower.joinpath(*model.split_path(entry.path))
        if entry.op is JournalOp.DELETE_FROM_LOWER:
            diskfs._rm_real(real)
        elif entry.op is JournalOp.COPY_TO_LOWER:
            if entry.checksum is None:
                if not (real.is_dir() and not real.is_symlink()):
                    diskfs._rm_real(real)
                    real.mkdir()
            else:
                link_payload = _payload_path(staging, entry.checksum, symlink=True)
                if link_payload.exists():
                    diskfs._rm_real(real)
                    os.symlink(link_payload.read_text(encoding="utf-8"), real)
                else:
                    payload = _payload_path(staging, entry.checksum, symlink=False)
                    tmp = real.with_name(real.name + ".cue-apply-tmp")
                    diskfs._rm_real(real)
                    shutil.copyfile(payload, tmp)
                    os.replace(tmp, real)
        # MARK_OPAQUE_APPLIED: realized by the surrounding deletes

    hook("apply-done", 0)
    if header.get("clear_upper", True):
        _clear_dir(Path(header["upper"]))
    shutil.rmtree(staging, ignore_errors=True)


def _clear_dir(path: Path) -> None:
    if not path.is_dir():
        return
    for child in path.iterdir():
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
