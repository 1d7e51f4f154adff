"""Durable registry of containers plus the cross-process locks.

One JSON file per record under `<state_root>/containers/<kind>/<user>.json`,
written with the write-to-temp + atomic-rename discipline so readers are
lock-free and never observe a torn record.  A single advisory file lock
(`<state_root>/commit.lock`) serializes merge-down commits and benchmarks
host-wide; per-record locks serialize mutations of one container.  User
ids and kinds become path components, so both are validated before any
path is built from them.
"""

from __future__ import annotations

import fcntl
import json
import os
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from .errors import Duplicate, InvalidConfig, NotFound, StorageFailure, WouldBlock
from .planner import _USER_RE, _check_id

__all__ = [
    "ContainerRecord",
    "Registry",
    "FileLock",
    "default_state_root",
]

STATE_ROOT_ENV = "CUE_STATE_ROOT"
DEFAULT_STATE_ROOT = "/var/lib/cue"

KINDS = ("User", "RootSandbox")
STATUSES = ("Created", "Running", "Stopped")


def default_state_root() -> str:
    return os.environ.get(STATE_ROOT_ENV, DEFAULT_STATE_ROOT)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass(frozen=True)
class ContainerRecord:
    user: str
    upper_dir: str
    work_dir: str
    merged_dir: str
    hostname: str
    created_at: str = ""
    status: str = "Created"
    kind: str = "User"

    def __post_init__(self) -> None:
        if not self.created_at:
            object.__setattr__(self, "created_at", _utc_now())
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.status not in STATUSES:
            raise ValueError(f"status must be one of {STATUSES}, got {self.status!r}")

    @classmethod
    def of(cls, config, **fields) -> "ContainerRecord":
        """The record of a container planned from config (a ContainerConfig)."""
        return cls(user=config.user, upper_dir=config.upper_dir, work_dir=config.work_dir,
                   merged_dir=config.merged_dir, hostname=config.hostname, **fields)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ContainerRecord":
        return cls(**json.loads(text))


class FileLock:
    """Advisory flock, exclusive; released on close, unlock, or process exit."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self._fd: Optional[int] = None

    def acquire(self, blocking: bool = True) -> "FileLock":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        flags = fcntl.LOCK_EX | (0 if blocking else fcntl.LOCK_NB)
        try:
            fcntl.flock(fd, flags)
        except BlockingIOError:
            os.close(fd)
            raise WouldBlock(f"lock busy: {self.path}") from None
        self._fd = fd
        return self

    def release(self) -> None:
        if self._fd is not None:
            fcntl.flock(self._fd, fcntl.LOCK_UN)
            os.close(self._fd)
            self._fd = None

    @property
    def held(self) -> bool:
        return self._fd is not None

    def __enter__(self) -> "FileLock":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


def _atomic_write(path: Path, data: str) -> None:
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as err:
        tmp.unlink(missing_ok=True)
        raise StorageFailure(f"cannot write {path}: {err}") from err


def _check_key(user: str, kind: str) -> None:
    """Refuse a record key whose parts are not safe path components."""
    if kind not in KINDS:
        raise InvalidConfig("kind", f"kind must be one of {KINDS}, got {kind!r}")
    _check_id("user", user, _USER_RE)


class Registry:
    def __init__(self, state_root: str | os.PathLike[str] | None = None):
        self.state_root = Path(state_root or default_state_root())

    # -- paths ------------------------------------------------------------

    def record_path(self, user: str, kind: str = "User") -> Path:
        _check_key(user, kind)
        return self.state_root / "containers" / kind / f"{user}.json"

    def commit_lock_path(self) -> Path:
        return self.state_root / "commit.lock"

    def journal_dir(self) -> Path:
        return self.state_root / "journals"

    def _record_lock_path(self, user: str, kind: str) -> Path:
        _check_key(user, kind)
        return self.state_root / "locks" / f"{kind}-{user}.lock"

    # -- records ----------------------------------------------------------

    def register(self, record: ContainerRecord) -> None:
        path = self.record_path(record.user, record.kind)
        if path.exists():
            raise Duplicate(f"container already registered: {record.kind}/{record.user}")
        self._check_live_paths(record)
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write(path, record.to_json())

    def update(self, record: ContainerRecord) -> None:
        path = self.record_path(record.user, record.kind)
        if not path.exists():
            raise NotFound(f"no such container: {record.kind}/{record.user}")
        self._check_live_paths(record)
        _atomic_write(path, record.to_json())

    @staticmethod
    def _check_live_paths(record: ContainerRecord) -> None:
        # a live (non-Stopped) record must point at real directories
        if record.status == "Stopped":
            return
        for name in ("upper_dir", "work_dir", "merged_dir"):
            value = getattr(record, name)
            if not Path(value).is_dir():
                raise StorageFailure(
                    f"cannot persist live record {record.kind}/{record.user}: "
                    f"{name} missing on disk: {value}"
                )

    def set_status(self, user: str, kind: str, status: str) -> ContainerRecord:
        record = self.lookup(user, kind)
        if record is None:
            raise NotFound(f"no such container: {kind}/{user}")
        updated = replace(record, status=status)
        self.update(updated)
        return updated

    def lookup(self, user: str, kind: str = "User") -> Optional[ContainerRecord]:
        path = self.record_path(user, kind)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as err:
            raise StorageFailure(f"cannot read {path}: {err}") from err
        return ContainerRecord.from_json(text)

    def remove(self, user: str, kind: str = "User") -> None:
        path = self.record_path(user, kind)
        if not path.exists():
            raise NotFound(f"no such container: {kind}/{user}")
        path.unlink()

    def list(self) -> list[ContainerRecord]:
        records: list[ContainerRecord] = []
        base = self.state_root / "containers"
        if not base.is_dir():
            return records
        for kind_dir in sorted(base.iterdir()):
            if not kind_dir.is_dir():
                continue
            for path in kind_dir.glob("*.json"):
                if path.name.startswith("."):
                    continue
                records.append(ContainerRecord.from_json(path.read_text(encoding="utf-8")))
        records.sort(key=lambda r: (r.user, r.kind))
        return records

    # -- locks ------------------------------------------------------------

    def acquire_commit_lock(self, blocking: bool = False) -> FileLock:
        """At most one holder across all processes on this host."""
        return FileLock(self.commit_lock_path()).acquire(blocking=blocking)

    def acquire_record_lock(self, user: str, kind: str = "User", blocking: bool = False) -> FileLock:
        return FileLock(self._record_lock_path(user, kind)).acquire(blocking=blocking)
