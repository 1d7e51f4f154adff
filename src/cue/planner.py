"""Deterministic construction of container setup plans.

A plan is the complete ordered recipe for creating and entering a user
container: scratch directories, mount/pid/uts namespaces, the overlay
mount of the user's upper layer onto the base root, hostname, device and
mask binds, proc remount, capability drop, chroot, and finally the entry
command.  Building a plan has no side effects; executing one is the
executor's job.  Identical configs serialize to byte-identical plans so
the runtime's core logic can be golden-tested without privileges.
"""

from __future__ import annotations

import re
import shlex
from dataclasses import dataclass
from enum import Enum
from pathlib import PurePosixPath
from typing import Sequence

from .capabilities import CapabilitySet, root_sandbox_policy, user_policy
from .errors import InvalidConfig

__all__ = [
    "BindMode",
    "MaskMode",
    "Namespace",
    "ContainerConfig",
    "SetupStep",
    "SetupPlan",
    "DEFAULT_DEVICES",
    "ROOT_SANDBOX_USER",
    "default_config",
    "plan_create",
    "plan_sandbox_update",
]

# user ids feed the default hostname, so they must stay DNS-label safe
# (no trailing hyphen, 32 chars max)
_USER_RE = re.compile(r"^[a-z](?:[a-z0-9-]{0,30}[a-z0-9])?$")
_HOSTNAME_RE = re.compile(r"^[A-Za-z0-9]([A-Za-z0-9-]{0,61}[A-Za-z0-9])?$")


def _check_id(field: str, value: str, pattern: re.Pattern) -> str:
    """value, if it matches pattern; ids become path components."""
    if not isinstance(value, str) or not pattern.match(value):
        raise InvalidConfig(field, f"not a valid {field}: {value!r}")
    return value


ROOT_SANDBOX_USER = "root-sandbox"

# Standard pseudo-device set exposed into every container.
DEFAULT_DEVICES: tuple[tuple[str, str], ...] = (
    ("/dev/null", "rw"),
    ("/dev/zero", "rw"),
    ("/dev/full", "rw"),
    ("/dev/random", "rw"),
    ("/dev/urandom", "rw"),
    ("/dev/tty", "rw"),
)

DEFAULT_ENTRY: tuple[str, ...] = ("/bin/bash",)


class BindMode(Enum):
    READ_ONLY = "ro"
    READ_WRITE = "rw"
    EMPTY = "empty-ro"
    REMOUNT_RO = "remount-ro"


class MaskMode(Enum):
    EMPTY_BIND = "empty-bind"
    READ_ONLY_REMOUNT = "read-only-remount"


class Namespace(Enum):
    MOUNT = "mount"
    PID = "pid"
    UTS = "uts"


def _check_path(name: str, value: str) -> str:
    if not isinstance(value, str) or not value.startswith("/"):
        raise InvalidConfig(name, f"must be an absolute path, got {value!r}")
    if any(ch.isspace() for ch in value) or "\0" in value:
        raise InvalidConfig(name, "must not contain whitespace or NUL")
    if value != "/" and value.endswith("/"):
        raise InvalidConfig(name, "must not end with a slash")
    return value


def _is_path_prefix(a: str, b: str) -> bool:
    pa, pb = PurePosixPath(a), PurePosixPath(b)
    return pa != pb and pa in pb.parents


@dataclass(frozen=True)
class ContainerConfig:
    user: str
    host_root: str
    upper_dir: str
    work_dir: str
    merged_dir: str
    hostname: str = ""
    device_allow: tuple[tuple[str, str], ...] = DEFAULT_DEVICES
    mask_paths: tuple[tuple[str, MaskMode], ...] = ()
    entry_command: tuple[str, ...] = DEFAULT_ENTRY

    def __post_init__(self) -> None:
        object.__setattr__(self, "hostname", self.hostname or f"cue-{self.user}")
        object.__setattr__(self, "device_allow", tuple(tuple(d) for d in self.device_allow))
        object.__setattr__(self, "mask_paths", tuple(tuple(m) for m in self.mask_paths))
        object.__setattr__(self, "entry_command", tuple(self.entry_command))
        self.validate()

    def validate(self) -> None:
        if not _USER_RE.match(self.user or ""):
            raise InvalidConfig("user", f"invalid user identifier {self.user!r}")
        if not _HOSTNAME_RE.match(self.hostname):
            raise InvalidConfig("hostname", f"not a valid DNS label: {self.hostname!r}")
        for name in ("host_root", "upper_dir", "work_dir", "merged_dir"):
            _check_path(name, getattr(self, name))
        trio = {
            "upper_dir": self.upper_dir,
            "work_dir": self.work_dir,
            "merged_dir": self.merged_dir,
        }
        values = list(trio.values())
        if len(set(values)) != 3:
            raise InvalidConfig("upper_dir", "upper/work/merged dirs must be distinct")
        for a_name, a in trio.items():
            for b in values:
                if a != b and _is_path_prefix(a, b):
                    raise InvalidConfig(a_name, f"{a} is a prefix of {b}")
        for dev, mode in self.device_allow:
            _check_path("device_allow", dev)
            if mode not in ("ro", "rw"):
                raise InvalidConfig("device_allow", f"mode must be ro|rw, got {mode!r}")
        for path, mode in self.mask_paths:
            _check_path("mask_paths", path)
            if not isinstance(mode, MaskMode):
                raise InvalidConfig("mask_paths", f"bad mask mode {mode!r}")
        if not self.entry_command:
            raise InvalidConfig("entry_command", "must not be empty")
        for arg in self.entry_command:
            if "\n" in arg or "\0" in arg:
                raise InvalidConfig("entry_command", "args must not contain NUL/newline")


class StepKind(Enum):
    MAKE_DIRS = "MAKE_DIRS"
    NEW_NAMESPACE = "NEW_NAMESPACE"
    OVERLAY_MOUNT = "OVERLAY_MOUNT"
    SET_HOSTNAME = "SET_HOSTNAME"
    BIND_MOUNT = "BIND_MOUNT"
    REMOUNT_PROC = "REMOUNT_PROC"
    DROP_CAPABILITIES = "DROP_CAPABILITIES"
    CHANGE_ROOT = "CHANGE_ROOT"
    EXEC = "EXEC"


@dataclass(frozen=True)
class SetupStep:
    ordinal: int
    kind: StepKind
    args: tuple[str, ...] = ()

    def to_line(self) -> str:
        if self.kind is StepKind.EXEC:
            rendered = shlex.join(self.args)
            return f"{self.ordinal} {self.kind.value} {rendered}".rstrip()
        joined = " ".join(self.args)
        return f"{self.ordinal} {self.kind.value} {joined}".rstrip()


@dataclass(frozen=True)
class SetupPlan:
    steps: tuple[SetupStep, ...]
    config: ContainerConfig
    capability_set: CapabilitySet

    def __post_init__(self) -> None:
        for i, step in enumerate(self.steps):
            if step.ordinal != i:
                raise ValueError("step ordinals must be consecutive from 0")
        kinds = [s.kind for s in self.steps]
        if kinds.count(StepKind.EXEC) != 1 or kinds[-1] is not StepKind.EXEC:
            raise ValueError("exactly one EXEC step, and it must be last")
        order = [
            StepKind.OVERLAY_MOUNT,
            StepKind.BIND_MOUNT,
            StepKind.REMOUNT_PROC,
            StepKind.DROP_CAPABILITIES,
            StepKind.CHANGE_ROOT,
            StepKind.EXEC,
        ]
        positions = {
            kind: [i for i, k in enumerate(kinds) if k is kind] for kind in order
        }
        last_seen = -1
        for kind in order:
            if not positions[kind]:
                continue
            if min(positions[kind]) < last_seen:
                raise ValueError(f"{kind.value} out of order")
            last_seen = max(positions[kind])

    def serialize(self) -> str:
        """Canonical text form: `<ordinal> <KIND> <args...>`, LF lines."""
        return "\n".join(step.to_line() for step in self.steps) + "\n"

    def step(self, kind: StepKind) -> SetupStep:
        (found,) = [s for s in self.steps if s.kind is kind]
        return found


def _merged_path(config: ContainerConfig, path: str) -> str:
    return config.merged_dir.rstrip("/") + path


def _empty_src(config: ContainerConfig) -> str:
    return config.work_dir + "/.empty"


def _build_steps(config: ContainerConfig, policy: CapabilitySet) -> tuple[SetupStep, ...]:
    steps: list[SetupStep] = []

    def add(kind: StepKind, *args: str) -> None:
        steps.append(SetupStep(ordinal=len(steps), kind=kind, args=args))

    add(StepKind.MAKE_DIRS, config.upper_dir, config.work_dir, config.merged_dir)
    # the mount namespace must exist before any mount so they stay private
    add(StepKind.NEW_NAMESPACE, Namespace.MOUNT.value)
    add(StepKind.NEW_NAMESPACE, Namespace.PID.value)
    add(StepKind.NEW_NAMESPACE, Namespace.UTS.value)
    add(
        StepKind.OVERLAY_MOUNT,
        config.host_root,
        config.upper_dir,
        config.work_dir,
        config.merged_dir,
    )
    add(StepKind.SET_HOSTNAME, config.hostname)
    for dev, mode in config.device_allow:
        add(StepKind.BIND_MOUNT, dev, _merged_path(config, dev), mode)
    for path, mode in config.mask_paths:
        if mode is MaskMode.EMPTY_BIND:
            add(
                StepKind.BIND_MOUNT,
                _empty_src(config),
                _merged_path(config, path),
                BindMode.EMPTY.value,
            )
        else:
            target = _merged_path(config, path)
            add(StepKind.BIND_MOUNT, target, target, BindMode.REMOUNT_RO.value)
    add(StepKind.REMOUNT_PROC)
    add(StepKind.DROP_CAPABILITIES, policy.plan_token())
    add(StepKind.CHANGE_ROOT, config.merged_dir)
    add(StepKind.EXEC, *config.entry_command)
    return tuple(steps)


def plan_create(config: ContainerConfig) -> SetupPlan:
    """Plan the creation of a user container from a validated config."""
    policy = user_policy()
    return SetupPlan(steps=_build_steps(config, policy), config=config, capability_set=policy)


def plan_sandbox_update(
    host_root: str,
    scratch_dir: str,
    entry_command: Sequence[str] = DEFAULT_ENTRY,
) -> SetupPlan:
    """Plan the administrator's update sandbox over the live base root.

    Same shape as a user plan for the synthetic root-sandbox user, but with
    the root-update capability set (mount/umount still denied) and no mask
    paths: the administrator must see everything.  scratch_dir is expected
    empty or absent so the sandbox starts exactly as the host.
    """
    scratch = _check_path("scratch_dir", scratch_dir)
    config = ContainerConfig(
        user=ROOT_SANDBOX_USER,
        host_root=_check_path("host_root", host_root),
        upper_dir=scratch + "/upper",
        work_dir=scratch + "/work",
        merged_dir=scratch + "/merged",
        mask_paths=(),
        entry_command=tuple(entry_command),
    )
    policy = root_sandbox_policy()
    return SetupPlan(steps=_build_steps(config, policy), config=config, capability_set=policy)


def default_config(
    user: str,
    *,
    state_root: str,
    host_root: str = "/",
    hostname: str = "",
    entry_command: Sequence[str] = DEFAULT_ENTRY,
) -> ContainerConfig:
    """Config with the standard defaults: volume dirs under the state root,
    the pseudo-device set, and the state root itself masked from the
    container (the registry must not be user-visible)."""
    volumes = f"{state_root}/volumes/user/{user}"
    return ContainerConfig(
        user=user,
        host_root=host_root,
        upper_dir=f"{volumes}/upper",
        work_dir=f"{volumes}/work",
        merged_dir=f"{volumes}/merged",
        hostname=hostname,
        mask_paths=((state_root, MaskMode.EMPTY_BIND),),
        entry_command=tuple(entry_command),
    )
