"""Shared-storage user layers across login and compute nodes.

Every user's upper layer lives once, in shared storage.  Logging in
overlays it writable onto the login node's root; submitting a job
attaches the same upper read-only onto each allocated compute node's
root, topped by a per-node scratch layer that is discarded at release.
Attachment moves no content, so deploying a 100 MiB customization costs
the same as deploying a 1 MiB one.

Every view is opened by executor.view_for from a description in one
format: a login's container.json (which `cue enter` re-plans), and each
compute node's attachment.json, whose "lowers" are the node root and the
shared upper, "upper" the node's scratch, and "masks" the state root's
and the shared root's.  Both views mask the shared root: it holds every
user's upper, and on a node whose root is "/" it would show at its own
path.

Desk scale: a "node" is any directory standing in for a node's "/",
declared in a nodes.json manifest ([{"node_id": ..., "node_root": ...}]).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .diskfs import DiskOverlay
from .errors import InvalidConfig, NotFound, SharedStorageUnavailable
from .executor import Backend, _now_us, execute, load_meta, view_for
from .planner import _USER_RE, ContainerConfig, MaskMode, _check_id, plan_create
from .registry import ContainerRecord, Registry

__all__ = [
    "SharedLayout",
    "NodeHandle",
    "NodeStatus",
    "DeploymentResult",
    "load_manifest",
    "attach_login",
    "deploy_job",
    "release_job",
    "node_view",
    "run_hook",
]

SHARED_ROOT_ENV = "CUE_SHARED_ROOT"

# user and node ids become path components under the shared and state roots
_NODE_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


@dataclass(frozen=True)
class SharedLayout:
    shared_root: Path

    def user_dir(self, user: str) -> Path:
        return Path(self.shared_root) / "users" / _check_id("user", user, _USER_RE)

    def upper(self, user: str) -> Path:
        return self.user_dir(user) / "upper"

    def work(self, user: str) -> Path:
        return self.user_dir(user) / "work"

    def ensure_user(self, user: str) -> None:
        upper, work = self.upper(user), self.work(user)
        root = Path(self.shared_root)
        try:
            root.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise SharedStorageUnavailable(f"{root}: {err}") from err
        if not root.is_dir():
            raise SharedStorageUnavailable(f"not a directory: {root}")
        upper.mkdir(parents=True, exist_ok=True)
        work.mkdir(parents=True, exist_ok=True)


@dataclass(frozen=True)
class NodeHandle:
    node_id: str
    node_root: Path

    def __post_init__(self) -> None:
        _check_id("node_id", self.node_id, _NODE_ID_RE)

    def validate(self) -> None:
        if not Path(self.node_root).is_dir():
            raise NotFound(f"node root missing: {self.node_root}")


def load_manifest(path: str | Path) -> list[NodeHandle]:
    try:
        entries = json.loads(Path(path).read_text(encoding="utf-8"))
        return [NodeHandle(e["node_id"], Path(e["node_root"])) for e in entries]
    except (ValueError, KeyError, TypeError) as err:
        raise InvalidConfig("nodes", f"malformed manifest {path}: {err!r}") from err


@dataclass(frozen=True)
class NodeStatus:
    node_id: str
    status: str  # Attached | Failed | Released | NotFound
    detail: str = ""
    elapsed_us: int = 0


@dataclass(frozen=True)
class DeploymentResult:
    per_node: tuple[NodeStatus, ...]

    @property
    def all_attached(self) -> bool:
        return all(n.status == "Attached" for n in self.per_node)

    def to_json(self) -> str:
        return json.dumps(
            [
                {
                    "node_id": n.node_id,
                    "status": n.status,
                    "detail": n.detail,
                    "elapsed_us": n.elapsed_us,
                }
                for n in self.per_node
            ],
            indent=2,
        )


def _deploy_dir(state_root: Path, user: str, node_id: str) -> Path:
    return Path(state_root) / "cluster" / _check_id("user", user, _USER_RE) / f"node-{node_id}"


def attach_login(
    user: str,
    login_node: NodeHandle,
    *,
    shared: SharedLayout,
    registry: Registry,
    backend: Backend | str = Backend.SANDBOX,
) -> ContainerRecord:
    """Overlay the user's shared upper onto the login node's root.

    First login creates the empty upper; later logins reuse it, so every
    customization survives across sessions.
    """
    login_node.validate()
    shared.ensure_user(user)
    merged = Path(registry.state_root) / "cluster" / user / f"login-{login_node.node_id}" / "merged"
    config = ContainerConfig(
        user=user,
        host_root=str(login_node.node_root),
        upper_dir=str(shared.upper(user)),
        work_dir=str(shared.work(user)),
        merged_dir=str(merged),
        mask_paths=(
            (str(registry.state_root), MaskMode.EMPTY_BIND),
            (str(shared.shared_root), MaskMode.EMPTY_BIND),  # every user's upper
        ),
    )
    with registry.acquire_record_lock(user, "User", blocking=True):
        execute(plan_create(config), backend)
        record = ContainerRecord.of(config, status="Running")
        if registry.lookup(user, "User") is None:
            registry.register(record)
        else:
            registry.update(record)
    return record


def login_view(user: str, login_node: NodeHandle, *, shared: SharedLayout) -> DiskOverlay:
    """The merged view a logged-in user works in on login_node: the login
    attach_login recorded (NotFound before the first login), over that node."""
    return view_for({**load_meta(shared.work(user)), "lowers": [login_node.node_root]})


def run_hook(hook: Optional[str]) -> None:
    """Run a deploy hook through the shell; CalledProcessError if it fails
    (job-manager integration is a shell-out, not a scheduler plugin)."""
    if hook:
        subprocess.run(hook, shell=True, check=True)


def deploy_job(
    user: str,
    nodes: Sequence[NodeHandle],
    *,
    shared: SharedLayout,
    registry: Registry,
    pre_hook: Optional[str] = None,
    post_hook: Optional[str] = None,
) -> DeploymentResult:
    """Attach the user's shared upper read-only onto each node root, topped
    by a per-node scratch layer.  Nothing is copied; partial failure leaves
    the other nodes attached.  pre_hook/post_hook shell out around the
    whole attachment (the scheduler prolog/epilog seam)."""
    upper = shared.upper(user)
    if not Path(shared.shared_root).is_dir():
        raise SharedStorageUnavailable(str(shared.shared_root))
    if not upper.is_dir():
        raise NotFound(f"no shared upper layer for user {user!r}")
    run_hook(pre_hook)
    statuses: list[NodeStatus] = []
    for node in nodes:
        t0 = _now_us()
        made = None  # the node directory, once this call has made it
        try:
            node.validate()
            deploy = _deploy_dir(registry.state_root, user, node.node_id)
            if (deploy / "attachment.json").exists():
                raise NotFound(f"node {node.node_id} already attached")
            deploy.mkdir(parents=True)
            made = deploy
            (deploy / "scratch").mkdir()
            (deploy / "merged").mkdir()
            attachment = {
                "user": user,
                "node_id": node.node_id,
                "lowers": [str(node.node_root), str(upper)],
                "upper": str(deploy / "scratch"),
                "merged": str(deploy / "merged"),
                "masks": [(str(registry.state_root), "empty"), (str(shared.shared_root), "empty")],
            }
            (deploy / "attachment.json").write_text(
                json.dumps(attachment, indent=2) + "\n", encoding="utf-8"
            )
            statuses.append(
                NodeStatus(node.node_id, "Attached", elapsed_us=_now_us() - t0)
            )
        except Exception as err:  # per-node isolation: never abort the rest
            if made is not None:  # a half-made node directory would refuse every retry
                shutil.rmtree(made, ignore_errors=True)
            statuses.append(
                NodeStatus(node.node_id, "Failed", str(err), _now_us() - t0)
            )
    run_hook(post_hook)
    return DeploymentResult(per_node=tuple(statuses))


def node_view(user: str, node: NodeHandle, *, registry: Registry) -> DiskOverlay:
    """Merged view on a compute node, opened by executor.view_for from the
    node's attachment.json: node root, then the user's shared upper
    (read-only), then the node's scratch on top, with the state root and the
    shared root masked."""
    path = _deploy_dir(registry.state_root, user, node.node_id) / "attachment.json"
    try:
        attachment = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise NotFound(f"user {user!r} is not deployed on node {node.node_id}") from None
    return view_for(attachment)


def release_job(
    user: str,
    nodes: Sequence[NodeHandle],
    *,
    registry: Registry,
) -> DeploymentResult:
    """Tear down per-node attachments; the shared upper is untouched.  A node
    whose deploy directory cannot be removed reports Failed with the error,
    and the other nodes are still released."""
    statuses: list[NodeStatus] = []
    for node in nodes:
        t0 = _now_us()
        deploy = _deploy_dir(registry.state_root, user, node.node_id)
        if not (deploy / "attachment.json").exists():
            statuses.append(NodeStatus(node.node_id, "NotFound", elapsed_us=_now_us() - t0))
            continue
        try:
            shutil.rmtree(deploy)
        except OSError as err:  # per-node isolation, as in deploy_job
            statuses.append(NodeStatus(node.node_id, "Failed", str(err), _now_us() - t0))
            continue
        statuses.append(NodeStatus(node.node_id, "Released", elapsed_us=_now_us() - t0))
    return DeploymentResult(per_node=tuple(statuses))
