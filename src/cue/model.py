"""Pure union filesystem model over a stack of layers.

The merged view every container sees is a stack of layers, bottom first:
the shared base tree (owned by the administrator), optionally read-only
middle layers (a user's shared delta on a compute node), and one
writable delta on top.  Lookup follows the overlayfs rule: upper entries
win, whiteouts hide lower entries, opaque directories stop merging with
the layers below them.

Everything here is a value transformation: operations take a LayerStack
and return new trees without touching the host filesystem, so the
runtime's semantics can be exercised and property-tested without any
privilege.  Resolution is dynamic (nothing is cached), so an updated
lower tree is visible to the next lookup by construction.  lookup and
merged_listing take the layers' root directories instead of a stack,
which is how the disk view feeds them lazily read layers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

from .errors import (
    AbsentParent,
    AbsentPath,
    DirectoryNotEmpty,
    HiddenPath,
    IsADirectory,
    MalformedPath,
    NotADirectory,
)

__all__ = [
    "RegularFile",
    "Symlink",
    "Whiteout",
    "Directory",
    "Node",
    "LayerTree",
    "LayerStack",
    "Origin",
    "ResolutionKind",
    "Resolution",
    "JournalOp",
    "JournalEntry",
    "JournalState",
    "MergeJournal",
    "split_path",
    "join_path",
    "normalize",
    "content_checksum",
    "empty_tree",
    "lookup",
    "merged_listing",
    "resolve",
    "write_file",
    "remove",
    "list_dir",
    "flatten",
    "stage_merge",
    "apply_journal",
    "merge_down",
]


# ---------------------------------------------------------------------------
# paths

def split_path(path: str) -> tuple[str, ...]:
    """Split a normalized absolute path into components.

    Normalized means: starts with "/", no ".", "..", or empty components,
    no trailing slash except the root itself, no NUL or newline bytes.
    Raises MalformedPath otherwise.
    """
    if not isinstance(path, str) or not path.startswith("/"):
        raise MalformedPath(repr(path))
    if path == "/":
        return ()
    if path.endswith("/"):
        raise MalformedPath(path)
    parts = path[1:].split("/")
    for part in parts:
        if part in ("", ".", "..") or "\0" in part or "\n" in part:
            raise MalformedPath(path)
    return tuple(parts)


def join_path(parts) -> str:
    return "/" + "/".join(parts)


def _byte_key(name: str) -> bytes:
    """Sort key ordering names by their UTF-8 bytes."""
    return name.encode("utf-8")


def normalize(path: str) -> str:
    """Best-effort normalization of user input ("//a/./b/" -> "/a/b").

    ".." is rejected rather than collapsed: with symlinks in the stack a
    lexical collapse would lie about the target.
    """
    if not isinstance(path, str) or not path.startswith("/"):
        raise MalformedPath(repr(path))
    kept = []
    for part in path.split("/"):
        if part in ("", "."):
            continue
        if part == ".." or "\0" in part or "\n" in part:
            raise MalformedPath(path)
        kept.append(part)
    return join_path(kept)


# ---------------------------------------------------------------------------
# nodes and trees

@dataclass(frozen=True)
class RegularFile:
    content: bytes = b""


@dataclass(frozen=True)
class Symlink:
    # Targets are kept verbatim and never re-resolved across layers.
    target: str


@dataclass(frozen=True)
class Whiteout:
    """Upper-layer marker hiding the same-path lower entry."""


@dataclass(frozen=True)
class Directory:
    children: Mapping[str, "Node"] = field(default_factory=dict)
    opaque: bool = False


Node = Union[RegularFile, Symlink, Whiteout, Directory]


def empty_tree() -> "LayerTree":
    return LayerTree(root=Directory(children={}))


@dataclass(frozen=True)
class LayerTree:
    """A tree of nodes addressed by normalized absolute paths."""

    root: Directory = field(default_factory=lambda: Directory(children={}))

    def get(self, path: str) -> Optional[Node]:
        """Node at path, or None when absent (or an ancestor is not a dir)."""
        node: Optional[Node] = self.root
        for name in split_path(path):
            if not isinstance(node, Directory):
                return None
            node = node.children.get(name)
        return node

    def contains(self, path: str) -> bool:
        return self.get(path) is not None

    def set(self, path: str, node: Node) -> "LayerTree":
        """New tree with node at path; every ancestor must be a Directory."""
        parts = split_path(path)
        if not parts:
            raise IsADirectory("cannot replace the root directory")
        return self._rebuilt(parts, node)

    def delete(self, path: str) -> "LayerTree":
        """New tree without the node (and subtree) at path."""
        parts = split_path(path)
        if not parts:
            raise IsADirectory("cannot delete the root directory")
        if self.get(path) is None:
            raise AbsentPath(path)
        return self._rebuilt(parts, None)

    def _rebuilt(self, parts: tuple[str, ...], node: Optional[Node]) -> "LayerTree":
        """New tree with node at parts, or without the entry there if node
        is None.  Built in loops, not a recursive closure: a closure that
        refers to itself is a reference cycle, and it would keep node (say,
        a large file's content) alive until the cyclic collector runs."""
        chain = [self.root]
        for depth, name in enumerate(parts[:-1]):
            child = chain[-1].children.get(name)
            if not isinstance(child, Directory):
                raise NotADirectory(join_path(parts[: depth + 1]))
            chain.append(child)
        for d, name in zip(reversed(chain), reversed(parts)):
            children = dict(d.children)
            if node is None:
                del children[name]
            else:
                children[name] = node
            node = Directory(children=children, opaque=d.opaque)
        assert isinstance(node, Directory)
        return LayerTree(root=node)

    def walk(self) -> Iterator[tuple[str, Node]]:
        """Preorder (path, node) pairs, children in byte-sorted name order."""
        pending: list[tuple[tuple[str, ...], Node]] = [((), self.root)]
        while pending:
            prefix, node = pending.pop()
            yield join_path(prefix), node
            if isinstance(node, Directory):
                for name in sorted(node.children, key=_byte_key, reverse=True):
                    pending.append((prefix + (name,), node.children[name]))

    def node_count(self) -> int:
        return sum(1 for _ in self.walk())


def _check_plain(tree: LayerTree) -> None:
    for path, node in tree.walk():
        if isinstance(node, Whiteout):
            raise ValueError(f"lower layer must not contain whiteouts: {path}")
        if isinstance(node, Directory) and node.opaque:
            raise ValueError(f"lower layer must not contain opaque markers: {path}")


@dataclass(frozen=True)
class LayerStack:
    """The shared base, read-only middle layers (bottom first), one delta on top."""

    lower: LayerTree
    upper: LayerTree
    middle: tuple[LayerTree, ...] = ()

    def __post_init__(self) -> None:
        _check_plain(self.lower)

    @property
    def layers(self) -> tuple[LayerTree, ...]:
        """Every layer, bottom first."""
        return (self.lower, *self.middle, self.upper)


# ---------------------------------------------------------------------------
# resolution

class Origin(Enum):
    UPPER = "upper"
    LOWER = "lower"


class ResolutionKind(Enum):
    FOUND_UPPER = "FoundUpper"
    FOUND_LOWER = "FoundLower"
    HIDDEN = "Hidden"
    ABSENT = "Absent"


@dataclass(frozen=True)
class Resolution:
    outcome: ResolutionKind
    node: Optional[Node] = None
    layer: Optional[int] = None  # index (bottom first) of the layer that supplied node

    @property
    def found(self) -> bool:
        return self.outcome in (ResolutionKind.FOUND_UPPER, ResolutionKind.FOUND_LOWER)


def _holds(node: Optional[Node], rest: tuple[str, ...]) -> bool:
    """Whether a real (non-whiteout) entry sits at rest below node."""
    for name in rest:
        if not isinstance(node, Directory):
            return False
        node = node.children.get(name)
    return node is not None and not isinstance(node, Whiteout)


def _walk(layers: Sequence[Directory], parts: tuple[str, ...]):
    """Look parts up through layer roots (bottom first), as overlayfs does.

    Top-down, one component at a time, the topmost layer with an entry
    decides.  A directory merges with the same-name directories below it
    until a whiteout, a non-directory or an opaque directory: a whiteout or
    an opaque directory cuts off the layers below it, a file or symlink
    shadows them.  A path that is not found is HIDDEN when a cut-off layer
    holds it, else ABSENT.

    Only child lookups (children.get) are made on the way down, and cut-off
    layers are probed only for a path that is not found.  Returns the
    resolution and, for a directory, the (layer index, directory) pairs
    that merge at the path, top first.
    """
    top = len(layers) - 1
    merged: list[tuple[int, Directory]] = []
    cut: list[tuple[Directory, int]] = []  # cut-off directory, index of the part below it
    for i in range(top, -1, -1):
        merged.append((i, layers[i]))
        if layers[i].opaque:
            cut = [(layers[j], 0) for j in range(i)]
            break
    node: Optional[Node] = layers[top]
    origin = top
    for depth, name in enumerate(parts):
        above, merged, node = merged, [], None
        for k, (i, d) in enumerate(above):
            child = d.children.get(name)
            if child is None:
                continue
            if isinstance(child, Whiteout):
                cut += [(below, depth) for _, below in above[k + 1 :]]
                break
            if node is None:
                node, origin = child, i
            if not isinstance(child, Directory):
                break
            merged.append((i, child))
            if child.opaque:
                cut += [(below, depth) for _, below in above[k + 1 :]]
                break
        if node is None or (not isinstance(node, Directory) and depth < len(parts) - 1):
            hidden = any(_holds(d, parts[k:]) for d, k in cut)
            return Resolution(ResolutionKind.HIDDEN if hidden else ResolutionKind.ABSENT), []
    kind = ResolutionKind.FOUND_UPPER if origin == top else ResolutionKind.FOUND_LOWER
    return Resolution(kind, node, origin), merged


def lookup(layers: Sequence[Directory], path: str | tuple[str, ...]) -> Resolution:
    """Resolve path (a normalized path, or its split_path components)
    through layer root directories, bottom first."""
    return _walk(layers, path if isinstance(path, tuple) else split_path(path))[0]


def merged_listing(layers: Sequence[Directory], path: str) -> list[tuple[str, Origin]]:
    """Listing of path through layer root directories, bottom first,
    byte-sorted by name.

    Upper entries shadow same-name lower entries; whiteout children are
    omitted; an opaque directory drops the entries of the layers below it.
    Only the children's names and whether they are whiteouts are read.
    """
    res, merged = _walk(layers, split_path(path))
    if res.outcome is ResolutionKind.HIDDEN:
        raise HiddenPath(path)
    if not res.found:
        raise AbsentPath(path)
    if not isinstance(res.node, Directory):
        raise NotADirectory(path)
    names: dict[str, Origin] = {}
    for i, d in reversed(merged):
        origin = Origin.UPPER if i == len(layers) - 1 else Origin.LOWER
        for name, child in d.children.items():
            if isinstance(child, Whiteout):
                names.pop(name, None)
            else:
                names[name] = origin
    return [(n, names[n]) for n in sorted(names, key=_byte_key)]


def resolve(stack: LayerStack, path: str) -> Resolution:
    """Resolve path in the merged view; the topmost version wins."""
    return lookup([layer.root for layer in stack.layers], path)


def list_dir(stack: LayerStack, path: str) -> list[tuple[str, Origin]]:
    """Merged directory listing of path, byte-sorted by name."""
    return merged_listing([layer.root for layer in stack.layers], path)


# ---------------------------------------------------------------------------
# mutation (copy-up and whiteout land in upper; lower is never touched)

def _require_dir_ancestors(stack: LayerStack, parts: tuple[str, ...]) -> None:
    for i in range(len(parts) - 1):
        prefix = join_path(parts[: i + 1])
        res = resolve(stack, prefix)
        if res.outcome in (ResolutionKind.HIDDEN, ResolutionKind.ABSENT):
            raise AbsentParent(prefix)
        if not isinstance(res.node, Directory):
            raise NotADirectory(prefix)


def _copy_up_dirs(upper: LayerTree, parts: tuple[str, ...]) -> LayerTree:
    # Shallow copy-up: ancestor directories only, never their siblings.
    for i in range(len(parts) - 1):
        prefix = join_path(parts[: i + 1])
        if upper.get(prefix) is None:
            upper = upper.set(prefix, Directory(children={}))
    return upper


def write_file(stack: LayerStack, path: str, content: bytes) -> LayerStack:
    """Place a regular file at path in the upper layer.

    Whatever previously occupied the path in the merged view (file,
    symlink, whiteout, or a directory subtree) is shadowed or replaced;
    the layers below are byte-identical afterwards.
    """
    if not isinstance(content, (bytes, bytearray)):
        raise TypeError("file content must be bytes")
    parts = split_path(path)
    if not parts:
        raise IsADirectory("cannot write a file over the root directory")
    _require_dir_ancestors(stack, parts)
    upper = _copy_up_dirs(stack.upper, parts)
    upper = upper.set(path, RegularFile(bytes(content)))
    return replace(stack, upper=upper)


def remove(stack: LayerStack, path: str, recursive: bool = False) -> LayerStack:
    """Remove path from the merged view.

    An occurrence in any layer below the top is hidden with a whiteout; an
    upper-only node is deleted outright. Removing a directory that lists
    children requires recursive=True.
    """
    parts = split_path(path)
    if not parts:
        raise IsADirectory("cannot remove the root directory")
    res = resolve(stack, path)
    if not res.found:
        raise AbsentPath(path)
    if isinstance(res.node, Directory):
        if list_dir(stack, path) and not recursive:
            raise DirectoryNotEmpty(path)
    upper = stack.upper
    if upper.get(path) is not None:
        upper = upper.delete(path)
    if any(layer.contains(path) for layer in stack.layers[:-1]):
        upper = _copy_up_dirs(upper, parts)
        upper = upper.set(path, Whiteout())
    return replace(stack, upper=upper)


# ---------------------------------------------------------------------------
# flatten

def flatten(stack: LayerStack) -> LayerTree:
    """Collapse the stack into a single plain tree (no markers).

    Resolving any path against {lower: flatten(stack), upper: empty}
    matches resolving it against the stack, modulo the origin tag.
    """
    root: Optional[Node] = stack.lower.root
    for layer in (*stack.middle, stack.upper):
        root = _merge_over(layer.root, root)
    assert isinstance(root, Directory)
    return LayerTree(root=root)


def _merge_over(upper: Optional[Node], lower: Optional[Node]) -> Optional[Node]:
    """upper folded over lower, markers applied and dropped."""
    if upper is None:
        return lower
    if isinstance(upper, Whiteout):
        return None
    if isinstance(upper, Directory):
        lower_dir = lower if isinstance(lower, Directory) and not upper.opaque else None
        children: dict[str, Node] = {}
        if lower_dir is not None:
            for name, child in lower_dir.children.items():
                if name not in upper.children:
                    children[name] = child
        for name, child in upper.children.items():
            merged = _merge_over(
                child,
                lower_dir.children.get(name) if lower_dir is not None else None,
            )
            if merged is not None:
                children[name] = merged
        return Directory(children=children, opaque=False)
    return upper


# ---------------------------------------------------------------------------
# merge-down (the transactional base update, staged as a journal)

def content_checksum(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


class JournalOp(Enum):
    COPY_TO_LOWER = "CopyToLower"
    DELETE_FROM_LOWER = "DeleteFromLower"
    MARK_OPAQUE_APPLIED = "MarkOpaqueApplied"


class JournalState(Enum):
    STAGED = "Staged"
    COMMITTED = "Committed"
    ABORTED = "Aborted"


@dataclass(frozen=True)
class JournalEntry:
    op: JournalOp
    path: str
    checksum: Optional[str] = None  # sha256 hex of the payload, files/symlinks only

    def to_line(self) -> str:
        return f"{self.op.value} {self.path} {self.checksum or '-'}"

    @classmethod
    def from_line(cls, line: str) -> "JournalEntry":
        head, checksum = line.rsplit(" ", 1)
        kind, path = head.split(" ", 1)
        return cls(
            op=JournalOp(kind),
            path=path,
            checksum=None if checksum == "-" else checksum,
        )


@dataclass(frozen=True)
class MergeJournal:
    entries: tuple[JournalEntry, ...]
    state: JournalState


def _payload(node: Node) -> Optional[bytes]:
    if isinstance(node, RegularFile):
        return node.content
    if isinstance(node, Symlink):
        return node.target.encode("utf-8")
    return None


def _node_checksum(path: str, node: Node) -> str:
    payload = _payload(node)
    assert payload is not None
    return content_checksum(payload)


def stage_merge(
    lower: Directory,
    upper: Directory,
    checksum: Callable[[str, Node], str] = _node_checksum,
) -> tuple[JournalEntry, ...]:
    """Compute the ordered journal that applies the upper root into the
    lower root.

    Replaying the entries over lower yields flatten(LayerStack(lower,
    upper)); the walk is deterministic (preorder, byte-sorted names).  It
    walks upper and reads lower only along upper's paths: one child lookup
    (children.get) per upper entry, plus one listing under each opaque
    upper directory that sits over a lower directory.  A lazy lower root
    (diskfs.layer_root) is therefore read only along the delta's paths.

    checksum(path, node) gives the CopyToLower entry of each file or
    symlink its checksum, in journal order.  The default hashes the node's
    payload, so a value-level upper needs nothing else.  An upper loaded
    without file content (diskfs.load_tree(..., deep=False)) passes a hook
    that returns a placeholder per payload instead; cue.commit swaps in the
    digest it computes while streaming the payload into its staging pack.
    """
    entries: list[JournalEntry] = []
    # (parts, upper node, lower children the node's lower counterpart is
    # looked up in, or None when it has none); lower is looked up when the
    # entry is visited, in the order the recursive walk would visit it
    pending: list[tuple[tuple[str, ...], Node, Optional[Mapping[str, Node]]]] = [((), upper, None)]
    while pending:
        parts, node, below = pending.pop()
        if not parts:
            low: Optional[Node] = lower
        else:
            low = below.get(parts[-1]) if below is not None else None
        path = join_path(parts)
        if isinstance(node, Whiteout):
            if low is not None:
                entries.append(JournalEntry(JournalOp.DELETE_FROM_LOWER, path))
            continue
        if isinstance(node, (RegularFile, Symlink)):
            if isinstance(low, Directory):
                entries.append(JournalEntry(JournalOp.DELETE_FROM_LOWER, path))
            entries.append(JournalEntry(JournalOp.COPY_TO_LOWER, path, checksum(path, node)))
            continue
        # directory
        assert isinstance(node, Directory)
        lower_dir = low if isinstance(low, Directory) else None
        if node.opaque:
            entries.append(JournalEntry(JournalOp.MARK_OPAQUE_APPLIED, path))
            if lower_dir is not None:
                for name in _sorted_names(lower_dir):
                    entries.append(
                        JournalEntry(JournalOp.DELETE_FROM_LOWER, join_path(parts + (name,)))
                    )
            elif low is not None:
                entries.append(JournalEntry(JournalOp.DELETE_FROM_LOWER, path))
                entries.append(JournalEntry(JournalOp.COPY_TO_LOWER, path))
            else:
                entries.append(JournalEntry(JournalOp.COPY_TO_LOWER, path))
            lower_dir = None  # an opaque directory merges with nothing below
        elif lower_dir is None:
            if low is not None:
                entries.append(JournalEntry(JournalOp.DELETE_FROM_LOWER, path))
            if parts:
                entries.append(JournalEntry(JournalOp.COPY_TO_LOWER, path))
        below_children = lower_dir.children if lower_dir is not None else None
        for name in reversed(_sorted_names(node)):
            pending.append((parts + (name,), node.children[name], below_children))
    return tuple(entries)


def _sorted_names(d: Directory) -> list[str]:
    # one items() pass: sorted(children) would also call len(), and a lazy
    # directory lists itself on each
    return sorted([name for name, _ in d.children.items()], key=_byte_key)


def apply_journal(
    lower: LayerTree,
    entries: tuple[JournalEntry, ...],
    payloads: Mapping[str, Node],
) -> LayerTree:
    """Replay journal entries onto a lower tree (value-level).

    payloads maps each CopyToLower path to its source node; checksums are
    verified so a torn payload cannot be applied silently.
    """
    tree = lower
    for entry in entries:
        if entry.op is JournalOp.DELETE_FROM_LOWER:
            if tree.contains(entry.path):
                tree = tree.delete(entry.path)
        elif entry.op is JournalOp.COPY_TO_LOWER:
            if entry.checksum is None:
                existing = tree.get(entry.path)
                if not isinstance(existing, Directory):
                    tree = tree.set(entry.path, Directory(children={}))
            else:
                node = payloads[entry.path]
                payload = _payload(node)
                if payload is None or content_checksum(payload) != entry.checksum:
                    raise ValueError(f"payload checksum mismatch at {entry.path}")
                tree = tree.set(entry.path, node)
        # MARK_OPAQUE_APPLIED records that masking was realized by the
        # surrounding deletions; nothing to replay.
    return tree


def merge_down(stack: LayerStack) -> tuple[LayerTree, MergeJournal]:
    """Merge the upper layer into the lower layer, atomically.

    Value-level form of the administrator's global update: entries are
    staged in full (checksummed) before the merged tree is produced.  For
    on-disk stacks, callers must hold the exclusive commit lock; the
    durable staging/commit/recovery protocol lives in cue.commit.
    """
    entries = stage_merge(stack.lower.root, stack.upper.root)
    tree = flatten(stack)
    return tree, MergeJournal(entries=entries, state=JournalState.COMMITTED)
