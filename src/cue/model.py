"""Pure union filesystem model over a stack of layers.

The merged view every container sees is a stack of layers, bottom first:
the shared base tree (owned by the administrator), optionally read-only
middle layers (a user's shared delta on a compute node), and one
writable delta on top.  Lookup follows the overlayfs rule: upper entries
win, whiteouts hide lower entries, opaque directories stop merging with
the layers below them.

Everything here is a value transformation that never touches the host
filesystem, so the runtime's semantics can be exercised and
property-tested without any privilege.  Resolution is dynamic (nothing is
cached), so an updated lower tree is visible to the next lookup by
construction.  lookup, merged_listing, plan_write, plan_remove and
stage_merge take the layers' root directories instead of a stack, which
is how the disk view and the commit feed them lazily read layers.

Every change is planned as one kind of list, the Edit list: drop an
entry, make sure a plain directory is there, or put a file, symlink or
whiteout.  A view write or remove plans edits to the top layer, a merge
of the upper into the lower (the administrator's base update) plans edits
to the lower.  One applier, apply_journal, applies either to a tree value
(write_file, remove, merge_down); the disk view applies them to its upper
directory, cue.commit journals and applies them to the base on disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterator, Mapping, Optional, Sequence, Union

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
    "Edit",
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
    "plan_write",
    "plan_remove",
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
    """Sort key ordering names by their bytes on disk (UTF-8; a name that is
    not UTF-8 holds its raw bytes as surrogate escapes, as os.fsdecode gives)."""
    return name.encode("utf-8", "surrogateescape")


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
    resolution and the trail: trail[d] lists the (layer index, directory)
    pairs, top first, that merge at parts[:d].  A walk that stops at
    parts[:d + 1] (nothing there, or a non-directory with parts left) has
    d + 1 of them; a found path has len(parts) + 1, the last one empty
    unless the path is a directory.
    """
    top = len(layers) - 1
    merged: list[tuple[int, Directory]] = []
    cut: list[tuple[Directory, int]] = []  # cut-off directory, index of the part below it
    for i in range(top, -1, -1):
        merged.append((i, layers[i]))
        if layers[i].opaque:
            cut = [(layers[j], 0) for j in range(i)]
            break
    trail = [merged]
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
            return Resolution(ResolutionKind.HIDDEN if hidden else ResolutionKind.ABSENT), trail
        trail.append(merged)
    kind = ResolutionKind.FOUND_UPPER if origin == top else ResolutionKind.FOUND_LOWER
    return Resolution(kind, node, origin), trail


def lookup(layers: Sequence[Directory], path: str | tuple[str, ...]) -> Resolution:
    """Resolve path (a normalized path, or its split_path components)
    through layer root directories, bottom first."""
    return _walk(layers, path if isinstance(path, tuple) else split_path(path))[0]


def merged_listing(layers: Sequence[Directory], path: str | tuple[str, ...]) -> list[tuple[str, Origin]]:
    """Listing of path (a normalized path, or its split_path components)
    through layer root directories, bottom first, byte-sorted by name.

    Upper entries shadow same-name lower entries; whiteout children are
    omitted; an opaque directory drops the entries of the layers below it.
    Only the children's names and whether they are whiteouts are read.
    """
    parts = path if isinstance(path, tuple) else split_path(path)
    res, trail = _walk(layers, parts)
    if res.outcome is ResolutionKind.HIDDEN:
        raise HiddenPath(join_path(parts))
    if not res.found:
        raise AbsentPath(join_path(parts))
    if not isinstance(res.node, Directory):
        raise NotADirectory(join_path(parts))
    names = _names(trail[-1], len(layers) - 1)
    return [(n, names[n]) for n in sorted(names, key=_byte_key)]


def _names(merged: list[tuple[int, Directory]], top: int) -> dict[str, Origin]:
    """Names shown by the directories that merge at one path (top first)."""
    names: dict[str, Origin] = {}
    for i, d in reversed(merged):
        origin = Origin.UPPER if i == top else Origin.LOWER
        for name, child in d.children.items():
            if isinstance(child, Whiteout):
                names.pop(name, None)
            else:
                names[name] = origin
    return names


def resolve(stack: LayerStack, path: str) -> Resolution:
    """Resolve path in the merged view; the topmost version wins."""
    return lookup([layer.root for layer in stack.layers], path)


def list_dir(stack: LayerStack, path: str) -> list[tuple[str, Origin]]:
    """Merged directory listing of path, byte-sorted by name."""
    return merged_listing([layer.root for layer in stack.layers], path)


# ---------------------------------------------------------------------------
# mutation (copy-up and whiteout land in the top layer; the layers below are
# never touched)

# One edit to a layer tree.  (parts, None) drops the entry at parts, if
# any; (parts, Directory()) makes sure a plain directory is there, keeping
# one that already is; (parts, node) puts a file, symlink or whiteout
# there, replacing whatever is there.  View writes plan edits to the top
# layer, a merge plans them to the lower (stage_merge).
Edit = tuple[tuple[str, ...], Optional[Node]]


def plan_write(layers: Sequence[Directory], parts: tuple[str, ...], content: bytes) -> list[Edit]:
    """Edits to the top of layer roots (bottom first) that place a regular
    file at parts, shadowing or replacing whatever the merged view shows
    there.  The first ancestor that is not a directory raises AbsentParent
    when nothing shows there, else NotADirectory.
    """
    if not isinstance(content, (bytes, bytearray)):
        raise TypeError("file content must be bytes")
    if not parts:
        raise IsADirectory("cannot write a file over the root directory")
    _, trail = _walk(layers, parts)
    if len(trail) < len(parts):
        prefix = parts[: len(trail)]
        kind = NotADirectory if lookup(layers, prefix).found else AbsentParent
        raise kind(join_path(prefix))
    return [*_copy_up(parts, trail, len(layers) - 1), (parts, RegularFile(bytes(content)))]


def plan_remove(layers: Sequence[Directory], parts: tuple[str, ...], recursive: bool = False) -> list[Edit]:
    """Edits to the top of layer roots (bottom first) that remove parts
    from the merged view: the top layer's entry is dropped, or replaced by
    a whiteout when the layers below would still show the path.  Removing
    a directory that lists children requires recursive=True.
    """
    if not parts:
        raise IsADirectory("cannot remove the root directory")
    res, trail = _walk(layers, parts)
    if not res.found:
        raise AbsentPath(join_path(parts))
    top = len(layers) - 1
    if isinstance(res.node, Directory) and not recursive and _names(trail[-1], top):
        raise DirectoryNotEmpty(join_path(parts))
    if res.layer == top and not _shows_below(trail[-2], parts[-1], top):
        return [(parts, None)]
    return [*_copy_up(parts, trail, top), (parts, Whiteout())]


def _copy_up(parts: tuple[str, ...], trail: list, top: int) -> list[Edit]:
    """Shallow copy-up: an empty directory for each ancestor of parts that
    the top layer lacks, never their siblings."""
    return [(parts[:d], Directory()) for d in range(1, len(parts)) if trail[d][0][0] != top]


def _shows_below(merged: list[tuple[int, Directory]], name: str, top: int) -> bool:
    """Whether name shows in the directories that merge at its parent, the
    top layer left out."""
    for i, d in merged:
        child = d.children.get(name) if i != top else None
        if child is not None:
            return not isinstance(child, Whiteout)
    return False


def apply_journal(tree: LayerTree, edits: Sequence[Edit]) -> LayerTree:
    """Apply edits in order to a layer tree: a view's plan to its top
    layer, a merge journal (stage_merge) to its lower.  Applying a list
    again to the tree it produced gives the same tree."""
    for parts, node in edits:
        existing = tree.get(join_path(parts))
        if node is None:
            if existing is not None:
                tree = tree._rebuilt(parts, None)
        elif not (isinstance(node, Directory) and isinstance(existing, Directory)):
            tree = tree._rebuilt(parts, node)
    return tree


def write_file(stack: LayerStack, path: str, content: bytes) -> LayerStack:
    """Place a regular file at path in the upper layer (see plan_write);
    the layers below are byte-identical afterwards."""
    roots = [layer.root for layer in stack.layers]
    return replace(stack, upper=apply_journal(stack.upper, plan_write(roots, split_path(path), content)))


def remove(stack: LayerStack, path: str, recursive: bool = False) -> LayerStack:
    """Remove path from the merged view (see plan_remove)."""
    roots = [layer.root for layer in stack.layers]
    return replace(stack, upper=apply_journal(stack.upper, plan_remove(roots, split_path(path), recursive)))


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
# merge-down (the transactional base update, planned as edits to the lower)

def content_checksum(payload: bytes) -> str:
    import hashlib  # here, not at the top: loading OpenSSL costs every process that never hashes
    return hashlib.sha256(payload).hexdigest()


class JournalState(Enum):
    STAGED = "Staged"
    COMMITTED = "Committed"
    ABORTED = "Aborted"


@dataclass(frozen=True)
class MergeJournal:
    entries: tuple[Edit, ...]
    state: JournalState


def stage_merge(lower: Directory, upper: Directory) -> list[Edit]:
    """The edits to the lower root that merge the upper root into it.

    Applied in order (apply_journal), they turn lower into
    flatten(LayerStack(lower, upper)): a whiteout over a lower entry, and
    each lower child under an opaque directory, is dropped; a directory
    the lower lacks (or holds as a non-directory) is made; a file or
    symlink is put.  The walk is deterministic (preorder, byte-sorted
    names).  It walks upper and reads lower only along upper's paths: one
    child lookup (children.get) per upper entry, plus one listing under
    each opaque upper directory that sits over a lower directory.  A lazy
    lower root (diskfs.layer_root) is therefore read only along the
    delta's paths.
    """
    edits: list[Edit] = []
    # (parts, upper node, lower children the node's lower counterpart is
    # looked up in, or None when it has none); lower is looked up when the
    # entry is visited, in the order the recursive walk would visit it
    pending: list[tuple[tuple[str, ...], Node, Optional[Mapping[str, Node]]]] = [((), upper, None)]
    while pending:
        parts, node, below = pending.pop()
        low = below.get(parts[-1]) if below is not None else (None if parts else lower)
        if isinstance(node, Whiteout):
            if low is not None:
                edits.append((parts, None))
            continue
        if not isinstance(node, Directory):
            edits.append((parts, node))
            continue
        lower_dir = low if isinstance(low, Directory) else None
        if lower_dir is None:
            edits.append((parts, Directory()))  # never the root: lower is a directory
        elif node.opaque:
            edits += [(parts + (name,), None) for name in _sorted_names(lower_dir)]
            lower_dir = None  # an opaque directory merges with nothing below
        children = lower_dir.children if lower_dir is not None else None
        for name in reversed(_sorted_names(node)):
            pending.append((parts + (name,), node.children[name], children))
    return edits


def _sorted_names(d: Directory) -> list[str]:
    # one items() pass: sorted(children) would also call len(), and a lazy
    # directory lists itself on each
    return sorted([name for name, _ in d.children.items()], key=_byte_key)


def merge_down(stack: LayerStack) -> tuple[LayerTree, MergeJournal]:
    """Merge the upper layer of a two-layer stack into its lower layer.

    Value-level form of the administrator's global update: the journal
    (stage_merge) is planned in full, then applied to the lower tree.  For
    on-disk stacks, callers must hold the exclusive commit lock; the
    durable staging/commit/recovery protocol lives in cue.commit.
    """
    if stack.middle:
        raise ValueError("merge_down takes a stack without middle layers")
    edits = tuple(stage_merge(stack.lower.root, stack.upper.root))
    return apply_journal(stack.lower, edits), MergeJournal(entries=edits, state=JournalState.COMMITTED)
