"""Disk-backed layer trees and the lazy merged view.

Layers live as plain directories.  Whiteouts and opaque markers use the
unprivileged-friendly sibling-file convention: a `.wh.<name>` file hides
the lower entry `<name>`, a `.wh..wh..opq` file inside a directory makes
it opaque (kernel overlayfs markers need mknod/xattr privileges).  Names
starting with `.wh.` are therefore reserved inside layers.

A view stacks one writable upper over one or more lowers, bottom first;
non-bottom lowers keep their markers, so a user's shared delta can sit
read-only between a node root and a scratch upper.

DiskOverlay materializes nothing up front: it hands each layer directory
to the pure model as a lazy Directory, and the model's lookup walk
decides the view for any number of layers.  Top-down, per component,
the topmost layer with an entry wins; a whiteout or an opaque directory
cuts off the layers below it (a path a cut-off layer holds is Hidden: on
a node view, a base path the shared delta removed), a file or symlink
shadows them (Absent).  Lower layers are read on every lookup, so base
updates show at once; only upper files this view wrote or resolved are
path-cached (an upper hit can never be masked by later lower changes).
Writes take the same lazy layers: the model plans each write, remove or
copy-up as a short list of edits to the upper layer (put an empty
directory, a file or a whiteout at a path, or drop the entry there), and
the view applies them to the upper directory with a few syscalls each.
"""

from __future__ import annotations

import errno
import os
import shutil
import stat as stat_m
from collections.abc import Mapping
from pathlib import Path
from typing import Optional, Sequence

from . import model
from .errors import AbsentPath, HiddenPath, NotADirectory, ReadOnlyView, ReservedName
from .model import (
    Directory,
    LayerTree,
    Node,
    Origin,
    RegularFile,
    Resolution,
    ResolutionKind,
    Symlink,
    Whiteout,
)

__all__ = [
    "WH_PREFIX", "OPAQUE_MARKER", "DiskOverlay", "layer_root", "load_tree", "store_tree", "tree_bytes",
]

WH_PREFIX = ".wh."
OPAQUE_MARKER = ".wh..wh..opq"

# shapes of lazily read entries: content and targets are read by _plain
_FILE = RegularFile()
_LINK = Symlink("")
_WHITEOUT = Whiteout()


def _check_component_names(parts: tuple[str, ...]) -> None:
    for part in parts:
        if part.startswith(WH_PREFIX):
            raise ReservedName(f"{part!r} collides with the whiteout marker namespace")


def _exists(real: str) -> bool:
    try:
        os.lstat(real)
    except OSError:
        return False
    return True


# ---------------------------------------------------------------------------
# layer directories as lazy model nodes

class _LayerEntries(Mapping):
    """One layer directory's entries, read when asked for and never cached.

    get() costs one lstat (plus the `.wh.` probe on a miss where markers
    count); iterating costs one scandir, with no lstat per entry.  Only a
    missing entry reads as absent: any other lstat error is raised, so an
    unreadable path is never mistaken for an empty one.
    """

    def __init__(self, path: str, marker_aware: bool):
        self.prefix = os.path.join(path, "")  # "/" stays "/", "/x" becomes "/x/"
        self.marker_aware = marker_aware

    def get(self, name: str, default=None):
        if name.startswith(WH_PREFIX):
            return default
        real = self.prefix + name
        try:
            mode = os.lstat(real).st_mode
        except (FileNotFoundError, NotADirectoryError):
            if self.marker_aware and _exists(self.prefix + WH_PREFIX + name):
                return _WHITEOUT
            return default
        if stat_m.S_ISDIR(mode):
            return _LayerDir(real, self.marker_aware)
        if stat_m.S_ISLNK(mode):
            return _LINK
        if stat_m.S_ISREG(mode):
            return _FILE
        return default  # sockets, devices: not modeled; reachable only via bind mounts

    def __getitem__(self, name: str) -> Node:
        node = self.get(name)
        if node is None:
            raise KeyError(name)
        return node

    def items(self):
        nodes: dict[str, Node] = {}
        names: set[str] = set()
        markers: list[str] = []
        try:
            with os.scandir(self.prefix) as scan:
                entries = list(scan)
        except FileNotFoundError:
            entries = []  # a missing directory lists as empty
        for entry in entries:
            name = entry.name
            names.add(name)
            if name.startswith(WH_PREFIX):
                if name != OPAQUE_MARKER:
                    markers.append(name[len(WH_PREFIX):])
            elif entry.is_dir(follow_symlinks=False):
                nodes[name] = _LayerDir(entry.path, self.marker_aware)
            elif entry.is_symlink():
                nodes[name] = _LINK
            elif entry.is_file(follow_symlinks=False):
                nodes[name] = _FILE
        if self.marker_aware:
            for target in markers:
                if target and target not in names:
                    nodes[target] = _WHITEOUT
        return nodes.items()

    def __iter__(self):
        return iter(dict(self.items()))

    def __len__(self) -> int:
        return len(self.items())


class _LayerDir(Directory):
    """A layer directory whose entries and opaque marker are read from disk
    on each access."""

    def __init__(self, path: str, marker_aware: bool):
        object.__setattr__(self, "children", _LayerEntries(path, marker_aware))

    @property
    def opaque(self) -> bool:  # type: ignore[override]
        entries = self.children
        return entries.marker_aware and _exists(entries.prefix + OPAQUE_MARKER)


def _plain(node: Node, real: str, *, content: bool = False) -> Node:
    """A plain value for a lazily read node: a directory without children,
    a symlink with its target, a file with its content if content."""
    if isinstance(node, Directory):
        return Directory(children={}, opaque=node.opaque)
    if isinstance(node, Symlink):
        return Symlink(os.readlink(real))
    if isinstance(node, RegularFile) and content:
        with open(real, "rb") as fh:
            return RegularFile(fh.read())
    return node


def layer_root(root: str | Path, *, marker_aware: bool = True) -> Directory:
    """A layer directory as a lazy model Directory: a child lookup costs one
    lstat, a listing one scandir, and nothing is read up front."""
    root = str(root)
    if not os.path.isdir(root):
        raise FileNotFoundError(errno.ENOENT, "no layer directory", root)
    return _LayerDir(root, marker_aware)


# ---------------------------------------------------------------------------
# whole-tree load/store (commit's upper, tests, small trees)

def load_tree(root: Path, *, marker_aware: bool = True, deep: bool = True) -> LayerTree:
    """Read a whole layer directory into a model tree.  Without deep, files
    come back as content-less shapes (symlink targets are still read)."""
    return LayerTree(root=_load(layer_root(root, marker_aware=marker_aware), deep))


def _load(d: _LayerDir, deep: bool) -> Directory:
    children: dict[str, Node] = {}
    for name, child in d.children.items():
        if isinstance(child, _LayerDir):
            children[name] = _load(child, deep)
        else:
            children[name] = _plain(child, d.children.prefix + name, content=deep)
    return Directory(children=children, opaque=d.opaque)


def store_tree(tree: LayerTree, root: Path, *, marker_aware: bool = True) -> None:
    """Materialize a model tree into an empty directory."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)

    def store_dir(node: Directory, real: Path) -> None:
        if node.opaque:
            if not marker_aware:
                raise ValueError("plain tree cannot carry opaque markers")
            (real / OPAQUE_MARKER).touch()
        for name, child in node.children.items():
            _check_component_names((name,))
            target = real / name
            if isinstance(child, Whiteout):
                if not marker_aware:
                    raise ValueError("plain tree cannot carry whiteouts")
                (real / (WH_PREFIX + name)).touch()
            elif isinstance(child, RegularFile):
                target.write_bytes(child.content)
            elif isinstance(child, Symlink):
                os.symlink(child.target, target)
            else:
                target.mkdir()
                store_dir(child, target)

    store_dir(tree.root, root)


def tree_bytes(root: Path) -> int:
    """Apparent size of all regular files under root (0 if absent)."""
    root = Path(root)
    if not root.exists():
        return 0
    total = 0
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            try:
                total += (Path(dirpath) / name).lstat().st_size
            except OSError:
                pass
    return total


# ---------------------------------------------------------------------------
# the merged view

class DiskOverlay:
    """Merged view over [lowers..., upper]; bottom layer first."""

    def __init__(
        self,
        lowers: Sequence[Path | str],
        upper: Path | str,
        *,
        read_only: bool = False,
        masks: Sequence[tuple[str, str]] = (),
    ):
        if not lowers:
            raise ValueError("at least one lower layer required")
        self.lowers = [Path(p) for p in lowers]
        self.upper = Path(upper)
        self.read_only = read_only
        self.masks = [(model.normalize(p), mode) for p, mode in masks]
        for _, mode in self.masks:
            if mode not in ("empty", "ro"):
                raise ValueError(f"mask mode must be empty|ro, got {mode!r}")
        self._roots = [str(p) for p in (*self.lowers, self.upper)]
        self._file_cache: dict[str, Path] = {}

    # -- masks ------------------------------------------------------------

    def _mask_at(self, path: str) -> Optional[tuple[str, str]]:
        """The deepest mask covering a normalized path, if any."""
        best = None
        for mask_path, mode in self.masks:
            if path == mask_path or path.startswith(mask_path + "/") or mask_path == "/":
                if best is None or len(mask_path) > len(best[0]):
                    best = (mask_path, mode)
        return best

    def _check_writable(self, path: str) -> None:
        if self.read_only:
            raise ReadOnlyView(f"view is read-only: {path}")
        mask = self._mask_at(path)
        if mask is not None:
            raise ReadOnlyView(f"path is masked {mask[1]}: {path}")

    # -- layers -------------------------------------------------------------

    def _layers(self) -> list[_LayerDir]:
        """Every layer as a lazy directory, bottom first; the bottom one
        carries no markers."""
        return [_LayerDir(root, i > 0) for i, root in enumerate(self._roots)]

    def _real(self, layer: int, parts: tuple[str, ...]) -> str:
        return os.path.join(self._roots[layer], *parts)

    def _found(self, parts: tuple[str, ...]) -> Resolution:
        """Resolution of a split path that must exist in the view."""
        res = model.lookup(self._layers(), parts)
        if not res.found:
            kind = HiddenPath if res.outcome is ResolutionKind.HIDDEN else AbsentPath
            raise kind(model.join_path(parts))
        return res

    # -- read side ----------------------------------------------------------

    def resolve(self, path: str) -> Resolution:
        parts = model.split_path(path)
        path = model.join_path(parts)
        mask = self._mask_at(path)
        if mask is not None and mask[1] == "empty":
            if path == mask[0]:
                return Resolution(ResolutionKind.FOUND_UPPER, Directory(children={}))
            return Resolution(ResolutionKind.ABSENT)
        cached = self._file_cache.get(path)
        if cached is not None:
            node = RegularFile(cached.read_bytes())
            return Resolution(ResolutionKind.FOUND_UPPER, node, len(self._roots) - 1)
        res = model.lookup(self._layers(), path)
        if not res.found:
            return res
        real = self._real(res.layer, parts)  # type: ignore[arg-type]
        res = Resolution(res.outcome, _plain(res.node, real, content=True), res.layer)
        if (
            res.outcome is ResolutionKind.FOUND_UPPER
            and isinstance(res.node, RegularFile)
            and mask is None
            and not self.read_only
        ):
            self._file_cache[path] = Path(real)
        return res

    def _backing(self, path: str) -> str:
        """Backing file of an uncached resolvable regular file or symlink."""
        parts = model.split_path(path)  # accepts normalized paths only
        mask = self._mask_at(path)
        if mask is not None and mask[1] == "empty":
            raise AbsentPath(path)
        res = self._found(parts)
        if isinstance(res.node, Directory):
            raise NotADirectory(f"not a regular file: {path}")
        return self._real(res.layer, parts)  # type: ignore[arg-type]

    def real_path(self, path: str) -> Path:
        """Backing file of a resolvable regular file or symlink (any layer)."""
        cached = self._file_cache.get(path)
        if cached is not None:
            return cached
        return Path(self._backing(path))

    def read_file(self, path: str) -> bytes:
        cached = self._file_cache.get(path)
        if cached is not None:
            return cached.read_bytes()
        with open(self._backing(path), "rb") as fh:
            return fh.read()

    def list_dir(self, path: str) -> list[tuple[str, Origin]]:
        parts = model.split_path(path)
        path = model.join_path(parts)
        mask = self._mask_at(path)
        if mask is not None and mask[1] == "empty":
            if path == mask[0]:
                return []
            raise AbsentPath(path)
        return model.merged_listing(self._layers(), path)

    # -- write side ---------------------------------------------------------

    def write_file(self, path: str, data: bytes) -> None:
        cached = self._file_cache.get(path)
        if cached is not None:
            # fast path: path already resolves to an upper file this view owns
            with open(cached, "wb") as fh:
                fh.write(data)
            return
        parts = model.split_path(path)
        path = model.join_path(parts)
        _check_component_names(parts)
        self._check_writable(path)
        if self._apply(model.plan_write(self._layers(), parts, data)):
            self._file_cache.clear()  # a directory was replaced: files below it are gone
        self._file_cache[path] = self.upper.joinpath(*parts)

    def path_for_update(self, path: str) -> Path:
        """Copy the file up if needed and return its real upper path for
        in-place streaming updates."""
        cached = self._file_cache.get(path)
        if cached is not None:
            return cached
        parts = model.split_path(path)
        path = model.join_path(parts)
        _check_component_names(parts)
        self._check_writable(path)
        res = self._found(parts)
        if not isinstance(res.node, RegularFile):
            raise NotADirectory(f"not a regular file: {path}")
        real = self.upper.joinpath(*parts)
        if res.outcome is not ResolutionKind.FOUND_UPPER:
            # copy-up: ancestors shallowly, then stream the content across
            self._apply(model.plan_write(self._layers(), parts, b""))
            with open(self._real(res.layer, parts), "rb") as src:  # type: ignore[arg-type]
                with open(real, "wb") as dst:
                    shutil.copyfileobj(src, dst, 1024 * 1024)
        self._file_cache[path] = real
        return real

    def remove(self, path: str, recursive: bool = False) -> None:
        parts = model.split_path(path)
        path = model.join_path(parts)
        _check_component_names(parts)
        self._check_writable(path)
        self._apply(model.plan_remove(self._layers(), parts, recursive))
        self._file_cache.clear()

    def _apply(self, edits: list[model.Edit]) -> bool:
        """Apply the model's edits to the upper directory; True when one
        replaced or dropped a directory."""
        upper = self._roots[-1]
        replaced = False
        for parts, node in edits:
            replaced |= _drop(upper, parts) if node is None else _place(upper, parts, node)
        return replaced


def _place(upper: str, parts: tuple[str, ...], node: Node) -> bool:
    """Put node (a whiteout, a regular file or an empty plain directory) at
    parts in the upper directory, replacing the entry or marker there;
    True when that was a directory."""
    real = os.path.join(upper, *parts)
    marker = os.path.join(upper, *parts[:-1], WH_PREFIX + parts[-1])
    if isinstance(node, Whiteout):
        replaced = _rm_real(real)
        os.close(os.open(marker, os.O_WRONLY | os.O_CREAT | os.O_CLOEXEC, 0o666))
        return replaced
    _unlink(marker)
    replaced = False
    try:
        _create(real, node)
    except FileExistsError:  # clear it; creating first saves an lstat when nothing is there
        replaced = _rm_real(real)
        _create(real, node)
    return replaced


def _create(real: str, node: Node) -> None:
    if isinstance(node, Directory):
        os.mkdir(real)
    else:
        with open(real, "xb") as fh:
            fh.write(node.content)  # type: ignore[union-attr]


def _drop(upper: str, parts: tuple[str, ...]) -> bool:
    replaced = _rm_real(os.path.join(upper, *parts))
    _unlink(os.path.join(upper, *parts[:-1], WH_PREFIX + parts[-1]))
    return replaced


def _unlink(real: str) -> None:
    try:
        os.unlink(real)
    except FileNotFoundError:
        pass


def _rm_real(real: str | Path) -> bool:
    """Remove the entry at real, if any; True when it was a directory."""
    try:
        st = os.lstat(real)
    except OSError:
        return False
    if stat_m.S_ISDIR(st.st_mode):
        shutil.rmtree(real)
        return True
    os.unlink(real)
    return False
