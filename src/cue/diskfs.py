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
shadows them (Absent).  Child lookups, opaque flags and whole listings
come from one entry cache per process that inotify keeps current: every
change the kernel reported before a view operation began is visible to
it, listings included (inotify misses remote changes on network
filesystems, mounts inside layer directories and renames of a layer
root's ancestors).  A listed directory answers later listings, and
lookups of names it lacks, from memory until an event names one of its
entries; then its whole listing is dropped.  A view reads and rewrites
an upper file it wrote without a lookup, unless it was removed or
replaced by a symlink.

A view over two or more lowers (a compute node's) resolves a path its
top layer is transparent along (model.lookup's rule) through a memo of
lookups through its lower stack, shared by every view with the same
lowers.  Each memoized lower root has a generation, and each memo entry
holds its roots' generations when it was stored: an event in any
directory under a root bumps its generation, a queue overflow or a fork
drops the memo, and a lookup that read a directory outside the cache (it
could not be watched) is never stored.  The memo keeps at most _MEMO_MAX
entries, oldest out first; an eviction from the entry cache, if one is
ever added, must bump the generations of the roots it evicts under, or
the memo would outlive the events it relies on.  Over one lower the memo
key costs as much as the walk, so those views walk.  Writes, removes and
listings always walk.
Writes take the same lazy layers: the model plans each write, remove or
copy-up as a short list of edits to the upper layer (put an empty
directory, a file or a whiteout at a path, or drop the entry there), and
the view applies them to the upper directory with a few syscalls each.
"""

from __future__ import annotations

import bisect
import errno
import functools
import itertools
import os
import select
import shutil
import stat as stat_m
import struct
from collections.abc import Mapping
from pathlib import Path
from typing import Any, Optional, Sequence

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
_SHAPES = {stat_m.S_IFREG: _FILE, stat_m.S_IFLNK: _LINK}


def _check_component_names(parts: tuple[str, ...]) -> None:
    for part in parts:
        if part.startswith(WH_PREFIX):
            raise ReservedName(f"{part!r} collides with the whiteout marker namespace")


def _exists(real: str) -> Optional[bool]:
    """Whether an entry is at real; None (falsy) on another lstat error."""
    try:
        os.lstat(real)
    except (FileNotFoundError, NotADirectoryError):
        return False
    except OSError:
        return None
    return True


# ---------------------------------------------------------------------------
# the process-wide entry cache

# IN_ATTRIB | IN_MOVED_FROM | IN_MOVED_TO | IN_CREATE | IN_DELETE | IN_DELETE_SELF |
# IN_MOVE_SELF | IN_ONLYDIR (inotify(7)): any change to a directory's entries or itself
_WATCH_MASK = 0x4 | 0x40 | 0x80 | 0x100 | 0x200 | 0x400 | 0x800 | 0x1000000
_IN_Q_OVERFLOW, _IN_IGNORED, _IN_ISDIR = 0x4000, 0x8000, 0x40000000
_COUNTERS = (
    "hits", "misses", "listing_hits", "listing_misses", "lookup_hits", "lookup_misses",
    "watches", "watch_failures", "events", "subtree_drops",
)
_MEMO_MAX = 512  # memoized lookups; one cluster job's working set is about 50
_MISS = object()
_COMPLETE = ""  # no entry has this name: its key marks a directory's cached names as its whole listing


class _EntryCache:
    """Layer directories keyed by (path prefix, marker_aware), each watched before
    it is first read; one watch may serve several prefixes (through a symlink too)."""

    def __init__(self):
        self.fd = -1
        # key -> (wd, {name: what get() read, OPAQUE_MARKER: opaque flag}); a listed
        # directory's dict holds every entry, then the flag and _COMPLETE last
        self.dirs: dict[tuple[str, bool], tuple[int, dict[str, Any]]] = {}
        self.keys: dict[int, set[tuple[str, bool]]] = {}  # wd -> the keys it serves
        self.order: list[tuple[str, bool]] = []  # the keys of dirs, sorted: a subtree is a slice
        # (lower-root prefixes, path components) -> (Resolution through those lowers,
        # the roots' generations when it was stored), oldest first
        self.memo: dict[tuple[tuple[str, ...], tuple[str, ...]], tuple[Resolution, tuple[int, ...]]] = {}
        self.gens: dict[str, int] = {}  # root prefix -> its generation, for roots memoized since their last event
        self.root_entries: dict[str, int] = {}  # root prefix -> the memo entries through it
        self.memo_roots: tuple[str, ...] = ()  # the keys of gens: one startswith per event key
        self.generation = 0  # the last generation handed out; none is handed out twice
        self.unwatched = 0  # child lookups and opaque flags read outside the cache
        self.hits = self.misses = self.listing_hits = self.listing_misses = 0
        self.lookup_hits = self.lookup_misses = 0
        self.watches = self.watch_failures = self.events = self.subtree_drops = 0

    def reset(self) -> None:
        """Forget everything (a queue overflow; a forked child shares the fd)."""
        if self.fd >= 0:
            os.close(self.fd)
        self.fd = -1
        self.dirs.clear()
        self.keys.clear()
        self.order.clear()
        self._forget_memo()

    def _forget_memo(self) -> None:
        self.memo.clear()
        self.gens.clear()
        self.root_entries.clear()
        self.memo_roots = ()

    def of(self, key: tuple[str, bool]) -> Optional[dict[str, Any]]:
        """A directory's cache, watched first if new; None if it cannot be watched."""
        held = self.dirs.get(key)
        if held is None:
            if self.fd == -1:  # not open yet; -2: no inotify here
                self._open()
            wd = self.libc.inotify_add_watch(self.fd, os.fsencode(key[0]), _WATCH_MASK) if self.fd >= 0 else -1
            if wd < 0:
                self.watch_failures += 1
                return None
            self.watches += 1
            held = self.dirs[key] = (wd, {})
            self.keys.setdefault(wd, set()).add(key)
            bisect.insort(self.order, key)
        return held[1]

    def _open(self) -> None:
        try:
            import ctypes
            libc = ctypes.CDLL(None, use_errno=True)  # each call returns an int, ctypes' default
            libc.inotify_init1.argtypes = (ctypes.c_int,)
            libc.inotify_add_watch.argtypes = (ctypes.c_int, ctypes.c_char_p, ctypes.c_uint32)
            libc.inotify_rm_watch.argtypes = (ctypes.c_int, ctypes.c_int)
        except (OSError, AttributeError):
            self.fd = -2  # nothing is cached
            return
        self.libc, self.fd = libc, libc.inotify_init1(os.O_NONBLOCK | os.O_CLOEXEC)
        if self.fd >= 0:
            self.poller = select.poll()
            self.poller.register(self.fd, select.POLLIN)

    def drain(self) -> None:
        """Apply every queued event: one for a name drops that entry (and a `.wh.`
        marker's target), or the whole dict of a listed directory; one for a
        subdirectory, the directory itself or the end of its watch drops every
        directory at or below it; an overflow, all."""
        while self.fd >= 0 and self.poller.poll(0):
            buf, offset, doomed = os.read(self.fd, 65536), 0, []
            while offset < len(buf):
                wd, mask, _, size = struct.unpack_from("iIII", buf, offset)
                name = os.fsdecode(buf[offset + 16 : offset + 16 + size].rstrip(b"\0"))
                offset += 16 + size
                self.events += 1
                if mask & _IN_Q_OVERFLOW:
                    self.subtree_drops += 1
                    return self.reset()
                for prefix, aware in self.keys.pop(wd, ()) if mask & _IN_IGNORED else self.keys.get(wd, ()):
                    if prefix.startswith(self.memo_roots):
                        self._stale(prefix)
                    if not name:  # the directory itself
                        doomed.append(prefix)
                        continue
                    cached = self.dirs[prefix, aware][1]
                    if _COMPLETE in cached:  # a listing is kept whole or not at all
                        cached.clear()
                    else:
                        cached.pop(name, None)
                        if name.startswith(WH_PREFIX):
                            cached.pop(name[len(WH_PREFIX) :], None)
                    if mask & _IN_ISDIR:
                        doomed.append(prefix + name + "/")
            if doomed:
                self._drop(tuple(doomed))

    def _stale(self, prefix: str) -> None:
        """Bump the generation of each memoized root at, above or below a
        changed or dropped directory: its generation is dropped, and a later
        store hands out a new one, so every memo entry stamped with the old
        one is stale."""
        for root in self.memo_roots:
            if prefix.startswith(root) or root.startswith(prefix):
                del self.gens[root]
        self.memo_roots = tuple(self.gens)

    def resolved(self, roots: tuple[str, ...], layers: Sequence[Directory], parts: tuple[str, ...]) -> Resolution:
        """model.lookup(layers, parts) through lower layer directories whose
        prefixes are roots: from the memo while no event has named a
        directory under any of those roots since the entry was stored.  A
        lookup that read anything outside the cache is not stored: no event
        would tell of its change."""
        key = (roots, parts)
        held = self.memo.get(key)
        if held is not None and held[1] == tuple(map(self.gens.get, roots)):
            self.lookup_hits += 1
            return held[0]
        self.lookup_misses += 1
        unwatched = self.unwatched
        res = model.lookup(layers, parts)
        if self.unwatched == unwatched:
            self._store(key, res)
        return res

    def _store(self, key: tuple[tuple[str, ...], tuple[str, ...]], res: Resolution) -> None:
        """Memoize res as the newest entry, stamped with its roots' generations,
        a new one for each root without; past _MEMO_MAX the oldest goes."""
        memo, gens, entries = self.memo, self.gens, self.root_entries
        roots = key[0]
        if memo.pop(key, None) is None:
            while len(memo) >= _MEMO_MAX:
                oldest = next(iter(memo))
                del memo[oldest]
                for root in oldest[0]:
                    entries[root] -= 1
                    if not entries[root]:  # no entry left to stamp: its generation goes
                        del entries[root]
                        gens.pop(root, None)
            for root in roots:
                entries[root] = entries.get(root, 0) + 1
        for root in roots:
            if root not in gens:
                self.generation += 1
                gens[root] = self.generation
        self.memo_roots = tuple(gens)
        memo[key] = (res, tuple(map(gens.get, roots)))

    def _drop(self, prefixes: tuple[str, ...]) -> None:
        """Drop every cached directory under prefixes, and watches left idle;
        a memoized root below one of them goes stale, as its watch may go."""
        self.subtree_drops += len(prefixes)
        for prefix in prefixes:  # every key below prefix ("x/") sorts before "x0"
            if self.memo_roots:
                self._stale(prefix)
            lo = bisect.bisect_left(self.order, (prefix,))
            hi = bisect.bisect_left(self.order, (prefix[:-1] + "0",), lo)
            for key in self.order[lo:hi]:
                wd = self.dirs.pop(key)[0]
                keys = self.keys.get(wd, ())
                if key in keys:
                    keys.remove(key)
                    if not keys:
                        del self.keys[wd]
                        self.libc.inotify_rm_watch(self.fd, wd)
            del self.order[lo:hi]


_CACHE = _EntryCache()
os.register_at_fork(after_in_child=_CACHE.reset)


def cache_counters() -> dict[str, int]:
    """Lookups (child entries, opaque flags) and listings answered from the entry
    cache and from disk, path lookups through a shared lower stack answered
    from the memo and walked, directories watched and not, inotify events
    drained, subtrees dropped."""
    return {name: getattr(_CACHE, name) for name in _COUNTERS}


# ---------------------------------------------------------------------------
# layer directories as lazy model nodes

class _LayerEntries(Mapping):
    """One layer directory's entries, read when asked for.

    get() answers from the entry cache, or costs one lstat (plus the `.wh.`
    probe on a miss where markers count).  Iterating costs one scandir, with
    no lstat per entry, and fills the cache with the whole listing and the
    opaque flag; until an event names one of its entries, the directory then
    lists, reads as opaque or not, and answers get() of a name it lacks
    without a syscall.  A directory is never scanned on a get(): a lookup
    reads only along its path.  Only a missing entry reads as absent: any
    other lstat error is raised, so an unreadable path is never mistaken
    for an empty one.
    """

    __slots__ = ("prefix", "marker_aware", "key")

    def __init__(self, path: str, marker_aware: bool):
        self.prefix = os.path.join(path, "")  # "/" stays "/", "/x" becomes "/x/"
        self.marker_aware = marker_aware
        self.key = (self.prefix, marker_aware)

    def get(self, name: str, default=None):
        if name.startswith(WH_PREFIX):
            return default
        cache = _CACHE
        cached = cache.of(self.key)
        if cached is not None:
            node = cached.get(name, _MISS)
            if node is _MISS and _COMPLETE in cached:
                node = None  # the whole listing lacks name
            if node is not _MISS:
                cache.hits += 1
                return default if node is None else node
        cache.misses += 1
        real = self.prefix + name
        try:
            mode = os.lstat(real).st_mode
        except (FileNotFoundError, NotADirectoryError):
            marked = self.marker_aware and _exists(self.prefix + WH_PREFIX + name)
            if marked is None:
                return default  # an unreadable marker reads as none, uncached
            node = _WHITEOUT if marked else None
        else:  # sockets, devices: not modeled; reachable only via bind mounts
            node = _LayerDir(real, self.marker_aware) if stat_m.S_ISDIR(mode) else _SHAPES.get(stat_m.S_IFMT(mode))
        if cached is not None:
            cached[name] = node
        else:
            cache.unwatched += 1
        return default if node is None else node

    def __getitem__(self, name: str) -> Node:
        node = self.get(name)
        if node is None:
            raise KeyError(name)
        return node

    def items(self):
        """(name, node) pairs, to be iterated once: a listed directory's come
        straight from its cached dict, which nothing changes between drains."""
        cache = _CACHE
        cached = cache.of(self.key)
        if cached is None:
            cache.listing_misses += 1
            nodes: dict[str, Node] = {}
            _scan(self.prefix, self.marker_aware, nodes)
            return nodes.items()
        if _COMPLETE in cached:
            cache.listing_hits += 1
        else:
            cache.listing_misses += 1
            cached.clear()
            opaque = _scan(self.prefix, self.marker_aware, cached)
            if opaque is None:
                return ()
            cached[OPAQUE_MARKER] = opaque
            cached[_COMPLETE] = True  # last: a scan that raised leaves single entries only
        return itertools.islice(cached.items(), len(cached) - 2)  # before the flag and _COMPLETE

    def __iter__(self):
        return iter(dict(self.items()))

    def __len__(self) -> int:
        return len(dict(self.items()))


def _scan(prefix: str, marker_aware: bool, nodes: dict[str, Any]) -> Optional[bool]:
    """Put a layer directory's entries into nodes from one scandir and return
    its opaque flag; a missing directory adds none and returns None."""
    try:
        with os.scandir(prefix) as scan:
            entries = list(scan)
    except FileNotFoundError:
        return None
    names = {entry.name for entry in entries}
    opaque = False
    for entry in entries:
        name = entry.name
        if name.startswith(WH_PREFIX):
            target = name[len(WH_PREFIX) :]
            if name == OPAQUE_MARKER:
                opaque = marker_aware
            elif marker_aware and target and target not in names and not target.startswith(WH_PREFIX):
                nodes[target] = _WHITEOUT  # a reserved name is no entry, as get() says
        elif entry.is_dir(follow_symlinks=False):
            nodes[name] = _LayerDir(entry.path, marker_aware)
        elif entry.is_symlink():
            nodes[name] = _LINK
        elif entry.is_file(follow_symlinks=False):
            nodes[name] = _FILE
    return opaque


class _LayerDir(Directory):
    """A layer directory whose entries and opaque marker are read through
    the entry cache."""

    def __init__(self, path: str, marker_aware: bool):
        object.__setattr__(self, "children", _LayerEntries(path, marker_aware))

    @property
    def opaque(self) -> bool:  # type: ignore[override]
        entries = self.children
        if not entries.marker_aware:
            return False
        cache = _CACHE
        cached = cache.of(entries.key)
        opaque = cached.get(OPAQUE_MARKER) if cached is not None else None
        if opaque is not None:
            cache.hits += 1
            return opaque
        cache.misses += 1
        opaque = _exists(entries.prefix + OPAQUE_MARKER)
        if cached is None:
            cache.unwatched += 1
        elif opaque is not None:
            cached[OPAQUE_MARKER] = opaque
        return bool(opaque)


def _plain(node: Node, real: str, *, content: bool = False) -> Node:
    """A plain value for a lazily read node: a directory without children,
    a symlink with its target, a file with its content if content."""
    if isinstance(node, Directory):
        return Directory(children={}, opaque=node.opaque)
    if isinstance(node, Symlink):
        return Symlink(os.readlink(real))
    if isinstance(node, RegularFile) and content:
        return RegularFile(_read_all(real))
    return node


def _read_all(real: str | Path) -> bytes:
    """A file's bytes from one open, one fstat and reads until EOF; unlike
    open().read(), no isatty ioctl, no second fstat, no buffer objects."""
    fd = os.open(real, os.O_RDONLY | os.O_CLOEXEC)
    try:
        left = os.fstat(fd).st_size + 1  # the whole file in one read, then EOF
        chunks = []
        while chunk := os.read(fd, left):  # one read returns at most about 2 GiB
            chunks.append(chunk)
            left = max(left - len(chunk), 1)
        return b"".join(chunks)
    finally:
        os.close(fd)


def layer_root(root: str | Path, *, marker_aware: bool = True) -> Directory:
    """A layer directory as a lazy model Directory: a child lookup costs at
    most one lstat and a listing one scandir, each none once the entry
    cache holds it; nothing is read up front."""
    _CACHE.drain()
    root = str(root)
    if not os.path.isdir(root):
        raise FileNotFoundError(errno.ENOENT, "no layer directory", root)
    return _LayerDir(root, marker_aware)


# ---------------------------------------------------------------------------
# whole-tree load/store (commit's upper, tests, small trees)

def load_tree(root: Path, *, marker_aware: bool = True, deep: bool = True) -> LayerTree:
    """Read a whole layer directory into a model tree, one scandir per
    directory and none through the entry cache (commit loads an upper it is
    about to clear).  Without deep, files come back as content-less shapes
    (symlink targets are still read)."""
    return LayerTree(root=_load(layer_root(root, marker_aware=marker_aware).children, deep))


def _load(d: _LayerEntries, deep: bool) -> Directory:
    nodes: dict[str, Node] = {}
    opaque = _scan(d.prefix, d.marker_aware, nodes)
    children: dict[str, Node] = {}
    for name, child in nodes.items():
        if isinstance(child, _LayerDir):
            children[name] = _load(child.children, deep)
        else:
            children[name] = _plain(child, d.prefix + name, content=deep)
    return Directory(children=children, opaque=bool(opaque))


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
        masks: Sequence[tuple[str, str]] = (),
    ):
        if not lowers:
            raise ValueError("at least one lower layer required")
        self.lowers = [Path(p) for p in lowers]
        self.upper = Path(upper)
        self.masks = [(model.normalize(p), mode) for p, mode in masks]
        for _, mode in self.masks:
            if mode not in ("empty", "ro"):
                raise ValueError(f"mask mode must be empty|ro, got {mode!r}")
        self._roots = [str(p) for p in (*self.lowers, self.upper)]
        # each layer as a lazy directory, bottom first; the bottom one reads no markers
        self._layers = [_LayerDir(root, i > 0) for i, root in enumerate(self._roots)]
        # upper files this view wrote or opened for update: read and rewritten without a lookup
        self._file_cache: dict[str, Path] = {}
        # over two or more lowers (a node view), a path the top layer is transparent
        # along resolves through the shared memo of the lower stack; over one lower,
        # the memo's key would cost as much as the walk it saves
        self._below = None
        if len(self.lowers) > 1:
            lowers = self._layers[:-1]
            self._below = functools.partial(_CACHE.resolved, tuple(d.children.prefix for d in lowers), lowers)

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
        mask = self._mask_at(path)
        if mask is not None:
            raise ReadOnlyView(f"path is masked {mask[1]}: {path}")

    # -- layers -------------------------------------------------------------

    def _real(self, layer: int, parts: tuple[str, ...]) -> str:
        return os.path.join(self._roots[layer], *parts)

    def _found(self, parts: tuple[str, ...]) -> Resolution:
        """Resolution of a split path that must exist in the view."""
        res = model.lookup(self._layers, parts, self._below)
        if not res.found:
            kind = HiddenPath if res.outcome is ResolutionKind.HIDDEN else AbsentPath
            raise kind(model.join_path(parts))
        return res

    # -- read side ----------------------------------------------------------

    def resolve(self, path: str) -> Resolution:
        _CACHE.drain()
        parts = model.split_path(path)
        mask = self._mask_at(path)
        if mask is not None and mask[1] == "empty":
            if path == mask[0]:
                return Resolution(ResolutionKind.FOUND_UPPER, Directory(children={}))
            return Resolution(ResolutionKind.ABSENT)
        res = model.lookup(self._layers, parts, self._below)
        if not res.found:
            return res
        real = self._real(res.layer, parts)  # type: ignore[arg-type]
        return Resolution(res.outcome, _plain(res.node, real, content=True), res.layer)

    def _backing(self, path: str) -> str:
        """Backing file of a resolvable regular file or symlink."""
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
        _CACHE.drain()
        return Path(self._backing(path))

    def read_file(self, path: str) -> bytes:
        _CACHE.drain()
        cached = self._file_cache.get(path)
        if cached is not None:
            try:
                return _read_all(cached)
            except (FileNotFoundError, NotADirectoryError, IsADirectoryError):
                del self._file_cache[path]  # removed outside the view: look it up
        return _read_all(self._backing(path))

    def list_dir(self, path: str) -> list[tuple[str, Origin]]:
        _CACHE.drain()
        parts = model.split_path(path)
        mask = self._mask_at(path)
        if mask is not None and mask[1] == "empty":
            if path == mask[0]:
                return []
            raise AbsentPath(path)
        return model.merged_listing(self._layers, parts)

    # -- write side ---------------------------------------------------------

    def write_file(self, path: str, data: bytes) -> None:
        _CACHE.drain()
        cached = self._file_cache.get(path)
        if cached is not None:
            # fast path: path already resolves to an upper file this view owns
            try:  # never through a symlink put there outside the view
                fd = os.open(cached, os.O_WRONLY | os.O_TRUNC | os.O_CLOEXEC | os.O_NOFOLLOW)
            except OSError as err:
                if err.errno not in (errno.ENOENT, errno.ENOTDIR, errno.EISDIR, errno.ELOOP):
                    raise
                del self._file_cache[path]  # removed or replaced outside the view: plan the write
            else:
                with open(fd, "wb") as fh:
                    fh.write(data)
                return
        parts = model.split_path(path)
        _check_component_names(parts)
        self._check_writable(path)
        if self._apply(model.plan_write(self._layers, parts, data)):
            self._file_cache.clear()  # a directory was replaced: files below it are gone
        self._file_cache[path] = self.upper.joinpath(*parts)

    def path_for_update(self, path: str) -> Path:
        """Copy the file up if needed and return its real upper path for
        in-place streaming updates."""
        _CACHE.drain()
        parts = model.split_path(path)
        _check_component_names(parts)
        self._check_writable(path)
        res = self._found(parts)
        if not isinstance(res.node, RegularFile):
            raise NotADirectory(f"not a regular file: {path}")
        real = self.upper.joinpath(*parts)
        if res.outcome is not ResolutionKind.FOUND_UPPER:
            # copy-up: ancestors shallowly, then stream the content across
            self._apply(model.plan_write(self._layers, parts, b""))
            with open(self._real(res.layer, parts), "rb") as src:  # type: ignore[arg-type]
                with open(real, "wb") as dst:
                    shutil.copyfileobj(src, dst, 1024 * 1024)
        self._file_cache[path] = real
        return real

    def remove(self, path: str, recursive: bool = False) -> None:
        _CACHE.drain()
        parts = model.split_path(path)
        _check_component_names(parts)
        self._check_writable(path)
        self._apply(model.plan_remove(self._layers, parts, recursive))
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
