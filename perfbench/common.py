"""Shared pieces of the benchmark: seeded payloads, the expected-view
model the checks compare against, sample bookkeeping, and the base-tree
generator the three workloads build their fixtures from.

Nothing here imports cue: the expected views are computed independently
of the code under test, from the overlay rules the paper states (upper
wins, whiteouts hide, opaque directories cut the lower layer off).
"""

from __future__ import annotations

import os
import random
import time
from bisect import bisect_left
from pathlib import Path

clock = time.perf_counter_ns

WH_PREFIX = ".wh."
OPAQUE_MARKER = ".wh..wh..opq"

UPPER = "upper"
LOWER = "lower"

_POOL_BYTES = 1 << 20
_HEAD = 16


class Payloads:
    """File contents named by an integer key, rebuilt on demand.

    Content is a 16-byte hex header (the key) followed by a slice of a
    seeded random pool, so the checks can recompute the expected bytes
    of any file without holding them in memory.
    """

    def __init__(self, seed: int):
        self.pool = random.Random(f"pool-{seed}").randbytes(_POOL_BYTES)
        self.next_key = 1

    def fresh(self) -> int:
        key = self.next_key
        self.next_key += 1
        return key

    def make(self, key: int, size: int) -> bytes:
        body = size - _HEAD
        head = b"%016x" % key
        if body <= _POOL_BYTES // 2:
            off = (key * 2654435761) % (_POOL_BYTES - body)
            return head + self.pool[off : off + body]
        reps = -(-body // _POOL_BYTES)
        return head + (self.pool * reps)[:body]

    def write(self, real: Path, key: int, size: int) -> None:
        """Write a payload to disk in chunks (no whole-file copy for big files)."""
        with open(real, "wb") as fh:
            if size - _HEAD <= _POOL_BYTES // 2:
                fh.write(self.make(key, size))
                return
            fh.write(b"%016x" % key)
            left = size - _HEAD
            while left > 0:
                chunk = min(left, _POOL_BYTES)
                fh.write(self.pool[:chunk])
                left -= chunk


def log_size(rng: random.Random, lo: int, hi: int) -> int:
    """Log-uniform size in [lo, hi]: many small files, a few large ones."""
    return int(lo * (hi / lo) ** rng.random())


def parent_of(path: str) -> str:
    head = path.rsplit("/", 1)[0]
    return head or "/"


def name_of(path: str) -> str:
    return path.rsplit("/", 1)[1]


def ancestors(path: str) -> list[str]:
    """Strict ancestors of path, excluding the root, outermost first."""
    parts = path.strip("/").split("/")[:-1]
    return ["/" + "/".join(parts[: i + 1]) for i in range(len(parts))]


def real(root: Path, path: str) -> Path:
    return root / path.lstrip("/") if path != "/" else root


def byte_order(names) -> list[str]:
    return sorted(names, key=lambda s: s.encode("utf-8"))


class Zipf:
    """Rank sampler with P(rank r) proportional to 1 / (r + 1) ** s."""

    def __init__(self, n: int, s: float = 1.1):
        total = 0.0
        self.cdf = []
        for r in range(n):
            total += 1.0 / (r + 1) ** s
            self.cdf.append(total)
        self.total = total

    def sample(self, rng: random.Random) -> int:
        return min(bisect_left(self.cdf, rng.random() * self.total), len(self.cdf) - 1)


# ---------------------------------------------------------------------------
# the expected merged view

class Layer:
    """What one layer directory holds, as the generator wrote it."""

    def __init__(self):
        self.files: dict[str, tuple[int, int]] = {}  # path -> (key, size)
        self.links: dict[str, str] = {}
        self.dirs: set[str] = set()
        self.whiteouts: set[str] = set()
        self.opaque: set[str] = set()

    def paths(self) -> set[str]:
        return set(self.files) | set(self.links) | self.dirs


class Shadow:
    """Expected merged view of a stack of layers, bottom first.

    The top layer is the writable one; list origins are UPPER for entries
    the top layer holds and LOWER for everything below, as cue reports
    them.  A path that is not visible but exists in a lower layer is
    expected to be hidden, otherwise absent; the workloads never shadow a
    lower directory with a file, the one case where that rule would not
    hold.
    """

    def __init__(self, base: Layer):
        self.files = dict(base.files)
        self.links = dict(base.links)
        self.children: dict[str, set[str]] = {"/": set()}
        for d in sorted(base.dirs, key=len):
            self.children.setdefault(d, set())
        for path in (*base.dirs, *base.files, *base.links):
            if path != "/":
                self.children[parent_of(path)].add(name_of(path))
        self.below: set[str] = base.paths()
        self.top: set[str] = set()
        self.hidden: set[str] = set()  # in a lower layer, not visible

    def copy(self) -> "Shadow":
        other = Shadow.__new__(Shadow)
        other.files = dict(self.files)
        other.links = dict(self.links)
        other.children = {d: set(names) for d, names in self.children.items()}
        other.below = set(self.below)
        other.top = set(self.top)
        other.hidden = set(self.hidden)
        return other

    # -- stacking ----------------------------------------------------------

    def stack(self, layer: Layer, *, top: bool) -> None:
        """Lay a marker-aware layer over the current view."""
        mark = self.top.add if top else (lambda p: None)
        for d in sorted(layer.opaque, key=len):
            for name in list(self.children.get(d, ())):
                self._drop(d.rstrip("/") + "/" + name)
        for path in layer.whiteouts:
            self._drop(path)
            self._mark_ancestors(path, mark)
        for d in sorted(layer.dirs, key=len):
            if d not in self.children:
                self.children[d] = set()
                self.children[parent_of(d)].add(name_of(d))
            mark(d)
            self._mark_ancestors(d, mark)
        for path, entry in layer.files.items():
            self.files[path] = entry
            self.hidden.discard(path)
            self.children[parent_of(path)].add(name_of(path))
            mark(path)
            self._mark_ancestors(path, mark)
        if not top:
            self.below |= layer.paths()

    def _mark_ancestors(self, path: str, mark) -> None:
        for a in ancestors(path):
            mark(a)

    def _drop(self, path: str) -> None:
        if path in self.children:
            for name in list(self.children[path]):
                self._drop(path.rstrip("/") + "/" + name)
            del self.children[path]
        self.files.pop(path, None)
        self.links.pop(path, None)
        self.top.discard(path)
        if path in self.below:
            self.hidden.add(path)
        siblings = self.children.get(parent_of(path))
        if siblings is not None:
            siblings.discard(name_of(path))

    # -- the operations the workloads perform --------------------------------

    def write(self, path: str, key: int, size: int) -> None:
        self.files[path] = (key, size)
        self.hidden.discard(path)
        self.children[parent_of(path)].add(name_of(path))
        self.top.add(path)
        self._mark_ancestors(path, self.top.add)

    def remove(self, path: str) -> None:
        self._drop(path)
        self._mark_ancestors(path, self.top.add)

    # -- expectations ----------------------------------------------------------

    def expect(self, path: str):
        """("file", key, size) | ("dir",) | ("link", target) | ("hidden",) | ("absent",)"""
        if path in self.files:
            return ("file", *self.files[path])
        if path in self.children:
            return ("dir",)
        if path in self.links:
            return ("link", self.links[path])
        return ("hidden",) if path in self.below else ("absent",)

    def listing(self, path: str) -> list[tuple[str, str]]:
        prefix = path.rstrip("/") + "/"
        return [
            (name, UPPER if prefix + name in self.top else LOWER)
            for name in byte_order(self.children[path])
        ]


# ---------------------------------------------------------------------------
# fixture generation

def build_base(
    root: Path,
    rng: random.Random,
    payloads: Payloads,
    *,
    top: int,
    mid: int,
    files: int,
    symlinks: int = 0,
    max_size: int = 16 * 1024,
    extra_dirs: tuple[str, ...] = (),
) -> Layer:
    """A plain base tree: /dNN/eNN/fNNN regular files (64 B to max_size,
    log-uniform), a few relative symlinks, and some extra empty dirs."""
    layer = Layer()
    root.mkdir(parents=True)
    layer.dirs.add("/")
    for i in range(top):
        for j in range(mid):
            d = f"/d{i:02d}/e{j:02d}"
            real(root, d).mkdir(parents=True)
            layer.dirs.update((f"/d{i:02d}", d))
            for k in range(files):
                path = f"{d}/f{k:03d}"
                key, size = payloads.fresh(), log_size(rng, 64, max_size)
                payloads.write(real(root, path), key, size)
                layer.files[path] = (key, size)
    for n in range(symlinks):
        d = f"/d{rng.randrange(top):02d}/e{rng.randrange(mid):02d}"
        path, target = f"{d}/l{n:02d}", f"f{rng.randrange(files):03d}"
        os.symlink(target, real(root, path))
        layer.links[path] = target
    for d in extra_dirs:
        real(root, d).mkdir(parents=True)
        layer.dirs.update((*ancestors(d), d))
    return layer


def store_layer(root: Path, layer: Layer, payloads: Payloads) -> None:
    """Write a marker-aware layer (sibling .wh. files, opaque marker files)."""
    root.mkdir(parents=True, exist_ok=True)
    for d in sorted(layer.dirs, key=len):
        real(root, d).mkdir(parents=True, exist_ok=True)
    for d in layer.opaque:
        real(root, d).mkdir(parents=True, exist_ok=True)
        real(root, d).joinpath(OPAQUE_MARKER).touch()
    for path in layer.whiteouts:
        marker = real(root, parent_of(path)) / (WH_PREFIX + name_of(path))
        marker.parent.mkdir(parents=True, exist_ok=True)
        marker.touch()
    for path, (key, size) in layer.files.items():
        target = real(root, path)
        target.parent.mkdir(parents=True, exist_ok=True)
        payloads.write(target, key, size)


def tree_size(root: Path) -> int:
    """Apparent bytes of every regular file under root."""
    total = 0
    for dirpath, _, names in os.walk(root):
        for name in names:
            total += os.lstat(os.path.join(dirpath, name)).st_size
    return total


# ---------------------------------------------------------------------------
# samples and the run's bookkeeping

def quantile(ordered: list, q: float) -> float:
    """Linear-interpolated quantile of a sorted list."""
    if len(ordered) == 1:
        return float(ordered[0])
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = 0.5
    for q in (0.9, 0.99, 0.999):
        if n * (1 - q) >= 10:
            best = q
    return best


class Run:
    """Samples, failures and counts of one benchmark process."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: dict[str, list[int]] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.bare_read_ns: list[int] = []
        self.extra: dict[str, list] = {}  # non-time observations, by name
        self.known_defects: dict[str, int] = {}  # mismatches the program is known to make

    def forget_samples(self) -> None:
        """Drop what warm-up measured; failures and counts stay."""
        self.samples.clear()
        self.bare_read_ns.clear()
        self.extra.clear()

    def timed(self, kind: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) as one operation of the given kind, timed.

        Exceptions pass through (some operations are expected to raise);
        the sample is recorded either way.
        """
        tracer = self.tracer
        self.attempted += 1
        if tracer is not None:
            tracer.begin(kind)
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = clock() - t0
            if tracer is not None:
                tracer.end()
            self.samples.setdefault(kind, []).append(dt)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def known_defect(self, message: str) -> None:
        """A mismatch with a known cause in the program: counted and printed,
        not failed, so the workload still runs and the defect stays visible."""
        self.known_defects[message] = self.known_defects.get(message, 0) + 1

    def bare_read(self, backing: Path) -> None:
        """Time a direct open().read() of a read's backing file (traced runs)."""
        if self.tracer is None:
            return
        t0 = clock()
        with self.tracer.real_open(backing, "rb") as fh:
            fh.read()
        self.bare_read_ns.append(clock() - t0)
