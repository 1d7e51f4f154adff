"""Layer-attributed tracing from outside the program.

The tracer wraps the public functions and methods at each cue module's
boundary (one module is one layer) and records a span per call: name,
layer, start, end and parent span.  Small helpers called many times per
operation (model.split_path, join_path, normalize, LayerTree.get, ...) are
not wrapped, since a wrapper costs about as much as they do: their time
counts to the span that calls them, so model's path and tree helpers
called from diskfs count as diskfs.  A span's self time is its duration
minus the time its child spans cover.  Calls to os.stat/lstat, os.scandir, open,
os.replace and os.fsync are counted and charged to the innermost open
span.  Where one cue module imported another's function by name, the
wrapper is installed at that binding too, so every call site is seen.

Spans are kept in memory for one unit of work (a session, an update
cycle, a job) and folded into a Profile when the unit ends.  Nothing is
installed until install() and uninstall() restores every binding, so
untraced units run the unmodified program.
"""

from __future__ import annotations

import builtins
import io
import os
import sys

from common import clock

def _layer_table():
    """layer -> (module, wrapped functions, {class: wrapped methods})"""
    from cue import cluster, commit, diskfs, executor, model, planner, registry

    return {
        "model": (
            model,
            (
                "content_checksum", "resolve", "write_file", "remove", "list_dir",
                "flatten", "stage_merge", "apply_journal", "merge_down",
            ),
            {},
        ),
        "diskfs": (
            diskfs,
            ("load_tree", "store_tree", "tree_bytes"),
            {
                diskfs.DiskOverlay: (
                    "__init__", "resolve", "real_path", "read_file", "list_dir",
                    "write_file", "path_for_update", "remove",
                ),
            },
        ),
        "planner": (
            planner,
            ("default_config", "plan_create", "plan_sandbox_update"),
            {planner.ContainerConfig: ("validate",)},
        ),
        "executor": (executor, ("execute", "teardown", "view_for", "load_meta"), {}),
        "registry": (
            registry,
            (),
            {
                registry.Registry: (
                    "register", "update", "lookup", "remove", "set_status", "list",
                    "acquire_commit_lock", "acquire_record_lock",
                ),
                registry.FileLock: ("acquire", "release"),
            },
        ),
        "commit": (commit, ("run_commit", "recover"), {}),
        "cluster": (
            cluster,
            ("attach_login", "login_view", "deploy_job", "node_view", "release_job", "load_manifest"),
            {},
        ),
    }


LAYERS = ("model", "diskfs", "planner", "executor", "registry", "commit", "cluster")

# span record slots
NAME, LAYER, START, END, PARENT, STAT, SCANDIR, OPEN, REPLACE, FSYNC = range(10)

# functions whose return values carry timings the workloads read
CAPTURE = {"executor.execute", "diskfs.load_tree"}


class Profile:
    """Per-layer totals folded from the spans of every traced unit."""

    def __init__(self):
        # (root span name, layer) -> [self_ns, calls, stat, scandir, open, replace, fsync]
        self.by_root_layer: dict[tuple[str, str], list[int]] = {}
        # span name -> [calls, inclusive_ns, self_ns]
        self.by_name: dict[str, list[int]] = {}
        self.roots: dict[str, int] = {}
        self.wall_ns = 0  # wall time of the traced units

    def layer_self_ns(self, layer: str) -> int:
        return sum(v[0] for (_, lay), v in self.by_root_layer.items() if lay == layer)

    def root_layer(self, root: str, layer: str) -> list[int]:
        return self.by_root_layer.get((root, layer), [0] * 7)

    def name(self, name: str) -> list[int]:
        return self.by_name.get(name, [0, 0, 0])


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.returns: list[tuple[str, object]] = []
        self._saved: list[tuple[object, str, object]] = []
        self.real_open = builtins.open

    # -- harness spans ---------------------------------------------------------

    def begin(self, name: str) -> None:
        stack = self.stack
        rec = [name, "bench", 0, 0, stack[-1] if stack else -1, 0, 0, 0, 0, 0]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = clock()

    def end(self) -> None:
        self.spans[self.stack.pop()][END] = clock()

    def find(self, name: str) -> list[list]:
        return [s for s in self.spans if s[NAME] == name]

    # -- wrappers ----------------------------------------------------------------

    def _span(self, name: str, layer: str, fn):
        spans, stack = self.spans, self.stack
        returns = self.returns if name in CAPTURE else None

        def traced(*args, **kwargs):
            rec = [name, layer, 0, 0, stack[-1] if stack else -1, 0, 0, 0, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if returns is not None:
                returns.append((name, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, slot: int, fn):
        spans, stack = self.spans, self.stack

        def counted(*args, **kwargs):
            if stack:
                spans[stack[-1]][slot] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "cue" or n.startswith("cue.")]
        for layer, (module, functions, classes) in _layer_table().items():
            short = module.__name__.rsplit(".", 1)[1]
            for fname in functions:
                original = getattr(module, fname)
                wrapper = self._span(f"{short}.{fname}", layer, original)
                # every module-level binding of the same function object
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
            for cls, methods in classes.items():
                for mname in methods:
                    original = cls.__dict__[mname]
                    self._patch(cls, mname, self._span(f"{short}.{cls.__name__}.{mname}", layer, original))
        for attr, slot in (("stat", STAT), ("lstat", STAT), ("scandir", SCANDIR), ("replace", REPLACE), ("fsync", FSYNC)):
            self._patch(os, attr, self._counter(slot, getattr(os, attr)))
        opener = self._counter(OPEN, self.real_open)
        self._patch(builtins, "open", opener)
        self._patch(io, "open", opener)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- folding -------------------------------------------------------------------

    def flush(self, profile: Profile) -> None:
        """Fold the recorded spans into profile and forget them."""
        spans = self.spans
        if self.stack:
            raise RuntimeError("flush with open spans")
        n = len(spans)
        child = [0] * n
        root = list(range(n))
        for i, s in enumerate(spans):
            p = s[PARENT]
            if p >= 0:
                child[p] += s[END] - s[START]
                root[i] = root[p]
        for i, s in enumerate(spans):
            dur = s[END] - s[START]
            own = dur - child[i]
            rname = spans[root[i]][NAME]
            if root[i] == i:
                profile.roots[rname] = profile.roots.get(rname, 0) + 1
            acc = profile.by_root_layer.get((rname, s[LAYER]))
            if acc is None:
                acc = profile.by_root_layer[(rname, s[LAYER])] = [0] * 7
            acc[0] += own
            acc[1] += 1
            for k, slot in enumerate((STAT, SCANDIR, OPEN, REPLACE, FSYNC)):
                acc[2 + k] += s[slot]
            named = profile.by_name.get(s[NAME])
            if named is None:
                named = profile.by_name[s[NAME]] = [0, 0, 0]
            named[0] += 1
            named[1] += dur
            named[2] += own
        spans.clear()
        self.returns.clear()
