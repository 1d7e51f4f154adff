"""`base-update`: the administrator's transactional commit.

Fixture: a 40k-file base (20 x 20 directories of 100 files), 200 config
files under /etc, a 4 MiB binary at /bin/tool and an empty /opt.

One unit is one update cycle: create the root sandbox the way `cue create
--root-sandbox` does, stage a delta through its view (20 config edits,
a 4 MiB binary swap, 5 deletions, a new directory of 10 files), review the
touched directories, run the commit, verify the base on disk and tear the
sandbox down.  The commit loads the whole base although the delta is
tiny, so commit and the tree scan it makes carry most of the time.
"""

from __future__ import annotations

import random
from pathlib import Path

from common import (
    Layer,
    Payloads,
    build_base,
    byte_order,
    clock,
    log_size,
    name_of,
    parent_of,
    real,
)

CONFIG_EDITS = 20
DELETIONS = 5
NEW_FILES = 10
TOOL = "/bin/tool"
TOOL_BYTES = 4 * 1024 * 1024
# one journal entry per edited config, the binary, each deletion, the new
# directory and each file in it
EXPECTED_ENTRIES = CONFIG_EDITS + 1 + DELETIONS + 1 + NEW_FILES


class BaseUpdate:
    name = "base-update"
    users = 1  # the administrator's root sandbox

    def __init__(self, where: Path, seed: int):
        self.where = where
        self.rng = random.Random(f"base-update-{seed}")
        self.payloads = Payloads(seed)
        self.work_done = 0

    def setup(self) -> None:
        from cue import planner

        rng, payloads = self.rng, self.payloads
        self.base = self.where / "base"
        self.state = self.where / "state"
        layer = build_base(self.base, rng, payloads, top=20, mid=20, files=100, extra_dirs=("/opt", "/bin"))
        for i in range(20):
            d = f"/etc/s{i:02d}"
            real(self.base, d).mkdir(parents=True)
            layer.dirs.update(("/etc", d))
            for j in range(10):
                path = f"{d}/c{j:02d}.conf"
                key, size = payloads.fresh(), log_size(rng, 64, 4096)
                payloads.write(real(self.base, path), key, size)
                layer.files[path] = (key, size)
        key = payloads.fresh()
        payloads.write(real(self.base, TOOL), key, TOOL_BYTES)
        layer.files[TOOL] = (key, TOOL_BYTES)
        self.files = dict(layer.files)  # the base as it should be on disk
        self.children: dict[str, set[str]] = {d: set() for d in layer.dirs}
        for path in (*layer.files, *layer.dirs):
            if path != "/":
                self.children[parent_of(path)].add(name_of(path))
        self.configs = byte_order(p for p in layer.files if p.startswith("/etc/"))
        self.scratch = str(self.state / "volumes" / "rootsandbox" / planner.ROOT_SANDBOX_USER)

    def start(self) -> None:
        from cue import registry

        self.registry = registry.Registry(str(self.state))

    def reset(self, index: int) -> None:
        """Nothing to restore: each cycle commits and clears its own delta."""

    # -- one update cycle ----------------------------------------------------------

    def unit(self, index: int, run) -> None:
        from cue import commit, errors, executor, model, planner, registry

        rng, payloads = self.rng, self.payloads

        def login():
            plan = planner.plan_sandbox_update(str(self.base), self.scratch)
            report = executor.execute(plan, "sandbox")
            cfg = plan.config
            self.registry.register(
                registry.ContainerRecord(
                    user=cfg.user,
                    upper_dir=cfg.upper_dir,
                    work_dir=cfg.work_dir,
                    merged_dir=cfg.merged_dir,
                    hostname=cfg.hostname,
                    kind="RootSandbox",
                )
            )
            return report

        report = run.timed("login", login)
        meta = run.timed("view", executor.load_meta, report.handle)
        view = run.timed("view", executor.view_for, meta)
        upper = Path(meta["upper"])

        delta = Layer()  # what this cycle stages, as the base should end up
        try:
            for path in rng.sample(self.configs, CONFIG_EDITS):
                key, size = self.files[path]
                data = run.timed("read", view.read_file, path)
                run.check(data == payloads.make(key, size), f"read {path}: wrong bytes")
                run.bare_read(real(self.base, path))
                new = (payloads.fresh(), log_size(rng, 64, 4096))
                run.timed("write", view.write_file, path, payloads.make(*new))
                delta.files[path] = new

            new = (payloads.fresh(), TOOL_BYTES)
            run.timed("write", view.write_file, TOOL, payloads.make(*new))
            delta.files[TOOL] = new

            bulk = [p for p in self._bulk_sample(DELETIONS * 4) if p not in delta.files]
            for path in bulk[:DELETIONS]:
                res = run.timed("stat", view.resolve, path)
                ok = res.outcome is model.ResolutionKind.FOUND_LOWER
                run.check(ok and res.node.content == payloads.make(*self.files[path]), f"resolve {path}: {res.outcome}")
                run.timed("remove", view.remove, path)
                delta.whiteouts.add(path)

            pkg = f"/opt/pkg{index:05d}"
            real(upper, pkg).mkdir(parents=True)  # the view has no mkdir; a shell in the sandbox would
            delta.dirs.add(pkg)
            for n in range(NEW_FILES):
                path = f"{pkg}/lib{n:02d}.so"
                new = (payloads.fresh(), log_size(rng, 64, 16 * 1024))
                run.timed("write", view.write_file, path, payloads.make(*new))
                delta.files[path] = new

            self._review(run, view, delta, model)
        except errors.CueError as err:
            run.fail(f"staging: {err!r}")

        entries = self._commit(run, upper, commit, delta)
        self._verify(run, delta, entries, upper)

        def logout():
            executor.teardown(report.handle)
            self.registry.remove(planner.ROOT_SANDBOX_USER, "RootSandbox")

        run.timed("logout", logout)
        self.work_done += 1

    def _bulk_sample(self, n: int) -> list[str]:
        picks = []
        while len(picks) < n:
            path = f"/d{self.rng.randrange(20):02d}/e{self.rng.randrange(20):02d}/f{self.rng.randrange(100):03d}"
            if path in self.files and path not in picks:
                picks.append(path)
        return picks

    def _review(self, run, view, delta: Layer, model) -> None:
        """List every touched directory and re-resolve every deleted path."""
        touched = {parent_of(p) for p in (*delta.files, *delta.whiteouts)} | {parent_of(d) for d in delta.dirs}
        for d in byte_order(touched):
            names = set(self.children.get(d, ())) - {name_of(p) for p in delta.whiteouts if parent_of(p) == d}
            ups = {name_of(p) for p in (*delta.files, *delta.dirs) if parent_of(p) == d}
            names |= ups
            want = [(n, model.Origin.UPPER if n in ups else model.Origin.LOWER) for n in byte_order(names)]
            got = run.timed("list", view.list_dir, d)
            run.check(got == want, f"list {d}: {len(got)} entries, expected {len(want)}")
        for path in byte_order(delta.whiteouts):
            res = run.timed("stat", view.resolve, path)
            run.check(res.outcome is model.ResolutionKind.HIDDEN, f"resolve {path}: {res.outcome}, expected hidden")

    def _commit(self, run, upper: Path, commit, delta: Layer):
        tracer = run.tracer
        stamps: list[tuple[str, int]] = []

        def stamp(point: str, index: int) -> None:
            stamps.append((point, clock()))

        def locked_commit():
            with self.registry.acquire_commit_lock():
                return commit.run_commit(
                    self.base, upper, self.registry.journal_dir(),
                    fault_hook=stamp if tracer is not None else None,
                )

        result = run.timed("commit", locked_commit)
        if tracer is not None:
            stats = _phases(tracer, stamps, result)
            stats["payload_bytes"] = sum(size for _, size in delta.files.values())
            run.extra.setdefault("commit", []).append(stats)
        return result

    def _verify(self, run, delta: Layer, result, upper: Path) -> None:
        """Every touched path on disk, the journal, and an emptied upper."""
        entries = result.entries
        run.attempted += 1
        ok = len(entries) == EXPECTED_ENTRIES
        lines = result.journal_path.read_text(encoding="utf-8").splitlines()
        ok = ok and lines[-1] == f"END {EXPECTED_ENTRIES}" and len(lines) == EXPECTED_ENTRIES + 2
        run.check(ok, f"journal holds {len(entries)} entries, expected {EXPECTED_ENTRIES}")
        for d in delta.dirs:
            run.check(real(self.base, d).is_dir(), f"base {d}: missing directory")
            self.children.setdefault(d, set())
            self.children[parent_of(d)].add(name_of(d))
        for path, (key, size) in delta.files.items():
            with open(real(self.base, path), "rb") as fh:
                run.check(fh.read() == self.payloads.make(key, size), f"base {path}: wrong bytes")
            self.files[path] = (key, size)
            self.children[parent_of(path)].add(name_of(path))
        for path in delta.whiteouts:
            run.check(not real(self.base, path).exists(), f"base {path}: still present")
            del self.files[path]
            self.children[parent_of(path)].discard(name_of(path))
        run.check(not any(upper.iterdir()), "sandbox upper not cleared")


def _phases(tracer, stamps, result) -> dict:
    """Commit phase times from the spans and the fault-hook timestamps."""
    from tracing import END, START

    (top,) = tracer.find("commit.run_commit")
    (rec,) = tracer.find("commit.recover")
    scans = [s for s in tracer.find("diskfs.load_tree") if s[START] >= top[START]]
    (plan,) = tracer.find("model.stage_merge")
    first = {}
    for point, t in stamps:
        first.setdefault(point, t)
    trees = [tree for name, tree in tracer.returns if name == "diskfs.load_tree"]
    return {
        "recover": rec[END] - rec[START],
        "scan": sum(s[END] - s[START] for s in scans),
        "plan": plan[END] - scans[-1][END],
        "stage": first["journal-write"] - plan[END],
        "journal": first["post-commit"] - first["journal-write"],
        "apply": first["apply-done"] - first["post-commit"],
        "clear": top[END] - first["apply-done"],
        "total": top[END] - top[START],
        "entries": len(result.entries),
        "base_nodes_loaded": _count_nodes(trees[0].root),
    }


def _count_nodes(directory) -> int:
    count, stack = 0, [directory]
    while stack:
        node = stack.pop()
        count += 1
        children = getattr(node, "children", None)
        if children:
            stack.extend(children.values())
    return count
