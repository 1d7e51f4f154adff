"""`session`: users working inside their own containers.

Fixture: a 20k-file base (20 x 20 directories of 50 files, 64 B to 16 KiB)
with a few symlinks, and four users whose persistent uppers already hold
200 customized files, 20 whiteouts (two of them whole directories) and
one opaque directory.

One unit is one session: log in the way `cue create` does, run 200 view
operations, log out.  Reads are Zipf-skewed over one popularity order of
the base files, so a small hot set dominates.  Every read's bytes, every
listing and every expected hidden or absent path is checked against a
shadow of the user's view.

Before each session, untimed, the user's upper and shadow are put back to
their state after set-up, so what a session measures depends on the seed
and its index only, not on how many sessions ran before it.
"""

from __future__ import annotations

import itertools
import os
import random
from pathlib import Path

from common import (
    OPAQUE_MARKER,
    UPPER,
    WH_PREFIX,
    Layer,
    Payloads,
    Shadow,
    Zipf,
    ancestors,
    build_base,
    byte_order,
    log_size,
    name_of,
    parent_of,
    real,
    store_layer,
)

USERS = ("user0", "user1", "user2", "user3")
OPS_PER_SESSION = 200
MIX = (("read", 70), ("stat", 8), ("list", 10), ("write", 10), ("remove", 2))


class Session:
    name = "session"
    users = len(USERS)

    def __init__(self, where: Path, seed: int):
        self.where = where
        self.seed = seed
        self.rng = random.Random(f"session-{seed}")
        self.payloads = Payloads(seed)
        self.work_done = 0

    # -- fixture ---------------------------------------------------------------

    def setup(self) -> None:
        rng, payloads = self.rng, self.payloads
        self.base = self.where / "base"
        self.state = self.where / "state"
        base = build_base(self.base, rng, payloads, top=20, mid=20, files=50, symlinks=8)
        self.base_files = sorted(base.files)
        self.order = list(self.base_files)
        rng.shuffle(self.order)  # one popularity order shared by all users
        self.zipf = Zipf(len(self.order))
        self.leaf_dirs = sorted(d for d in base.dirs if d.count("/") == 2)
        self.graveyard = self.where / "graveyard"
        self.graveyard.mkdir()
        self.graves = itertools.count()
        self.uppers: dict[str, Path] = {}
        self.layers: dict[str, Layer] = {}
        self.pristine: dict[str, Shadow] = {}
        self.shadows: dict[str, Shadow] = {}
        for user in USERS:
            upper = self.state / "volumes" / "user" / user / "upper"
            layer = self._customizations(base)
            store_layer(upper, layer, payloads)
            shadow = Shadow(base)
            shadow.stack(layer, top=True)
            self.uppers[user] = upper
            self.layers[user] = layer
            self.pristine[user] = shadow
            self.shadows[user] = shadow.copy()

    def start(self) -> None:
        from cue import registry

        self.registry = registry.Registry(str(self.state))

    def _customizations(self, base: Layer) -> Layer:
        """200 customized files, 20 whiteouts, one opaque directory."""
        rng, payloads = self.rng, self.payloads
        layer = Layer()
        dirs = rng.sample(self.leaf_dirs, 3)
        hidden_dirs, opaque = dirs[:2], dirs[2]
        spared = [p for p in self.base_files if parent_of(p) not in dirs]
        picks = rng.sample(spared, 150 + 18)
        for path in picks[:150]:  # copied up and customized
            layer.files[path] = (payloads.fresh(), log_size(rng, 64, 16 * 1024))
        for n in range(45):  # new files next to base files
            d = rng.choice(self.leaf_dirs)
            if d not in dirs:
                layer.files[f"{d}/mine{n:03d}"] = (payloads.fresh(), log_size(rng, 64, 16 * 1024))
        layer.whiteouts.update(picks[150:])
        layer.whiteouts.update(hidden_dirs)
        layer.opaque.add(opaque)
        layer.dirs.add(opaque)
        while len(layer.files) < 200:  # the rest live in the opaque directory
            layer.files[f"{opaque}/own{len(layer.files):03d}"] = (payloads.fresh(), log_size(rng, 64, 16 * 1024))
        for path in list(layer.files) + list(layer.whiteouts):
            layer.dirs.update(ancestors(path))
        return layer

    def reset(self, index: int) -> None:
        """Put the next session's user back to their state after set-up."""
        user = USERS[index % len(USERS)]
        upper, layer = self.uppers[user], self.layers[user]
        shadow = self.shadows[user]
        for path, entry in layer.files.items():
            if shadow.files.get(path) != entry:  # rewritten or removed last session
                self.payloads.write(real(upper, path), *entry)
        keep = set(layer.files) | layer.dirs
        keep |= {f"{parent_of(p).rstrip('/')}/{WH_PREFIX}{name_of(p)}" for p in layer.whiteouts}
        keep |= {f"{d}/{OPAQUE_MARKER}" for d in layer.opaque}
        # copy-ups, new whiteouts and the directories they needed are moved
        # out, not deleted: on ext4 without a journal, freeing inodes slows
        # the file creations that follow, which would charge this untimed
        # step to the next session's writes
        stack = [(upper, "")]
        while stack:
            directory, prefix = stack.pop()
            with os.scandir(directory) as entries:
                for entry in entries:
                    path = f"{prefix}/{entry.name}"
                    if path not in keep:
                        os.rename(entry.path, self.graveyard / str(next(self.graves)))
                    elif entry.is_dir(follow_symlinks=False):
                        stack.append((entry.path, path))
        self.shadows[user] = self.pristine[user].copy()

    # -- one session -------------------------------------------------------------

    def unit(self, index: int, run) -> None:
        from cue import errors, executor, planner

        user = USERS[index % len(USERS)]
        shadow = self.shadows[user]
        state = str(self.state)

        def login():
            plan = planner.plan_create(
                planner.default_config(user, state_root=state, host_root=str(self.base))
            )
            report = executor.execute(plan, "sandbox")
            self.registry.register(self._record(plan))
            return report

        report = run.timed("login", login)
        view = run.timed("view", lambda: executor.view_for(executor.load_meta(report.handle)))
        upper = self.uppers[user]
        for _ in range(OPS_PER_SESSION):
            try:
                self._op(run, view, shadow, upper)
            except errors.CueError as err:
                run.fail(f"{user}: {err!r}")
        self.work_done += OPS_PER_SESSION

        def logout():
            executor.teardown(report.handle)
            self.registry.remove(user)

        run.timed("logout", logout)

    def _record(self, plan):
        from cue import registry

        cfg = plan.config
        return registry.ContainerRecord(
            user=cfg.user,
            upper_dir=cfg.upper_dir,
            work_dir=cfg.work_dir,
            merged_dir=cfg.merged_dir,
            hostname=cfg.hostname,
        )

    def _hot_file(self, shadow: Shadow, *, lower_only: bool = False) -> str:
        """A visible base file, Zipf-sampled; skips ranks the user cannot see."""
        rank = self.zipf.sample(self.rng)
        order = self.order
        for step in range(len(order)):
            path = order[(rank + step) % len(order)]
            if path in shadow.files and not (lower_only and path in shadow.top):
                return path
        raise RuntimeError("no visible base file left")

    def _op(self, run, view, shadow: Shadow, upper: Path) -> None:
        from cue import model

        rng = self.rng
        roll = rng.randrange(100)
        for kind, share in MIX:
            if roll < share:
                break
            roll -= share

        if kind == "read":
            path = self._hot_file(shadow)
            _, key, size = shadow.expect(path)
            data = run.timed("read", view.read_file, path)
            run.check(data == self.payloads.make(key, size), f"read {path}: wrong bytes")
            backing = upper if path in shadow.top else self.base
            run.bare_read(real(backing, path))
        elif kind == "stat":
            if rng.random() < 0.5:
                path = self._hot_file(shadow) if rng.random() < 0.8 else rng.choice(self.leaf_dirs)
            elif rng.random() < 0.5:
                path = rng.choice(byte_order(shadow.hidden))
            else:
                path = f"{rng.choice(self.leaf_dirs)}/cmd{rng.randrange(10**6)}"
            res = run.timed("stat", view.resolve, path)
            self._check_resolution(run, shadow, path, res, model)
        elif kind == "list":
            d = rng.choice(self.leaf_dirs)
            if d not in shadow.children:
                d = parent_of(d)
            got = run.timed("list", view.list_dir, d)
            want = [(n, model.Origin.UPPER if o == UPPER else model.Origin.LOWER) for n, o in shadow.listing(d)]
            run.check(got == want, f"list {d}: {len(got)} entries, expected {len(want)}")
        elif kind == "write":
            mine = [p for p in shadow.top if p in shadow.files]
            if rng.random() < 0.5 and mine:
                path = rng.choice(sorted(mine))
            else:
                path = self._hot_file(shadow, lower_only=True)
            key, size = self.payloads.fresh(), log_size(rng, 64, 16 * 1024)
            run.timed("write", view.write_file, path, self.payloads.make(key, size))
            shadow.write(path, key, size)
        else:
            mine = sorted(p for p in shadow.top if p in shadow.files)
            path = rng.choice(mine) if rng.random() < 0.5 and mine else self._hot_file(shadow)
            run.timed("remove", view.remove, path)
            shadow.remove(path)

    def _check_resolution(self, run, shadow: Shadow, path: str, res, model) -> None:
        want = shadow.expect(path)
        kind = res.outcome
        if want[0] == "hidden":
            run.check(kind is model.ResolutionKind.HIDDEN, f"resolve {path}: {kind}, expected hidden")
        elif want[0] == "absent":
            run.check(kind is model.ResolutionKind.ABSENT, f"resolve {path}: {kind}, expected absent")
        elif want[0] == "file":
            ok = isinstance(res.node, model.RegularFile) and res.node.content == self.payloads.make(*want[1:])
            run.check(res.found and ok, f"resolve {path}: wrong file")
        elif want[0] == "dir":
            run.check(isinstance(res.node, model.Directory), f"resolve {path}: not a directory")
        else:
            ok = isinstance(res.node, model.Symlink) and res.node.target == want[1]
            run.check(ok, f"resolve {path}: wrong symlink")
