"""Disk-backed layers must agree with the pure model byte for byte."""

import os
import random
import shutil

import pytest

import oracle
import stackgen
from cue import diskfs, model
from cue.diskfs import DiskOverlay, load_tree, store_tree, tree_bytes
from cue.errors import (
    AbsentParent,
    AbsentPath,
    CueError,
    DirectoryNotEmpty,
    HiddenPath,
    MalformedPath,
    NotADirectory,
    ReadOnlyView,
    ReservedName,
)
from cue.model import Directory, LayerStack, LayerTree, Origin, RegularFile, ResolutionKind, Symlink, Whiteout


@pytest.fixture
def layers(tmp_path):
    lower = tmp_path / "lower"
    upper = tmp_path / "upper"
    lower.mkdir()
    upper.mkdir()
    return lower, upper


def materialize(stack: LayerStack, lower, upper) -> DiskOverlay:
    store_tree(stack.lower, lower, marker_aware=False)
    store_tree(stack.upper, upper, marker_aware=True)
    return DiskOverlay([lower], upper)


def materialize3(stack: LayerStack, root) -> DiskOverlay:
    """Base, shared middle delta and scratch top as a node view would stack them."""
    (middle,) = stack.middle
    store_tree(stack.lower, root / "base", marker_aware=False)
    store_tree(middle, root / "shared", marker_aware=True)
    store_tree(stack.upper, root / "scratch", marker_aware=True)
    return DiskOverlay([root / "base", root / "shared"], root / "scratch")


def entries_under(root) -> list[str]:
    """Every name under root, markers included, relative to root."""
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


def check_view_resolves_as_model(view: DiskOverlay, stack: LayerStack, seed: int) -> None:
    for path in stackgen.probe_paths(stack):
        want = model.resolve(stack, path)
        got = view.resolve(path)
        assert got.outcome is want.outcome, (seed, path)
        assert got.layer == want.layer, (seed, path)
        if isinstance(want.node, (RegularFile, Symlink)):
            assert got.node == want.node, (seed, path)
        elif want.found:
            assert isinstance(got.node, Directory) and got.node.children == {}, (seed, path)


def check_view_lists_as_model(view: DiskOverlay, stack: LayerStack, seed: int) -> None:
    for path, kind in oracle.visible_paths(stack).items():
        if kind == ("dir",):
            assert view.list_dir(path) == model.list_dir(stack, path), (seed, path)


def run_random_ops(view: DiskOverlay, stack: LayerStack, rng: random.Random) -> LayerStack:
    """Apply the same random writes and removes to the view and the model."""
    for _ in range(12):
        path = rng.choice(stackgen.probe_paths(stack))
        if rng.random() < 0.6:
            data = rng.randbytes(rng.randint(0, 20))
            try:
                expected = model.write_file(stack, path, data)
                view.write_file(path, data)
                stack = expected
            except (AbsentParent, NotADirectory, ReservedName) as err:
                with pytest.raises(type(err)):
                    view.write_file(path, data)
        else:
            try:
                expected = model.remove(stack, path, recursive=True)
                view.remove(path, recursive=True)
                stack = expected
            except (AbsentPath, ReservedName) as err:
                with pytest.raises(type(err)):
                    view.remove(path, recursive=True)
    return stack


class TestTreeStoreLoad:
    def test_round_trip_plain(self, tmp_path):
        tree = stackgen.random_lower(random.Random(7))
        store_tree(tree, tmp_path / "t", marker_aware=False)
        assert load_tree(tmp_path / "t", marker_aware=False) == tree

    def test_round_trip_with_markers(self, tmp_path):
        for seed in range(25):
            stack = stackgen.random_stack(seed)
            target = tmp_path / f"u{seed}"
            store_tree(stack.upper, target, marker_aware=True)
            assert load_tree(target, marker_aware=True) == stack.upper, seed

    def test_plain_store_rejects_markers(self, tmp_path):
        stack = stackgen.build_tree({"x": Whiteout()})
        with pytest.raises(ValueError):
            store_tree(stack, tmp_path / "t", marker_aware=False)

    def test_tree_bytes(self, tmp_path):
        store_tree(stackgen.build_tree({"a": b"12345", "d": {"b": b"67"}}), tmp_path / "t")
        assert tree_bytes(tmp_path / "t") == 7
        assert tree_bytes(tmp_path / "missing") == 0


class TestViewAgainstModel:
    def test_resolution_equivalence_on_seeded_stacks(self, tmp_path):
        for seed in range(40):
            stack = stackgen.random_stack(seed, node_budget=40)
            lower = tmp_path / f"l{seed}"
            upper = tmp_path / f"u{seed}"
            view = materialize(stack, lower, upper)
            check_view_resolves_as_model(view, stack, seed)

    def test_listing_equivalence(self, tmp_path):
        for seed in range(25):
            stack = stackgen.random_stack(seed, node_budget=40)
            view = materialize(stack, tmp_path / f"l{seed}", tmp_path / f"u{seed}")
            check_view_lists_as_model(view, stack, seed)

    def test_random_op_sequences_stay_equivalent(self, tmp_path):
        rng = random.Random(1234)
        for seed in range(15):
            stack = stackgen.random_stack(seed, node_budget=30)
            lower = tmp_path / f"l{seed}"
            upper = tmp_path / f"u{seed}"
            view = materialize(stack, lower, upper)
            lower_before = load_tree(lower, marker_aware=False)
            stack = run_random_ops(view, stack, rng)
            assert load_tree(upper, marker_aware=True) == stack.upper, seed
            assert load_tree(lower, marker_aware=False) == lower_before, seed

    def test_write_lands_in_upper_only(self, layers):
        lower, upper = layers
        (lower / "lib").mkdir()
        (lower / "lib" / "libc.so").write_bytes(b"glibc 2.31")
        view = DiskOverlay([lower], upper)
        view.write_file("/lib/libc.so", b"glibc 2.35")
        assert (upper / "lib" / "libc.so").read_bytes() == b"glibc 2.35"
        assert (lower / "lib" / "libc.so").read_bytes() == b"glibc 2.31"
        assert view.read_file("/lib/libc.so") == b"glibc 2.35"

    def test_lower_update_visible_immediately(self, layers):
        lower, upper = layers
        (lower / "bin").mkdir()
        (lower / "bin" / "python").write_bytes(b"2.7")
        view = DiskOverlay([lower], upper)
        assert view.read_file("/bin/python") == b"2.7"
        (lower / "bin" / "python").write_bytes(b"3.0")
        assert view.read_file("/bin/python") == b"3.0"

    def test_customized_file_keeps_priority_over_lower_update(self, layers):
        lower, upper = layers
        (lower / "bin").mkdir()
        (lower / "bin" / "python").write_bytes(b"2.7")
        view = DiskOverlay([lower], upper)
        view.write_file("/bin/python", b"3.5")
        (lower / "bin" / "python").write_bytes(b"3.0")
        assert view.read_file("/bin/python") == b"3.5"
        assert view.resolve("/bin/python").outcome is ResolutionKind.FOUND_UPPER

    def test_remove_places_marker(self, layers):
        lower, upper = layers
        (lower / "etc").mkdir()
        (lower / "etc" / "motd").write_bytes(b"hi")
        view = DiskOverlay([lower], upper)
        view.remove("/etc/motd")
        assert (upper / "etc" / ".wh.motd").exists()
        assert view.resolve("/etc/motd").outcome is ResolutionKind.HIDDEN
        assert (lower / "etc" / "motd").exists()

    def test_remove_nonempty_requires_recursive(self, layers):
        lower, upper = layers
        (lower / "d").mkdir()
        (lower / "d" / "f").write_bytes(b"x")
        view = DiskOverlay([lower], upper)
        with pytest.raises(DirectoryNotEmpty):
            view.remove("/d")
        view.remove("/d", recursive=True)
        assert view.resolve("/d").outcome is ResolutionKind.HIDDEN

    def test_reserved_names_rejected(self, layers):
        lower, upper = layers
        view = DiskOverlay([lower], upper)
        with pytest.raises(ReservedName):
            view.write_file("/.wh.trick", b"x")


class TestPathForUpdate:
    def test_copy_up_then_in_place(self, layers):
        lower, upper = layers
        (lower / "data").mkdir()
        (lower / "data" / "blob").write_bytes(b"\x00" * 4096)
        view = DiskOverlay([lower], upper)
        real = view.path_for_update("/data/blob")
        assert real == upper / "data" / "blob"
        assert real.read_bytes() == b"\x00" * 4096
        with open(real, "r+b") as fh:
            fh.write(b"\xff")
        assert view.read_file("/data/blob")[:1] == b"\xff"
        assert (lower / "data" / "blob").read_bytes() == b"\x00" * 4096

    def test_second_call_is_cached(self, layers):
        lower, upper = layers
        (lower / "f").write_bytes(b"abc")
        view = DiskOverlay([lower], upper)
        first = view.path_for_update("/f")
        assert view.path_for_update("/f") == first


class TestMasks:
    def test_empty_mask_hides_subtree(self, layers):
        lower, upper = layers
        (lower / "var").mkdir()
        (lower / "var" / "secret").write_bytes(b"s")
        view = DiskOverlay([lower], upper, masks=[("/var", "empty")])
        assert view.list_dir("/var") == []
        assert view.resolve("/var/secret").outcome is ResolutionKind.ABSENT
        with pytest.raises(ReadOnlyView):
            view.write_file("/var/new", b"x")

    def test_ro_mask_allows_reads(self, layers):
        lower, upper = layers
        (lower / "etc").mkdir()
        (lower / "etc" / "conf").write_bytes(b"c")
        view = DiskOverlay([lower], upper, masks=[("/etc", "ro")])
        assert view.read_file("/etc/conf") == b"c"
        with pytest.raises(ReadOnlyView):
            view.write_file("/etc/conf", b"d")
        with pytest.raises(ReadOnlyView):
            view.remove("/etc/conf")

    def test_mask_covers_its_path_and_below_only(self, layers):
        lower, upper = layers
        view = DiskOverlay([lower], upper, masks=[("/a", "ro")])
        assert view._mask_at("/a") == ("/a", "ro")
        assert view._mask_at("/a/b") == ("/a", "ro")
        assert view._mask_at("/ab") is None
        assert view._mask_at("/") is None

    def test_root_mask_covers_everything(self, layers):
        lower, upper = layers
        view = DiskOverlay([lower], upper, masks=[("/", "ro")])
        for path in ("/", "/a", "/ab", "/x/y/z"):
            assert view._mask_at(path) == ("/", "ro"), path
        with pytest.raises(ReadOnlyView):
            view.write_file("/ab", b"x")

    def test_deepest_mask_wins(self, layers):
        lower, upper = layers
        view = DiskOverlay([lower], upper, masks=[("/a/b", "empty"), ("/", "ro"), ("/a", "ro")])
        assert view._mask_at("/a/b/c") == ("/a/b", "empty")
        assert view._mask_at("/a/bc") == ("/a", "ro")
        assert view._mask_at("/b") == ("/", "ro")

    def test_read_only_view(self, layers):
        lower, upper = layers
        (lower / "f").write_bytes(b"x")
        view = DiskOverlay([lower], upper, masks=[("/", "ro")])
        assert view.read_file("/f") == b"x"
        with pytest.raises(ReadOnlyView):
            view.write_file("/f", b"y")


class TestThreeLayerViewAgainstModel:
    def test_resolution_equivalence_on_seeded_stacks(self, tmp_path):
        for seed in range(40):
            stack = stackgen.random_stack3(seed, node_budget=40)
            view = materialize3(stack, tmp_path / str(seed))
            check_view_resolves_as_model(view, stack, seed)

    def test_listing_equivalence(self, tmp_path):
        for seed in range(25):
            stack = stackgen.random_stack3(seed, node_budget=40)
            view = materialize3(stack, tmp_path / str(seed))
            check_view_lists_as_model(view, stack, seed)

    def test_random_op_sequences_stay_equivalent(self, tmp_path):
        rng = random.Random(4321)
        for seed in range(15):
            stack = stackgen.random_stack3(seed, node_budget=30)
            root = tmp_path / str(seed)
            view = materialize3(stack, root)
            stack = run_random_ops(view, stack, rng)
            assert load_tree(root / "scratch", marker_aware=True) == stack.upper, seed
            assert load_tree(root / "shared", marker_aware=True) == stack.middle[0], seed
            assert load_tree(root / "base", marker_aware=False) == stack.lower, seed
            check_view_resolves_as_model(view, stack, seed)


class TestReadPathBuildsNoTrees:
    """Reads walk the lazy layer directories: no slices, no trees, no folds."""

    @pytest.mark.parametrize("depth", [2, 3])
    def test_resolve_read_and_list(self, tmp_path, monkeypatch, depth):
        if depth == 3:
            stack = stackgen.random_stack3(5, node_budget=40)
            view = materialize3(stack, tmp_path)
        else:
            stack = stackgen.random_stack(5, node_budget=40)
            view = materialize(stack, tmp_path / "l", tmp_path / "u")
        paths = stackgen.probe_paths(stack)

        def forbidden(*args, **kwargs):
            raise AssertionError("tree built on the read path")

        monkeypatch.setattr(LayerTree, "set", forbidden)
        monkeypatch.setattr(LayerTree, "delete", forbidden)
        monkeypatch.setattr(model, "flatten", forbidden)
        monkeypatch.setattr(model, "_check_plain", forbidden)
        monkeypatch.setattr(diskfs._LayerEntries, "__eq__", forbidden)
        listed = read = 0
        for path in ["/", *paths]:
            res = view.resolve(path)
            if isinstance(res.node, RegularFile):
                assert view.read_file(path) == res.node.content
                read += 1
            elif isinstance(res.node, Directory):
                view.list_dir(path)
                listed += 1
        assert listed > 1 and read > 1

    def test_uncached_read_splits_once_and_builds_no_path(self, layers, monkeypatch):
        lower, upper = layers
        (lower / "d").mkdir()
        (lower / "d" / "low").write_bytes(b"l")
        (lower / "d" / "gone").write_bytes(b"g")
        (upper / "d").mkdir()
        (upper / "d" / "up").write_bytes(b"u")
        (upper / "d" / ".wh.gone").touch()
        view = DiskOverlay([lower], upper, masks=[("/m", "empty"), ("/", "ro")])
        splits = []
        split_path = model.split_path

        def counted(path):
            splits.append(path)
            return split_path(path)

        def forbidden(*args, **kwargs):
            raise AssertionError("Path built on the read path")

        monkeypatch.setattr(model, "split_path", counted)
        monkeypatch.setattr(diskfs, "Path", forbidden)
        assert view.read_file("/d/low") == b"l"
        assert view.read_file("/d/up") == b"u"
        assert splits == ["/d/low", "/d/up"]
        with pytest.raises(HiddenPath):
            view.read_file("/d/gone")
        with pytest.raises(AbsentPath):
            view.read_file("/m/x")
        with pytest.raises(NotADirectory):
            view.read_file("/d")
        with pytest.raises(MalformedPath):
            view.read_file("/d/")


class TestWritePathBuildsNoTrees:
    """Writes apply the model's planned edits: no slices, no trees, no diff."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_write_remove_and_copy_up(self, tmp_path, monkeypatch, n):
        if n == 3:
            stack = stackgen.random_stack3(11, node_budget=40)
            view = materialize3(stack, tmp_path)
        else:
            stack = stackgen.random_stack(11, node_budget=40)
            view = materialize(stack, tmp_path / "l", tmp_path / "u")
        rng = random.Random(n)
        ops = []
        whiteouts = []  # paths a remove whited out, for writes to land on
        copy_ups = over_whiteouts = 0
        for _ in range(60):
            kind = rng.choice(["write", "update", "remove", "remove -r"])
            if kind == "update":
                files = {p: k[1] for p, k in oracle.visible_paths(stack).items() if k[0] == "file"}
                path = rng.choice(sorted(files))
            elif kind == "write" and whiteouts and rng.random() < 0.5:
                path = whiteouts.pop()
            else:
                path = rng.choice(stackgen.probe_paths(stack))
            try:
                if kind == "write":
                    over_whiteouts += isinstance(stack.upper.get(path), Whiteout)
                    stack = model.write_file(stack, path, b"new")
                elif kind == "update":  # a copy-up, unless the file is in the upper
                    copy_ups += model.resolve(stack, path).outcome is ResolutionKind.FOUND_LOWER
                    stack = model.write_file(stack, path, files[path])
                else:
                    stack = model.remove(stack, path, recursive=kind == "remove -r")
                    whiteouts += [path] * isinstance(stack.upper.get(path), Whiteout)
            except CueError:
                continue
            ops.append((kind, path))
        assert {kind for kind, _ in ops} == {"write", "update", "remove", "remove -r"}
        assert copy_ups and over_whiteouts

        def forbidden(*args, **kwargs):
            raise AssertionError("tree built on the write path")

        for owner, name in [
            (LayerTree, "set"), (LayerTree, "delete"), (model, "write_file"),
            (model, "remove"), (model, "flatten"), (model, "_check_plain"),
        ]:
            monkeypatch.setattr(owner, name, forbidden)
        for kind, path in ops:
            view = DiskOverlay(view.lowers, view.upper)  # every op uncached
            if kind == "write":
                view.write_file(path, b"new")
            elif kind == "update":
                view.path_for_update(path)
            else:
                view.remove(path, recursive=kind == "remove -r")
        monkeypatch.undo()
        assert load_tree(view.upper, marker_aware=True) == stack.upper
        # and no stale marker is left behind
        store_tree(stack.upper, tmp_path / "want")
        assert entries_under(view.upper) == entries_under(tmp_path / "want")

    def test_lstat_bound_at_depth_4(self, layers, monkeypatch):
        lower, upper = layers
        for top in ("a", "x"):
            (lower / top / "b" / "c").mkdir(parents=True)
            for name in ("f", "g"):
                (lower / top / "b" / "c" / name).write_bytes(b"x" * 16)
        calls = []
        lstat = os.lstat

        def counted(path, *args, **kwargs):
            calls.append(path)
            return lstat(path, *args, **kwargs)

        monkeypatch.setattr(os, "lstat", counted)
        # at most 14 lstats, what the tree-diffing write path made; the first
        # op under each chain copies its directories up, the second finds them
        ops = [("write", "/a/b/c/f"), ("write", "/a/b/c/g"), ("remove", "/x/b/c/f"), ("remove", "/x/b/c/g")]
        for op, path in ops:
            view = DiskOverlay([lower], upper)
            calls.clear()
            if op == "write":
                view.write_file(path, b"y" * 16)
            else:
                view.remove(path)
            assert len(calls) <= 14, (op, path, calls)
        monkeypatch.undo()
        assert (upper / "a" / "b" / "c" / "g").read_bytes() == b"y" * 16
        assert (upper / "x" / "b" / "c" / ".wh.g").exists()


class TestThreeLayerFold:
    def test_mid_layer_markers_honored(self, tmp_path):
        bottom = tmp_path / "node-root"
        mid = tmp_path / "shared-upper"
        top = tmp_path / "scratch"
        for d in (bottom, mid, top):
            d.mkdir()
        (bottom / "etc").mkdir()
        (bottom / "etc" / "motd").write_bytes(b"node")
        (bottom / "etc" / "gone").write_bytes(b"old")
        (mid / "etc").mkdir()
        (mid / "etc" / "motd").write_bytes(b"custom")
        (mid / "etc" / ".wh.gone").touch()
        view = DiskOverlay([bottom, mid], top)
        assert view.read_file("/etc/motd") == b"custom"
        assert not view.resolve("/etc/gone").found
        # writes land in the scratch top, never in the shared mid layer
        view.write_file("/etc/motd", b"job-local")
        assert (top / "etc" / "motd").read_bytes() == b"job-local"
        assert (mid / "etc" / "motd").read_bytes() == b"custom"
        assert [n for n, _ in view.list_dir("/etc")] == ["motd"]

    def test_base_path_whited_out_in_middle_is_hidden(self, tmp_path):
        bottom, mid, top = (tmp_path / n for n in ("node-root", "shared-upper", "scratch"))
        for d in (bottom / "etc", mid / "etc", top):
            d.mkdir(parents=True)
        (bottom / "etc" / "gone").write_bytes(b"old")
        (mid / "etc" / ".wh.gone").touch()
        view = DiskOverlay([bottom, mid], top)
        assert view.resolve("/etc/gone").outcome is ResolutionKind.HIDDEN
        with pytest.raises(HiddenPath):
            view.read_file("/etc/gone")
        assert view.list_dir("/etc") == []

    def test_middle_opaque_dir_hides_base_children(self, tmp_path):
        bottom, mid, top = (tmp_path / n for n in ("node-root", "shared-upper", "scratch"))
        for d in (bottom / "opt" / "tool", mid / "opt", top):
            d.mkdir(parents=True)
        (bottom / "opt" / "base").write_bytes(b"b")
        (bottom / "opt" / "tool" / "bin").write_bytes(b"x")
        (mid / "opt" / ".wh..wh..opq").touch()
        (mid / "opt" / "mine").write_bytes(b"m")
        view = DiskOverlay([bottom, mid], top)
        assert view.resolve("/opt/base").outcome is ResolutionKind.HIDDEN
        assert view.resolve("/opt/tool/bin").outcome is ResolutionKind.HIDDEN
        assert view.list_dir("/opt") == [("mine", Origin.LOWER)]
        assert view.read_file("/opt/mine") == b"m"


class TestUpperFileRemovedOutsideView:
    """A view's path-cached upper file that is removed behind its back (as
    `cue commit` does when it clears the upper) is looked up again."""

    def test_read_resolve_write_and_paths_fall_through(self, layers):
        lower, upper = layers
        (lower / "d").mkdir()
        (lower / "f").write_bytes(b"lower")
        (lower / "d" / "g").write_bytes(b"lower g")
        view = DiskOverlay([lower], upper)
        fresh = lambda: DiskOverlay([lower], upper)

        view.write_file("/f", b"mine")
        (upper / "f").unlink()
        assert view.read_file("/f") == fresh().read_file("/f") == b"lower"

        view.write_file("/f", b"mine")
        (upper / "f").unlink()
        res = view.resolve("/f")
        assert (res.outcome, res.node, res.layer) == (ResolutionKind.FOUND_LOWER, RegularFile(b"lower"), 0)

        view.write_file("/f", b"mine")
        (upper / "f").unlink()
        assert view.real_path("/f") == lower / "f"

        view.write_file("/d/g", b"mine")
        shutil.rmtree(upper / "d")  # the copied-up parent goes too
        assert view.path_for_update("/d/g") == upper / "d" / "g"
        assert (upper / "d" / "g").read_bytes() == b"lower g"

        shutil.rmtree(upper / "d")
        view.write_file("/d/g", b"again")
        assert (upper / "d" / "g").read_bytes() == b"again"
        assert fresh().read_file("/d/g") == b"again"

    def test_write_never_goes_through_a_symlink_put_there(self, layers, tmp_path):
        lower, upper = layers
        outside = tmp_path / "outside"
        outside.write_bytes(b"not yours")
        view = DiskOverlay([lower], upper)
        view.write_file("/x", b"mine")
        (upper / "x").unlink()
        (upper / "x").symlink_to(outside)
        view.write_file("/x", b"again")
        assert outside.read_bytes() == b"not yours"
        assert not (upper / "x").is_symlink() and (upper / "x").read_bytes() == b"again"
        assert DiskOverlay([lower], upper).read_file("/x") == b"again"


def uncached(call):
    """call() with every lookup read from disk, the entry cache and its memo
    of lookups through lower stacks bypassed."""
    cache = diskfs._CACHE
    cache.of = lambda key: None
    memo, cache.memo = cache.memo, {}
    try:
        return call()
    finally:
        del cache.of
        cache.memo = memo


def disk_layers(roots):
    return uncached(lambda: [load_tree(r, marker_aware=i > 0).root for i, r in enumerate(roots)])


def outcome(call):
    try:
        return call()
    except (CueError, OSError) as err:
        return type(err).__name__


def view_sees(view: DiskOverlay, paths) -> dict:
    """What resolve, read_file and list_dir show at each path."""
    seen = {}
    for path in paths:
        res = outcome(lambda: view.resolve(path))
        if isinstance(res, str):
            seen[path] = res
            continue
        kind = oracle.kind_of(res.node) if res.found else None
        read = None if isinstance(res.node, Symlink) else outcome(lambda: view.read_file(path))
        seen[path] = (res.outcome, res.layer, kind, read, outcome(lambda: view.list_dir(path)))
    return seen


def model_sees(layers, paths) -> dict:
    """What model.lookup and model.merged_listing decide over layer trees."""
    seen = {}
    for path in paths:
        res = model.lookup(layers, path)
        kind = oracle.kind_of(res.node) if res.found else None
        if isinstance(res.node, Symlink):
            read = None
        elif isinstance(res.node, RegularFile):
            read = res.node.content
        elif isinstance(res.node, Directory):
            read = "NotADirectory"
        else:
            read = "HiddenPath" if res.outcome is ResolutionKind.HIDDEN else "AbsentPath"
        seen[path] = (res.outcome, res.layer, kind, read, outcome(lambda: model.merged_listing(layers, path)))
    return seen


def tree_paths(root) -> list[str]:
    """"/" and every path under a layer directory, markers included."""
    return ["/", *("/" + str(p.relative_to(root)) for p in sorted(root.rglob("*")))]


def check_coherent(view: DiskOverlay, roots, paths) -> None:
    """The cached view shows what a fresh uncached view and the model over
    load_tree of the layers show."""
    paths = sorted({p for p in paths if "/.wh." not in p})
    got = view_sees(view, paths)
    assert got == uncached(lambda: view_sees(DiskOverlay(roots[:-1], roots[-1]), paths))
    try:
        layers = disk_layers(roots)
    except PermissionError:
        return  # a chmod 000 directory (run unprivileged): nothing to load
    assert got == model_sees(layers, paths)


def _pick(rng, layer, kind):
    """A random entry of one kind (dir, subdir, file, marker, opaque) under a
    layer directory, or None."""
    found = []
    for dirpath, dirnames, filenames in os.walk(layer):
        here = [os.path.join(dirpath, n) for n in dirnames + filenames]
        if kind in ("dir", "subdir"):
            found += [dirpath] * (kind == "dir" or dirpath != str(layer))
        elif kind == "file":
            found += [p for p in here if os.path.isfile(p) and not os.path.basename(p).startswith(".wh.")]
        elif kind == "marker":
            found += [p for p in here if os.path.basename(p).startswith(".wh.") and not p.endswith(".wh..wh..opq")]
        else:
            found += [p for p in here if p.endswith(".wh..wh..opq")]
    return rng.choice(sorted(found)) if found else None


def _fresh_name(rng, where: str) -> str:
    return os.path.join(where, rng.choice(stackgen.NAMES) + str(rng.randrange(100)))


def _touch(path: str, data: bytes = b"") -> None:
    with open(path, "wb") as fh:
        fh.write(data)


# Changes a second writer makes to one layer directory.  Each returns None
# when the layer holds nothing to apply it to; _chmod_000 returns the
# directory to give its mode back to.

def _create(layer, rng):
    _touch(_fresh_name(rng, _pick(rng, layer, "dir")), b"created")
    return True


def _unlink(layer, rng):
    if f := _pick(rng, layer, "file"):
        os.unlink(f)
        return True


def _rename_file(layer, rng):
    if f := _pick(rng, layer, "file"):
        os.rename(f, _fresh_name(rng, _pick(rng, layer, "dir")))
        return True


def _mkdir(layer, rng):
    os.mkdir(_fresh_name(rng, _pick(rng, layer, "dir")))
    return True


def _rmdir(layer, rng):
    if d := _pick(rng, layer, "subdir"):
        shutil.rmtree(d)
        return True


def _rename_dir(layer, rng):
    if d := _pick(rng, layer, "subdir"):
        target = _pick(rng, layer, "dir")
        if (target + "/").startswith(d + "/"):
            target = str(layer)  # not into itself
        os.rename(d, _fresh_name(rng, target))
        return True


def _add_whiteout(layer, rng):
    _touch(os.path.join(_pick(rng, layer, "dir"), ".wh." + rng.choice(stackgen.NAMES)))
    return True


def _remove_whiteout(layer, rng):
    if m := _pick(rng, layer, "marker"):
        os.unlink(m)
        return True


def _add_opaque(layer, rng):
    if d := _pick(rng, layer, "subdir"):
        _touch(os.path.join(d, ".wh..wh..opq"))
        return True


def _remove_opaque(layer, rng):
    if m := _pick(rng, layer, "opaque"):
        os.unlink(m)
        return True


def _dir_to_file(layer, rng):
    if d := _pick(rng, layer, "subdir"):
        shutil.rmtree(d)
        _touch(d, b"was a directory")
        return True


def _root_away_and_back(layer, rng):
    away = layer.with_name(layer.name + ".away")
    layer.rename(away)
    away.rename(layer)
    return True


def _root_replaced(layer, rng):
    """The root renamed away and a changed copy put in its place."""
    away = layer.with_name(layer.name + ".away")
    layer.rename(away)
    shutil.copytree(away, layer, symlinks=True)
    shutil.rmtree(away)
    return _create(layer, rng)


def _chmod_000(layer, rng):
    if d := _pick(rng, layer, "subdir"):
        os.chmod(d, 0)
        return d


CHANGES = [
    _create, _unlink, _rename_file, _mkdir, _rmdir, _rename_dir, _add_whiteout,
    _remove_whiteout, _add_opaque, _remove_opaque, _dir_to_file, _root_away_and_back,
    _root_replaced, _chmod_000,
]


def stacked(tmp_path, depth: int, seed: int):
    """Layer directories of a seeded stack, bottom first."""
    if depth == 3:
        stack = stackgen.random_stack3(seed, node_budget=25)
    else:
        stack = stackgen.random_stack(seed, node_budget=25)
    roots = [tmp_path / f"stack{depth}-{seed}" / f"layer{i}" for i in range(depth)]
    for i, (tree, root) in enumerate(zip(stack.layers, roots)):
        store_tree(tree, root, marker_aware=i > 0)
    return roots


class TestEntryCacheCoherence:
    """Changes made to the layers outside a view show in its next lookup,
    exactly as a fresh uncached view and the model show them."""

    @pytest.mark.parametrize("depth", [2, 3])
    def test_each_change_between_two_lookups(self, tmp_path, depth):
        applied = set()
        before = diskfs.cache_counters()
        for seed in range(3):
            roots = stacked(tmp_path, depth, seed)
            view = DiskOverlay(roots[:-1], roots[-1])
            rng = random.Random(seed)
            for change in CHANGES:
                for layer in roots:
                    paths = [p for root in roots for p in tree_paths(root)]
                    check_coherent(view, roots, paths)  # and warms the cache
                    done = change(layer, rng)
                    if done is None:
                        continue
                    applied.add(change.__name__)
                    check_coherent(view, roots, paths + [p for root in roots for p in tree_paths(root)])
                    if change is _chmod_000:
                        os.chmod(done, 0o755)
                        check_coherent(view, roots, [p for root in roots for p in tree_paths(root)])
        assert applied == {change.__name__ for change in CHANGES}
        after = diskfs.cache_counters()
        assert after["hits"] > before["hits"] and after["events"] > before["events"]
        assert after["subtree_drops"] > before["subtree_drops"]

    def test_random_ops_with_a_second_writer(self, tmp_path):
        for depth in (2, 3):
            for seed in range(3):
                roots = stacked(tmp_path, depth, seed)
                view = DiskOverlay(roots[:-1], roots[-1])
                rng = random.Random(seed)
                for _ in range(25):
                    paths = [p for root in roots for p in tree_paths(root)]
                    check_coherent(view, roots, paths)
                    if rng.random() < 0.5:
                        change = rng.choice([c for c in CHANGES if c is not _chmod_000])
                        change(rng.choice(roots), rng)
                        continue
                    path = rng.choice(paths[1:] or ["/a"])
                    if "/.wh." in path:
                        continue
                    stack = uncached(lambda: LayerStack(
                        lower=load_tree(roots[0], marker_aware=False),
                        middle=tuple(load_tree(r) for r in roots[1:-1]),
                        upper=load_tree(roots[-1]),
                    ))
                    if rng.random() < 0.6:
                        op, want = (lambda: view.write_file(path, b"op")), (lambda: model.write_file(stack, path, b"op"))
                    else:
                        op, want = (lambda: view.remove(path, recursive=True)), (lambda: model.remove(stack, path, recursive=True))
                    expected = outcome(want)
                    assert outcome(op) == (expected if isinstance(expected, str) else None), (depth, seed, path)
                    if not isinstance(expected, str):
                        assert disk_layers(roots) == [layer.root for layer in expected.layers]

    def test_one_layer_through_a_symlink_and_its_real_path(self, tmp_path):
        lower, upper_a, upper_b = (tmp_path / n for n in ("lower", "upper-a", "upper-b"))
        for d in (lower / "d", upper_a, upper_b):
            d.mkdir(parents=True)
        (lower / "d" / "f").write_bytes(b"f")
        link = tmp_path / "link"
        link.symlink_to(lower)
        by_link, by_path = DiskOverlay([link], upper_a), DiskOverlay([lower], upper_b)
        for view in (by_link, by_path):
            assert view.read_file("/d/f") == b"f"
            assert view.resolve("/d/g").outcome is ResolutionKind.ABSENT
        dirs = diskfs._CACHE.dirs
        assert dirs[(f"{link}/", False)][0] == dirs[(f"{lower}/", False)][0]
        assert dirs[(f"{link}/d/", False)][0] == dirs[(f"{lower}/d/", False)][0]
        (lower / "d" / "f").unlink()
        (lower / "d" / "g").write_bytes(b"g")
        for view in (by_link, by_path):
            assert view.resolve("/d/f").outcome is ResolutionKind.ABSENT
            assert view.read_file("/d/g") == b"g"
        shutil.rmtree(lower / "d")
        (lower / "d").write_bytes(b"now a file")
        for view in (by_link, by_path):
            assert view.read_file("/d") == b"now a file"
            assert view.resolve("/d/g").outcome is ResolutionKind.ABSENT

    def test_forked_child_starts_empty_and_parent_keeps_its_events(self, layers):
        lower, upper = layers
        (lower / "f").write_bytes(b"f")
        view = DiskOverlay([lower], upper)
        assert view.read_file("/f") == b"f"
        assert diskfs._CACHE.dirs
        pid = os.fork()
        if pid == 0:  # the child reports through its exit status only
            ok = False
            try:
                ok = not diskfs._CACHE.dirs and diskfs._CACHE.fd < 0
                ok = ok and view.read_file("/f") == b"f"
                (lower / "f").unlink()
                ok = ok and view.resolve("/f").outcome is ResolutionKind.ABSENT
            finally:
                os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert view.resolve("/f").outcome is ResolutionKind.ABSENT

    @pytest.mark.parametrize("depth", [2, 3])
    def test_markers_added_and_removed(self, tmp_path, depth):
        roots = [tmp_path / f"layer{i}" for i in range(depth)]
        for root in roots:
            (root / "o").mkdir(parents=True)
        (roots[0] / "o" / "x").write_bytes(b"x")
        (roots[0] / "w").write_bytes(b"w")
        (roots[-1] / "o" / "y").write_bytes(b"y")
        view = DiskOverlay(roots[:-1], roots[-1])
        paths = ["/", "/o", "/o/x", "/o/y", "/w"]
        for layer in roots[1:]:
            for marker, hidden in ((layer / ".wh.w", "/w"), (layer / "o" / ".wh..wh..opq", "/o/x")):
                check_coherent(view, roots, paths)
                assert view.resolve(hidden).outcome is ResolutionKind.FOUND_LOWER
                marker.touch()
                check_coherent(view, roots, paths)
                assert view.resolve(hidden).outcome is ResolutionKind.HIDDEN
                marker.unlink()
                check_coherent(view, roots, paths)

    def test_unwatchable_directory_is_read_from_disk(self, layers):
        lower, upper = layers
        (lower / "d" / "sub").mkdir(parents=True)
        (lower / "d" / "sub" / "f").write_bytes(b"f")
        unwatchable = f"{lower}/d/"
        watch = diskfs._CACHE.of
        diskfs._CACHE.of = lambda key: None if key[0] == unwatchable else watch(key)
        try:
            view = DiskOverlay([lower], upper)
            assert view.read_file("/d/sub/f") == b"f"
            assert (f"{lower}/d/sub/", False) in diskfs._CACHE.dirs
            # d itself reports nothing: its parent's event for it drops the
            # subdirectory cached below it
            (lower / "d").rename(lower / "d2")
            (lower / "d" / "sub").mkdir(parents=True)
            assert view.resolve("/d/sub/f").outcome is ResolutionKind.ABSENT
        finally:
            del diskfs._CACHE.of

    def test_queue_overflow_drops_everything(self, layers):
        lower, upper = layers
        (lower / "d").mkdir()
        (lower / "d" / "f").write_bytes(b"f")
        view = DiskOverlay([lower], upper)
        assert view.resolve("/d/g").outcome is ResolutionKind.ABSENT
        overflow_queue(lower / "d")
        (lower / "d" / "f").unlink()
        (lower / "d" / "g").write_bytes(b"g")
        drops = diskfs.cache_counters()["subtree_drops"]
        assert view.resolve("/d/f").outcome is ResolutionKind.ABSENT
        assert view.read_file("/d/g") == b"g"
        assert diskfs.cache_counters()["subtree_drops"] > drops


def overflow_queue(directory) -> None:
    """Queue more inotify events than the queue holds, from one watched directory."""
    with open("/proc/sys/fs/inotify/max_queued_events") as fh:
        limit = int(fh.read())
    if limit > 65536:
        pytest.skip(f"overflowing a {limit}-event inotify queue takes too many files")
    for i in range(limit + 1):  # one event each, more than the queue holds
        (directory / f"n{i}").touch()


def node_stacks(tmp_path, seed: int):
    """The base and shared delta of a seeded node stack under two scratch
    tops, one empty: the layer directories of two node views, bottom first."""
    stack = stackgen.random_stack3(seed, node_budget=25)
    root = tmp_path / f"nodes-{seed}"
    base, shared, top_a, top_b = (root / n for n in ("base", "shared", "scratch-a", "scratch-b"))
    store_tree(stack.lower, base, marker_aware=False)
    store_tree(stack.middle[0], shared)
    store_tree(stack.upper, top_a)
    top_b.mkdir()
    return [base, shared, top_a], [base, shared, top_b]


def three_layers(tmp_path):
    roots = [tmp_path / n for n in ("lower", "middle", "upper")]
    for root in roots:
        root.mkdir()
    return roots


def memoized(roots) -> set:
    """The paths the memo holds through lower layer directories roots."""
    prefixes = tuple(os.path.join(str(r), "") for r in roots)
    return {parts for (held, parts) in diskfs._CACHE.memo if held == prefixes}


class TestLowerStackMemo:
    """Views over the same two or more lowers resolve a path their top is
    transparent along through one shared memo; every change to any layer
    still shows in their next lookup."""

    def test_each_change_through_two_node_views(self, tmp_path):
        before = diskfs.cache_counters()
        applied = set()
        for seed in range(3):
            stacks = node_stacks(tmp_path, seed)
            views = [DiskOverlay(roots[:-1], roots[-1]) for roots in stacks]
            layers = [*stacks[0], stacks[1][-1]]  # base, shared, both tops
            rng = random.Random(seed)
            for change in CHANGES:
                for layer in layers:
                    paths = [p for root in layers for p in tree_paths(root)]
                    for view, roots in zip(views, stacks):
                        check_coherent(view, roots, paths)
                    done = change(layer, rng)
                    if done is None:
                        continue
                    applied.add(change.__name__)
                    paths += [p for root in layers for p in tree_paths(root)]
                    for view, roots in zip(views, stacks):
                        check_coherent(view, roots, paths)
                    if change is _chmod_000:
                        os.chmod(done, 0o755)
                        for view, roots in zip(views, stacks):
                            check_coherent(view, roots, paths)
        assert applied == {change.__name__ for change in CHANGES}
        after = diskfs.cache_counters()
        assert after["lookup_hits"] > before["lookup_hits"]
        assert after["lookup_misses"] > before["lookup_misses"]

    def test_second_view_hits_and_one_lower_views_pass_by(self, tmp_path):
        lower, middle, upper = three_layers(tmp_path)
        (lower / "d").mkdir()
        (lower / "d" / "f").write_bytes(b"f")
        other = tmp_path / "other"
        other.mkdir()
        first = diskfs.cache_counters()
        assert DiskOverlay([lower, middle], upper).read_file("/d/f") == b"f"
        assert DiskOverlay([lower], upper).read_file("/d/f") == b"f"
        assert DiskOverlay([lower], middle).resolve("/d/g").outcome is ResolutionKind.ABSENT
        second = diskfs.cache_counters()
        if diskfs._CACHE.fd < 0:
            pytest.skip("no inotify here: nothing is memoized")
        assert memoized([lower, middle]) == {("d", "f")}
        assert DiskOverlay([lower, middle], other).read_file("/d/f") == b"f"
        third = diskfs.cache_counters()
        assert second["lookup_misses"] - first["lookup_misses"] == 1
        assert third["lookup_hits"] - second["lookup_hits"] == 1
        assert third["lookup_misses"] == second["lookup_misses"]

    def test_unwatchable_directory_is_not_memoized(self, tmp_path):
        lower, middle, upper = three_layers(tmp_path)
        (lower / "d" / "sub").mkdir(parents=True)
        (lower / "d" / "sub" / "f").write_bytes(b"f")
        (lower / "e").write_bytes(b"e")
        unwatchable = f"{lower}/d/"
        watch = diskfs._CACHE.of
        diskfs._CACHE.of = lambda key: None if key[0] == unwatchable else watch(key)
        try:
            view = DiskOverlay([lower, middle], upper)
            for _ in range(2):
                assert view.read_file("/d/sub/f") == b"f"
                assert view.resolve("/d/sub/g").outcome is ResolutionKind.ABSENT
                assert view.read_file("/e") == b"e"
            if diskfs._CACHE.fd < 0:
                pytest.skip("no inotify here: nothing is memoized")
            assert memoized([lower, middle]) == {("e",)}
            # d itself reports nothing: the lookups through it are walked again
            (lower / "d").rename(lower / "d2")
            (lower / "d" / "sub").mkdir(parents=True)
            assert view.resolve("/d/sub/f").outcome is ResolutionKind.ABSENT
        finally:
            del diskfs._CACHE.of

    def test_a_dropped_subtree_stales_the_roots_below_it(self, tmp_path):
        lower, middle, upper = three_layers(tmp_path)
        view = DiskOverlay([lower, middle], upper)
        assert view.resolve("/g").outcome is ResolutionKind.ABSENT
        if diskfs._CACHE.fd < 0:
            pytest.skip("no inotify here: nothing is memoized")
        assert memoized([lower, middle]) == {("g",)}
        # as drain() does for an event naming tmp_path in its parent: the
        # layers' watches go, so no event tells of the next change
        diskfs._CACHE._drop((os.path.join(str(tmp_path), ""),))
        (lower / "g").write_bytes(b"g")
        assert view.read_file("/g") == b"g"

    def test_queue_overflow_drops_the_memo(self, tmp_path):
        lower, middle, upper = three_layers(tmp_path)
        (lower / "d").mkdir()
        (lower / "d" / "f").write_bytes(b"f")
        view = DiskOverlay([lower, middle], upper)
        assert view.read_file("/d/f") == b"f"
        if diskfs._CACHE.fd < 0:
            pytest.skip("no inotify here: nothing is memoized")
        overflow_queue(middle)
        diskfs._CACHE.drain()
        assert not diskfs._CACHE.memo and diskfs._CACHE.memo_roots == ()
        (lower / "d" / "f").write_bytes(b"g")
        assert view.read_file("/d/f") == b"g"

    def test_forked_child_starts_with_an_empty_memo(self, tmp_path):
        lower, middle, upper = three_layers(tmp_path)
        (lower / "f").write_bytes(b"f")
        view = DiskOverlay([lower, middle], upper)
        assert view.read_file("/f") == b"f"
        if diskfs._CACHE.fd < 0:
            pytest.skip("no inotify here: nothing is memoized")
        assert memoized([lower, middle]) == {("f",)}
        pid = os.fork()
        if pid == 0:  # the child reports through its exit status only
            ok = False
            try:
                ok = not diskfs._CACHE.memo and diskfs._CACHE.memo_roots == ()
                ok = ok and view.read_file("/f") == b"f"
                (lower / "f").unlink()
                ok = ok and view.resolve("/f").outcome is ResolutionKind.ABSENT
            finally:
                os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert view.resolve("/f").outcome is ResolutionKind.ABSENT

    def test_the_memo_is_bounded(self, tmp_path, monkeypatch):
        lower, middle, upper = three_layers(tmp_path)
        other = tmp_path / "other"
        other.mkdir()
        for i in range(10):
            (lower / f"f{i}").write_bytes(b"f")
        monkeypatch.setattr(diskfs, "_MEMO_MAX", 4)
        diskfs._CACHE._forget_memo()  # earlier tests' entries would count toward the bound
        assert DiskOverlay([lower, middle], upper).read_file("/f0") == b"f"
        view = DiskOverlay([lower, other], upper)
        for i in range(10):
            assert view.read_file(f"/f{i}") == b"f"
        if diskfs._CACHE.fd < 0:
            pytest.skip("no inotify here: nothing is memoized")
        cache = diskfs._CACHE
        # full at f3 and at f7: each time the whole memo was forgotten, middle's entry too
        assert memoized([lower, other]) == {("f7",), ("f8",), ("f9",)} and len(cache.memo) == 3
        prefixes = [os.path.join(str(root), "") for root in (lower, other)]
        assert sorted(cache.memo_roots) == sorted(prefixes)
        (lower / "f9").unlink()
        (lower / "f0").write_bytes(b"g")
        check_coherent(view, [lower, other, upper], [f"/f{i}" for i in range(10)])

    def test_a_change_under_one_upper_forgets_every_stack(self, tmp_path):
        base, alice, bob = (tmp_path / name for name in ("base", "alice", "bob"))
        (base / "d").mkdir(parents=True)
        (base / "d" / "f").write_bytes(b"base")
        (alice / "d").mkdir(parents=True)
        bob.mkdir()
        stacks = [[base, alice, tmp_path / "scratch-a"], [base, bob, tmp_path / "scratch-b"]]
        for roots in stacks:
            roots[-1].mkdir()
        views = [DiskOverlay(roots[:-1], roots[-1]) for roots in stacks]
        paths = ["/d", "/d/f", "/d/g", "/g"]
        for view, roots in zip(views, stacks):
            check_coherent(view, roots, paths)
        if diskfs._CACHE.fd < 0:
            pytest.skip("no inotify here: nothing is memoized")
        assert memoized([base, alice]) and memoized([base, bob])
        (alice / "d" / "g").write_bytes(b"alice")
        diskfs._CACHE.drain()
        assert not memoized([base, alice]) and not memoized([base, bob])
        for view, roots in zip(views, stacks):
            check_coherent(view, roots, paths)
        assert views[0].read_file("/d/g") == b"alice"
        assert views[1].resolve("/d/g").outcome is ResolutionKind.ABSENT


class TestPayloadReads:
    def test_short_reads_are_read_to_the_end(self, layers, monkeypatch):
        lower, upper = layers
        data = bytes(range(256)) * 40
        (lower / "f").write_bytes(data)
        view = DiskOverlay([lower], upper)
        view.write_file("/w", data)
        read, inotify = os.read, diskfs._CACHE.fd
        monkeypatch.setattr(os, "read", lambda fd, n: read(fd, n if fd == inotify else min(n, 1000)))
        assert view.read_file("/f") == data  # looked up
        assert view.read_file("/w") == data  # the view's own upper file
        assert view.resolve("/f").node == RegularFile(data)
        assert load_tree(upper).root.children["w"] == RegularFile(data)
        (upper / "w").unlink()
        (upper / "w").mkdir()  # os.open takes a directory; the read refuses it
        with pytest.raises(NotADirectory):
            view.read_file("/w")


class TestListingCache:
    """A listed layer directory answers listings, opaque flags and lookups of
    names it lacks from memory, and any change to it drops the whole listing."""

    @pytest.mark.parametrize("depth", [2, 3])
    def test_each_change_after_a_listing(self, tmp_path, depth):
        before = diskfs.cache_counters()
        for seed in range(3):
            roots = stacked(tmp_path, depth, seed)
            view = DiskOverlay(roots[:-1], roots[-1])
            rng = random.Random(seed)
            for layer in roots:
                where = _pick(rng, layer, "dir")
                made = [
                    os.path.join(where, rng.choice(stackgen.NAMES) + "-new"),
                    os.path.join(where, rng.choice(stackgen.NAMES) + "-newdir"),
                    os.path.join(where, ".wh." + rng.choice(stackgen.NAMES)),
                    os.path.join(where, ".wh..wh..opq"),
                ]
                for path in made:  # each made after a listing, then each removed
                    check_coherent(view, roots, [p for root in roots for p in tree_paths(root)])
                    if os.path.lexists(path):
                        continue
                    if path.endswith("-newdir"):
                        os.mkdir(path)
                        _touch(os.path.join(path, "inside"), b"inside")
                    else:
                        _touch(path, b"made")
                for path in made:
                    check_coherent(view, roots, [p for root in roots for p in tree_paths(root)])
                    if os.path.isdir(path):
                        shutil.rmtree(path)
                    elif os.path.lexists(path):
                        os.unlink(path)
                check_coherent(view, roots, [p for root in roots for p in tree_paths(root)])
        after = diskfs.cache_counters()
        assert after["listing_hits"] > before["listing_hits"]
        assert after["listing_misses"] > before["listing_misses"]

    def listed(self, layers):
        lower, upper = layers
        (lower / "d").mkdir()
        for i in range(20):
            (lower / "d" / f"f{i}").write_bytes(b"f")
        (upper / "d").mkdir()
        (upper / "d" / "mine").write_bytes(b"m")
        (upper / "d" / ".wh.f0").touch()
        view = DiskOverlay([lower], upper)
        assert [name for name, _ in view.list_dir("/d")] == sorted([f"f{i}" for i in range(1, 20)] + ["mine"])
        return view, [diskfs._CACHE.dirs[f"{lower}/d/", False][1], diskfs._CACHE.dirs[f"{upper}/d/", True][1]]

    def test_missing_names_cost_no_lstat_and_no_entry(self, layers, monkeypatch):
        view, cached = self.listed(layers)
        if diskfs._CACHE.fd < 0:
            pytest.skip("no inotify: nothing is cached")
        sizes = [len(d) for d in cached]
        lstats, lstat = [], os.lstat
        monkeypatch.setattr(os, "lstat", lambda path, *a, **k: lstats.append(path) or lstat(path, *a, **k))
        hits, misses = diskfs.cache_counters()["hits"], diskfs.cache_counters()["misses"]
        for i in range(50):
            assert view.resolve(f"/d/missing{i}").outcome is ResolutionKind.ABSENT
        assert view.resolve("/d/f0").outcome is ResolutionKind.HIDDEN
        assert view.list_dir("/d")[-1] == ("mine", Origin.UPPER)
        monkeypatch.undo()
        assert lstats == []
        assert [len(d) for d in cached] == sizes
        assert diskfs.cache_counters()["misses"] == misses
        assert diskfs.cache_counters()["hits"] > hits

    def test_an_event_drops_the_whole_listing(self, layers):
        view, cached = self.listed(layers)
        if diskfs._CACHE.fd < 0:
            pytest.skip("no inotify: nothing is cached")
        lower, upper = layers
        (lower / "d" / "late").write_bytes(b"late")
        assert view.read_file("/d/late") == b"late"
        assert dict(cached[0]) == {"late": diskfs._FILE}  # only what the read looked up again
        assert "mine" in cached[1]  # the upper's listing is untouched
        (upper / "d" / ".wh.late").touch()
        assert view.resolve("/d/late").outcome is ResolutionKind.HIDDEN
        assert "mine" not in cached[1]
        assert [name for name, _ in view.list_dir("/d")] == sorted([f"f{i}" for i in range(1, 20)] + ["mine"])

    def test_unwatchable_directory_lists_from_disk(self, layers, monkeypatch):
        lower, upper = layers
        (lower / "d").mkdir()
        (lower / "d" / "f").write_bytes(b"f")
        view = DiskOverlay([lower], upper)
        assert view.resolve("/").found
        if diskfs._CACHE.fd < 0:
            pytest.skip("no inotify: nothing is cached")
        libc, refused = diskfs._CACHE.libc, os.fsencode(f"{lower}/d/")

        class Refusing:
            def __getattr__(self, name):
                return getattr(libc, name)

            def inotify_add_watch(self, fd, path, mask):
                return -1 if path == refused else libc.inotify_add_watch(fd, path, mask)

        monkeypatch.setattr(diskfs._CACHE, "libc", Refusing())
        failures = diskfs.cache_counters()["watch_failures"]
        assert view.list_dir("/d") == [("f", Origin.LOWER)]
        (lower / "d" / "g").write_bytes(b"g")
        (lower / "d" / "f").unlink()
        assert view.list_dir("/d") == [("g", Origin.LOWER)]
        assert view.resolve("/d/f").outcome is ResolutionKind.ABSENT
        assert diskfs.cache_counters()["watch_failures"] > failures
        assert (f"{lower}/d/", False) not in diskfs._CACHE.dirs


class TestNonUtf8Names:
    """Names that are not UTF-8 list in the order of their raw bytes."""

    def test_listing_matches_the_model(self, layers):
        lower, upper = layers
        raw = [b"\xff", b"a", b"\xc3\xa9", b"\xfe", b"z\x80"]
        for name in raw:
            with open(os.path.join(bytes(lower), name), "wb") as fh:
                fh.write(name)
        os.mkdir(os.path.join(bytes(upper), b"d\xfd"))
        with open(os.path.join(bytes(upper), b".wh.\xfe"), "wb"):
            pass
        view = DiskOverlay([lower], upper)
        listing = view.list_dir("/")
        assert listing == model.merged_listing(disk_layers([lower, upper]), "/")
        names = [os.fsencode(name) for name, _ in listing]
        assert names == sorted([b"\xff", b"a", b"\xc3\xa9", b"z\x80", b"d\xfd"])
        assert view.read_file("/" + os.fsdecode(b"z\x80")) == b"z\x80"
        assert view.resolve("/" + os.fsdecode(b"\xfe")).outcome is ResolutionKind.HIDDEN
