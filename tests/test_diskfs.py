"""Disk-backed layers must agree with the pure model byte for byte."""

import os
import random

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
        view = DiskOverlay([lower], upper, read_only=True)
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
