"""Unit and property tests for the pure layer-stack model."""

import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import stackgen
from cue import model
from cue.errors import (
    AbsentParent,
    AbsentPath,
    DirectoryNotEmpty,
    HiddenPath,
    IsADirectory,
    MalformedPath,
    NotADirectory,
)
from cue.model import (
    Directory,
    JournalState,
    LayerStack,
    Origin,
    RegularFile,
    ResolutionKind,
    Symlink,
    Whiteout,
    empty_tree,
)


def stack_of(lower: dict, upper: dict) -> LayerStack:
    return LayerStack(lower=stackgen.build_tree(lower), upper=stackgen.build_tree(upper))


stacks = st.integers(min_value=0, max_value=2**31).map(stackgen.random_stack)


class TestPaths:
    def test_split_root(self):
        assert model.split_path("/") == ()

    def test_split_components(self):
        assert model.split_path("/a/b.c/d") == ("a", "b.c", "d")

    @pytest.mark.parametrize(
        "bad",
        ["", "a/b", "/a/", "/a//b", "/a/./b", "/a/../b", "/a\0b", "/a\nb", None, 7],
    )
    def test_split_rejects(self, bad):
        with pytest.raises(MalformedPath):
            model.split_path(bad)

    def test_normalize(self):
        assert model.normalize("//lib/./x/") == "/lib/x"
        with pytest.raises(MalformedPath):
            model.normalize("/a/../b")


class TestResolve:
    def test_empty_upper_is_identity(self):
        s = stack_of({"bin": {"python": b"2.7"}}, {})
        res = model.resolve(s, "/bin/python")
        assert res.outcome is ResolutionKind.FOUND_LOWER
        assert res.node == RegularFile(b"2.7")

    def test_customized_version_wins(self):
        # root updated the base to 3.0, the user's customization stays 3.5
        s = stack_of({"bin": {"python": b"3.0"}}, {"bin": {"python": b"3.5"}})
        res = model.resolve(s, "/bin/python")
        assert res.outcome is ResolutionKind.FOUND_UPPER
        assert res.node == RegularFile(b"3.5")

    def test_whiteout_hides_lower(self):
        s = stack_of({"etc": {"motd": b"hello"}}, {"etc": {"motd": Whiteout()}})
        assert model.resolve(s, "/etc/motd").outcome is ResolutionKind.HIDDEN
        # matches the brute-force oracle
        assert oracle.expected_resolution(s, "/etc/motd")[0] is ResolutionKind.HIDDEN

    def test_whiteout_without_lower_is_absent(self):
        s = stack_of({}, {"etc": {"motd": Whiteout()}})
        assert model.resolve(s, "/etc/motd").outcome is ResolutionKind.ABSENT

    def test_opaque_ancestor_hides(self):
        s = stack_of(
            {"etc": {"motd": b"hello"}},
            {"etc": {"__opaque__": True, "issue": b"x"}},
        )
        assert model.resolve(s, "/etc/motd").outcome is ResolutionKind.HIDDEN
        assert model.resolve(s, "/etc/issue").outcome is ResolutionKind.FOUND_UPPER

    def test_file_shadowing_subtree_is_absent(self):
        s = stack_of({"a": {"b": b"low"}}, {"a": b"now a file"})
        assert model.resolve(s, "/a/b").outcome is ResolutionKind.ABSENT

    def test_absent(self):
        s = stack_of({"a": b"x"}, {})
        assert model.resolve(s, "/nope").outcome is ResolutionKind.ABSENT

    def test_malformed(self):
        s = stack_of({}, {})
        with pytest.raises(MalformedPath):
            model.resolve(s, "a/b")

    def test_root_resolves(self):
        s = stack_of({}, {})
        assert model.resolve(s, "/").outcome is ResolutionKind.FOUND_UPPER

    def test_symlink_is_returned_not_followed(self):
        s = stack_of({"ln": Symlink("/bin/python")}, {})
        res = model.resolve(s, "/ln")
        assert res.node == Symlink("/bin/python")


class TestWriteFile:
    def test_copy_up_of_ancestors(self):
        s = stack_of({"lib": {"libc.so": b"old"}}, {})
        s2 = model.write_file(s, "/lib/libfoo.so", b"new lib")
        assert s2.upper.get("/lib") == Directory(children={"libfoo.so": RegularFile(b"new lib")})
        assert s2.lower == s.lower
        assert model.resolve(s2, "/lib/libfoo.so").outcome is ResolutionKind.FOUND_UPPER
        # shallow copy-up: the sibling stays lower-only
        assert s2.upper.get("/lib/libc.so") is None

    def test_write_to_hidden_parent(self):
        s = stack_of({"d": {"f": b"x"}}, {"d": Whiteout()})
        with pytest.raises(AbsentParent):
            model.write_file(s, "/d/child", b"y")

    def test_write_under_file_ancestor(self):
        s = stack_of({"f": b"plain"}, {})
        with pytest.raises(NotADirectory):
            model.write_file(s, "/f/child", b"y")

    def test_write_replaces_whiteout(self):
        s = stack_of({"f": b"old"}, {"f": Whiteout()})
        s2 = model.write_file(s, "/f", b"new")
        assert model.resolve(s2, "/f").node == RegularFile(b"new")

    def test_write_over_root_rejected(self):
        with pytest.raises(IsADirectory):
            model.write_file(stack_of({}, {}), "/", b"x")

    def test_content_must_be_bytes(self):
        with pytest.raises(TypeError):
            model.write_file(stack_of({}, {}), "/f", "text")


class TestRemove:
    def test_remove_lower_only_leaves_whiteout(self):
        s = stack_of({"f": b"x"}, {})
        s2 = model.remove(s, "/f")
        assert s2.upper.get("/f") == Whiteout()
        assert model.resolve(s2, "/f").outcome is ResolutionKind.HIDDEN

    def test_remove_upper_only_deletes(self):
        s = stack_of({}, {"f": b"x"})
        s2 = model.remove(s, "/f")
        assert s2.upper.get("/f") is None
        assert model.resolve(s2, "/f").outcome is ResolutionKind.ABSENT

    def test_remove_then_write_resolves_upper(self):
        s = stack_of({"f": b"old"}, {})
        s2 = model.write_file(model.remove(s, "/f"), "/f", b"new")
        res = model.resolve(s2, "/f")
        assert res.outcome is ResolutionKind.FOUND_UPPER
        assert res.node == RegularFile(b"new")

    def test_remove_absent(self):
        with pytest.raises(AbsentPath):
            model.remove(stack_of({}, {}), "/nope")

    def test_remove_nonempty_dir_needs_recursive(self):
        s = stack_of({"d": {"f": b"x"}}, {})
        with pytest.raises(DirectoryNotEmpty):
            model.remove(s, "/d")
        s2 = model.remove(s, "/d", recursive=True)
        assert model.resolve(s2, "/d").outcome is ResolutionKind.HIDDEN
        assert model.resolve(s2, "/d/f").outcome is ResolutionKind.HIDDEN

    def test_remove_empty_dir(self):
        s = stack_of({"d": {}}, {})
        s2 = model.remove(s, "/d")
        assert model.resolve(s2, "/d").outcome is ResolutionKind.HIDDEN

    def test_remove_root_rejected(self):
        with pytest.raises(IsADirectory):
            model.remove(stack_of({}, {}), "/")


class TestListDir:
    def test_union_with_shadowing(self):
        s = stack_of({"d": {"a": b"1", "b": b"2"}}, {"d": {"b": b"2'", "c": b"3"}})
        assert model.list_dir(s, "/d") == [
            ("a", Origin.LOWER),
            ("b", Origin.UPPER),
            ("c", Origin.UPPER),
        ]

    def test_opaque_drops_lower_entries(self):
        s = stack_of({"d": {"a": b"1"}}, {"d": {"__opaque__": True, "c": b"3"}})
        assert model.list_dir(s, "/d") == [("c", Origin.UPPER)]

    def test_both_empty(self):
        s = stack_of({"d": {}}, {"d": {}})
        assert model.list_dir(s, "/d") == []

    def test_whiteout_children_omitted(self):
        s = stack_of({"d": {"a": b"1", "b": b"2"}}, {"d": {"a": Whiteout()}})
        assert model.list_dir(s, "/d") == [("b", Origin.LOWER)]

    def test_errors(self):
        s = stack_of({"f": b"x", "hid": {"c": b"y"}}, {"hid": Whiteout()})
        with pytest.raises(NotADirectory):
            model.list_dir(s, "/f")
        with pytest.raises(AbsentPath):
            model.list_dir(s, "/nope")
        with pytest.raises(HiddenPath):
            model.list_dir(s, "/hid")


class TestFlatten:
    def test_identity_on_empty_upper(self):
        lower = stackgen.build_tree({"bin": {"python": b"2.7"}, "etc": {"motd": b"m"}})
        flat = model.flatten(LayerStack(lower=lower, upper=empty_tree()))
        assert flat == lower

    def test_customization_scenario(self):
        s = stack_of({"bin": {"python": b"3.0"}}, {"bin": {"python": b"3.5"}})
        flat = model.flatten(s)
        assert flat.get("/bin/python") == RegularFile(b"3.5")

    def test_matches_oracle_on_seeded_stacks(self):
        for seed in range(300):
            s = stackgen.random_stack(seed)
            assert oracle.flatten_to_dict(model.flatten(s)) == oracle.visible_paths(s), seed


def check_resolve_against_oracle(s: LayerStack, seed: int) -> None:
    for path in stackgen.probe_paths(s):
        got = model.resolve(s, path)
        want_kind, want_payload, want_layer = oracle.expected_layer_resolution(s, path)
        assert got.outcome is want_kind, (seed, path)
        if got.found:
            assert oracle.kind_of(got.node) == want_payload, (seed, path)
            assert got.layer == want_layer, (seed, path)


def check_list_dir_against_oracle(s: LayerStack, seed: int) -> None:
    for path, kind in oracle.visible_paths(s).items():
        if kind != ("dir",):
            continue
        got = [(n, o.value) for n, o in model.list_dir(s, path)]
        assert got == oracle.expected_listing(s, path), (seed, path)


class TestOracleEquivalence:
    def test_resolve_matches_oracle_at_every_path(self):
        for seed in range(200):
            check_resolve_against_oracle(stackgen.random_stack(seed), seed)

    def test_resolve_on_flattened_singleton_agrees(self):
        for seed in range(150):
            s = stackgen.random_stack(seed)
            singleton = LayerStack(lower=model.flatten(s), upper=empty_tree())
            for path in stackgen.probe_paths(s):
                a = model.resolve(s, path)
                b = model.resolve(singleton, path)
                assert a.found == b.found, (seed, path)
                if a.found:
                    assert oracle.kind_of(a.node) == oracle.kind_of(b.node), (seed, path)

    def test_list_dir_matches_oracle(self):
        for seed in range(150):
            check_list_dir_against_oracle(stackgen.random_stack(seed), seed)


def ruled(layers, fired: list):
    """A below for lookup over layers[:-1] that applies the rule again at
    every depth, and records in fired (layers below, parts) of each call."""
    lowers = layers[:-1]

    def below(parts):
        fired.append((len(lowers), parts))
        return model.lookup(lowers, parts, ruled(lowers, fired) if len(lowers) > 1 else None)

    return below


class TestLowerStackRule:
    """Where the top layer is transparent along a path, the path resolves as
    through the layers below it, FOUND_UPPER relabelled FOUND_LOWER."""

    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_rule_matches_the_walk_and_the_oracle(self, depth):
        fired: list = []
        transparent_hidden = 0
        for seed in range(150):
            s = stackgen.random_stack_n(seed, depth)
            roots = [layer.root for layer in s.layers]
            for path in stackgen.probe_paths(s) + ["/"]:
                before = len(fired)
                got = model.lookup(roots, path, ruled(roots, fired))
                assert got == model.lookup(roots, path), (seed, path)
                want_kind, want_payload, want_layer = oracle.expected_layer_resolution(s, path)
                assert got.outcome is want_kind, (seed, path)
                if got.found:
                    assert oracle.kind_of(got.node) == want_payload and got.layer == want_layer, (seed, path)
                transparent_hidden += len(fired) > before and got.outcome is ResolutionKind.HIDDEN
        # the rule fired at every depth of the recursion, and on hidden paths
        # once a delta lies below the top
        assert {n for n, _ in fired} == set(range(1, depth))
        assert len(fired) > 1000 and (transparent_hidden or depth == 2)

    def test_below_is_asked_only_where_the_top_is_transparent(self):
        s = LayerStack(
            lower=stackgen.build_tree({"a": {"f": b"low"}, "b": {"g": b"low"}, "c": {"h": b"low"}}),
            upper=stackgen.build_tree({"a": {}, "b": {"__opaque__": True}, "c": Whiteout()}),
        )
        roots = [layer.root for layer in s.layers]
        fired: list = []
        below = ruled(roots, fired)
        assert model.lookup(roots, "/a/f", below) == model.Resolution(ResolutionKind.FOUND_LOWER, RegularFile(b"low"), 0)
        assert model.lookup(roots, "/b/g", below).outcome is ResolutionKind.HIDDEN
        assert model.lookup(roots, "/c/h", below).outcome is ResolutionKind.HIDDEN
        assert model.lookup(roots, "/a", below).outcome is ResolutionKind.FOUND_UPPER
        assert model.lookup(roots, "/", below).outcome is ResolutionKind.FOUND_UPPER
        assert model.lookup(roots, "/d", below).outcome is ResolutionKind.ABSENT
        assert fired == [(1, ("a", "f")), (1, ("d",))]


class TestThreeLayers:
    """A node view: base, a marker-carrying shared delta, a scratch top."""

    def test_resolve_matches_oracle_at_every_path(self):
        for seed in range(200):
            check_resolve_against_oracle(stackgen.random_stack3(seed), seed)

    def test_list_dir_matches_oracle(self):
        for seed in range(150):
            check_list_dir_against_oracle(stackgen.random_stack3(seed), seed)

    def test_flatten_matches_oracle(self):
        for seed in range(150):
            s = stackgen.random_stack3(seed)
            assert oracle.flatten_to_dict(model.flatten(s)) == oracle.visible_paths(s), seed

    def test_write_and_remove_match_oracle(self):
        for seed in range(60):
            s = stackgen.random_stack3(seed, node_budget=40)
            vis = oracle.visible_paths(s)
            for path in stackgen.probe_paths(s)[::3]:
                kept = {p: k for p, k in vis.items() if p != path and not p.startswith(path + "/")}
                try:
                    written = model.write_file(s, path, b"new")
                except (AbsentParent, NotADirectory):
                    assert vis.get(path.rsplit("/", 1)[0] or "/") != ("dir",), (seed, path)
                else:
                    assert written.lower == s.lower and written.middle == s.middle
                    assert oracle.flatten_to_dict(model.flatten(written)) == {**kept, path: ("file", b"new")}
                if path in vis:
                    removed = model.remove(s, path, recursive=True)
                    assert oracle.flatten_to_dict(model.flatten(removed)) == kept, (seed, path)
                    assert not model.resolve(removed, path).found

    def test_base_path_whited_out_in_middle_is_hidden(self):
        s = LayerStack(
            lower=stackgen.build_tree({"etc": {"gone": b"old", "motd": b"node"}}),
            middle=(stackgen.build_tree({"etc": {"gone": Whiteout()}}),),
            upper=stackgen.build_tree({"etc": {"motd": b"job"}}),
        )
        assert model.resolve(s, "/etc/gone").outcome is ResolutionKind.HIDDEN
        assert model.resolve(s, "/etc/motd").layer == 2
        assert model.list_dir(s, "/etc") == [("motd", Origin.UPPER)]
        with pytest.raises(HiddenPath):
            model.list_dir(s, "/etc/gone")

    def test_middle_opaque_dir_hides_base_children(self):
        s = LayerStack(
            lower=stackgen.build_tree({"opt": {"base": b"b", "tool": {"bin": b"x"}}}),
            middle=(stackgen.build_tree({"opt": {"__opaque__": True, "mine": b"m"}}),),
            upper=stackgen.build_tree({"opt": {"scratch": b"s"}}),
        )
        assert model.resolve(s, "/opt/base").outcome is ResolutionKind.HIDDEN
        assert model.resolve(s, "/opt/tool/bin").outcome is ResolutionKind.HIDDEN
        res = model.resolve(s, "/opt/mine")
        assert (res.outcome, res.layer) == (ResolutionKind.FOUND_LOWER, 1)
        assert model.list_dir(s, "/opt") == [("mine", Origin.LOWER), ("scratch", Origin.UPPER)]

    def test_middle_file_shadowing_base_dir_is_absent(self):
        s = LayerStack(
            lower=stackgen.build_tree({"a": {"b": b"low"}}),
            middle=(stackgen.build_tree({"a": b"now a file"}),),
            upper=stackgen.build_tree({}),
        )
        assert model.resolve(s, "/a/b").outcome is ResolutionKind.ABSENT

    def test_opaque_middle_root_cuts_off_base(self):
        s = LayerStack(
            lower=stackgen.build_tree({"a": b"x"}),
            middle=(stackgen.build_tree({"__opaque__": True, "b": b"y"}),),
            upper=stackgen.build_tree({}),
        )
        assert model.resolve(s, "/a").outcome is ResolutionKind.HIDDEN
        assert model.list_dir(s, "/") == [("b", Origin.LOWER)]


class TestMergeDown:
    def test_empty_upper_is_identity(self):
        lower = stackgen.build_tree({"a": b"x", "d": {"b": b"y"}})
        tree, journal = model.merge_down(LayerStack(lower=lower, upper=empty_tree()))
        assert tree == lower
        assert journal.entries == ()
        assert journal.state is JournalState.COMMITTED

    def test_update_and_whiteout_applied(self):
        s = stack_of(
            {"bin": {"python": b"2.7"}, "etc": {"old.conf": b"stale"}},
            {"bin": {"python": b"3.5"}, "etc": {"old.conf": Whiteout()}},
        )
        tree, journal = model.merge_down(s)
        assert tree.get("/bin/python") == RegularFile(b"3.5")
        assert tree.get("/etc/old.conf") is None
        assert journal.entries == (
            (("bin", "python"), RegularFile(b"3.5")),
            (("etc", "old.conf"), None),
        )

    def test_merge_equals_flatten_on_seeded_stacks(self):
        for seed in range(300):
            s = stackgen.random_stack(seed)
            tree, journal = model.merge_down(s)
            assert tree == model.flatten(s), seed
            assert journal.state is JournalState.COMMITTED

    def test_journal_replay_reproduces_flatten(self):
        for seed in range(200):
            s = stackgen.random_stack(seed)
            entries = model.stage_merge(s.lower.root, s.upper.root)
            replayed = model.apply_journal(s.lower, entries)
            assert replayed == model.flatten(s), seed
            # replaying over the merged tree, or over any partly merged
            # one, lands on the same tree
            assert model.apply_journal(replayed, entries) == replayed, seed
            half = model.apply_journal(s.lower, entries[: len(entries) // 2])
            assert model.apply_journal(half, entries) == replayed, seed

    def test_kind_changes_are_one_edit_each(self):
        s = stack_of(
            {"f": {"old": b"o"}, "d": b"file", "o": b"file", "w": {"x": b"x"}},
            {"f": b"now a file", "d": {"n": b"n"}, "o": {"__opaque__": True, "m": b"m"}, "w": Whiteout()},
        )
        assert model.stage_merge(s.lower.root, s.upper.root) == [
            (("d",), Directory()),
            (("d", "n"), RegularFile(b"n")),
            (("f",), RegularFile(b"now a file")),
            (("o",), Directory()),
            (("o", "m"), RegularFile(b"m")),
            (("w",), None),
        ]
        assert model.merge_down(s)[0] == model.flatten(s)

    def test_opaque_directory_drops_each_lower_child(self):
        s = stack_of(
            {"o": {"a": b"a", "b": {"c": b"c"}}},
            {"o": {"__opaque__": True, "b": b"file now"}},
        )
        assert model.stage_merge(s.lower.root, s.upper.root) == [
            (("o", "a"), None),
            (("o", "b"), None),
            (("o", "b"), RegularFile(b"file now")),
        ]

    def test_directory_edit_keeps_an_existing_directory(self):
        tree = stackgen.build_tree({"d": {"keep": b"k"}})
        assert model.apply_journal(tree, [(("d",), Directory())]) == tree
        assert model.apply_journal(tree, [(("d", "keep"), Directory())]).get("/d/keep") == Directory()

    def test_stack_with_middle_layers_is_refused(self):
        s = stackgen.random_stack3(1)
        with pytest.raises(ValueError):
            model.merge_down(s)

    def test_opaque_root_masks_entire_lower(self):
        s = LayerStack(
            lower=stackgen.build_tree({"a": b"x", "d": {"e": b"y"}}),
            upper=stackgen.build_tree({"__opaque__": True, "b": b"z"}),
        )
        flat = model.flatten(s)
        assert flat.get("/a") is None
        assert flat.get("/d") is None
        assert flat.get("/b") == RegularFile(b"z")
        tree, _ = model.merge_down(s)
        assert tree == flat
        assert model.apply_journal(s.lower, model.stage_merge(s.lower.root, s.upper.root)) == flat

    def test_second_merge_with_empty_upper_is_identity(self):
        for seed in range(50):
            s = stackgen.random_stack(seed)
            tree, _ = model.merge_down(s)
            tree2, journal2 = model.merge_down(LayerStack(lower=tree, upper=empty_tree()))
            assert tree2 == tree
            assert journal2.entries == ()


class TestStackInvariants:
    def test_set_and_delete_free_nodes_without_the_cycle_collector(self):
        tree = stackgen.build_tree({"d": {"e": {"old": b"o"}}})
        node = RegularFile(b"x" * 1024)
        ref = weakref.ref(node)
        gc.disable()
        try:
            grown = tree.set("/d/e/f", node)
            assert grown.get("/d/e/f") is node
            assert grown.delete("/d/e/f") == tree
            assert grown.delete("/d/e").get("/d") == Directory(children={})
            del node, grown
            assert ref() is None
        finally:
            gc.enable()
        with pytest.raises(NotADirectory):
            tree.set("/d/e/old/x", RegularFile())
        with pytest.raises(AbsentPath):
            tree.delete("/d/nope")

    def test_lower_purity_enforced(self):
        with pytest.raises(ValueError):
            LayerStack(lower=stackgen.build_tree({"x": Whiteout()}), upper=empty_tree())
        with pytest.raises(ValueError):
            LayerStack(
                lower=stackgen.build_tree({"d": {"__opaque__": True}}),
                upper=empty_tree(),
            )

    @given(stacks, st.data())
    @settings(max_examples=60, deadline=None)
    def test_masking_invariant(self, s, data):
        upper_paths = [p for p, n in s.upper.walk() if not isinstance(n, Whiteout)]
        if not upper_paths:
            return
        path = data.draw(st.sampled_from(upper_paths))
        assert model.resolve(s, path).outcome is ResolutionKind.FOUND_UPPER

    @given(stacks, st.data())
    @settings(max_examples=60, deadline=None)
    def test_lower_never_mutated(self, s, data):
        before = list(s.lower.walk())
        paths = stackgen.probe_paths(s)
        path = data.draw(st.sampled_from(paths))
        for op in (
            lambda: model.resolve(s, path),
            lambda: model.write_file(s, path, b"zz"),
            lambda: model.remove(s, path, recursive=True),
            lambda: model.list_dir(s, path),
        ):
            try:
                op()
            except Exception:
                pass
        assert list(s.lower.walk()) == before

    @given(stacks, st.data(), st.binary(max_size=16))
    @settings(max_examples=80, deadline=None)
    def test_write_respects_flatten_oracle(self, s, data, content):
        path = data.draw(st.sampled_from(stackgen.probe_paths(s)))
        try:
            s2 = model.write_file(s, path, content)
        except (AbsentParent, NotADirectory):
            return
        expected = oracle.visible_paths(s)
        # drop anything at or below the target, then set the file
        expected = {
            p: k
            for p, k in expected.items()
            if p != path and not p.startswith(path + "/")
        }
        expected[path] = ("file", bytes(content))
        assert oracle.flatten_to_dict(model.flatten(s2)) == expected

    @given(stacks, st.data())
    @settings(max_examples=80, deadline=None)
    def test_remove_respects_flatten_oracle(self, s, data):
        vis = oracle.visible_paths(s)
        candidates = sorted(vis) or ["/"]
        path = data.draw(st.sampled_from(candidates))
        if path == "/":
            return
        s2 = model.remove(s, path, recursive=True)
        expected = {
            p: k
            for p, k in vis.items()
            if p != path and not p.startswith(path + "/")
        }
        assert oracle.flatten_to_dict(model.flatten(s2)) == expected
        assert not model.resolve(s2, path).found

    @given(stacks)
    @settings(max_examples=60, deadline=None)
    def test_whiteout_hygiene_after_merge(self, s):
        tree, _ = model.merge_down(s)
        # constructing a stack over the merged tree revalidates purity
        LayerStack(lower=tree, upper=empty_tree())


def test_view_modules_load_no_openssl():
    """Only hashing loads libcrypto, so processes that never hash (every
    view, node and registry process) do not map it."""
    code = (
        "import sys, cue.executor, cue.cluster, cue.diskfs, cue.registry, cue.model; "
        "print('_hashlib' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
    )
    assert (proc.returncode, proc.stdout.strip()) == (0, "False"), proc.stderr
