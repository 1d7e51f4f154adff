"""Seeded random stack generation for oracle and property tests."""

from __future__ import annotations

import random

from cue.model import (
    Directory,
    LayerStack,
    LayerTree,
    Node,
    RegularFile,
    Symlink,
    Whiteout,
    join_path,
)

NAMES = ["a", "b", "c", "d", "lib", "etc", "bin", "x1", "x2"]


def build_tree(spec: dict) -> LayerTree:
    """Nested-dict tree builder: bytes -> file, dict -> dir, Node -> as-is.

    A dict may carry the key "__opaque__": True for an opaque directory.
    """

    def conv(value) -> Node:
        if isinstance(value, bytes):
            return RegularFile(value)
        if isinstance(value, dict):
            opaque = bool(value.get("__opaque__", False))
            children = {
                name: conv(child)
                for name, child in value.items()
                if name != "__opaque__"
            }
            return Directory(children=children, opaque=opaque)
        if isinstance(value, (RegularFile, Symlink, Whiteout, Directory)):
            return value
        raise TypeError(f"cannot build node from {value!r}")

    root = conv(spec)
    assert isinstance(root, Directory)
    return LayerTree(root=root)


def random_lower(rng: random.Random, max_depth: int = 6, node_budget: int = 100) -> LayerTree:
    budget = [rng.randint(0, node_budget)]

    def gen_dir(depth: int) -> Directory:
        children: dict[str, Node] = {}
        for name in rng.sample(NAMES, k=rng.randint(0, min(5, len(NAMES)))):
            if budget[0] <= 0:
                break
            budget[0] -= 1
            roll = rng.random()
            if depth < max_depth and roll < 0.4:
                children[name] = gen_dir(depth + 1)
            elif roll < 0.9:
                children[name] = RegularFile(rng.randbytes(rng.randint(0, 24)))
            else:
                children[name] = Symlink("/" + rng.choice(NAMES))
        return Directory(children=children)

    return LayerTree(root=gen_dir(1))


def random_upper(rng: random.Random, *below: LayerTree, max_depth: int = 6, node_budget: int = 100) -> LayerTree:
    """Delta over the layers below: overrides, whiteouts, opaque dirs,
    fresh subtrees.  Names are drawn from what the layers below hold."""
    budget = [rng.randint(0, node_budget)]

    def names_below(parts: tuple[str, ...]) -> list[str]:
        names: list[str] = []
        for tree in below:
            node = tree.get(join_path(parts))
            if isinstance(node, Directory):
                names += node.children
        return names

    def gen_dir(parts: tuple[str, ...], depth: int) -> Directory:
        pool = list(dict.fromkeys(names_below(parts) + NAMES))
        children: dict[str, Node] = {}
        for name in rng.sample(pool, k=rng.randint(0, min(5, len(pool)))):
            if budget[0] <= 0:
                break
            budget[0] -= 1
            roll = rng.random()
            if roll < 0.18:
                children[name] = Whiteout()
            elif depth < max_depth and roll < 0.5:
                children[name] = gen_dir(parts + (name,), depth + 1)
            elif roll < 0.92:
                children[name] = RegularFile(rng.randbytes(rng.randint(0, 24)))
            else:
                children[name] = Symlink("/" + rng.choice(NAMES))
        opaque = depth > 0 and rng.random() < 0.15
        return Directory(children=children, opaque=opaque)

    return LayerTree(root=gen_dir((), 0))


def random_stack(seed: int, max_depth: int = 6, node_budget: int = 100) -> LayerStack:
    rng = random.Random(seed)
    lower = random_lower(rng, max_depth, node_budget)
    upper = random_upper(rng, lower, max_depth=max_depth, node_budget=node_budget)
    return LayerStack(lower=lower, upper=upper)


def random_stack3(seed: int, max_depth: int = 6, node_budget: int = 100) -> LayerStack:
    """A node view's three layers: a base, a middle delta carrying
    whiteouts and opaque dirs (a user's shared upper), a scratch top."""
    rng = random.Random(seed)
    lower = random_lower(rng, max_depth, node_budget)
    middle = random_upper(rng, lower, max_depth=max_depth, node_budget=node_budget)
    upper = random_upper(rng, lower, middle, max_depth=max_depth, node_budget=node_budget)
    return LayerStack(lower=lower, upper=upper, middle=(middle,))


def probe_paths(stack: LayerStack) -> list[str]:
    """Every path of every layer plus some never-present probes."""
    paths = {p for layer in stack.layers for p, _ in layer.walk()}
    paths.discard("/")
    extra = set()
    for p in list(paths)[:20]:
        extra.add(p + "/ghost")
        extra.add("/ghost" + p)
    return sorted(paths | extra | {"/nope", "/lib/nope"})
