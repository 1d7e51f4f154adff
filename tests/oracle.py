"""Independent brute-force oracle for the merged view.

Computes visibility by literally scanning every path of every layer and
checking, for each, the layers above it for a mask, with no code shared
with the model's resolver or flattener.  It covers two-layer stacks and
stacks with middle layers alike.  Tests compare the model against this.
"""

from __future__ import annotations

from typing import Optional

from cue.model import (
    Directory,
    LayerStack,
    Node,
    RegularFile,
    ResolutionKind,
    Symlink,
    Whiteout,
)


def kind_of(node: Node):
    if isinstance(node, RegularFile):
        return ("file", node.content)
    if isinstance(node, Symlink):
        return ("symlink", node.target)
    if isinstance(node, Directory):
        return ("dir",)
    return ("whiteout",)


def tree_paths(tree) -> dict[str, Node]:
    return dict(tree.walk())


def layer_paths(stack: LayerStack) -> list[dict[str, Node]]:
    """Every layer's path -> node table, bottom first."""
    return [tree_paths(t) for t in (stack.lower, *stack.middle, stack.upper)]


def ancestors(path: str) -> list[str]:
    """The root and every strict ancestor of path, shallowest first."""
    parts = path.strip("/").split("/")
    return ["/" + "/".join(parts[:i]) for i in range(len(parts))]


def fate(layers: list[dict[str, Node]], h: int, path: str) -> Optional[str]:
    """Why layer h's entry at path is not visible, judged from the layers
    above it: "cut" by a whiteout (at the path or an ancestor) or an opaque
    ancestor directory, "shadow" by a file or symlink ancestor or by any
    other entry at the path, or None.  The shallowest mask decides; at one
    depth, the topmost layer's."""
    for q in ancestors(path) + [path]:
        for above in reversed(layers[h + 1 :]):
            node = above.get(q)
            if node is None:
                continue
            if isinstance(node, Whiteout) or (q != path and isinstance(node, Directory) and node.opaque):
                return "cut"
            if q == path or not isinstance(node, Directory):
                return "shadow"
    return None


def visible_layers(stack: LayerStack) -> dict[str, int]:
    """Every merged-view path mapped to the index (bottom first) of the
    layer that supplies it."""
    layers = layer_paths(stack)
    vis: dict[str, int] = {}
    for h in range(len(layers)):
        for path, node in layers[h].items():
            if not isinstance(node, Whiteout) and fate(layers, h, path) is None:
                vis[path] = h
    return vis


def visible_paths(stack: LayerStack) -> dict[str, tuple]:
    """Every merged-view path mapped to its (kind, payload...) tuple."""
    layers = layer_paths(stack)
    return {path: kind_of(layers[h][path]) for path, h in visible_layers(stack).items()}


def expected_resolution(stack: LayerStack, path: str) -> tuple[ResolutionKind, Optional[tuple]]:
    """(outcome, payload) the model's resolve must produce for path."""
    return expected_layer_resolution(stack, path)[:2]


def expected_layer_resolution(stack: LayerStack, path: str) -> tuple[ResolutionKind, Optional[tuple], Optional[int]]:
    """(outcome, payload, supplying layer) the model's resolve must produce.

    A path no layer supplies is Hidden when some layer holds it under a
    whiteout or opaque directory, and Absent otherwise (nothing holds it,
    or only a file or symlink ancestor stands over it)."""
    layers = layer_paths(stack)
    top = len(layers) - 1
    h = visible_layers(stack).get(path)
    if h is not None:
        outcome = ResolutionKind.FOUND_UPPER if h == top else ResolutionKind.FOUND_LOWER
        return outcome, kind_of(layers[h][path]), h
    for h in range(top):
        node = layers[h].get(path)
        if node is not None and not isinstance(node, Whiteout) and fate(layers, h, path) == "cut":
            return ResolutionKind.HIDDEN, None, None
    return ResolutionKind.ABSENT, None, None


def expected_listing(stack: LayerStack, path: str) -> list[tuple[str, str]]:
    """Sorted (name, origin) pairs the model's list_dir must produce."""
    vis = visible_layers(stack)
    top = len(layer_paths(stack)) - 1
    assert visible_paths(stack).get(path) == ("dir",)
    prefix = "" if path == "/" else path
    names = {}
    for p, h in vis.items():
        if p == "/" or not p.startswith(prefix + "/"):
            continue
        rest = p[len(prefix) + 1 :]
        if "/" in rest:
            continue
        names[rest] = "upper" if h == top else "lower"
    return sorted(names.items(), key=lambda item: item[0].encode("utf-8"))


def flatten_to_dict(tree) -> dict[str, tuple]:
    out = {}
    for path, node in tree.walk():
        assert not isinstance(node, Whiteout), f"whiteout survived flatten at {path}"
        if isinstance(node, Directory):
            assert not node.opaque, f"opaque marker survived flatten at {path}"
        out[path] = kind_of(node)
    return out
