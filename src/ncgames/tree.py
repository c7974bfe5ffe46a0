"""Functioned trees: a finite node set plus an immediate-predecessor map.

A tree fixes everything later stages build on: the root, the decision
nodes (nodes that precede something), each node's stage (distance from
the root), the precedence order, and the plays (maximal chains, one per
terminal node, each held as its end and its path from the root).  All
of that is derived and cached at construction time; no attribute can be
rebound afterwards, and the mappings are plain dicts not to be mutated.

Only finite trees are accepted, so every play is finite and the
collection of infinite plays is always empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cache, cached_property
from typing import Callable, Iterable, Mapping, Optional, Tuple

from .errors import MorphismError, TreeError
from .labels import NodeLabel, label_key, ranked_label_key, render_label, render_token

__all__ = [
    "Play",
    "Tree",
    "TreeMorphism",
    "build_tree",
    "subtree_at",
    "validate_tree_morphism",
    "identity_tree_morphism",
    "compose_tree_morphisms",
    "is_tree_isomorphism",
]


@cache
def _defining_fields(cls) -> Tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.compare)


def _hashable(value):
    if isinstance(value, Mapping):
        return frozenset((k, _hashable(v)) for k, v in value.items())
    return value


class Structural:
    """Equality and hashing from a dataclass's defining fields.

    Subclasses are ``eq=False`` dataclasses that mark each derived field
    ``compare=False``; the remaining fields identify a value.  Mappings
    hash as the frozenset of their items, nested mappings included.
    """

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in _defining_fields(type(self))
        )

    def __hash__(self) -> int:
        return hash(
            tuple(_hashable(getattr(self, name)) for name in _defining_fields(type(self)))
        )


def check_map(
    mapping: Mapping,
    domain: frozenset,
    codomain: frozenset,
    kind: str,
    axiom: str,
    key: Callable,
) -> None:
    """Reject a component map that is not a total function into ``codomain``.

    Of the domain elements where it fails, the least by ``key``, the
    domain's sort key, is named: nodes by ``Tree.rank``, players by
    ``Form.player_rank``, choices by the preform layer's choice order.
    """
    render = render_label if kind == "node" else render_token
    for x in mapping:
        if x not in domain:
            raise MorphismError(
                f"Unknown{kind.capitalize()}",
                f"map defined on {render(x)}, which is not a source {kind}",
            )
    failing = [x for x in domain if x not in mapping or mapping[x] not in codomain]
    if failing:
        x = min(failing, key=key)
        if x not in mapping:
            raise MorphismError(
                "NotTotal", f"map undefined on source {kind} {render(x)}", axiom=axiom
            )
        raise MorphismError(
            "NotTotal",
            f"map sends {render(x)} to {render(mapping[x])}, "
            f"which is not a target {kind}",
            axiom=axiom,
        )


def check_composable(second, first) -> None:
    if first.target != second.source:
        raise MorphismError(
            "TargetSourceMismatch",
            "first morphism's target differs from second morphism's source",
        )


@dataclass(frozen=True)
class Play:
    """A maximal chain of nodes, fixed by its maximum ``end``.

    ``path`` lists the chain from root to end.  Two plays are equal
    when their ends and paths are, and a play hashes as its end, so the
    plays of one tree hash apart.
    """

    end: NodeLabel
    path: Tuple[NodeLabel, ...] = field(repr=False)

    def __hash__(self) -> int:
        return hash(self.end)


@dataclass(frozen=True, eq=False)
class Tree(Structural):
    """A validated functioned tree together with its derived structure.

    ``play_by_end`` indexes the plays by their terminal node; a play is
    determined by its end.

    Two orders are computed here once and read by every report and
    document.  ``rank`` gives each node its position in ``label_key``
    order (sorted by ``ranked_label_key``, which ranks the tokens once
    per tree) and lists the nodes in that order; ``children_map`` lists
    each node's children by rank, and ``play_by_end`` lists the plays
    in lexicographic order of their paths by rank.  ``stage_order``
    lists the nodes by stage, and by rank within a stage.
    """

    nodes: frozenset
    pred: Mapping[NodeLabel, NodeLabel]
    root: NodeLabel = field(compare=False)
    decision_nodes: frozenset = field(compare=False)
    stage: Mapping[NodeLabel, int] = field(compare=False)
    plays: frozenset = field(compare=False)
    children_map: Mapping[NodeLabel, Tuple[NodeLabel, ...]] = field(compare=False)
    play_by_end: Mapping[NodeLabel, Play] = field(compare=False, repr=False)
    rank: Mapping[NodeLabel, int] = field(compare=False, repr=False)
    stage_order: Tuple[NodeLabel, ...] = field(compare=False, repr=False)

    def __repr__(self) -> str:
        return f"Tree({len(self.nodes)} nodes, root {render_label(self.root)})"

    def children(self, t: NodeLabel) -> Tuple[NodeLabel, ...]:
        return self.children_map.get(t, ())

    def descendants(self, t: NodeLabel) -> frozenset:
        """All nodes weakly below ``t``, i.e. the up-set of ``t``."""
        out = {t}
        frontier = [t]
        while frontier:
            u = frontier.pop()
            for child in self.children_map.get(u, ()):
                out.add(child)
                frontier.append(child)
        return frozenset(out)


def build_tree(nodes: Iterable[NodeLabel], pred_pairs: Iterable[tuple]) -> Tree:
    """Validate ``(child, parent)`` pairs and derive the tree structure.

    Rejects inputs where the pairs fail to single out a unique root
    reachable from every node in finitely many predecessor steps, where
    a child has two parents, or where fewer than two nodes are given.
    """
    node_set = frozenset(nodes)
    if len(node_set) < 2:
        raise TreeError(
            "TooSmall",
            f"a tree needs at least two nodes, got {len(node_set)}",
            axiom="[T1]",
        )

    pred: dict = {}
    for pair in pred_pairs:
        child, parent = pair
        for t in (child, parent):
            if t not in node_set:
                raise TreeError(
                    "UnknownNode",
                    f"predecessor pair mentions undeclared node {render_label(t)}",
                )
        if child in pred and pred[child] != parent:
            raise TreeError(
                "DuplicatePredecessor",
                f"node {render_label(child)} has two parents, "
                f"{render_label(pred[child])} and {render_label(parent)}",
                axiom="[T1]",
            )
        pred[child] = parent

    if not pred:
        raise TreeError(
            "NoRoot",
            "no predecessor pairs were given, so no root can be derived",
            axiom="[T1]",
        )

    roots = node_set - pred.keys()
    if not roots:
        raise TreeError(
            "Cycle",
            "every node has a predecessor, so no root exists",
            axiom="[T2]",
        )
    if len(roots) > 1:
        listing = ", ".join(render_label(t) for t in sorted(roots, key=label_key))
        raise TreeError(
            "MultipleRoots",
            f"nodes without predecessors: {listing}",
            axiom="[T2]",
        )
    (root,) = roots

    rank = {t: k for k, t in enumerate(sorted(node_set, key=ranked_label_key(node_set)))}
    children: dict = {}
    for child in rank:  # by rank, so each list of children is in order
        if child in pred:
            children.setdefault(pred[child], []).append(child)

    # one walk down from the root, visiting children by rank; ``path``
    # holds the chain from the root to the node being visited, and each
    # leaf ends one play, so plays are found in path order
    stage: dict = {}
    play_by_end = {}
    path: list = []
    stack = [(root, 0)]
    while stack:
        t, depth = stack.pop()
        del path[depth:]
        path.append(t)
        stage[t] = depth
        kids = children.get(t)
        if kids:
            stack.extend((kid, depth + 1) for kid in reversed(kids))
        else:
            play_by_end[t] = Play(t, tuple(path))
    if len(stage) != len(node_set):
        # the walk reaches exactly the nodes whose chain ends at the root
        start = next(t for t in rank if t not in stage)
        raise TreeError(
            "Cycle",
            f"predecessor chain from {render_label(start)} never reaches the root",
            axiom="[T2]",
        )

    return Tree(
        nodes=node_set,
        pred=dict(pred),
        root=root,
        decision_nodes=frozenset(pred.values()),
        stage=stage,
        plays=frozenset(play_by_end.values()),
        children_map={parent: tuple(kids) for parent, kids in children.items()},
        play_by_end=play_by_end,
        rank=rank,
        stage_order=tuple(sorted(rank, key=stage.__getitem__)),
    )


def _up_set(tree: Tree, t_star: NodeLabel) -> frozenset:
    """The up-set of ``t_star``, which must be a decision node of ``tree``."""
    if t_star not in tree.nodes:
        raise TreeError("UnknownNode", f"{render_label(t_star)} is not a node of this tree")
    if t_star not in tree.decision_nodes:
        raise TreeError(
            "NotDecisionNode",
            f"{render_label(t_star)} has no successors, so its up-set is a single node",
        )
    return tree.descendants(t_star)


def subtree_at(tree: Tree, t_star: NodeLabel) -> Tree:
    """The tree on the up-set of ``t_star``, which becomes the new root."""
    sub_nodes = _up_set(tree, t_star)
    sub_pairs = [
        (child, parent)
        for child, parent in tree.pred.items()
        if child in sub_nodes and child != t_star
    ]
    return build_tree(sub_nodes, sub_pairs)


@dataclass(frozen=True, eq=False)
class TreeMorphism(Structural):
    """A node map that sends predecessor pairs to predecessor pairs."""

    source: Tree
    target: Tree
    tau: Mapping[NodeLabel, NodeLabel]

    @cached_property
    def play_images(self) -> Mapping[Play, Play]:
        """Each end-preserved source play, in ``play_by_end`` order, mapped to
        its image: the target play ending at the image of its end, since
        the map keeps edges.  A view of the map, computed on first use."""
        ends = self.target.play_by_end
        pairs = ((z, ends.get(self.tau[end])) for end, z in self.source.play_by_end.items())
        return {z: image for z, image in pairs if image is not None}


def validate_tree_morphism(source: Tree, target: Tree, tau: Mapping) -> TreeMorphism:
    """Check totality and edge preservation of a candidate node map."""
    check_map(tau, source.nodes, target.nodes, "node", "[t1]", source.rank.get)
    for child, parent in source.pred.items():
        if target.pred.get(tau[child]) != tau[parent]:
            raise MorphismError(
                "EdgeNotPreserved",
                f"edge ({render_label(child)}, {render_label(parent)}) maps to "
                f"({render_label(tau[child])}, {render_label(tau[parent])}), "
                "which is not a target edge",
                axiom="[t2]",
                child=child,
                parent=parent,
            )
    return TreeMorphism(source, target, dict(tau))


def identity_tree_morphism(tree: Tree) -> TreeMorphism:
    """The identity on ``tree``, built unvalidated: a morphism by theorem."""
    return TreeMorphism(tree, tree, {t: t for t in tree.nodes})


def compose_tree_morphisms(second: TreeMorphism, first: TreeMorphism) -> TreeMorphism:
    """``first`` and then ``second``, unvalidated: a morphism by theorem."""
    check_composable(second, first)
    tau = {t: second.tau[first.tau[t]] for t in first.source.nodes}
    return TreeMorphism(first.source, second.target, tau)


def _is_bijection(mapping: Mapping, domain: frozenset, codomain: frozenset) -> bool:
    values = set(mapping.values())
    return len(values) == len(domain) and values == set(codomain)


def is_tree_isomorphism(m: TreeMorphism) -> Optional[TreeMorphism]:
    """The inverse morphism when the node map bijects, else ``None``;
    a bijection that preserves edges has an inverse that does too."""
    if not _is_bijection(m.tau, m.source.nodes, m.target.nodes):
        return None
    return TreeMorphism(m.target, m.source, {v: k for k, v in m.tau.items()})
