"""Functioned trees: a finite node set plus an immediate-predecessor map.

A tree fixes everything later stages build on: the root, the decision
nodes (nodes that precede something), each node's stage (distance from
the root), the precedence order, and the plays (maximal chains, one per
terminal node, each held as its end and its path from the root).  The
builder derives all of that over integer node ids and keeps those ids
and the root.  The predecessor map, ranks, plays by end, decision
nodes, stages, play set, children and stage order are views over the
kept ids, built on first read and cached.  No attribute can be rebound
afterwards, and the mappings are plain dicts not to be mutated.

Only finite trees are accepted, so every play is finite and the
collection of infinite plays is always empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cache, cached_property
from types import SimpleNamespace
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
    return tuple(f.name for f in fields(cls) if f.compare) + cls._defining_views


def _hashable(value):
    if isinstance(value, Mapping):
        return frozenset((k, _hashable(v)) for k, v in value.items())
    return value


class Structural:
    """Equality and hashing from a dataclass's defining fields.

    Subclasses are ``eq=False`` dataclasses that mark each derived field
    ``compare=False``; the remaining fields, then the views named in
    ``_defining_views``, identify a value.  Mappings hash as the
    frozenset of their items, nested mappings included.
    """

    _defining_views: Tuple[str, ...] = ()

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
    lists the nodes by stage, and by rank within a stage.  ``pred``
    lists each child with its parent in the order of the child's first
    pair.  Every map and set here but ``nodes`` is a view over ``_ids``,
    the integer core the builder derived them from, built on first
    read; equality and hashing read ``nodes`` and ``pred``.

    In ``_ids``, ``labels[k]`` is the label of id ``k``, ``order`` lists
    the ids by rank and ``rank`` gives each id its rank.  ``parent``
    gives each id its parent's, -1 at the root, and ``edges`` lists the
    children in the order of their first pair.  ``children`` lists each
    id's children by rank, ``parents`` the decision nodes by the rank of
    their first child, ``stage`` each id's stage and ``walk`` the ids
    depth first from the root, children by rank.
    ``walk[enter[k]:leave[k]]`` is the subtree of ``k``: ``enter`` gives
    each id its position in ``walk``, ``leave`` the one past its subtree.
    ``plays`` maps each play's end to its position in ``play_by_end``
    and its id path.
    """

    nodes: frozenset
    root: NodeLabel = field(compare=False)
    _ids: SimpleNamespace = field(compare=False, repr=False)

    _defining_views = ("pred",)

    def __repr__(self) -> str:
        return f"Tree({len(self.nodes)} nodes, root {render_label(self.root)})"

    @cached_property
    def pred(self) -> Mapping[NodeLabel, NodeLabel]:
        labels, parent = self._ids.labels, self._ids.parent
        return {labels[k]: labels[parent[k]] for k in self._ids.edges}

    @cached_property
    def rank(self) -> Mapping[NodeLabel, int]:
        labels = self._ids.labels
        return {labels[k]: r for r, k in enumerate(self._ids.order)}

    @cached_property
    def play_by_end(self) -> Mapping[NodeLabel, Play]:
        labels = self._ids.labels
        return {
            labels[end]: Play(labels[end], tuple(map(labels.__getitem__, path)))
            for end, (_p, path) in self._ids.plays.items()
        }

    @cached_property
    def decision_nodes(self) -> frozenset:
        return frozenset(map(self._ids.labels.__getitem__, self._ids.parents))

    @cached_property
    def stage(self) -> Mapping[NodeLabel, int]:
        labels, stage = self._ids.labels, self._ids.stage
        return {labels[k]: stage[k] for k in self._ids.walk}

    @cached_property
    def plays(self) -> frozenset:
        return frozenset(self.play_by_end.values())

    @cached_property
    def children_map(self) -> Mapping[NodeLabel, Tuple[NodeLabel, ...]]:
        label, children = self._ids.labels.__getitem__, self._ids.children
        return {label(up): tuple(map(label, children[up])) for up in self._ids.parents}

    @cached_property
    def stage_order(self) -> Tuple[NodeLabel, ...]:
        ids = self._ids
        return tuple(ids.labels[k] for k in sorted(ids.order, key=ids.stage.__getitem__))

    def children(self, t: NodeLabel) -> Tuple[NodeLabel, ...]:
        return self.children_map.get(t, ())

    def descendants(self, t: NodeLabel) -> frozenset:
        """All nodes weakly below ``t``, i.e. the up-set of ``t``: its
        stretch of the walk.  A non-node's up-set is itself alone."""
        r = self.rank.get(t)
        if r is None:
            return frozenset({t})
        ids = self._ids
        k = ids.order[r]
        return frozenset(map(ids.labels.__getitem__, ids.walk[ids.enter[k]:ids.leave[k]]))


class _NodeIds(dict):
    """Each label's id, its position in ``labels``, the given list of
    distinct labels; a label looked up and not yet there is appended to
    it, so it gets the next free id."""

    def __init__(self, labels: list):
        self.labels = labels
        super().__init__(zip(labels, range(len(labels))))

    def __missing__(self, t: NodeLabel) -> int:
        k = self[t] = len(self.labels)
        self.labels.append(t)
        return k


def build_tree(nodes: Iterable[NodeLabel], pred_pairs: Iterable[tuple]) -> Tree:
    """Validate ``(child, parent)`` pairs and derive the tree structure.

    Rejects inputs where the pairs fail to single out a unique root
    reachable from every node in finitely many predecessor steps, where
    a child has two parents, or where fewer than two nodes are given.
    """
    node_set = frozenset(nodes)
    ids = _NodeIds(list(node_set))
    pairs = ((ids[child], ids[parent]) for child, parent in pred_pairs)
    return _tree_from_ids(node_set, ids.labels, pairs)


def _tree_from_ids(nodes: frozenset, labels: list, pairs: Iterable[tuple]) -> Tree:
    """[T1]–[T2] over integer node ids, and the tree they derive.

    ``labels[k]`` is the label of id ``k``: the first ``len(nodes)`` are
    the nodes, and any later one is undeclared.  ``pairs`` are ``(child,
    parent)`` ids, read lazily, so each pair is checked as it comes.
    Parents, children by rank, stages and play paths are derived over
    lists, which the tree keeps as the core of its label-keyed views.
    """
    n = len(nodes)
    if n < 2:
        raise TreeError(
            "TooSmall",
            f"a tree needs at least two nodes, got {n}",
            axiom="[T1]",
        )

    parent = [-1] * n
    edges: list = []  # each child once, in the order of its first pair
    for child, up in pairs:
        if child >= n or up >= n:
            raise TreeError(
                "UnknownNode",
                "predecessor pair mentions undeclared node "
                + render_label(labels[child if child >= n else up]),
            )
        known = parent[child]
        if known < 0:
            parent[child] = up
            edges.append(child)
        elif known != up:
            raise TreeError(
                "DuplicatePredecessor",
                f"node {render_label(labels[child])} has two parents, "
                f"{render_label(labels[known])} and {render_label(labels[up])}",
                axiom="[T1]",
            )

    if not edges:
        raise TreeError(
            "NoRoot",
            "no predecessor pairs were given, so no root can be derived",
            axiom="[T1]",
        )

    roots = [k for k in range(n) if parent[k] < 0]
    if not roots:
        raise TreeError(
            "Cycle",
            "every node has a predecessor, so no root exists",
            axiom="[T2]",
        )
    if len(roots) > 1:
        listing = ", ".join(
            render_label(t) for t in sorted((labels[k] for k in roots), key=label_key)
        )
        raise TreeError(
            "MultipleRoots",
            f"nodes without predecessors: {listing}",
            axiom="[T2]",
        )
    (root,) = roots

    keys = list(map(ranked_label_key(nodes), labels[:n]))
    order = sorted(range(n), key=keys.__getitem__)
    children: list = [[] for _ in range(n)]
    parents: list = []  # decision nodes, by the rank of their first child
    for k in order:  # by rank, so each list of children is in order
        up = parent[k]
        if up >= 0:
            if not children[up]:
                parents.append(up)
            children[up].append(k)

    # one walk down from the root, visiting children by rank; ``path`` holds
    # the chain from the root to the visited node, each leaving it with its
    # subtree, and each leaf ends one play, so plays are numbered in path order
    stage = [-1] * n
    stage[root] = 0
    walk: list = []
    enter, leave = [0] * n, [n] * n  # the nodes on the path at the end leave there
    ends: dict = {}
    path: list = []
    stack = [root]
    while stack:
        k = stack.pop()
        while len(path) > stage[k]:
            leave[path.pop()] = len(walk)
        enter[k] = len(walk)
        path.append(k)
        walk.append(k)
        kids = children[k]
        if kids:
            for kid in kids:
                stage[kid] = len(path)
            stack.extend(reversed(kids))
        else:
            ends[k] = len(ends), tuple(path)
    if len(walk) != n:
        # the walk reaches exactly the nodes whose chain ends at the root
        start = next(k for k in order if stage[k] < 0)
        raise TreeError(
            "Cycle",
            f"predecessor chain from {render_label(labels[start])} never reaches the root",
            axiom="[T2]",
        )

    rank = [0] * n
    for r, k in enumerate(order):
        rank[k] = r
    return Tree(
        nodes=nodes,
        root=labels[root],
        _ids=SimpleNamespace(
            labels=labels, order=order, rank=rank, parent=parent, edges=edges,
            children=children, parents=parents, stage=stage, walk=walk, enter=enter,
            leave=leave, plays=ends,
        ),
    )


def _play_with_ids(plays: Mapping, found: frozenset) -> Optional[int]:
    """The end of the play whose node ids are ``found``, if any, found
    through its end: a play's one node that precedes nothing.  ``plays``
    is a tree's ``_ids.plays``."""
    end = next((k for k in found if k in plays), None)
    path = () if end is None else plays[end][1]
    return end if len(path) == len(found) and found.issuperset(path) else None


def _up_set(tree: Tree, t_star: NodeLabel) -> dict:
    """The up-set of ``t_star``, its stretch of the walk, numbered in walk
    order: each of its ids mapped to its position there, ``t_star`` at 0.
    ``t_star`` must be a decision node of ``tree``."""
    if t_star not in tree.nodes:
        raise TreeError("UnknownNode", f"{render_label(t_star)} is not a node of this tree")
    ids = tree._ids
    k = ids.labels.index(t_star)
    if not ids.children[k]:
        raise TreeError(
            "NotDecisionNode",
            f"{render_label(t_star)} has no successors, so its up-set is a single node",
        )
    up = ids.walk[ids.enter[k]:ids.leave[k]]
    return dict(zip(up, range(len(up))))


def subtree_at(tree: Tree, t_star: NodeLabel) -> Tree:
    """The tree on the up-set of ``t_star``, which becomes the new root;
    its node ids number the up-set in walk order."""
    ids, up = tree._ids, _up_set(tree, t_star)
    labels = list(map(ids.labels.__getitem__, up))
    # each node of the up-set but its root, at position 0, with its parent
    pairs = ((up[k], up[ids.parent[k]]) for k in ids.edges if up.get(k, 0))
    return _tree_from_ids(frozenset(labels), labels, pairs)


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
