"""Functioned trees: a finite node set plus an immediate-predecessor map.

A tree fixes everything later stages build on: the root, the decision
nodes (nodes that precede something), each node's stage (distance from
the root), the precedence order, and the plays (maximal chains, one per
terminal node, each held as its end and its path from the root).  The
core derives all of that over integer node ids from each node's parent,
read by ``build_tree`` from pairs or by a preform from its triples, and
keeps those ids and the root.  The predecessor map, ranks, plays by end,
decision nodes, stages, play set, children and stage order are views
over the kept ids, built on first read and cached.  No attribute can be
rebound afterwards, and the mappings are plain dicts not to be mutated.

Only finite trees are accepted, so every play is finite and the
collection of infinite plays is always empty.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from functools import cache, cached_property
from types import SimpleNamespace
from typing import Callable, Iterable, Optional, Tuple

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
    """Reject a token map that is not a total function into ``codomain``.

    Of the domain elements where it fails, the least by ``key``, the
    domain's sort key, is named: players by ``Form.player_rank``,
    choices by the preform layer's choice order.  Node maps are checked
    over node ids, by ``_node_ids``.
    """
    for x in mapping:
        if x not in domain:
            raise MorphismError(
                f"Unknown{kind.capitalize()}",
                f"map defined on {render_token(x)}, which is not a source {kind}",
            )
    failing = [x for x in domain if x not in mapping or mapping[x] not in codomain]
    if failing:
        x = min(failing, key=key)
        if x not in mapping:
            raise MorphismError(
                "NotTotal", f"map undefined on source {kind} {render_token(x)}", axiom=axiom
            )
        raise MorphismError(
            "NotTotal",
            f"map sends {render_token(x)} to {render_token(mapping[x])}, "
            f"which is not a target {kind}",
            axiom=axiom,
        )


def check_composable(second, first) -> None:
    if first.target is not second.source and first.target != second.source:
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
    ``plays`` maps each play's end to its position in ``play_by_end``,
    and ``paths`` lists each play's id path by that position.
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
            for end, path in zip(self._ids.plays, self._ids.paths)
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
    labels, n = ids.labels, len(node_set)
    parent = [-1] * n
    edges: list = []  # each child once, in the order of its first pair
    # fewer than two nodes are refused by the core before any pair is read
    for child, up in pred_pairs if n > 1 else ():
        child, up = ids[child], ids[up]
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
    return _tree_from_ids(node_set, labels, parent, edges)


def _tree_from_ids(nodes: frozenset, labels: list, parent: list, edges: list) -> Tree:
    """[T1]–[T2] over integer node ids, and the tree they derive.

    ``labels[k]`` is the label of id ``k``.  ``parent`` gives each id its
    parent's, -1 if none, and ``edges`` lists each id that has one, once,
    in the caller's order; the caller has checked that the pairs it read
    make ``parent`` a function.  Children by rank, stages and play paths
    are derived over lists, kept as the core of the tree's views.
    """
    n = len(nodes)
    if n < 2:
        raise TreeError(
            "TooSmall",
            f"a tree needs at least two nodes, got {n}",
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
    paths: list = []
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
            ends[k] = len(paths)
            paths.append(tuple(path))
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
            leave=leave, plays=ends, paths=paths,
        ),
    )


def _play_with_ids(plays: Mapping, paths: list, found: frozenset) -> Optional[int]:
    """The end of the play whose node ids are ``found``, if any, found
    through its end: a play's one node that precedes nothing.  ``plays``
    and ``paths`` are a tree's ``_ids.plays`` and ``_ids.paths``."""
    end = next((k for k in found if k in plays), None)
    path = () if end is None else paths[plays[end]]
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
    # the parent of the up-set's root, at position 0, lies outside it
    parent = [up.get(ids.parent[k], -1) for k in up]
    edges = [up[k] for k in ids.edges if up.get(k, 0)]
    return _tree_from_ids(frozenset(labels), labels, parent, edges)


class _IdMap(Mapping):
    """A map of labels kept as ids: ``domain[n]`` maps to ``image[n]``,
    standing for ``key_labels[domain[n]]`` and ``value_labels[image[n]]``,
    no id twice in ``domain``.  Its keys and items are read by id, and a
    lookup builds a dict once.  A validator reads the ids of one over its
    own games' labels (a tree's ``_ids.labels``, a player's utilities in
    rank order) without reading a label."""

    def __init__(self, domain, image, key_labels, value_labels):
        self.domain, self.image = domain, image
        self.key_labels, self.value_labels = key_labels, value_labels

    def __iter__(self):
        return map(self.key_labels.__getitem__, self.domain)

    def __len__(self) -> int:
        return len(self.domain)

    def __getitem__(self, key):
        return self._dict[key]

    def items(self):  # read once, by the validators and by equality
        return zip(self, map(self.value_labels.__getitem__, self.image))

    @cached_property
    def _dict(self) -> dict:
        return dict(self.items())


def _node_ids(tau: Mapping, source: Tree, target: Tree, axiom: str) -> list:
    """[t1] (or [p1]) over node ids: ``tau`` as the list of each source
    id's target id.  An ``_IdMap`` over the trees' labels is read as ids;
    any other map is numbered through one label-to-id dict per tree, a
    label that is no node past the nodes.  A key that is no node is named
    first, in the map's order, then the least node by rank where the map
    fails."""
    n, m = len(source.nodes), len(target.nodes)
    labels = source._ids.labels, target._ids.labels
    if type(tau) is _IdMap and tau.key_labels is labels[0] and tau.value_labels is labels[1]:
        pairs = zip(tau.domain, tau.image)
    else:
        to_id = _NodeIds(labels[0][:n]), _NodeIds(labels[1][:m])
        pairs = ((to_id[0][t], to_id[1][u]) for t, u in tau.items())
        labels = to_id[0].labels, to_id[1].labels
    ids = [-1] * n
    for k, v in pairs:
        if k >= n:
            raise MorphismError(
                "UnknownNode",
                f"map defined on {render_label(labels[0][k])}, which is not a source node",
            )
        ids[k] = v
    if min(ids) < 0 or max(ids) >= m:
        k = next(k for k in source._ids.order if not 0 <= ids[k] < m)
        t = render_label(labels[0][k])
        if ids[k] < 0:
            raise MorphismError("NotTotal", f"map undefined on source node {t}", axiom=axiom)
        raise MorphismError(
            "NotTotal",
            f"map sends {t} to {render_label(labels[1][ids[k]])}, which is not a target node",
            axiom=axiom,
        )
    return ids


def _play_images(source: Tree, target: Tree, tau: list) -> list:
    """The position of each source play whose end ``tau`` keeps, in play
    order, with the position of the target play ending at its image."""
    plays = target._ids.plays
    return [(p, plays[tau[end]]) for end, p in source._ids.plays.items() if tau[end] in plays]


def _inverse(tau: list, n: int) -> Optional[list]:
    """The inverse of the node ids ``tau`` if they biject onto ``n`` ids."""
    inverse = [-1] * n
    for k, v in enumerate(tau):
        inverse[v] = k
    return inverse if len(tau) == n and -1 not in inverse else None


@dataclass(frozen=True, eq=False)
class TreeMorphism(Structural):
    """A node map that sends predecessor pairs to predecessor pairs, kept
    in ``_ids.tau`` as the target id of each source id; ``tau`` by label
    and ``play_images`` are views of it.  The morphisms of the higher
    layers share their ``_ids`` with the tree morphisms they view."""

    source: Tree
    target: Tree
    _ids: SimpleNamespace = field(compare=False, repr=False)

    _defining_views = ("tau",)

    @cached_property
    def tau(self) -> Mapping[NodeLabel, NodeLabel]:
        labels = self.target._ids.labels
        return dict(zip(self.source._ids.labels, map(labels.__getitem__, self._ids.tau)))

    @cached_property
    def play_images(self) -> Mapping[Play, Play]:
        """Each end-preserved source play, in ``play_by_end`` order, mapped to its image."""
        plays, images = (list(tree.play_by_end.values()) for tree in (self.source, self.target))
        pairs = _play_images(self.source, self.target, self._ids.tau)
        return {plays[p]: images[q] for p, q in pairs}


def validate_tree_morphism(source: Tree, target: Tree, tau: Mapping) -> TreeMorphism:
    """Check totality and edge preservation of a candidate node map."""
    ids = _node_ids(tau, source, target, "[t1]")
    parent, above = source._ids.parent, target._ids.parent
    for k in source._ids.edges:  # [t2], in ``pred`` order
        if above[ids[k]] != ids[parent[k]]:
            labels, images = source._ids.labels, target._ids.labels
            child, up = labels[k], labels[parent[k]]
            raise MorphismError(
                "EdgeNotPreserved",
                f"edge ({render_label(child)}, {render_label(up)}) maps to "
                f"({render_label(images[ids[k]])}, {render_label(images[ids[parent[k]]])}), "
                "which is not a target edge",
                axiom="[t2]",
                child=child,
                parent=up,
            )
    return TreeMorphism(source, target, SimpleNamespace(tau=ids))


def identity_tree_morphism(tree: Tree) -> TreeMorphism:
    """The identity on ``tree``, built unvalidated: a morphism by theorem."""
    return TreeMorphism(tree, tree, SimpleNamespace(tau=list(range(len(tree.nodes)))))


def compose_tree_morphisms(second: TreeMorphism, first: TreeMorphism) -> TreeMorphism:
    """``first`` and then ``second``, unvalidated: a morphism by theorem."""
    check_composable(second, first)
    return _compose_tree_morphisms(second, first)


def _compose_tree_morphisms(second: TreeMorphism, first: TreeMorphism) -> TreeMorphism:
    """``compose_tree_morphisms`` of two morphisms the caller has checked compose."""
    tau, middle, same = first._ids.tau, first.target._ids.labels, second.source._ids.labels
    if middle is not same and middle != same:  # equal trees, their ids numbered apart
        at = dict(zip(same, range(len(second.source.nodes))))
        tau = [at[middle[k]] for k in tau]
    tau = list(map(second._ids.tau.__getitem__, tau))
    return TreeMorphism(first.source, second.target, SimpleNamespace(tau=tau))


def is_tree_isomorphism(m: TreeMorphism) -> Optional[TreeMorphism]:
    """The inverse morphism when the node map bijects, else ``None``;
    a bijection that preserves edges has an inverse that does too."""
    tau = _inverse(m._ids.tau, len(m.target.nodes))
    return None if tau is None else TreeMorphism(m.target, m.source, SimpleNamespace(tau=tau))
