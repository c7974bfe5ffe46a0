"""Preforms: a tree presented through choices and a node-and-choice operator.

The primitive datum is the operator graph, a set of triples
``(node, choice, successor)``.  The tree, the feasibility map, the
information sets, and the previous-choice map are all derived from it;
supplying them independently would only invite inconsistency.

An information set is the set of nodes at which a given choice is
feasible.  Validation requires these sets to partition the decision
nodes, which forces all choices feasible at a common node to share one
information set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import prod
from types import SimpleNamespace
from typing import FrozenSet, Iterable, Mapping, Tuple

from .errors import (
    MorphismError,
    PreformError,
    StrategySpaceTooLarge,
    TreeError,
)
from .labels import NodeLabel, Token, render_label, render_token, token_key
from .tree import (
    Play,
    Structural,
    Tree,
    TreeMorphism,
    _NodeIds,
    _compose_tree_morphisms,
    _node_ids,
    _tree_from_ids,
    check_composable,
    check_map,
    identity_tree_morphism,
)

__all__ = [
    "DEFAULT_STRATEGY_CAP",
    "Preform",
    "PreformMorphism",
    "build_preform",
    "count_grand_strategies",
    "grand_strategies",
    "is_grand_strategy",
    "play_of",
    "validate_preform_morphism",
    "identity_preform_morphism",
    "compose_preform_morphisms",
    "is_subpreform",
]

#: Exhaustive strategy enumeration refuses beyond this many strategies
#: unless the caller raises the cap explicitly.
DEFAULT_STRATEGY_CAP = 1 << 20


def render_strategy(s: FrozenSet[Token]) -> str:
    return "{" + ",".join(sorted((render_token(c) for c in s))) + "}"


@dataclass(frozen=True, eq=False)
class Preform(Structural):
    """A validated preform with its derived structure.

    ``op`` maps ``(node, choice)`` to the successor node, in the order
    of the first triple of each, ``info_sets`` collects the information
    sets, and ``info_set_of`` maps each choice to the set where it is
    feasible.  ``info_set_order`` pairs each information set with its
    choices in ``token_key`` order, the sets sorted by their sorted node
    ranks; strategies, reports and refusals all list sets in it.
    ``_ids`` keeps, over the tree's integer node ids, the operator
    ``op``, the sets in that order, ``sets``, each node's set by its
    position there, -1 at a leaf, ``set_at``, each choice's set by its
    position, ``pos``, and the choice that produced each node, ``None``
    at the root, ``prev``.  ``op``, ``feas``,
    each decision node's feasible choices, and ``prev_choice``, ``prev``
    by label, are views over ``_ids`` built on first read; equality and
    hashing read ``tree``, ``choices`` and ``op``.
    """

    tree: Tree
    choices: frozenset
    info_sets: frozenset = field(compare=False)
    info_set_of: Mapping[Token, frozenset] = field(compare=False)
    info_set_order: Tuple[Tuple[frozenset, Tuple[Token, ...]], ...] = field(compare=False)
    _ids: SimpleNamespace = field(compare=False, repr=False)

    _defining_views = ("op",)

    def __repr__(self) -> str:
        return (
            f"Preform({len(self.tree.nodes)} nodes, {len(self.choices)} choices, "
            f"{len(self.info_sets)} information sets)"
        )

    @cached_property
    def op(self) -> Mapping[Tuple[NodeLabel, Token], NodeLabel]:
        labels = self.tree._ids.labels
        return {(labels[t], c): labels[t_next] for (t, c), t_next in self._ids.op.items()}

    @cached_property
    def feas(self) -> Mapping[NodeLabel, frozenset]:
        labels, feas = self.tree._ids.labels, {}
        for t, c in self._ids.op:
            feas.setdefault(labels[t], []).append(c)
        return {t: frozenset(cs) for t, cs in feas.items()}

    @cached_property
    def prev_choice(self) -> Mapping[NodeLabel, Token]:
        labels, prev = self.tree._ids.labels, self._ids.prev
        return {labels[k]: prev[k] for k in self.tree._ids.edges}


def build_preform(
    nodes: Iterable[NodeLabel],
    choices: Iterable[Token],
    op_triples: Iterable[tuple],
) -> Preform:
    """Validate operator triples and derive the tree and information sets."""
    node_set = frozenset(nodes)
    ids = _NodeIds(list(node_set))
    triples = ((ids[t], c, ids[t_next]) for t, c, t_next in op_triples)
    return _preform_from_ids(node_set, ids.labels, frozenset(choices), triples)


def _preform_from_ids(
    nodes: frozenset, labels: list, choice_set: frozenset, triples: Iterable[tuple]
) -> Preform:
    """[P1]–[P3] over integer node ids; ``triples`` are ``(node, choice,
    successor)``, read lazily, in one pass that checks [P1] and fills
    the operator, each node's parent and producing choice, and both
    feasibility maps.  [P1] makes the parents a function, so the tree
    core derives the tree from them.  Label-keyed information sets are
    built once, at the end."""
    n = len(nodes)
    op: dict = {}  # (node, choice) ids to the successor, in first-triple order
    parent, prev = [-1] * n, [None] * n  # each node's parent and producing choice
    feas: dict = {}
    ftop: dict = {}
    for t, c, t_next in triples:
        if t >= n or t_next >= n:
            raise PreformError(
                "UnknownNode",
                "operator triple mentions undeclared node "
                + render_label(labels[t if t >= n else t_next]),
            )
        if c not in choice_set:
            raise PreformError(
                "UnknownChoice",
                f"operator triple mentions undeclared choice {render_token(c)}",
            )
        key = (t, c)
        known = op.get(key)
        if known is not None:
            if known == t_next:
                continue
            raise PreformError(
                "OperatorNotInjective",
                f"({render_label(labels[t])}, {render_token(c)}) maps to both "
                f"{render_label(labels[known])} and {render_label(labels[t_next])}",
                axiom="[P1]",
            )
        t0 = parent[t_next]
        if t0 >= 0:
            raise PreformError(
                "OperatorNotInjective",
                f"node {render_label(labels[t_next])} is reached by both "
                f"({render_label(labels[t0])}, {render_token(prev[t_next])}) and "
                f"({render_label(labels[t])}, {render_token(c)})",
                axiom="[P1]",
            )
        op[key] = t_next
        parent[t_next], prev[t_next] = t, c
        feas.setdefault(t, []).append(c)
        ftop.setdefault(c, []).append(t)

    if n and len(op) == n:  # each node is reached at most once, so all are
        raise PreformError(
            "OperatorHitsRoot",
            "every declared node is reached by a choice, so the operator hits the root",
            axiom="[P1]",
        )

    try:
        tree = _tree_from_ids(nodes, labels, parent, list(op.values()))
    except TreeError as exc:
        if exc.code == "TooSmall":
            raise
        raise PreformError(
            "NodeUnreachable",
            f"derived predecessor structure is not a tree ({exc})",
            axiom="[P2]",
        ) from exc

    orphans = choice_set - ftop.keys()
    if orphans:
        raise PreformError(
            "OrphanChoice",
            f"choice {render_token(min(orphans, key=token_key))} is feasible at no node",
            axiom="[P3]",
        )

    # one object per information set, so the partition check below
    # compares identities instead of equal sets element by element
    one_of: dict = {}
    set_of = {}
    for c, ts in ftop.items():
        h = frozenset(ts)
        set_of[c] = one_of.setdefault(h, h)
    for t, cs in feas.items():
        if len({id(set_of[c]) for c in cs}) > 1:
            raise PreformError(
                "InfoSetOverlap",
                f"node {render_label(labels[t])} lies in two distinct information sets",
                axiom="[P3]",
            )

    node_sets = {id(h): frozenset(map(labels.__getitem__, h)) for h in one_of}
    info_set_of = {c: node_sets[id(h)] for c, h in set_of.items()}
    # the sets are disjoint, so their smallest ranks order them as their
    # sorted ranks do; they partition the decision nodes, so a set's
    # choices are the choices feasible at any of its nodes
    rank = tree._ids.rank
    sets = sorted(one_of, key=lambda h: min(map(rank.__getitem__, h)))
    at = {t: k for k, h in enumerate(sets) for t in h}
    set_at = [at.get(t, -1) for t in range(n)]
    order = tuple(
        (node_sets[id(h)], tuple(sorted(feas[next(iter(h))], key=token_key))) for h in sets
    )
    return Preform(
        tree=tree,
        choices=choice_set,
        info_sets=frozenset(node_sets.values()),
        info_set_of=info_set_of,
        info_set_order=order,
        _ids=SimpleNamespace(
            op=op, sets=sets, set_at=set_at, prev=prev,
            pos={c: k for k, (_h, cs) in enumerate(order) for c in cs},
        ),
    )


def _pools(pf: Preform, info_sets, cap: int) -> list:
    """The choices of each set in ``info_sets``, in ``pf.info_set_order``;
    refused when more than ``cap`` strategies select one from each."""
    pools = [choices for h, choices in pf.info_set_order if h in info_sets]
    count = prod(map(len, pools))
    if count > cap:
        raise StrategySpaceTooLarge(count, cap)
    return pools


def strategies_over(pf: Preform, info_sets, cap: int) -> frozenset:
    """All choice sets selecting one feasible choice per information set
    in ``info_sets``; the empty selection when there are none."""
    return frozenset(map(frozenset, itertools.product(*_pools(pf, info_sets, cap))))


def selects_one_each(pf: Preform, s: frozenset, info_sets) -> bool:
    """Whether ``s``, holding only choices of sets in ``info_sets``, holds
    one choice of each: as many choices as sets, each in a set of its own."""
    return len(s) == len(info_sets) == len(set(map(pf._ids.pos.__getitem__, s)))


def count_grand_strategies(pf: Preform) -> int:
    return prod(len(choices) for _h, choices in pf.info_set_order)


def grand_strategies(pf: Preform, cap: int = DEFAULT_STRATEGY_CAP) -> frozenset:
    """All choice sets selecting exactly one feasible choice per information set."""
    return strategies_over(pf, pf.info_sets, cap)


def _picked(pf: Preform, s: frozenset):
    """The choices of ``s`` by the position of their sets in
    ``info_set_order`` when ``s`` holds one choice of each set and
    nothing else, else ``None``."""
    try:
        picked = dict(zip(map(pf._ids.pos.__getitem__, s), s))
    except KeyError:  # a choice of no set
        return None
    return picked if len(picked) == len(s) == len(pf._ids.sets) else None


def is_grand_strategy(pf: Preform, s: Iterable[Token]) -> bool:
    return _picked(pf, frozenset(s)) is not None


def play_of(pf: Preform, s: Iterable[Token]) -> Play:
    """The unique play whose every non-root node was produced by ``s``.
    ``s`` is checked by one map from set positions to its choices, which
    :func:`_walk` then follows down from the root."""
    s = frozenset(s)
    picked = _picked(pf, s)
    if picked is None:
        raise PreformError(
            "NotAStrategy",
            f"{render_strategy(s)} does not select exactly one feasible choice "
            "per information set",
        )
    return pf.tree.play_by_end[pf.tree._ids.labels[_walk(pf, picked)]]


def _walk(pf: Preform, picked) -> int:
    """The end id of the play of the grand strategy ``picked``, its choice
    by set position as ``_picked`` maps it: the walk down the node ids
    from the root that takes at each node the choice of its set."""
    set_at, op = pf._ids.set_at, pf._ids.op
    t = pf.tree._ids.walk[0]
    while set_at[t] >= 0:
        t = op[t, picked[set_at[t]]]
    return t


@dataclass(frozen=True, eq=False)
class PreformMorphism(Structural):
    """A node map and a choice map preserving the operator graph; the
    node map is kept in ``_ids`` as its tree morphism keeps it, and its
    tree morphism and ``tau`` are views of it."""

    source: Preform
    target: Preform
    delta: Mapping[Token, Token]
    _ids: SimpleNamespace = field(compare=False, repr=False)

    _defining_views = ("tau",)

    @cached_property
    def tree_morphism(self) -> TreeMorphism:
        return TreeMorphism(self.source.tree, self.target.tree, self._ids)

    @cached_property
    def tau(self) -> Mapping[NodeLabel, NodeLabel]:
        return self.tree_morphism.tau


def validate_preform_morphism(
    source: Preform, target: Preform, tau: Mapping, delta: Mapping
) -> PreformMorphism:
    check_map(delta, source.choices, target.choices, "choice", "[p1]", token_key)
    ids = _node_ids(tau, source.tree, target.tree, "[p1]")
    for (t, c), t_next in source._ids.op.items():
        if target._ids.op.get((ids[t], delta[c])) != ids[t_next]:
            t, t_next = source.tree._ids.labels[t], source.tree._ids.labels[t_next]
            raise MorphismError(
                "TripleNotPreserved",
                f"triple ({render_label(t)}, {render_token(c)}, {render_label(t_next)}) "
                "does not map into the target operator graph",
                axiom="[p2]",
                node=t,
                choice=c,
                successor=t_next,
            )
    # [p1] makes the node map total and [p2] carries every predecessor
    # pair, each an operator triple: the tree morphism view needs no check
    return PreformMorphism(source, target, dict(delta), SimpleNamespace(tau=ids))


def identity_preform_morphism(pf: Preform) -> PreformMorphism:
    """The identity on ``pf``, built unvalidated: a morphism by theorem."""
    ids = identity_tree_morphism(pf.tree)._ids
    return PreformMorphism(pf, pf, {c: c for c in pf.choices}, ids)


def compose_preform_morphisms(
    second: PreformMorphism, first: PreformMorphism
) -> PreformMorphism:
    """``first`` and then ``second``, unvalidated: a morphism by theorem."""
    check_composable(second, first)
    return _compose_preform_morphisms(second, first)


def _compose_preform_morphisms(
    second: PreformMorphism, first: PreformMorphism
) -> PreformMorphism:
    """``compose_preform_morphisms`` of two morphisms the caller has checked
    compose: their trees' morphisms compose too."""
    below = _compose_tree_morphisms(second.tree_morphism, first.tree_morphism)
    delta = {c: second.delta[first.delta[c]] for c in first.source.choices}
    return PreformMorphism(first.source, second.target, delta, below._ids)


def is_subpreform(inner: Preform, outer: Preform) -> bool:
    """Whether ``inner`` is ``outer`` restricted to the up-set of ``inner``'s root.

    Holds exactly when the inner node set is the full up-set, the inner
    choices and operator triples are contained in the outer ones, and
    every inner information set is an outer information set.
    """
    root = inner.tree.root
    if root not in outer.tree.nodes:
        return False
    if inner.tree.nodes != outer.tree.descendants(root):
        return False
    if not inner.choices <= outer.choices:
        return False
    if any(outer.op.get(key) != t_next for key, t_next in inner.op.items()):
        return False
    return inner.info_sets <= outer.info_sets
