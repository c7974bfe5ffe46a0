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
from math import prod
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
    build_tree,
    check_composable,
    check_map,
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

    ``op`` maps ``(node, choice)`` to the successor node, ``feas`` gives
    the feasible choices at each decision node, ``info_sets`` collects
    the information sets, ``info_choices`` the choices shared by each
    information set, and ``prev_choice`` the choice that produced each
    non-root node.
    """

    tree: Tree
    choices: frozenset
    op: Mapping[Tuple[NodeLabel, Token], NodeLabel]
    feas: Mapping[NodeLabel, frozenset] = field(compare=False)
    info_sets: frozenset = field(compare=False)
    info_choices: Mapping[frozenset, frozenset] = field(compare=False)
    info_set_of: Mapping[Token, frozenset] = field(compare=False)
    prev_choice: Mapping[NodeLabel, Token] = field(compare=False)

    def __repr__(self) -> str:
        return (
            f"Preform({len(self.tree.nodes)} nodes, {len(self.choices)} choices, "
            f"{len(self.info_sets)} information sets)"
        )


def build_preform(
    nodes: Iterable[NodeLabel],
    choices: Iterable[Token],
    op_triples: Iterable[tuple],
) -> Preform:
    """Validate operator triples and derive the tree and information sets."""
    node_set = frozenset(nodes)
    choice_set = frozenset(choices)

    op: dict = {}
    hit_by: dict = {}
    for triple in op_triples:
        t, c, t_next = triple
        for node in (t, t_next):
            if node not in node_set:
                raise PreformError(
                    "UnknownNode",
                    f"operator triple mentions undeclared node {render_label(node)}",
                )
        if c not in choice_set:
            raise PreformError(
                "UnknownChoice",
                f"operator triple mentions undeclared choice {render_token(c)}",
            )
        key = (t, c)
        if key in op:
            if op[key] == t_next:
                continue
            raise PreformError(
                "OperatorNotInjective",
                f"({render_label(t)}, {render_token(c)}) maps to both "
                f"{render_label(op[key])} and {render_label(t_next)}",
                axiom="[P1]",
            )
        if t_next in hit_by:
            t0, c0 = hit_by[t_next]
            raise PreformError(
                "OperatorNotInjective",
                f"node {render_label(t_next)} is reached by both "
                f"({render_label(t0)}, {render_token(c0)}) and "
                f"({render_label(t)}, {render_token(c)})",
                axiom="[P1]",
            )
        op[key] = t_next
        hit_by[t_next] = key

    if node_set and node_set <= set(hit_by):
        raise PreformError(
            "OperatorHitsRoot",
            "every declared node is reached by a choice, so the operator hits the root",
            axiom="[P1]",
        )

    pairs = [(t_next, t) for (t, _c), t_next in op.items()]
    try:
        tree = build_tree(node_set, pairs)
    except TreeError as exc:
        if exc.code == "TooSmall":
            raise
        raise PreformError(
            "NodeUnreachable",
            f"derived predecessor structure is not a tree ({exc})",
            axiom="[P2]",
        ) from exc

    feas: dict = {}
    ftop: dict = {}
    for t, c in op:
        feas.setdefault(t, set()).add(c)
        ftop.setdefault(c, set()).add(t)
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
    info_set_of = {}
    for c, ts in ftop.items():
        h = frozenset(ts)
        info_set_of[c] = one_of.setdefault(h, h)
    for t, cs in feas.items():
        if len({id(info_set_of[c]) for c in cs}) > 1:
            raise PreformError(
                "InfoSetOverlap",
                f"node {render_label(t)} lies in two distinct information sets",
                axiom="[P3]",
            )
    feas = {t: frozenset(cs) for t, cs in feas.items()}
    # the sets partition the decision nodes, so a set's choices are the
    # choices feasible at any of its nodes
    info_choices = {h: feas[next(iter(h))] for h in info_set_of.values()}
    info_sets = frozenset(info_choices)

    prev_choice = {t_next: c for (t, c), t_next in op.items()}

    return Preform(
        tree=tree,
        choices=choice_set,
        op=dict(op),
        feas=feas,
        info_sets=info_sets,
        info_choices=info_choices,
        info_set_of=info_set_of,
        prev_choice=prev_choice,
    )


def info_set_order(pf: Preform, info_sets: Iterable[frozenset]) -> list:
    """Information sets of ``pf`` in the order strategies list them, each
    paired with its choices sorted.

    Enumeration, the ``ncg`` reports and the choice of which cut
    information set a subgame refusal names all read this one order.
    """
    rank = pf.tree.rank
    return [
        (h, sorted(pf.info_choices[h], key=token_key))
        for h in sorted(info_sets, key=lambda h: sorted(rank[t] for t in h))
    ]


def strategies_over(pf: Preform, info_sets, cap: int) -> frozenset:
    """All choice sets selecting one feasible choice per information set
    in ``info_sets``; the empty selection when there are none."""
    count = prod(len(pf.info_choices[h]) for h in info_sets)
    if count > cap:
        raise StrategySpaceTooLarge(count, cap)
    pools = [choices for _h, choices in info_set_order(pf, info_sets)]
    return frozenset(frozenset(combo) for combo in itertools.product(*pools))


def selects_one_each(pf: Preform, s: frozenset, info_sets) -> bool:
    """Whether ``s`` holds exactly one choice of every set in ``info_sets``."""
    return all(len(s & pf.info_choices[h]) == 1 for h in info_sets)


def count_grand_strategies(pf: Preform) -> int:
    return prod(len(pf.info_choices[h]) for h in pf.info_sets)


def grand_strategies(pf: Preform, cap: int = DEFAULT_STRATEGY_CAP) -> frozenset:
    """All choice sets selecting exactly one feasible choice per information set."""
    return strategies_over(pf, pf.info_sets, cap)


def is_grand_strategy(pf: Preform, s: Iterable[Token]) -> bool:
    s = frozenset(s)
    return s <= pf.choices and selects_one_each(pf, s, pf.info_sets)


def play_of(pf: Preform, s: Iterable[Token]) -> Play:
    """The unique play whose every non-root node was produced by ``s``.

    Computed by walking from the root, at each decision node following
    the one choice the strategy selects there, until a terminal node.
    """
    s = frozenset(s)
    if not is_grand_strategy(pf, s):
        raise PreformError(
            "NotAStrategy",
            f"{render_strategy(s)} does not select exactly one feasible choice "
            "per information set",
        )
    t = pf.tree.root
    while t in pf.tree.decision_nodes:
        (c,) = s & pf.feas[t]
        t = pf.op[(t, c)]
    return pf.tree.play_by_end[t]


@dataclass(frozen=True, eq=False)
class PreformMorphism(Structural):
    """A node map and a choice map preserving the operator graph."""

    source: Preform
    target: Preform
    tau: Mapping[NodeLabel, NodeLabel]
    delta: Mapping[Token, Token]
    tree_morphism: TreeMorphism = field(compare=False, repr=False)


def validate_preform_morphism(
    source: Preform, target: Preform, tau: Mapping, delta: Mapping
) -> PreformMorphism:
    check_map(delta, source.choices, target.choices, "choice", "[p1]")
    check_map(tau, source.tree.nodes, target.tree.nodes, "node", "[p1]", source.tree.rank)
    for (t, c), t_next in source.op.items():
        if target.op.get((tau[t], delta[c])) != tau[t_next]:
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
    # pair, since each is an operator triple: the tree axioms hold
    tau = dict(tau)
    tree_morphism = TreeMorphism(source.tree, target.tree, tau)
    return PreformMorphism(source, target, tau, dict(delta), tree_morphism)


def identity_preform_morphism(pf: Preform) -> PreformMorphism:
    return validate_preform_morphism(
        pf, pf, {t: t for t in pf.tree.nodes}, {c: c for c in pf.choices}
    )


def compose_preform_morphisms(
    second: PreformMorphism, first: PreformMorphism
) -> PreformMorphism:
    check_composable(second, first)
    tau = {t: second.tau[first.tau[t]] for t in first.source.tree.nodes}
    delta = {c: second.delta[first.delta[c]] for c in first.source.choices}
    return validate_preform_morphism(first.source, second.target, tau, delta)


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
