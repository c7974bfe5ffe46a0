"""Style predicates and constructive conversions between node styles.

Any game can be relabeled so that each node literally is the sequence
of choices leading to it; the relabeling is an isomorphism and is
returned alongside the converted game as a machine-checked witness.
Collapsing those sequences to sets is also possible, but only for
games without absentmindedness: with an information set containing two
comparable nodes, distinct histories would collapse to one set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Mapping, Optional, Tuple

from .errors import TransformError
from .form import build_form
from .game import (
    Game,
    GameMorphism,
    IsoWitness,
    _as_fraction,
    build_game,
    identity_morphism,
    is_isomorphism,
)
from .labels import NodeLabel, Seq, SetLabel, Token, render_token
from .preform import build_preform
from .tree import TreeMorphism

__all__ = [
    "StyleReport",
    "CanonicalForm",
    "style_report",
    "to_choice_sequence",
    "to_choice_set",
    "canonicalize",
    "apply_utility_transform",
    "relabel_game",
]


@dataclass(frozen=True)
class StyleReport:
    """Structural style flags of a game."""

    no_absentmindedness: bool
    perfect_information: bool
    uses_choice_sequences: bool
    uses_choice_sets: bool


@dataclass(frozen=True)
class CanonicalForm:
    """Result of :func:`canonicalize`: the game, its witness, and the style reached."""

    game: Game
    witness: IsoWitness
    style: str


def _absentminded(g: Game) -> bool:
    """Whether some path from the root meets one information set twice,
    by one walk down the tree that keeps the sets on the current path."""
    tree, feas, info_set_of = g.tree, g.preform.feas, g.preform.info_set_of
    on_path: set = set()
    stack = [(tree.root, True)]
    while stack:
        t, entering = stack.pop()
        if t in feas:  # a decision node
            h = info_set_of[next(iter(feas[t]))]
            if not entering:
                on_path.remove(h)
            elif h in on_path:
                return True
            else:
                on_path.add(h)
                stack.append((t, False))
                stack.extend((child, True) for child in tree.children(t))
    return False


def _uses_labels(g: Game, empty: NodeLabel, extend) -> bool:
    """Whether every node is a label of ``empty``'s kind, ``empty`` among
    them, and each successor's choices are ``extend(choices, c)`` of its
    node's choices and the choice ``c`` leading to it."""
    nodes, kind = g.tree.nodes, type(empty)
    return (
        all(isinstance(t, kind) for t in nodes)
        and empty in nodes
        and all(
            t_next.choices == extend(t.choices, c) for (t, c), t_next in g.preform.op.items()
        )
    )


def style_report(g: Game) -> StyleReport:
    """Evaluate the four style predicates structurally."""
    return StyleReport(
        no_absentmindedness=not _absentminded(g),
        perfect_information=all(len(h) == 1 for h in g.preform.info_sets),
        uses_choice_sequences=_uses_labels(g, Seq(()), lambda cs, c: cs + (c,)),
        uses_choice_sets=_uses_labels(g, SetLabel(frozenset()), lambda cs, c: cs | {c}),
    )


def _histories(g: Game) -> Dict[NodeLabel, tuple]:
    """Each node's sequence of choices from the root."""
    tree, prev = g.tree, g.preform.prev_choice
    histories = {tree.root: ()}
    for t in tree.stage_order[1:]:  # the root is the one node of stage 0
        histories[t] = histories[tree.pred[t]] + (prev[t],)
    return histories


def to_choice_sequence(g: Game) -> Tuple[Game, IsoWitness]:
    """Relabel every node as the sequence of choices leading to it.

    Total on valid games, absentminded ones included; the root becomes
    the empty sequence.
    """
    return relabel_game(g, node_map={t: Seq(h) for t, h in _histories(g).items()})


def to_choice_set(g: Game) -> Tuple[Game, IsoWitness]:
    """Collapse sequence labels to their sets of members.

    Defined on choice-sequence games without absentmindedness; on those
    the collapse is injective, and :func:`relabel_game` rejects the
    node map with ``NotInjective`` if it ever is not.
    """
    report = style_report(g)
    if not report.uses_choice_sequences:
        raise TransformError(
            "NotChoiceSequenceGame",
            "nodes must be choice sequences before collapsing them to sets",
        )
    if not report.no_absentmindedness:
        raise TransformError(
            "Absentminded",
            "an information set contains two comparable nodes, so distinct "
            "histories would collapse to one set",
        )
    return relabel_game(
        g, node_map={t: SetLabel(frozenset(t.choices)) for t in g.tree.nodes}
    )


def canonicalize(g: Game) -> CanonicalForm:
    """Convert to the choice-set style when possible, else to choice sequences.

    One relabeling maps each node straight to its choice history, as a
    set unless the game is absentminded (an isomorphism invariant, so
    the input decides it); the ``style`` field reports which style was
    reached instead of failing on absentminded inputs.
    """
    histories = _histories(g)
    if not _absentminded(g):
        node_map = {t: SetLabel(frozenset(h)) for t, h in histories.items()}
        return CanonicalForm(*relabel_game(g, node_map=node_map), "choice-set")
    node_map = {t: Seq(h) for t, h in histories.items()}
    return CanonicalForm(*relabel_game(g, node_map=node_map), "choice-sequence")


def apply_utility_transform(g: Game, maps: Mapping) -> Tuple[Game, IsoWitness]:
    """Rescale each player's utilities by a strictly increasing finite map.

    Players omitted from ``maps`` keep their utilities.  Each supplied
    map must be strictly increasing on the player's full utility range,
    which in particular requires it to be defined there.
    """
    for i in maps:
        if i not in g.players:
            raise TransformError(
                "UnknownPlayer",
                f"utility transform given for undeclared player {render_token(i)}",
            )
    beta: Dict[Token, Dict[Fraction, Fraction]] = {}
    for i in g.form.player_rank:
        supplied = {
            _as_fraction(u): _as_fraction(v) for u, v in maps.get(i, {}).items()
        }
        bmap = {}
        for u in g.ranges[i]:
            if i in maps and u not in supplied:
                raise TransformError(
                    "NotStrictlyIncreasing",
                    f"transform for {render_token(i)} is undefined at {u}, so it is "
                    "not strictly increasing on the full utility range",
                    player=i,
                )
            bmap[u] = supplied.get(u, u)
        ordered = sorted(bmap)
        for u1, u2 in zip(ordered, ordered[1:]):
            if bmap[u1] >= bmap[u2]:
                raise TransformError(
                    "NotStrictlyIncreasing",
                    f"transform for {render_token(i)} sends {u1} and {u2} out of order",
                    player=i,
                )
        beta[i] = bmap
    utilities = {
        i: {z: beta[i][g.utilities[i][z]] for z in g.plays} for i in g.players
    }
    converted = build_game(g.form, utilities)
    # identity structure maps, strictly increasing utility maps: an isomorphism
    morphism = replace(identity_morphism(g), target=converted, beta=beta)
    return converted, is_isomorphism(morphism)


def relabel_game(
    g: Game,
    node_map: Optional[Mapping] = None,
    choice_map: Optional[Mapping] = None,
    player_map: Optional[Mapping] = None,
) -> Tuple[Game, IsoWitness]:
    """Rename nodes, choices, and players; the renaming is an isomorphism.

    Maps default to the identity and must be injective on their
    domains.
    """
    tau = {t: (node_map or {}).get(t, t) for t in g.tree.nodes}
    delta = {c: (choice_map or {}).get(c, c) for c in g.preform.choices}
    iota = {i: (player_map or {}).get(i, i) for i in g.players}
    for name, mapping in (("node", tau), ("choice", delta), ("player", iota)):
        if len(set(mapping.values())) != len(mapping):
            raise TransformError(
                "NotInjective", f"{name} relabeling identifies two distinct {name}s"
            )
    triples = [
        (tau[t], delta[c], tau[t_next]) for (t, c), t_next in g.preform.op.items()
    ]
    preform = build_preform(set(tau.values()), set(delta.values()), triples)
    assignment = {
        iota[i]: frozenset(delta[c] for c in g.form.assignment[i]) for i in g.players
    }
    form = build_form(preform, set(iota.values()), assignment)
    images = TreeMorphism(g.tree, preform.tree, tau).play_images.items()
    utilities = {
        iota[i]: {image: g.utilities[i][z] for z, image in images} for i in g.players
    }
    converted = build_game(form, utilities)
    # a bijective relabelling of a valid game: a morphism by construction
    beta = {i: {u: u for u in g.ranges[i]} for i in g.players}
    return converted, is_isomorphism(GameMorphism(g, converted, iota, tau, delta, beta))
