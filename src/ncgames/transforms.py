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
    _priced,
    identity_morphism,
    is_isomorphism,
)
from .labels import NodeLabel, Seq, SetLabel, Token, render_token
from .preform import _preform_from_ids

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
    """Whether some path from the root meets one information set twice.
    Subtrees are stretches of the walk, nested or disjoint, so then some
    node of the set lies in the subtree of the one before it in the walk."""
    ids = g.tree._ids
    enter, leave = ids.enter, ids.leave
    for h in g.preform._ids.sets:
        ks = sorted(h, key=enter.__getitem__)
        if any(enter[k] < leave[up] for up, k in zip(ks, ks[1:])):
            return True
    return False


def _uses_labels(g: Game, kind: type) -> bool:
    """Whether every node is a label of ``kind``, the empty one among
    them, and each successor is the label of ``kind`` of its node's
    choices followed by the choice leading to it."""
    labels = g.tree._ids.labels
    return (
        all(isinstance(t, kind) for t in labels)
        and kind() in g.tree.nodes
        and all(
            labels[u] == kind((*labels[t].choices, c)) for (t, c), u in g.preform._ids.op.items()
        )
    )


def style_report(g: Game) -> StyleReport:
    """Evaluate the four style predicates structurally."""
    return StyleReport(
        no_absentmindedness=not _absentminded(g),
        perfect_information=all(len(h) == 1 for h in g.preform.info_sets),
        uses_choice_sequences=_uses_labels(g, Seq),
        uses_choice_sets=_uses_labels(g, SetLabel),
    )


def _histories(g: Game, kind: type) -> Dict[NodeLabel, NodeLabel]:
    """Each node mapped to the label of ``kind`` of its choices from the root."""
    ids = g.tree._ids
    prev = {u: c for (_t, c), u in g.preform._ids.op.items()}
    histories = [()] * len(ids.walk)
    for k in ids.walk[1:]:  # each node after its parent, the root first
        histories[k] = histories[ids.parent[k]] + (prev[k],)
    return dict(zip(ids.labels, map(kind, histories)))


def to_choice_sequence(g: Game) -> Tuple[Game, IsoWitness]:
    """Relabel every node as the sequence of choices leading to it.

    Total on valid games, absentminded ones included; the root becomes
    the empty sequence.
    """
    return relabel_game(g, node_map=_histories(g, Seq))


def to_choice_set(g: Game) -> Tuple[Game, IsoWitness]:
    """Collapse sequence labels to their sets of members.

    Defined on choice-sequence games without absentmindedness; on those
    the collapse is injective, and :func:`relabel_game` rejects the
    node map with ``NotInjective`` if it ever is not.
    """
    if not _uses_labels(g, Seq):
        raise TransformError(
            "NotChoiceSequenceGame",
            "nodes must be choice sequences before collapsing them to sets",
        )
    if _absentminded(g):
        raise TransformError(
            "Absentminded",
            "an information set contains two comparable nodes, so distinct "
            "histories would collapse to one set",
        )
    return relabel_game(g, node_map={t: SetLabel(t.choices) for t in g.tree.nodes})


def canonicalize(g: Game) -> CanonicalForm:
    """Convert to the choice-set style when possible, else to choice sequences.

    One relabeling maps each node straight to its choice history, as a
    set unless the game is absentminded (an isomorphism invariant, so
    the input decides it); the ``style`` field reports which style was
    reached instead of failing on absentminded inputs.
    """
    if _absentminded(g):
        return CanonicalForm(*to_choice_sequence(g), "choice-sequence")
    return CanonicalForm(*relabel_game(g, node_map=_histories(g, SetLabel)), "choice-set")


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
        given = maps.get(i, {})
        supplied = {_as_fraction(u): _as_fraction(v) for u, v in given.items()}
        if len(supplied) != len(given):
            raise TransformError(
                "DuplicateUtility",
                f"transform for {render_token(i)} names one utility twice",
                player=i,
            )
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
    rows = {i: enumerate(map(beta[i].__getitem__, v)) for i, v in g._ids.values.items()}
    converted = _priced(g.form, rows)
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
    domains.  The converted game keeps the node ids of ``g`` under their
    new labels, and each play keeps its utilities.
    """
    tau = {t: (node_map or {}).get(t, t) for t in g.tree.nodes}
    delta = {c: (choice_map or {}).get(c, c) for c in g.preform.choices}
    iota = {i: (player_map or {}).get(i, i) for i in g.players}
    for name, mapping in (("node", tau), ("choice", delta), ("player", iota)):
        if len(set(mapping.values())) != len(mapping):
            raise TransformError(
                "NotInjective", f"{name} relabeling identifies two distinct {name}s"
            )
    triples = ((t, delta[c], u) for (t, c), u in g.preform._ids.op.items())
    labels = list(map(tau.__getitem__, g.tree._ids.labels))
    # through sets, so nodes and choices iterate as ``build_preform``'s would
    preform = _preform_from_ids(
        frozenset(set(tau.values())), labels, frozenset(set(delta.values())), triples
    )
    assignment = {
        iota[i]: frozenset(delta[c] for c in g.form.assignment[i]) for i in g.players
    }
    form = build_form(preform, set(iota.values()), assignment)
    plays = preform.tree._ids.plays
    moved = [plays[end][0] for end in g.tree._ids.plays]  # each play's position there
    converted = _priced(form, {iota[i]: zip(moved, v) for i, v in g._ids.values.items()})
    # a bijective relabelling of a valid game: a morphism by construction
    beta = {i: {u: u for u in g.ranges[i]} for i in g.players}
    return converted, is_isomorphism(GameMorphism(g, converted, iota, tau, delta, beta))
