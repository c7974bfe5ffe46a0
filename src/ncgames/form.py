"""Forms: a preform whose choices are owned by players.

Ownership must cover every choice exactly once, and all choices
feasible at a node must belong to one player.  Vacuous players (owning
no choices) are accepted, but only when declared explicitly with an
empty choice set; silently omitting a player from the assignment would
hide typos.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace
from typing import Iterable, Mapping

from .errors import FormError, MorphismError
from .labels import NodeLabel, Token, render_label, render_token, token_key
from .preform import (
    DEFAULT_STRATEGY_CAP,
    Preform,
    PreformMorphism,
    _compose_preform_morphisms,
    identity_preform_morphism,
    is_grand_strategy,
    is_subpreform,
    render_strategy,
    selects_one_each,
    strategies_over,
    validate_preform_morphism,
)
from .tree import Structural, check_composable, check_map

__all__ = [
    "Form",
    "FormMorphism",
    "build_form",
    "player_strategies",
    "grand_to_profile",
    "profile_to_grand",
    "validate_form_morphism",
    "identity_form_morphism",
    "compose_form_morphisms",
    "is_subform",
]


@dataclass(frozen=True, eq=False)
class Form(Structural):
    """A validated form with per-player derived structure; ``player_rank``
    lists the players in ``token_key`` order, each with its position."""

    preform: Preform
    players: frozenset
    assignment: Mapping[Token, frozenset]
    owner: Mapping[Token, Token] = field(compare=False)
    player_info_sets: Mapping[Token, frozenset] = field(compare=False)
    player_rank: Mapping[Token, int] = field(compare=False, repr=False)

    def __repr__(self) -> str:
        return f"Form({len(self.players)} players over {self.preform!r})"


def build_form(
    preform: Preform, players: Iterable[Token], choice_assignment: Mapping
) -> Form:
    """Validate player ownership over an already validated preform."""
    player_set = frozenset(players)
    player_rank = {i: k for k, i in enumerate(sorted(player_set, key=token_key))}
    assignment = {i: frozenset(cs) for i, cs in choice_assignment.items()}

    for i in assignment:
        if i not in player_set:
            raise FormError(
                "UnknownPlayer",
                f"assignment mentions undeclared player {render_token(i)}",
            )
    for i in player_rank:
        if i not in assignment:
            raise FormError(
                "MissingPlayer",
                f"player {render_token(i)} has no choice assignment; "
                "declare vacuous players with an empty set",
            )

    owner: dict = {}
    for i in player_rank:
        for c in assignment[i]:
            if c not in preform.choices:
                raise FormError(
                    "UnknownChoice",
                    f"player {render_token(i)} owns undeclared choice {render_token(c)}",
                )
            if c in owner:
                raise FormError(
                    "ChoiceOwnedTwice",
                    f"choice {render_token(c)} is owned by both "
                    f"{render_token(owner[c])} and {render_token(i)}",
                    axiom="[F2]",
                )
            owner[c] = i
    unassigned = preform.choices - owner.keys()
    if unassigned:
        listing = ",".join(sorted((render_token(c) for c in unassigned)))
        raise FormError(
            "UnassignedChoice",
            f"choices owned by no player: {listing}",
            axiom="[F1]",
        )

    # a node's choices are its set's, and sets go by their least-ranked node
    for h, choices in preform.info_set_order:
        if len({owner[c] for c in choices}) > 1:
            raise FormError(
                "NodeSplitAcrossPlayers",
                f"choices feasible at {render_label(min(h, key=preform.tree.rank.get))} "
                "belong to several players",
                axiom="[F3]",
            )

    player_info_sets = {
        i: frozenset(preform.info_set_of[c] for c in cs) for i, cs in assignment.items()
    }

    return Form(
        preform=preform,
        players=player_set,
        assignment=assignment,
        owner=owner,
        player_info_sets=player_info_sets,
        player_rank=player_rank,
    )


def player_strategies(
    form: Form, i: Token, cap: int = DEFAULT_STRATEGY_CAP
) -> frozenset:
    """All choice sets selecting one feasible choice per information set of ``i``.

    A vacuous player's only strategy is the empty set.
    """
    if i not in form.players:
        raise FormError("UnknownPlayer", f"{render_token(i)} is not a player of this form")
    return strategies_over(form.preform, form.player_info_sets[i], cap)


def grand_to_profile(form: Form, s: Iterable[Token]) -> dict:
    """Split a grand strategy into per-player components."""
    s = frozenset(s)
    if not is_grand_strategy(form.preform, s):
        raise FormError(
            "NotAStrategy",
            f"{render_strategy(s)} is not a grand strategy of this form",
        )
    return {i: s & form.assignment[i] for i in form.players}


def profile_to_grand(form: Form, profile: Mapping) -> frozenset:
    """Merge one strategy per player back into a grand strategy."""
    for i in profile:
        if i not in form.players:
            raise FormError(
                "UnknownPlayer",
                f"profile mentions undeclared player {render_token(i)}",
            )
    union: set = set()
    for i in form.player_rank:
        if i not in profile:
            raise FormError(
                "MissingPlayer",
                f"profile assigns no strategy to player {render_token(i)}",
            )
        component = frozenset(profile[i])
        if not (
            component <= form.assignment[i]
            and selects_one_each(form.preform, component, form.player_info_sets[i])
        ):
            raise FormError(
                "InvalidComponent",
                f"{render_strategy(component)} is not a strategy of player {render_token(i)}",
                player=i,
            )
        union |= component
    return frozenset(union)


@dataclass(frozen=True, eq=False)
class FormMorphism(Structural):
    """Player, node, and choice maps preserving structure and ownership;
    the node map is kept in ``_ids`` as a preform morphism keeps it, and
    its preform morphism and ``tau`` are views of its maps."""

    source: Form
    target: Form
    iota: Mapping[Token, Token]
    delta: Mapping[Token, Token]
    _ids: SimpleNamespace = field(compare=False, repr=False)

    _defining_views = ("tau",)

    @cached_property
    def preform_morphism(self) -> PreformMorphism:
        source, target = self.source.preform, self.target.preform
        return PreformMorphism(source, target, self.delta, self._ids)

    @cached_property
    def tau(self) -> Mapping[NodeLabel, NodeLabel]:
        return self.preform_morphism.tau


def validate_form_morphism(
    source: Form, target: Form, iota: Mapping, tau: Mapping, delta: Mapping
) -> FormMorphism:
    check_map(iota, source.players, target.players, "player", "[f1]", source.player_rank.get)
    below = validate_preform_morphism(source.preform, target.preform, tau, delta)
    for i in source.player_rank:
        image = {below.delta[c] for c in source.assignment[i]}
        if not image <= target.assignment[iota[i]]:
            raise MorphismError(
                "PlayerOwnershipViolated",
                f"choices of player {render_token(i)} do not all map to choices of "
                f"{render_token(iota[i])}",
                axiom="[f3]",
                player=i,
            )
    return FormMorphism(source, target, dict(iota), below.delta, below._ids)


def identity_form_morphism(form: Form) -> FormMorphism:
    """The identity on ``form``, built unvalidated: a morphism by theorem."""
    below = identity_preform_morphism(form.preform)
    return FormMorphism(form, form, {i: i for i in form.players}, below.delta, below._ids)


def compose_form_morphisms(second: FormMorphism, first: FormMorphism) -> FormMorphism:
    """``first`` and then ``second``, unvalidated: a morphism by theorem."""
    check_composable(second, first)
    return _compose_form_morphisms(second, first)


def _compose_form_morphisms(second: FormMorphism, first: FormMorphism) -> FormMorphism:
    """``compose_form_morphisms`` of two morphisms the caller has checked
    compose: their preforms' morphisms compose too."""
    below = _compose_preform_morphisms(second.preform_morphism, first.preform_morphism)
    iota = {i: second.iota[first.iota[i]] for i in first.source.players}
    return FormMorphism(first.source, second.target, iota, below.delta, below._ids)


def is_subform(inner: Form, outer: Form) -> bool:
    """Whether ``inner`` is ``outer`` restricted to the up-set of ``inner``'s root."""
    if not inner.players <= outer.players:
        return False
    if any(
        not inner.assignment[i] <= outer.assignment[i] for i in inner.players
    ):
        return False
    return is_subpreform(inner.preform, outer.preform)
