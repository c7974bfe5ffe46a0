"""Isomorphism search between whole games."""

import json
import random
import time
from fractions import Fraction

import pytest

from ncgames import (
    DEFAULT_SEARCH_BUDGET,
    SearchBudgetExceeded,
    build_form,
    build_game,
    build_preform,
    find_isomorphism,
    nash_equilibria,
    parse_game,
    validate_game_morphism,
)
from ncgames.labels import Atom
from ncgames.transforms import apply_utility_transform, relabel_game

import property_checks
from conftest import a, make_classroom_game, nodes_of
from random_games import random_strict_map, stage_pooled_document, wide_document


def disguised_classroom():
    """The classroom game with every node, choice, and player renamed
    and all utilities tripled."""
    g = make_classroom_game()
    relabeled, _ = relabel_game(
        g,
        node_map={t: a(f"n{t.token}") for t in g.tree.nodes},
        choice_map={c: c.upper() for c in g.preform.choices},
        player_map={"P1": "student", "P2": "goat", "P3": "teacher"},
    )
    tripled, _ = apply_utility_transform(
        relabeled,
        {i: {u: 3 * u for u in relabeled.ranges[i]} for i in relabeled.players},
    )
    return tripled


def shuffled_copy(rng, g):
    """``g`` with its nodes renamed in a seeded shuffled order, its
    choices and players renamed, and its utilities strictly rescaled."""
    names = rng.sample(range(10 * len(g.tree.nodes)), len(g.tree.nodes))
    relabeled, _ = relabel_game(
        g,
        node_map={t: Atom(f"m{n}") for t, n in zip(g.tree.rank, names)},
        choice_map={c: f"{c}'" for c in g.preform.choices},
        player_map={i: f"{i}'" for i in g.players},
    )
    maps = {i: random_strict_map(rng, relabeled.ranges[i]) for i in relabeled.players}
    return apply_utility_transform(relabeled, maps)[0]


def perturbed(g):
    """``g`` with a utility shared by two plays moved outside the range,
    so the ranges differ in size and no isomorphism to ``g`` exists."""
    i = sorted(g.players)[0]
    row = dict(g.utilities[i])
    shared = next(z for z in row if list(row.values()).count(row[z]) > 1)
    row[shared] = max(row.values()) + 1
    return build_game(g.form, {**g.utilities, i: row})


class TestFindIsomorphism:
    def test_recovers_disguised_copy(self, classroom_game):
        target = disguised_classroom()
        start = time.monotonic()
        witness = find_isomorphism(classroom_game, target)
        elapsed = time.monotonic() - start
        assert witness is not None
        assert elapsed < 1.0
        assert witness.morphism.iota["P1"] == "student"
        assert witness.morphism.delta["e"] == "E"
        assert witness.morphism.tau[a(7)] == a("n7")
        assert witness.morphism.beta["P1"][Fraction(1)] == Fraction(3)

    def test_witness_revalidates_from_components(self, classroom_game):
        target = disguised_classroom()
        witness = find_isomorphism(classroom_game, target)
        m = witness.morphism
        again = validate_game_morphism(
            classroom_game, target, m.iota, m.tau, m.delta, m.beta
        )
        assert again == m

    def test_nash_transported_through_witness(self, classroom_game):
        target = disguised_classroom()
        witness = find_isomorphism(classroom_game, target)
        delta = witness.morphism.delta
        mapped = {
            frozenset(delta[c] for c in s) for s in nash_equilibria(classroom_game)
        }
        assert mapped == nash_equilibria(target)

    def test_split_information_variant_not_isomorphic(
        self, classroom_game, split_information_game
    ):
        assert find_isomorphism(classroom_game, split_information_game) is None

    def test_different_play_lengths_not_isomorphic(self):
        pf1 = build_preform({a(0), a(1)}, {"c"}, [(a(0), "c", a(1))])
        f1 = build_form(pf1, {"solo"}, {"solo": {"c"}})
        g1 = build_game(f1, {"solo": {frozenset({a(0), a(1)}): 0}})
        pf2 = build_preform(
            {a(0), a(1), a(2)}, {"c", "d"}, [(a(0), "c", a(1)), (a(1), "d", a(2))]
        )
        f2 = build_form(pf2, {"solo"}, {"solo": {"c", "d"}})
        g2 = build_game(f2, {"solo": {frozenset({a(0), a(1), a(2)}): 0}})
        assert find_isomorphism(g1, g2) is None

    def test_utility_order_mismatch_not_isomorphic(self, classroom_game):
        # same shape, but P1's preferences over plays are reordered, so no
        # strictly increasing utility map can match them
        table = {
            i: {z: classroom_game.utilities[i][z] for z in classroom_game.plays}
            for i in classroom_game.players
        }
        best = classroom_game.play_with_members(nodes_of(0, 3, 5))
        worst = classroom_game.play_with_members(nodes_of(0, 1, 4, 8))
        table["P1"][best], table["P1"][worst] = table["P1"][worst], table["P1"][best]
        flipped = build_game(classroom_game.form, table)
        assert find_isomorphism(classroom_game, flipped) is None

    def test_self_isomorphism_is_identity_like(self, classroom_game):
        witness = find_isomorphism(classroom_game, classroom_game)
        assert witness is not None
        assert witness.morphism.tau == {t: t for t in classroom_game.tree.nodes}

    def test_budget_guard(self, classroom_game):
        target = disguised_classroom()
        with pytest.raises(SearchBudgetExceeded):
            find_isomorphism(classroom_game, target, budget=2)

    def test_vacuous_players_must_match(self, classroom_game):
        from conftest import CLASSROOM_OWNERSHIP, CLASSROOM_UTILITIES, make_classroom_preform

        ownership = dict(CLASSROOM_OWNERSHIP)
        ownership["observer"] = set()
        form = build_form(
            make_classroom_preform(), {"P1", "P2", "P3", "observer"}, ownership
        )
        utilities = {i: dict(row) for i, row in CLASSROOM_UTILITIES.items()}
        utilities["observer"] = {
            z: 0 for z in form.preform.tree.plays
        }
        with_observer = build_game(form, utilities)
        assert find_isomorphism(classroom_game, with_observer) is None
        witness = find_isomorphism(with_observer, with_observer)
        assert witness is not None
        assert witness.morphism.iota["observer"] == "observer"

    def test_ownership_must_match(self):
        # the same preform and utilities; P1 owns one of the two lower
        # information sets in one game and neither in the other
        preform = build_preform(
            {a(k) for k in range(7)},
            {"a", "b", "c", "d", "e", "f"},
            [(a(0), "a", a(1)), (a(0), "b", a(2)), (a(1), "c", a(3)),
             (a(1), "d", a(4)), (a(2), "e", a(5)), (a(2), "f", a(6))],
        )

        def owned(assignment):
            form = build_form(preform, {"P1", "P2"}, assignment)
            zeros = {z: 0 for z in preform.tree.plays}
            return build_game(form, {i: zeros for i in form.players})

        g1 = owned({"P1": {"a", "b", "c", "d"}, "P2": {"e", "f"}})
        g2 = owned({"P1": {"a", "b"}, "P2": {"c", "d", "e", "f"}})
        assert find_isomorphism(g1, g2) is None
        assert find_isomorphism(g1, g1) is not None


class TestStagePooled:
    """Complete binary trees whose every stage is one information set:
    the nodes of a stage have one shape and one information set, so the
    search relies on the operator axiom to fix the choice map as it goes."""

    def pooled_pair(self, seed):
        rng = random.Random(seed)
        doc = stage_pooled_document(rng, depth=5, player_count=3)
        game = parse_game(json.dumps(doc))
        return game, shuffled_copy(rng, game)

    def test_relabelled_pair_answered_within_the_default_budget(self):
        game, copy = self.pooled_pair(7)
        witness = find_isomorphism(game, copy, budget=DEFAULT_SEARCH_BUDGET)
        assert witness is not None
        property_checks.check_iso_witness(witness)

    def test_perturbed_pair_refused_within_the_default_budget(self):
        game, copy = self.pooled_pair(7)
        assert find_isomorphism(game, perturbed(copy)) is None


class TestWide:
    """A root with eight leaves that only the deciding leaf tells apart:
    the leaves' utility ranks keep the search from trying their
    permutations."""

    def wide_pair(self, seed):
        rng = random.Random(seed)
        game = parse_game(json.dumps(wide_document(rng, width=8)))
        return game, shuffled_copy(rng, game)

    def test_relabelled_pair_found_within_twenty_expansions(self):
        game, copy = self.wide_pair(3)
        witness = find_isomorphism(game, copy, budget=20)
        assert witness is not None
        property_checks.check_iso_witness(witness)

    def test_perturbed_pair_refused_within_one_expansion(self):
        game, copy = self.wide_pair(3)
        assert find_isomorphism(game, perturbed(copy), budget=1) is None
