"""Style predicates and the canonical node-style conversions."""

import json
import random
from fractions import Fraction

import pytest

from ncgames import (
    GameError,
    TransformError,
    is_isomorphism,
    nash_equilibria,
    parse_game,
    validate_game_morphism,
)
from ncgames.labels import Seq, SetLabel
from ncgames.transforms import (
    apply_utility_transform,
    canonicalize,
    relabel_game,
    style_report,
    to_choice_sequence,
    to_choice_set,
)

from conftest import UNREADABLE, a, nodes_of
from random_games import families


class TestStyleReport:
    def test_classroom_flags(self, classroom_game):
        report = style_report(classroom_game)
        assert report.no_absentmindedness
        assert not report.perfect_information
        assert not report.uses_choice_sequences
        assert not report.uses_choice_sets

    def test_absentminded_game_flags(self, absentminded_game):
        report = style_report(absentminded_game)
        assert not report.no_absentmindedness
        assert not report.perfect_information
        assert report.uses_choice_sequences

    def test_split_information_game_is_perfect(self, split_information_game):
        report = style_report(split_information_game)
        assert report.perfect_information
        assert report.no_absentmindedness

    def test_choice_set_output_flag(self, classroom_game):
        result = canonicalize(classroom_game)
        assert style_report(result.game).uses_choice_sets


class TestToChoiceSequence:
    def test_node_histories(self, classroom_game):
        converted, w = to_choice_sequence(classroom_game)
        labels = {t for t in converted.tree.nodes}
        assert Seq(()) in labels
        assert Seq(("a", "d", "e")) in labels
        assert Seq(("b",)) in labels
        assert w.morphism.tau[a(0)] == Seq(())
        assert converted.tree.root == Seq(())
        assert style_report(converted).uses_choice_sequences

    def test_witness_validates_and_inverts(self, classroom_game):
        converted, witness = to_choice_sequence(classroom_game)
        m = witness.morphism
        assert m.source == classroom_game and m.target == converted
        again = validate_game_morphism(
            classroom_game, converted, m.iota, m.tau, m.delta, m.beta
        )
        assert is_isomorphism(again) is not None
        assert witness.inverse.tau[Seq(("a", "d", "e"))] == a(7)

    def test_nash_set_unchanged(self, classroom_game):
        converted, witness = to_choice_sequence(classroom_game)
        assert witness.morphism.delta == {
            c: c for c in classroom_game.preform.choices
        }
        assert nash_equilibria(converted) == nash_equilibria(classroom_game)

    def test_total_on_absentminded_games(self, absentminded_game):
        converted, witness = to_choice_sequence(absentminded_game)
        assert is_isomorphism(witness.morphism) is not None
        # already sequence-labeled, so the relabeling is the identity
        assert converted == absentminded_game

    def test_utilities_transported_along_images(self, classroom_game):
        converted, witness = to_choice_sequence(classroom_game)
        for i in classroom_game.players:
            for z in classroom_game.plays:
                image = converted.play_with_members(
                    frozenset(witness.morphism.tau[t] for t in z.path)
                )
                assert (
                    converted.utilities[i][image] == classroom_game.utilities[i][z]
                )


class TestToChoiceSet:
    def test_sequence_nodes_become_sets(self, classroom_game):
        seq_game, _ = to_choice_sequence(classroom_game)
        set_game, witness = to_choice_set(seq_game)
        assert SetLabel(frozenset()) in set_game.tree.nodes
        assert set_game.tree.root == SetLabel(frozenset())
        assert witness.morphism.tau[Seq(())] == SetLabel(frozenset())
        assert SetLabel(frozenset({"a", "d", "e"})) in set_game.tree.nodes
        assert style_report(set_game).uses_choice_sets
        assert is_isomorphism(witness.morphism) is not None

    def test_requires_sequence_style(self, classroom_game):
        with pytest.raises(TransformError) as err:
            to_choice_set(classroom_game)
        assert err.value.code == "NotChoiceSequenceGame"

    def test_absentminded_rejected(self, absentminded_game):
        seq_game, _ = to_choice_sequence(absentminded_game)
        with pytest.raises(TransformError) as err:
            to_choice_set(seq_game)
        assert err.value.code == "Absentminded"


class TestCanonicalize:
    def test_classroom_reaches_choice_sets(self, classroom_game):
        result = canonicalize(classroom_game)
        assert result.style == "choice-set"
        labels = result.game.tree.nodes
        assert SetLabel(frozenset({"b"})) in labels
        assert SetLabel(frozenset({"a", "d", "e"})) in labels
        assert is_isomorphism(result.witness.morphism) is not None

    def test_absentminded_stops_at_sequences(self, absentminded_game):
        result = canonicalize(absentminded_game)
        assert result.style == "choice-sequence"
        assert style_report(result.game).uses_choice_sequences

    def test_idempotent_on_canonical_games(self, classroom_game):
        first = canonicalize(classroom_game)
        second = canonicalize(first.game)
        assert second.game == first.game

    def test_witness_connects_original_to_canonical(self, classroom_game):
        result = canonicalize(classroom_game)
        assert result.witness.morphism.source == classroom_game
        assert result.witness.morphism.target == result.game
        assert nash_equilibria(result.game) == nash_equilibria(classroom_game)


class TestApplyUtilityTransform:
    def test_rescales_one_player(self, classroom_game):
        converted, witness = apply_utility_transform(
            classroom_game,
            {"P1": {Fraction(-1): Fraction(-1), Fraction(0): Fraction(0), Fraction(1): Fraction(3)}},
        )
        best = converted.play_with_members(nodes_of(0, 3, 5))
        assert converted.utilities["P1"][best] == Fraction(3)
        assert witness.morphism.beta["P2"] == {
            u: u for u in classroom_game.ranges["P2"]
        }

    def test_identity_maps_give_identity_witness(self, classroom_game):
        from ncgames import identity_morphism

        converted, witness = apply_utility_transform(classroom_game, {})
        assert converted == classroom_game
        assert witness.morphism == identity_morphism(classroom_game)

    def test_nash_invariant_under_transform(self, classroom_game):
        converted, _ = apply_utility_transform(
            classroom_game,
            {
                i: {u: 5 * u + 2 for u in classroom_game.ranges[i]}
                for i in classroom_game.players
            },
        )
        assert nash_equilibria(converted) == nash_equilibria(classroom_game)

    def test_partial_domain_rejected(self, classroom_game):
        with pytest.raises(TransformError) as err:
            apply_utility_transform(
                classroom_game, {"P1": {Fraction(0): Fraction(0), Fraction(1): Fraction(2)}}
            )
        assert err.value.code == "NotStrictlyIncreasing"

    def test_out_of_order_transform_names_its_least_pair(self, classroom_game):
        # -1 -> 5, 0 -> 3, 1 -> 1: both pairs are out of order, the least is named
        maps = {"P1": {Fraction(-1): 5, Fraction(0): 3, Fraction(1): 1}}
        with pytest.raises(TransformError) as err:
            apply_utility_transform(classroom_game, maps)
        assert (str(err.value), err.value.details["player"]) == (
            "NotStrictlyIncreasing: transform for P1 sends -1 and 0 out of order",
            "P1",
        )

    def test_an_undefined_transform_names_its_least_utility(self):
        # P1's range, a frozenset, iterates as 0, 2, 3, -1, -2; the least is named
        g = parse_game(json.dumps(
            families.to_document(families.stage_pooled_binary(random.Random(1), 3, 2))
        ))
        assert sorted(g.ranges["P1"]) == [-2, -1, 0, 2, 3]
        with pytest.raises(TransformError) as err:
            apply_utility_transform(g, {"P1": {Fraction(3): Fraction(3)}})
        assert (str(err.value), err.value.details["player"]) == (
            "NotStrictlyIncreasing: transform for P1 is undefined at -2, so it is "
            "not strictly increasing on the full utility range",
            "P1",
        )

    def test_utility_named_twice_rejected(self, classroom_game):
        # Fraction(-1) and "-1" name one utility; neither spelling may win
        maps = {"P1": {Fraction(-1): -1001, "-1": -1, "0": 0, "1": 1}}
        with pytest.raises(TransformError) as err:
            apply_utility_transform(classroom_game, maps)
        assert (err.value.code, err.value.details["player"]) == ("DuplicateUtility", "P1")

    def test_undeclared_player_rejected(self, classroom_game):
        with pytest.raises(TransformError) as err:
            apply_utility_transform(classroom_game, {"Z": {}})
        assert str(err.value) == (
            "UnknownPlayer: utility transform given for undeclared player Z"
        )

    def test_floats_are_rejected(self, classroom_game):
        maps = {"P1": {u: float(u) * 0.1 for u in classroom_game.ranges["P1"]}}
        with pytest.raises(GameError) as err:
            apply_utility_transform(classroom_game, maps)
        assert err.value.code == "NotRational"

    def test_booleans_are_rejected(self, classroom_game):
        maps = {"P1": {u: u for u in classroom_game.ranges["P1"]}}
        maps["P1"][Fraction(1)] = True
        with pytest.raises(GameError) as err:
            apply_utility_transform(classroom_game, maps)
        assert err.value.code == "NotRational"

    @pytest.mark.parametrize("text", UNREADABLE.values(), ids=UNREADABLE)
    def test_unreadable_text_rejected(self, classroom_game, text):
        maps = {"P1": {u: u for u in classroom_game.ranges["P1"]}}
        maps["P1"][max(maps["P1"])] = text
        with pytest.raises(GameError) as err:
            apply_utility_transform(classroom_game, maps)
        assert err.value.code == "NotRational"

    def test_rational_text_is_read_exactly(self, classroom_game):
        maps = {"P1": {str(u): str(u / 10) for u in classroom_game.ranges["P1"]}}
        converted, _ = apply_utility_transform(classroom_game, maps)
        assert converted.ranges["P1"] == {u / 10 for u in classroom_game.ranges["P1"]}


class TestRelabel:
    def test_conflicting_relabel_rejected(self, classroom_game):
        with pytest.raises(TransformError) as err:
            relabel_game(
                classroom_game,
                node_map={a(5): a(99), a(6): a(99)},
            )
        assert err.value.code == "NotInjective"

    def test_relabel_preserves_structure(self, classroom_game):
        relabeled, witness = relabel_game(
            classroom_game, node_map={t: a(t.token + 10) for t in classroom_game.tree.nodes}
        )
        assert relabeled.tree.root == a(10)
        assert witness.morphism.tau[a(0)] == a(10)
        assert nash_equilibria(relabeled) == nash_equilibria(classroom_game)
