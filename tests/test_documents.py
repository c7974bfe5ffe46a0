"""Game and morphism documents: parsing, canonical serialization, errors."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from ncgames import (
    AxiomViolation,
    DocumentError,
    DocumentSyntaxError,
    identity_morphism,
    is_isomorphism,
    nash_equilibria,
    parse_game,
    parse_morphism,
    parse_witness,
    serialize_game,
    serialize_morphism,
    serialize_witness,
)
from ncgames.labels import Atom
from ncgames.transforms import apply_utility_transform, to_choice_sequence

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def classroom_text():
    return (FIXTURES / "classroom.game").read_text()


class TestParseGame:
    def test_classroom_fixture(self, classroom_text):
        game = parse_game(classroom_text)
        assert len(game.plays) == 5
        assert len(game.players) == 3
        from ncgames import grand_strategies

        assert len(grand_strategies(game.preform)) == 8

    def test_minimal_document(self):
        doc = {
            "format_version": "ncg/1",
            "players": ["solo"],
            "nodes": [{"atom": "r"}, {"atom": "x"}],
            "edges": [[{"atom": "r"}, "c", {"atom": "x"}]],
            "ownership": {"solo": ["c"]},
            "utilities": [
                {"play": [{"atom": "r"}, {"atom": "x"}], "values": {"solo": "0"}}
            ],
        }
        game = parse_game(json.dumps(doc))
        assert game.tree.root == Atom("r")

    def test_zero_denominator_is_syntax_error(self):
        doc = {
            "format_version": "ncg/1",
            "players": ["solo"],
            "nodes": [{"atom": "r"}, {"atom": "x"}],
            "edges": [[{"atom": "r"}, "c", {"atom": "x"}]],
            "ownership": {"solo": ["c"]},
            "utilities": [
                {"play": [{"atom": "r"}, {"atom": "x"}], "values": {"solo": "1/0"}}
            ],
        }
        with pytest.raises(DocumentSyntaxError):
            parse_game(json.dumps(doc))

    @pytest.mark.parametrize("text", ["3\n", "-1/2\n", "3 ", " 3", "+3\n\n"])
    def test_utility_text_must_be_exactly_a_rational(self, text):
        doc = {
            "format_version": "ncg/1",
            "players": ["solo"],
            "nodes": [{"atom": "r"}, {"atom": "x"}],
            "edges": [[{"atom": "r"}, "c", {"atom": "x"}]],
            "ownership": {"solo": ["c"]},
            "utilities": [
                {"play": [{"atom": "r"}, {"atom": "x"}], "values": {"solo": text}}
            ],
        }
        with pytest.raises(DocumentSyntaxError) as err:
            parse_game(json.dumps(doc))
        assert str(err.value) == f"SyntaxError: utility {text!r} is not rational text"

    def test_malformed_json_reports_position(self):
        with pytest.raises(DocumentSyntaxError) as err:
            parse_game("{ not json")
        assert err.value.line == 1

    def test_axiom_violation_carries_rule_name(self, classroom_text):
        doc = json.loads(classroom_text)
        doc["ownership"]["P2"] = ["g", "d", "e"]
        with pytest.raises(AxiomViolation) as err:
            parse_game(json.dumps(doc))
        assert err.value.inner.code == "ChoiceOwnedTwice"
        assert err.value.axiom == "[F2]"

    def test_missing_utility_axiom(self, classroom_text):
        doc = json.loads(classroom_text)
        for entry in doc["utilities"]:
            entry["values"].pop("P2", None)
        with pytest.raises(AxiomViolation) as err:
            parse_game(json.dumps(doc))
        assert err.value.inner.code == "MissingUtility"
        assert err.value.axiom == "[G2]"

    def test_wrong_version_rejected(self, classroom_text):
        doc = json.loads(classroom_text)
        doc["format_version"] = "ncg/2"
        with pytest.raises(DocumentSyntaxError):
            parse_game(json.dumps(doc))


class TestSerializeGame:
    def test_round_trip_is_identity_on_fixture(self, classroom_text):
        assert serialize_game(parse_game(classroom_text)) == classroom_text

    def test_serialize_parse_serialize_stable(self, classroom_game):
        text = serialize_game(classroom_game)
        assert serialize_game(parse_game(text)) == text

    def test_rationals_serialized_in_lowest_terms(self, classroom_game):
        scaled, _ = apply_utility_transform(
            classroom_game,
            {"P1": {Fraction(-1): Fraction(-2, 4), Fraction(0): 0, Fraction(1): 1}},
        )
        text = serialize_game(scaled)
        assert '"-1/2"' in text
        reparsed = parse_game(text)
        assert Fraction(-1, 2) in reparsed.ranges["P1"]

    def test_structured_labels_round_trip(self, classroom_game):
        seq_game, _ = to_choice_sequence(classroom_game)
        text = serialize_game(seq_game)
        assert parse_game(text) == seq_game


class TestMorphismDocuments:
    def test_identity_round_trip(self, classroom_text):
        game = parse_game(classroom_text)
        m = identity_morphism(game)
        text = serialize_morphism(m)
        assert parse_morphism(text) == m

    def test_conversion_morphism_round_trip(self, classroom_text):
        game = parse_game(classroom_text)
        _converted, witness = to_choice_sequence(game)
        text = serialize_morphism(witness.morphism)
        parsed = parse_morphism(text)
        assert parsed == witness.morphism
        assert is_isomorphism(parsed) is not None

    def test_game_by_path_reference(self, classroom_text, tmp_path):
        game = parse_game(classroom_text)
        (tmp_path / "g.game").write_text(classroom_text)
        m = identity_morphism(game)
        doc = json.loads(serialize_morphism(m))
        doc["source"] = "g.game"
        doc["target"] = "g.game"
        parsed = parse_morphism(json.dumps(doc), base_dir=tmp_path)
        assert parsed == m

    def test_bad_component_is_axiom_violation(self, classroom_text):
        game = parse_game(classroom_text)
        m = identity_morphism(game)
        doc = json.loads(serialize_morphism(m))
        doc["tau"] = doc["tau"][1:]
        with pytest.raises(AxiomViolation) as err:
            parse_morphism(json.dumps(doc))
        assert err.value.inner.code == "NotTotal"


class TestWitnessDocuments:
    def test_witness_round_trip(self, classroom_text):
        game = parse_game(classroom_text)
        _converted, witness = to_choice_sequence(game)
        text = serialize_witness(witness)
        parsed = parse_witness(text)
        assert parsed.morphism == witness.morphism
        assert parsed.inverse == witness.inverse

    def test_tampered_inverse_rejected(self, classroom_text):
        game = parse_game(classroom_text)
        scaled, witness = apply_utility_transform(
            game, {i: {u: 2 * u for u in game.ranges[i]} for i in game.players}
        )
        doc = json.loads(serialize_witness(witness))
        doc["inverse"], doc["morphism"] = doc["morphism"], doc["morphism"]
        with pytest.raises(DocumentError) as err:
            parse_witness(json.dumps(doc))
        assert err.value.code == "InverseMismatch"


class TestFixtures:
    def test_absentminded_fixture_parses(self):
        game = parse_game((FIXTURES / "absentminded.game").read_text())
        assert len(game.plays) == 3
        from ncgames.transforms import style_report

        assert not style_report(game).no_absentmindedness

    def test_all_fixtures_serialize_to_themselves(self):
        for path in sorted(FIXTURES.glob("*.game")):
            text = path.read_text()
            assert serialize_game(parse_game(text)) == text, path.name

    def test_classroom_fixture_nash(self, classroom_text):
        game = parse_game(classroom_text)
        assert nash_equilibria(game) == {
            frozenset({"b", "d", "f"}),
            frozenset({"b", "g", "f"}),
        }
