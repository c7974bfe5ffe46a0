"""Game and morphism documents: parsing, canonical serialization, errors."""

import gc
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ncgames import (
    AxiomViolation,
    DocumentError,
    DocumentSyntaxError,
    build_game,
    identity_morphism,
    is_isomorphism,
    load_game,
    nash_equilibria,
    parse_game,
    parse_morphism,
    parse_witness,
    serialize_game,
    serialize_morphism,
    serialize_witness,
    validate_game_morphism,
)
from ncgames import documents
from ncgames.labels import Atom, SetLabel
from ncgames.transforms import (
    apply_utility_transform,
    canonicalize,
    to_choice_sequence,
)

import test_golden_outputs as golden
from conftest import assert_reads_as_json_loads
from random_games import families

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

    def test_duplicate_player_entry(self, classroom_text):
        doc = json.loads(classroom_text)
        doc["players"].append(doc["players"][0])
        with pytest.raises(DocumentSyntaxError) as err:
            parse_game(json.dumps(doc))
        assert str(err.value) == "SyntaxError: duplicate player entry"

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


def _morphism_doc(m):
    return json.loads(serialize_morphism(m))


def _witness_doc(morphism, inverse):
    return {"format_version": "ncg/1", "morphism": morphism, "inverse": inverse}


def _collapsing_morphism(game):
    """A valid morphism that sends P1's utilities -1 and 0 both to 0."""
    collapse = {
        Fraction(-1): Fraction(0), Fraction(0): Fraction(0), Fraction(1): Fraction(1)
    }
    table = {i: dict(row) for i, row in game.utilities.items()}
    table["P1"] = {z: collapse[u] for z, u in table["P1"].items()}
    target = build_game(game.form, table)
    identity = identity_morphism(game)
    return validate_game_morphism(
        game, target, identity.iota, identity.tau, identity.delta,
        {**identity.beta, "P1": collapse},
    )


def _swap_first_tau_images(doc):
    """The morphism document with its first two node images swapped."""
    tau = doc["tau"]
    tau[0][1], tau[1][1] = tau[1][1], tau[0][1]
    return doc


def _canonical_witness_doc(game):
    return json.loads(serialize_witness(canonicalize(game).witness))


def _inverse_no_morphism(game):
    doc = _canonical_witness_doc(game)
    _swap_first_tau_images(doc["inverse"])
    return doc


def _inverse_of_another_morphism(game):
    doc = _canonical_witness_doc(game)
    doc["inverse"] = _morphism_doc(identity_morphism(canonicalize(game).game))
    return doc


def _not_bijective_valid_inverse(game):
    return _witness_doc(
        _morphism_doc(_collapsing_morphism(game)), _morphism_doc(identity_morphism(game))
    )


def _not_bijective_invalid_inverse(game):
    return _witness_doc(
        _morphism_doc(_collapsing_morphism(game)),
        _swap_first_tau_images(_morphism_doc(identity_morphism(game))),
    )


# each tampering of a witness with its verdict: code, inner code, message
WITNESS_VERDICTS = {
    "inverse no morphism": (
        _inverse_no_morphism, "AxiomViolation", "TripleNotPreserved",
        "AxiomViolation [p2]: TripleNotPreserved [p2]: triple ({}, a, {a}) "
        "does not map into the target operator graph",
    ),
    "inverse of another morphism": (
        _inverse_of_another_morphism, "InverseMismatch", None,
        "InverseMismatch: embedded inverse is not the inverse of the morphism",
    ),
    "not bijective, valid inverse": (
        _not_bijective_valid_inverse, "NotAnIsomorphism", None,
        "NotAnIsomorphism: embedded morphism does not biject",
    ),
    "not bijective, invalid inverse": (
        _not_bijective_invalid_inverse, "AxiomViolation", "TripleNotPreserved",
        "AxiomViolation [p2]: TripleNotPreserved [p2]: triple (0, a, 1) "
        "does not map into the target operator graph",
    ),
}


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

    @pytest.mark.parametrize(
        "tampering, code, inner, message", WITNESS_VERDICTS.values(), ids=WITNESS_VERDICTS
    )
    def test_verdict_order(self, classroom_text, tampering, code, inner, message):
        """An inverse that is no morphism is reported before the morphism
        is found not to biject or the inverse not to match."""
        game = parse_game(classroom_text)
        with pytest.raises(DocumentError) as err:
            parse_witness(json.dumps(tampering(game)))
        assert err.value.code == code
        assert (err.value.inner.code if code == "AxiomViolation" else None) == inner
        assert str(err.value) == message


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


def _chain_doc(kind, values):
    """A one-player document on a root with one child per entry of
    ``values``, reached by the entry's choice; ``kind`` labels nodes as
    ``atom``, ``seq`` or ``set`` specs of their choice histories."""

    def spec(history):
        return {"atom": "/".join(history) or "r"} if kind == "atom" else {kind: history}

    root = spec([])
    children = [(f"c{k}", spec([f"c{k}"])) for k in range(len(values))]
    return {
        "format_version": "ncg/1",
        "players": ["solo"],
        "nodes": [root] + [child for _c, child in children],
        "edges": [[root, c, child] for c, child in children],
        "ownership": {"solo": [c for c, _child in children]},
        "utilities": [
            {"play": [root, child], "values": {"solo": value}}
            for (_c, child), value in zip(children, values)
        ],
    }


def _assert_one_object_per_node(g):
    """Every place a game holds a node holds the tree's own object."""
    ids = {id(t) for t in g.tree.nodes}
    held = [g.tree.root, *g.tree.pred, *g.tree.pred.values(), *g.tree.stage, *g.tree.rank]
    held += [*g.tree.decision_nodes, *g.tree.children_map, *g.tree.play_by_end]
    held += [t for kids in g.tree.children_map.values() for t in kids]
    for (t, _c), t_next in g.preform.op.items():
        held += [t, t_next]
    for z in g.plays:
        held += [z.end, *z.path]
    held += [t for h in g.preform.info_sets for t in h]
    assert all(id(t) in ids for t in held)
    assert all(z in g.plays for row in g.utilities.values() for z in row)


DIGITS = "1" * (sys.get_int_max_str_digits() + 1)


class TestRationalReader:
    """A utility is an integer or a text that ``_RATIONAL`` matches; each
    distinct text is read once, into one shared ``Fraction``."""

    @pytest.mark.parametrize("text", [
        "0", "+0", "-0", "-0/7", "+3", "-3", "3/4", "+3/4", "-3/4", "6/4",
        "007", "-007/3", "3/004", "000/0001", "123456789/987654321",
        "-98765432109876543210/12345678901234567890",
    ])
    def test_text_reads_as_fraction_does(self, text):
        read = documents._rational_reader()
        number = read(text)
        assert type(number) is Fraction
        assert number == Fraction(text)
        assert read("".join(list(text))) is number  # an equal text, another object

    @pytest.mark.parametrize("value", [
        "1.5", "1/0", "1/", "/2", "1e3", " 1", "1 ", "1/-2", "", "+", True, 1.0, None, [1],
    ])
    def test_refused_values_are_named(self, value):
        with pytest.raises(DocumentSyntaxError) as err:
            documents._rational_reader()(value)
        assert str(err.value) == f"SyntaxError: utility {value!r} is not rational text"

    @pytest.mark.parametrize("text", [DIGITS, "-" + DIGITS, "1/" + DIGITS, DIGITS + "/3"])
    def test_numbers_past_the_digit_limit_are_refused(self, text):
        expected = (
            "SyntaxError: utility has a number of more than "
            f"{sys.get_int_max_str_digits()} digits"
        )
        with pytest.raises(DocumentSyntaxError) as err:
            documents._rational_reader()(text)
        assert str(err.value) == expected
        with pytest.raises(DocumentSyntaxError) as err:
            parse_game(json.dumps(_chain_doc("atom", ["1", text])))
        assert str(err.value) == expected


class TestOneLabelPerNode:
    """A parsed game shares one label object per node, and a repeated
    spec is judged exactly as its first occurrence would be."""

    @pytest.mark.parametrize(
        "kind, bad, message",
        [
            ("seq", {"seq": "c0"}, "seq node 'c0' must list choice tokens"),
            ("set", {"set": "c0"}, "set node 'c0' must list choice tokens"),
            ("atom", {"atom": ["c0"]}, "atom token ['c0'] must be text"),
            ("seq", {"seq": [["c0"]]}, "seq node [['c0']] must list choice tokens"),
            ("seq", {"seq": ["c0", 1]}, "seq node ['c0', 1] must list choice tokens"),
            ("atom", {"atom": "c0", "seq": ["c0"]}, "node spec {'atom': 'c0', "
             "'seq': ['c0']} must have exactly one key"),
            ("seq", {"Seq": ["c0"]}, "unknown node kind 'Seq'"),
        ],
    )
    def test_malformed_spec_after_its_valid_twin(self, kind, bad, message):
        doc = _chain_doc(kind, ["1", "0"])
        doc["utilities"][0]["play"][1] = bad
        with pytest.raises(DocumentSyntaxError) as err:
            parse_game(json.dumps(doc))
        assert str(err.value) == f"SyntaxError: {message}"

    @pytest.mark.parametrize("first", [1, "1"])
    def test_true_utility_after_a_one(self, first):
        doc = _chain_doc("atom", [first, True])
        with pytest.raises(DocumentSyntaxError) as err:
            parse_game(json.dumps(doc))
        assert str(err.value) == "SyntaxError: utility True is not rational text"

    def test_equal_utility_texts_share_one_value(self):
        g = parse_game(json.dumps(_chain_doc("atom", ["-1/2", "-1/2", "3", 3])))
        values = list(g.utilities["solo"].values())
        assert sorted(values) == [Fraction(-1, 2), Fraction(-1, 2), 3, 3]
        assert len({id(u) for u in values if u == Fraction(-1, 2)}) == 1

    def test_set_spec_in_another_order(self):
        doc = _chain_doc("set", ["1", "0"])
        deep = {"set": ["c0", "x"]}
        doc["nodes"].append(deep)
        doc["edges"].append([{"set": ["c0"]}, "x", {"set": ["x", "c0"]}])
        doc["ownership"]["solo"].append("x")
        doc["utilities"][0]["play"].append({"set": ["x", "c0"]})
        g = parse_game(json.dumps(doc))
        ends = {z.end for z in g.plays}
        assert SetLabel(frozenset({"c0", "x"})) in ends
        _assert_one_object_per_node(g)
        assert g == parse_game(serialize_game(g))

    @pytest.mark.parametrize("style", ["atom", "choice sequence", "choice set"])
    def test_one_object_per_node(self, classroom_text, style):
        g = parse_game(classroom_text)
        if style == "choice sequence":
            g = parse_game(serialize_game(to_choice_sequence(g)[0]))
        elif style == "choice set":
            g = parse_game(serialize_game(canonicalize(g).game))
        _assert_one_object_per_node(g)

    def test_morphism_tau_holds_the_games_nodes(self, classroom_text):
        witness = canonicalize(parse_game(classroom_text)).witness
        parsed = parse_witness(serialize_witness(witness))
        for m in (parsed.morphism, parsed.inverse):
            _assert_one_object_per_node(m.source)
            _assert_one_object_per_node(m.target)
            source_ids = {id(t) for t in m.source.tree.nodes}
            target_ids = {id(t) for t in m.target.tree.nodes}
            assert all(id(t) in source_ids for t in m.tau)
            assert all(id(t) in target_ids for t in m.tau.values())
        m = parse_morphism(serialize_morphism(witness.morphism))
        assert all(t in m.source.tree.nodes for t in m.tau)
        source_ids = {id(t) for t in m.source.tree.nodes}
        assert all(id(t) in source_ids for t in m.tau)


def _classroom_rows_doc(classroom_text, mutate):
    doc = json.loads(classroom_text)
    mutate(doc["utilities"])
    return json.dumps(doc)


def _respelled(row):
    """A copy of ``row`` listing its play's first two specs swapped."""
    copy = json.loads(json.dumps(row))
    copy["play"].insert(0, copy["play"].pop(1))
    return copy


class TestPlayRows:
    """A utility row names its play by the list of its node specs, root
    first.  A row spelled as the node list spells that path is read by
    its end; any other row is judged spec by spec, as every row was
    before, so its verdict and message stay the same."""

    def test_rows_key_the_trees_own_plays(self, classroom_text):
        g = parse_game(classroom_text)
        for row in g.utilities.values():
            assert [z.end for z in row] == [z.end for z in g.tree.play_by_end.values()]
            assert all(z is g.tree.play_by_end[z.end] for z in row)

    def test_set_spec_in_another_order(self, classroom_text):
        canonical = canonicalize(parse_game(classroom_text)).game
        doc = json.loads(serialize_game(canonical))
        play = next(e["play"] for e in doc["utilities"] if len(e["play"][-1]["set"]) > 1)
        play[-1] = {"set": play[-1]["set"][::-1]}
        g = parse_game(json.dumps(doc))
        assert g == canonical
        assert serialize_game(g) == serialize_game(canonical)
        _assert_one_object_per_node(g)

    @pytest.mark.parametrize(
        "mutate",
        [
            # a set of nodes names its play in any order and multiplicity
            lambda rows: rows[2]["play"].insert(0, rows[2]["play"].pop(1)),
            lambda rows: rows[2]["play"].insert(1, {"atom": "1"}),
            lambda rows: rows[2]["play"].append({"atom": "0"}),
        ],
        ids=["swapped", "duplicated", "root again at the end"],
    )
    def test_other_spellings_of_a_play(self, classroom_text, mutate):
        g = parse_game(_classroom_rows_doc(classroom_text, mutate))
        assert g == parse_game(classroom_text)
        assert serialize_game(g) == classroom_text

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda rows: rows[2]["play"].pop(1),
             "AxiomViolation [G2]: UnknownPlayInTable [G2]: utility row of P1 "
             "prices {0,4,8}, which is not a play"),
            (lambda rows: rows[2]["play"].__setitem__(-1, {"atom": "4"}),
             "AxiomViolation [G2]: UnknownPlayInTable [G2]: utility row of P1 "
             "prices {0,1,4}, which is not a play"),
            (lambda rows: rows[2]["play"].pop(),
             "AxiomViolation [G2]: UnknownPlayInTable [G2]: utility row of P1 "
             "prices {0,1,4}, which is not a play"),
            (lambda rows: rows[1]["play"].__setitem__(-1, {"atom": "9"}),
             "AxiomViolation [G2]: UnknownPlayInTable [G2]: utility row of P1 "
             "prices {0,1,4,9}, which is not a play"),
            (lambda rows: rows[1].__setitem__("play", []),
             "AxiomViolation [G2]: UnknownPlayInTable [G2]: utility row of P1 "
             "prices {}, which is not a play"),
            (lambda rows: rows.append(json.loads(json.dumps(rows[1]))),
             "SyntaxError: duplicate utility entry for one play"),
            (lambda rows: rows[1]["values"].__setitem__("Zed", "1"),
             "AxiomViolation: UnknownPlayer: utility table mentions undeclared player Zed"),
            (lambda rows: rows[1].__setitem__("play", {"atom": "2"}),
             "SyntaxError: utility entry field 'play' has the wrong shape"),
            (lambda rows: rows[1].__setitem__("play", "2"),
             "SyntaxError: utility entry field 'play' has the wrong shape"),
            (lambda rows: rows[1]["play"].__setitem__(1, {"seq": "a"}),
             "SyntaxError: seq node 'a' must list choice tokens"),
            (lambda rows: rows[1]["values"].__setitem__("P2", "x"),
             "SyntaxError: utility 'x' is not rational text"),
            (lambda rows: rows.pop(3),
             "AxiomViolation [G2]: MissingUtility [G2]: player P1 has no utility "
             "for the play ending at 5"),
            (lambda rows: rows.append(_respelled(rows[1])),
             "SyntaxError: duplicate utility entry for one play"),
            (lambda rows: rows.insert(0, _respelled(rows[1])),
             "SyntaxError: duplicate utility entry for one play"),
        ],
        ids=["dropped", "decision end", "prefix", "unknown node", "empty",
             "duplicated row", "unknown player", "dict play", "text play",
             "malformed middle spec", "bad value", "missing row",
             "respelled row after the exact one", "respelled row before the exact one"],
    )
    def test_wrong_rows_keep_their_messages(self, classroom_text, mutate, message):
        with pytest.raises((AxiomViolation, DocumentSyntaxError)) as err:
            parse_game(_classroom_rows_doc(classroom_text, mutate))
        assert str(err.value) == message

    @pytest.mark.parametrize("stages", [None, 20], ids=["classroom", "centipede"])
    def test_each_row_is_read_once(self, classroom_text, monkeypatch, stages):
        reads = []
        reader = documents._node_reader

        def counting_reader(labels, by_key):
            read = reader(labels, by_key)

            def counted(spec):
                reads.append(spec)
                return read(spec)

            return counted

        monkeypatch.setattr(documents, "_node_reader", counting_reader)
        if stages is None:
            doc = json.loads(classroom_text)
        else:
            doc = families.to_document(families.centipede(random.Random(stages), stages))
        rows = doc["utilities"]
        rows[2]["play"].insert(0, rows[2]["play"].pop(1))
        parse_game(json.dumps(doc))
        # the edges join atoms and are looked up by their tokens; a row
        # list with a row that spells no play is decoded, each row read
        # its last spec once, and the swapped row then its specs, as is
        # the row list of a game of fewer than ``_FEW`` plays
        swapped = 1 + len(rows[2]["play"])
        assert len(reads) == len(rows) - 1 + swapped == (9 if stages is None else 25)

    def test_row_fault_is_reported_before_a_cycle(self, classroom_text):
        doc = json.loads(classroom_text)
        doc["nodes"] += [{"atom": "x"}, {"atom": "y"}]
        doc["edges"] += [[{"atom": "x"}, "xy", {"atom": "y"}],
                         [{"atom": "y"}, "yx", {"atom": "x"}]]
        doc["ownership"]["P1"] += ["xy", "yx"]
        with pytest.raises(AxiomViolation) as err:
            parse_game(json.dumps(doc))
        assert str(err.value) == (
            "AxiomViolation [P2]: NodeUnreachable [P2]: derived predecessor "
            "structure is not a tree (Cycle [T2]: predecessor chain from x never "
            "reaches the root)"
        )
        doc["utilities"][1]["play"][1] = {"seq": "a"}
        with pytest.raises(DocumentSyntaxError) as err:
            parse_game(json.dumps(doc))
        assert str(err.value) == "SyntaxError: seq node 'a' must list choice tokens"


class TestGameReferences:
    def _morphism_naming(self, classroom_text, ref):
        doc = json.loads(serialize_morphism(identity_morphism(parse_game(classroom_text))))
        doc["source"] = ref
        return json.dumps(doc)

    @pytest.mark.parametrize("ref", ["missing.game", "subdir", ".", "a\0b.game"])
    def test_unreadable_game_is_a_document_error(self, classroom_text, tmp_path, ref):
        (tmp_path / "subdir").mkdir()
        with pytest.raises(DocumentError) as err:
            parse_morphism(self._morphism_naming(classroom_text, ref), base_dir=tmp_path)
        assert err.value.code == "UnreadableGame"
        assert str(tmp_path / ref) in str(err.value)

    def test_unreadable_game_in_a_witness(self, classroom_text, tmp_path):
        witness = json.loads(
            serialize_witness(canonicalize(parse_game(classroom_text)).witness)
        )
        witness["inverse"]["target"] = "missing.game"
        with pytest.raises(DocumentError) as err:
            parse_witness(json.dumps(witness), base_dir=tmp_path)
        assert err.value.code == "UnreadableGame"

    def test_non_utf8_game_is_a_document_error(self, classroom_text, tmp_path):
        (tmp_path / "latin1.game").write_bytes(b"\xff\xfe")
        with pytest.raises(DocumentError) as err:
            parse_morphism(
                self._morphism_naming(classroom_text, "latin1.game"), base_dir=tmp_path
            )
        assert err.value.code == "UnreadableGame"

    @pytest.mark.parametrize("name, error", [
        ("missing.game", "FileNotFoundError"),
        ("subdir", "IsADirectoryError"),
        ("latin1.game", "UnicodeDecodeError"),
        ("a\0b.game", "ValueError"),  # no file's path holds a NUL character
    ])
    def test_load_game_refuses_an_unreadable_file(self, tmp_path, name, error):
        (tmp_path / "subdir").mkdir()
        (tmp_path / "latin1.game").write_bytes(b"\xff\xfe")
        with pytest.raises(DocumentError) as err:
            load_game(tmp_path / name)
        assert err.value.code == "UnreadableGame"
        assert err.value.details == {"path": str(tmp_path / name)}
        assert str(err.value) == (
            f"UnreadableGame: cannot read the game at {tmp_path / name} ({error})"
        )

    def test_iota_of_another_shape(self, classroom_text):
        doc = json.loads(self._morphism_naming(classroom_text, json.loads(classroom_text)))
        doc["iota"] = {"P1": "P1"}
        with pytest.raises(DocumentSyntaxError) as err:
            parse_morphism(json.dumps(doc))
        assert str(err.value) == "SyntaxError: iota must be a list of pairs"

    def test_reference_of_another_shape(self, classroom_text):
        # a reference that is neither text nor a dict is refused as a field
        with pytest.raises(DocumentSyntaxError) as err:
            parse_morphism(self._morphism_naming(classroom_text, 5))
        assert str(err.value) == (
            "SyntaxError: morphism document field 'source' has the wrong shape"
        )


LONE = "\ud800"  # a surrogate that pairs with no other


def _one_edge_doc(where: str, token: str = LONE) -> dict:
    """A game of one edge with ``token`` in the place ``where`` names."""
    root, leaf, player, choice = {"atom": "r"}, {"atom": "x"}, "P", "c"
    if where == "atom":
        leaf = {"atom": "x" + token}
    elif where == "seq":
        leaf = {"seq": ["c", token]}
    elif where == "player":
        player = token
    elif where == "choice":
        choice = token
    values = {player: "1"}
    if where == "row player":
        values[token] = "1"
    ownership = {player: [choice]}
    if where == "owner":
        ownership[token] = []
    return {
        "format_version": "ncg/1",
        "players": [player],
        "nodes": [root, leaf],
        "edges": [[root, choice, leaf]],
        "ownership": ownership,
        "utilities": [{"play": [root, leaf], "values": values}],
    }


class TestLoneSurrogates:
    """UTF-8 encodes no surrogate, so a token that decodes to one could be
    neither written back nor printed: each reader route refuses it as a
    syntax error.  A pair of escapes decodes to the character it spells."""

    WHERE = ["atom", "seq", "player", "choice", "row player", "owner"]

    @pytest.mark.parametrize("where", WHERE)
    @pytest.mark.parametrize("layout", [{}, {"indent": 2}, {"ensure_ascii": False}])
    def test_a_game_is_refused_on_both_routes(self, where, layout):
        # escaped, as json.dumps writes it, or the surrogate itself in the text
        text = json.dumps(_one_edge_doc(where), **layout)
        routes = {
            "text": lambda: documents._game_at(text, 0),
            "strict": lambda: documents._game_from_document(documents._loads(text)),
            "parse_game": lambda: parse_game(text),
        }
        for route, read in routes.items():
            with pytest.raises(DocumentSyntaxError) as err:
                read()
            assert "holds a lone surrogate, which UTF-8 cannot encode" in str(err.value), route

    def test_a_late_spec_in_a_row_is_refused(self):
        doc = _one_edge_doc("none")
        doc["utilities"][0]["play"].append({"atom": LONE})
        with pytest.raises(DocumentSyntaxError, match="lone surrogate"):
            parse_game(json.dumps(doc))

    @pytest.mark.parametrize("where", WHERE)
    def test_a_surrogate_pair_reads_and_writes_back(self, where, tmp_path):
        doc = _one_edge_doc(where, "\U0001f600")
        text = json.dumps(doc)
        assert "\\ud83d\\ude00" in text
        if where in ("row player", "owner"):  # a player the document does not declare
            with pytest.raises(AxiomViolation):
                parse_game(text)
            return
        game = parse_game(text)
        documents.write_game(game, tmp_path / "g.game")
        written = (tmp_path / "g.game").read_text(encoding="utf-8")
        assert written == serialize_game(game)
        assert "\U0001f600" in written and json.loads(written) == doc

    @pytest.mark.parametrize("place", ["iota", "delta", "beta", "source"])
    def test_a_morphism_is_refused_on_both_routes(self, classroom_text, place, tmp_path):
        doc = _morphism_doc(identity_morphism(parse_game(classroom_text)))
        if place == "beta":
            doc["beta"][LONE] = doc["beta"].pop("P1")
        elif place == "source":
            doc["source"] = LONE + ".game"  # a path, refused before it is opened
        else:
            doc[place][0][1] = LONE
        text = json.dumps(doc)
        for read in (
            lambda: parse_morphism(text, base_dir=tmp_path),
            lambda: documents._morphism_parts(documents._loads(text), tmp_path, []),
            lambda: parse_witness(json.dumps(_witness_doc(doc, doc)), base_dir=tmp_path),
        ):
            with pytest.raises(DocumentSyntaxError, match="lone surrogate"):
                read()


class TestLoads:
    """The reader's walk of an object decodes what ``json.loads``
    decodes, or leaves the text to the strict route, one ``json.loads``
    call; and an embedded game whose text repeats an earlier one is read
    from the text once and shared."""

    def test_every_written_document_reads_as_json_loads(self, tmp_path):
        golden.outputs(tmp_path)
        paths = sorted(tmp_path.iterdir()) + sorted(FIXTURES.iterdir())
        assert sum(path.suffix in (".game", ".morphism", ".witness") for path in paths) > 40
        for path in paths:
            assert_reads_as_json_loads(path.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("text", [
        ' {"a": {"b": {"c": []}}, "d": {"b": {"c": []}}, "e": {"b": {"c": []} } } ',
        '{"a": {"x": 1}, "b": {"x": 12}, "c": {"x": 1} , "d": {"x":1}}',
        '{"a": 1, "a": {"b": 2}, "b": {}, "c": {}}',
        '{"a": {"b": 1}} x', '\ufeff{}', "[]", "{}", "{", '{"a": 1', '{"a": {"b": 1',
        '{"a": 1,}', '{"a" 1}', '{"a": 1 "b": 2}', '{"a": 1 x"b": 2}', "{1: 2}",
        '{"a": NaN, "b": -Infinity}',
        '{"a": {"b": ' + "[" * 100_000 + "]" * 100_000 + "}}",
        '{"a": {"b": ' + "1" * 5000 + "}}",
    ])
    def test_edge_texts_read_as_json_loads(self, text):
        assert_reads_as_json_loads(text)

    @staticmethod
    def _canonical(classroom_text):
        return canonicalize(parse_game(classroom_text))

    def _witness(self, classroom_text, first: str, second: str) -> str:
        """The canonical witness of the classroom game, its canonical game
        written as ``first`` in the morphism and ``second`` in the inverse."""
        doc = json.loads(serialize_witness(self._canonical(classroom_text).witness))
        doc["morphism"]["target"], doc["inverse"]["source"] = "@first", "@second"
        text = json.dumps(doc, indent=2)
        return text.replace('"@first"', first).replace('"@second"', second)

    def test_a_repeated_game_is_decoded_once(self, classroom_text):
        # the text route shares the read game; the strict route, reached
        # by a morphism listing tau first, decodes both copies and builds
        # the game once
        text = serialize_witness(self._canonical(classroom_text).witness)
        doc = documents._document_by_text(text, ".", [])
        assert doc["morphism"]["target"] is doc["inverse"]["source"]
        assert doc["morphism"]["source"] is doc["inverse"]["target"]
        tau_first = json.loads(text)
        for key in ("morphism", "inverse"):
            tau_first[key] = {"tau": tau_first[key].pop("tau"), **tau_first[key]}
        tau_first = json.dumps(tau_first, indent=2)
        doc = documents._document_by_text(tau_first, ".", [])
        assert doc == json.loads(tau_first)
        assert doc["morphism"]["target"] is not doc["inverse"]["source"]
        w = parse_witness(tau_first)
        assert w.morphism.target is w.inverse.source
        assert w.morphism.source is w.inverse.target
        assert serialize_witness(w) == text

    def test_copies_that_differ_in_whitespace_are_equal_and_unshared(self, classroom_text):
        game = json.loads(serialize_game(self._canonical(classroom_text).game))
        text = self._witness(classroom_text, json.dumps(game, indent=2), json.dumps(game))
        doc = documents._loads(text)
        assert doc == json.loads(text)
        assert serialize_witness(parse_witness(text)) == serialize_witness(
            self._canonical(classroom_text).witness
        )

    @pytest.mark.parametrize("where", ["head", "tail"])
    def test_copies_that_differ_in_one_token_are_not_shared(self, classroom_text, where):
        game = json.dumps(json.loads(serialize_game(self._canonical(classroom_text).game)))
        # the first utility, or the last, changed; past the last 64
        # characters, or among them
        head = '"values": {"P1": "'
        k = game.index(head) + len(head) if where == "head" else game.rindex('"') - 1
        other = game[:k] + ("8" if game[k] == "9" else "9") + game[k + 1:]
        text = self._witness(classroom_text, game, other)
        doc = documents._document_by_text(text, ".", [])
        target, source = doc["morphism"]["target"], doc["inverse"]["source"]
        assert type(target) is type(source) is documents._Read
        assert serialize_game(source.game) == serialize_game(parse_game(other))
        assert serialize_game(target.game) == serialize_game(parse_game(game))
        assert serialize_game(source.game) != serialize_game(target.game)

    def test_a_read_document_is_freed_by_reference_count(self, classroom_text):
        # the text route keeps no reference cycle, so a collection finds nothing
        canonical = self._canonical(classroom_text)
        game, witness = serialize_game(canonical.game), serialize_witness(canonical.witness)
        gc.collect()
        gc.disable()
        try:
            for read in (
                lambda: parse_game(game),
                lambda: parse_witness(witness),
                lambda: documents._document_by_text(witness, ".", []),
            ):
                read()
                assert gc.collect() == 0
        finally:
            gc.enable()
