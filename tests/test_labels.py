"""Node labels as values: the hash kept from construction, equality,
immutability, copying and pickling, and the node order of a tree built
from structured labels."""

import copy
import dataclasses
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ncgames
from ncgames import build_tree, parse_game, serialize_game
from ncgames.labels import Atom, Seq, SetLabel, label_key, ranked_label_key, render_label
from ncgames.transforms import to_choice_sequence, to_choice_set
from oracles import nodes_by_label

FIXTURES = Path(__file__).parent / "fixtures"

LABELS = [
    Atom("a"),
    Atom(3),
    Seq(()),
    Seq(("a", "b", "a")),
    SetLabel(frozenset()),
    SetLabel(frozenset({"a", "b"})),
]


def label_id(label):
    """A test id that no hash seed changes: ``render_label`` sorts a set's tokens."""
    return f"{type(label).__name__}-{render_label(label)}"


class Twin:
    """Distinct tokens whose ``str`` is the same, so they share one
    ``token_key``."""

    def __init__(self, tag):
        self.tag = tag

    def __str__(self):
        return "twin"

    def __repr__(self):
        return f"Twin({self.tag!r})"


TWINS = (Twin(0), Twin(1))
# ``token_key`` orders these by class name, then text: the twins, 10, 2,
# "10", "b"
TOKENS = (2, 10, "10", "b") + TWINS
# tokens that compare equal under different ``token_key``s
# (``True == 1 == 1.0``, ``0.0 == -0.0``)
EQUAL_UNDER_OTHER_KEYS = (True, 1, 1.0, 0.0, -0.0, "1", 2, "b")


def classroom():
    return parse_game((FIXTURES / "classroom.game").read_text(encoding="utf-8"))


def classroom_styles() -> tuple:
    """The classroom game with atom, choice-sequence and choice-set nodes."""
    g = classroom()
    sequences, _ = to_choice_sequence(g)
    return g, sequences, to_choice_set(sequences)[0]


class TestValues:
    def test_hash_is_the_hash_of_the_one_field_tuple(self):
        assert hash(Atom("x")) == hash(("x",))
        assert hash(Atom(7)) == hash((7,))
        assert hash(Seq(("a", "b"))) == hash((("a", "b"),))
        assert hash(SetLabel({"a", "b"})) == hash((frozenset({"a", "b"}),))

    @pytest.mark.parametrize("label", LABELS, ids=label_id)
    @pytest.mark.parametrize("name", ["token", "choices", "_hash", "other"])
    def test_no_attribute_can_be_set_or_deleted(self, label, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(label, name, "z")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(label, name)

    @pytest.mark.parametrize("label", LABELS, ids=label_id)
    def test_no_instance_dict(self, label):
        assert not hasattr(label, "__dict__")

    def test_repr_fields_and_keyword_construction(self):
        assert repr(Atom(token="a")) == "Atom(token='a')"
        assert repr(Seq(choices=["a", "b"])) == "Seq(choices=('a', 'b'))"
        assert repr(SetLabel(choices=["a"])) == "SetLabel(choices=frozenset({'a'}))"
        assert Seq(choices=()) == Seq() and Seq().choices == ()
        assert SetLabel(choices=frozenset()) == SetLabel()
        assert SetLabel().choices == frozenset()
        assert [f.name for f in dataclasses.fields(Atom)] == ["token"]
        assert [f.name for f in dataclasses.fields(Seq)] == ["choices"]
        assert [f.name for f in dataclasses.fields(SetLabel)] == ["choices"]

    def test_equality_is_structural_and_kind_sensitive(self):
        assert Atom("a") != Seq(("a",))
        assert Seq(("a", "b")) != SetLabel({"a", "b"})
        assert Seq(()) != SetLabel(frozenset())
        assert Seq(("a", "b")) != Seq(("b", "a"))
        assert SetLabel(["a", "b"]) == SetLabel(["b", "a", "a"])
        assert hash(SetLabel(["a", "b"])) == hash(SetLabel(["b", "a", "a"]))
        assert Seq(["a", "b"]) == Seq(("a", "b"))
        assert Atom("a") != ("a",)


class TestCopyAndPickle:
    @pytest.mark.parametrize("label", LABELS, ids=label_id)
    def test_labels_round_trip(self, label):
        copies = [copy.copy(label), copy.deepcopy(label)] + [
            pickle.loads(pickle.dumps(label, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for other in copies:
            assert type(other) is type(label)
            assert other == label and hash(other) == hash(label)

    @pytest.mark.parametrize("style", range(3), ids=["atoms", "sequences", "sets"])
    def test_a_parsed_game_round_trips(self, style):
        g = classroom_styles()[style]
        for other in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert other == g and hash(other) == hash(g)
            assert serialize_game(other) == serialize_game(g)

    def test_a_game_pickled_under_one_hash_seed_loads_under_another(self, tmp_path):
        """Label hashes are recomputed on loading, so a game pickled
        under one hash seed is whole under another: equal to a freshly
        parsed one, with every node found in its own orders."""
        package_root = str(Path(ncgames.__file__).resolve().parent.parent)
        inherited = os.environ.get("PYTHONPATH")
        pythonpath = os.pathsep.join(
            [package_root, str(Path(__file__).parent)] + ([inherited] if inherited else [])
        )
        pickled = tmp_path / "games.pickle"
        dump = (
            "import pickle, sys, test_labels as t; "
            "open(sys.argv[1], 'wb').write(pickle.dumps(t.classroom_styles()))"
        )
        load = (
            "import json, pickle, sys, test_labels as t; "
            "print(json.dumps(t.compare_loaded(pickle.load(open(sys.argv[1], 'rb')))))"
        )
        results = []
        for script, seed in ((dump, "1"), (load, "2")):
            result = subprocess.run(
                [sys.executable, "-B", "-c", script, str(pickled)],  # writing no bytecode
                env={"PYTHONPATH": pythonpath, "PATH": "/usr/bin:/bin", "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
            results.append(result.stdout)
        assert json.loads(results[1]) == [[True, True, True]] * 3


def compare_loaded(games) -> list:
    """For each loaded game: equal to the freshly built one, every node
    found in ``tree.rank``, and serialized byte for byte alike."""
    return [
        [
            loaded == built,
            all(t in loaded.tree.rank for t in loaded.tree.nodes),
            serialize_game(loaded) == serialize_game(built),
        ]
        for loaded, built in zip(games, classroom_styles())
    ]


def random_tree(rng: random.Random, kinds, tokens=TOKENS):
    """A tree of distinct labels of the given kinds over ``tokens``,
    each node's parent drawn from the nodes before it."""
    size = rng.randint(2, 12)
    labels: list = []
    while len(labels) < size:
        kind = rng.choice(kinds)
        if kind is Atom:
            label = Atom(rng.choice(tokens))
        else:
            label = kind(rng.choice(tokens) for _ in range(rng.randint(0, 4)))
        if label not in labels:
            labels.append(label)
    pairs = [(labels[k], labels[rng.randrange(k)]) for k in range(1, len(labels))]
    return build_tree(labels, pairs)


def sign(x, y) -> int:
    return (x > y) - (x < y)


class TestRankOrder:
    @pytest.mark.parametrize("tokens", [TOKENS, EQUAL_UNDER_OTHER_KEYS], ids=["plain", "equal"])
    @pytest.mark.parametrize("kinds", [(Seq,), (SetLabel,), (Atom, Seq, SetLabel)], ids=str)
    @pytest.mark.parametrize("seed", range(40))
    def test_rank_is_label_key_order(self, seed, kinds, tokens):
        tree = random_tree(random.Random(seed), kinds, tokens)
        assert list(tree.rank) == nodes_by_label(tree)
        key = ranked_label_key(tree.nodes)
        for x in tree.nodes:
            for y in tree.nodes:
                assert sign(key(x), key(y)) == sign(label_key(x), label_key(y))

    def test_tokens_with_one_token_key_share_a_rank(self):
        first, second = Seq((TWINS[0],)), Seq((TWINS[1],))
        key = ranked_label_key({first, second, Seq(("b",)), Seq((2, "b"))})
        assert key is not label_key
        assert key(first) == key(second)
        assert key(first) < key(Seq((2, "b"))) < key(Seq(("b",)))
        sets = {SetLabel({TWINS[0], "b"}), SetLabel({TWINS[1], "b"}), SetLabel({10})}
        key = ranked_label_key(sets)
        assert key(SetLabel({TWINS[0], "b"})) == key(SetLabel({TWINS[1], "b"}))

    def test_atoms_alone_keep_label_key(self):
        assert ranked_label_key({Atom(2), Atom("b")}) is label_key

    @pytest.mark.parametrize("seed", range(40))
    def test_atoms_of_text_sort_by_their_text_as_by_label_key(self, seed):
        """Text atoms are keyed by their token, in ``label_key`` order:
        empty, non-ASCII, emoji and digit texts included."""
        rng = random.Random(seed)
        pieces = ("", "a", "B", "é", "Ω", "日本", "😀", "👍🏽", "0", "9", "10", " ")
        pieces += ("\u0301",)  # a combining accent
        nodes = {Atom("")} | {
            Atom("".join(rng.choice(pieces) for _ in range(rng.randint(0, 3))))
            for _ in range(rng.randint(1, 15))
        }
        key = ranked_label_key(nodes)
        assert key is not label_key
        assert sorted(nodes, key=key) == sorted(nodes, key=label_key)

    class Text(str):
        """Text of its own class, whose ``token_key`` names that class."""

    @pytest.mark.parametrize(
        "tokens",
        [(1, "a"), (True, "a"), (False, 0.5), (7,), (Text("b"), "a")],
        ids=["int", "bool", "bool-float", "int-alone", "text-subclass"],
    )
    def test_atoms_not_all_of_exact_text_keep_label_key(self, tokens):
        nodes = {Atom(t) for t in tokens}
        assert ranked_label_key(nodes) is label_key

    def test_tokens_equal_under_other_keys_keep_label_key(self):
        """``True`` and ``1`` are one token by equality, so ranking by
        equality would give them one rank; ``label_key`` orders them
        apart, and under every hash seed."""
        nodes = {Seq(()), Seq((True,)), Seq((1, "a")), Seq((0.5,))}
        assert ranked_label_key(nodes) is label_key
        tree = build_tree(nodes, [(t, Seq(())) for t in nodes if t != Seq(())])
        assert list(tree.rank) == [Seq(()), Seq((True,)), Seq((0.5,)), Seq((1, "a"))]

    @pytest.mark.parametrize(
        "labels",
        [(Atom(0), Atom(1)), (Seq(()), Seq(("a",)))],
        ids=["atoms", "sequences"],
    )
    def test_a_node_that_is_no_label_is_refused(self, labels):
        root, child = labels
        with pytest.raises(TypeError, match=r"^not a node label: \('x',\)$"):
            build_tree({root, child, ("x",)}, [(child, root), (("x",), root)])
