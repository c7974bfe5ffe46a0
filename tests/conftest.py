"""Shared builders for the worked examples used across the suite.

The "classroom" game is the running three-player example: a student
picks a or b, a goat then picks g or d after a, and a teacher picks e
or f without knowing whether the student played b or the goat played d
(nodes 3 and 4 share an information set).
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from ncgames import DocumentSyntaxError, build_form, build_game, build_preform, build_tree
from ncgames.documents import _FAULTS, _object, _space
from ncgames.labels import Atom

from oracles import loads_by_json


def assert_reads_as_json_loads(text) -> None:
    """The reader's walk of an object's text decodes ``text`` to what one
    ``json.loads`` call gives, and ends at trailing whitespace only; when
    that call gives no object or refuses the text, the walk raises what
    sends the text to the strict route, or ends before text that does."""
    try:
        expected = loads_by_json(text)
    except DocumentSyntaxError:
        expected = None
    try:
        doc, end = _object(text, _space(text).end())
    except _FAULTS:
        doc = None
    if doc is None or _space(text, end).end() != len(text):
        assert type(expected) is not dict
    else:
        assert doc == expected


def a(token):
    return Atom(token)


def nodes_of(*tokens):
    return frozenset(Atom(t) for t in tokens)


CLASSROOM_NODES = frozenset(Atom(i) for i in range(9))

CLASSROOM_PRED_PAIRS = frozenset(
    {
        (a(1), a(0)),
        (a(2), a(1)),
        (a(3), a(0)),
        (a(4), a(1)),
        (a(5), a(3)),
        (a(6), a(3)),
        (a(7), a(4)),
        (a(8), a(4)),
    }
)

CLASSROOM_CHOICES = frozenset({"a", "b", "g", "d", "e", "f"})

CLASSROOM_TRIPLES = (
    (a(0), "a", a(1)),
    (a(0), "b", a(3)),
    (a(1), "g", a(2)),
    (a(1), "d", a(4)),
    (a(3), "e", a(5)),
    (a(3), "f", a(6)),
    (a(4), "e", a(7)),
    (a(4), "f", a(8)),
)

CLASSROOM_OWNERSHIP = {"P1": {"a", "b"}, "P2": {"g", "d"}, "P3": {"e", "f"}}

# utility texts that no exact rational is read from
UNREADABLE = {
    "not a rational": "abc",
    "past the digit limit": "9" * 5000,
    "a zero denominator": "1/0",
}

CLASSROOM_UTILITIES = {
    "P1": {
        nodes_of(0, 3, 5): Fraction(1),
        nodes_of(0, 3, 6): Fraction(0),
        nodes_of(0, 1, 4, 7): Fraction(0),
        nodes_of(0, 1, 2): Fraction(0),
        nodes_of(0, 1, 4, 8): Fraction(-1),
    },
    "P2": {
        nodes_of(0, 1, 4, 7): Fraction(1),
        nodes_of(0, 1, 4, 8): Fraction(1),
        nodes_of(0, 3, 5): Fraction(0),
        nodes_of(0, 3, 6): Fraction(0),
        nodes_of(0, 1, 2): Fraction(0),
    },
    "P3": {
        nodes_of(0, 3, 6): Fraction(1),
        nodes_of(0, 1, 4, 7): Fraction(1),
        nodes_of(0, 1, 2): Fraction(1),
        nodes_of(0, 3, 5): Fraction(0),
        nodes_of(0, 1, 4, 8): Fraction(0),
    },
}


def make_classroom_tree():
    return build_tree(CLASSROOM_NODES, CLASSROOM_PRED_PAIRS)


def make_classroom_preform():
    return build_preform(CLASSROOM_NODES, CLASSROOM_CHOICES, CLASSROOM_TRIPLES)


def make_classroom_form():
    return build_form(
        make_classroom_preform(), {"P1", "P2", "P3"}, CLASSROOM_OWNERSHIP
    )


def make_classroom_game():
    return build_game(make_classroom_form(), CLASSROOM_UTILITIES)


def make_split_information_game():
    """The classroom game with the teacher's information set split.

    Nodes 3 and 4 get private choices, so the teacher knows where she
    is; not isomorphic to the classroom game.
    """
    triples = (
        (a(0), "a", a(1)),
        (a(0), "b", a(3)),
        (a(1), "g", a(2)),
        (a(1), "d", a(4)),
        (a(3), "e3", a(5)),
        (a(3), "f3", a(6)),
        (a(4), "e4", a(7)),
        (a(4), "f4", a(8)),
    )
    preform = build_preform(
        CLASSROOM_NODES, {"a", "b", "g", "d", "e3", "f3", "e4", "f4"}, triples
    )
    form = build_form(
        preform,
        {"P1", "P2", "P3"},
        {"P1": {"a", "b"}, "P2": {"g", "d"}, "P3": {"e3", "f3", "e4", "f4"}},
    )
    return build_game(form, CLASSROOM_UTILITIES)


def make_absentminded_game():
    """A one-player game whose single information set contains two
    nodes on one path, so the player cannot tell whether they already
    moved."""
    from ncgames.labels import Seq

    empty = Seq(())
    na = Seq(("a",))
    nb = Seq(("b",))
    naa = Seq(("a", "a"))
    nab = Seq(("a", "b"))
    preform = build_preform(
        {empty, na, nb, naa, nab},
        {"a", "b"},
        [
            (empty, "a", na),
            (empty, "b", nb),
            (na, "a", naa),
            (na, "b", nab),
        ],
    )
    form = build_form(preform, {"P1"}, {"P1": {"a", "b"}})
    utilities = {
        "P1": {
            frozenset({empty, nb}): Fraction(0),
            frozenset({empty, na, naa}): Fraction(1),
            frozenset({empty, na, nab}): Fraction(2),
        }
    }
    return build_game(form, utilities)


def make_embedding_trees():
    """A four-node fan embedded into a larger tree by shifting every
    node token up by ten; two of the three source plays stay maximal."""
    source = build_tree(
        nodes_of(1, 2, 3, 4), {(a(2), a(1)), (a(3), a(1)), (a(4), a(1))}
    )
    target = build_tree(
        nodes_of(10, 11, 12, 13, 14, 15, 16, 17),
        {
            (a(11), a(10)),
            (a(17), a(10)),
            (a(12), a(11)),
            (a(13), a(11)),
            (a(14), a(11)),
            (a(15), a(14)),
            (a(16), a(14)),
        },
    )
    tau = {a(n): a(10 + n) for n in (1, 2, 3, 4)}
    return source, target, tau


@pytest.fixture
def classroom_tree():
    return make_classroom_tree()


@pytest.fixture
def classroom_preform():
    return make_classroom_preform()


@pytest.fixture
def classroom_form():
    return make_classroom_form()


@pytest.fixture
def classroom_game():
    return make_classroom_game()


@pytest.fixture
def absentminded_game():
    return make_absentminded_game()


@pytest.fixture
def split_information_game():
    return make_split_information_game()
