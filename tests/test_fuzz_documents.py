"""Fuzzing the document readers: a mutated game, morphism or witness
document either parses or raises an ``NcgError``, never anything else,
and its text decodes as one ``json.loads`` call decodes it.

Mutations start from the fixture games and from a morphism and a
witness written by the library, so most mutants get past the JSON
decoder and reach the structural checks.  A mutant is made by one to
three edits of the decoded document (replace a value with random JSON
or with another part of the same document, delete an entry, duplicate
a list element) and, sometimes, one edit of its text (truncate, insert
a character).  Each morphism that a morphism or witness mutant
describes, read into maps as ``parse_morphism`` reads them, gets the
verdict and the first error of the label-keyed validators of
``tests/oracles.py``.
"""

import copy
import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ncgames import (
    NcgError,
    identity_morphism,
    parse_game,
    parse_morphism,
    parse_witness,
    serialize_morphism,
    serialize_witness,
)
from ncgames.documents import _morphism_parts
from ncgames.transforms import canonicalize, to_choice_sequence

import property_checks
from conftest import assert_reads_as_json_loads

FIXTURES = Path(__file__).parent / "fixtures"


def _seed_documents() -> dict:
    texts = [(FIXTURES / name).read_text() for name in ("classroom.game", "absentminded.game")]
    games = [parse_game(text) for text in texts]
    morphisms = [identity_morphism(games[0]), to_choice_sequence(games[1])[1].morphism]
    return {
        "game": [json.loads(text) for text in texts],
        "morphism": [json.loads(serialize_morphism(m)) for m in morphisms],
        "witness": [json.loads(serialize_witness(canonicalize(g).witness)) for g in games],
    }


SEEDS = _seed_documents()
PARSERS = {"game": parse_game, "morphism": parse_morphism, "witness": parse_witness}

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=6)
    | st.sampled_from(["0", "-1/2", "3/0", "ncg/1", "P1", "a", "atom", "seq", "set"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["atom", "seq", "set", "play", "values", "x"]), inner, max_size=2
    ),
    max_leaves=6,
)


def _slots(doc) -> list:
    """Every (container, key or index) pair of the document, outermost first."""
    out, stack = [], [doc]
    while stack:
        node = stack.pop()
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for key in keys:
            out.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    return out


@st.composite
def mutants(draw, kind):
    doc = copy.deepcopy(draw(st.sampled_from(SEEDS[kind])))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        slots = _slots(doc)
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        edit = draw(
            st.sampled_from(["random", "transplant", "transplant", "delete", "duplicate"])
        )
        if edit == "random":
            container[key] = draw(json_values)
        elif edit == "transplant":
            donor, donor_key = draw(st.sampled_from(slots))
            container[key] = copy.deepcopy(donor[donor_key])
        elif edit == "delete":
            del container[key]
        elif isinstance(container, list):
            container.insert(key, copy.deepcopy(container[key]))
    text = json.dumps(doc)
    edit = draw(st.sampled_from(["none", "none", "none", "truncate", "insert"]))
    where = draw(st.integers(min_value=0, max_value=len(text)))
    if edit == "truncate":
        text = text[:where]
    elif edit == "insert":
        text = text[:where] + draw(st.sampled_from(list('[]{}",:0-/ \\x'))) + text[where:]
    return text


def _parses_or_refuses(kind, text, base_dir):
    assert_reads_as_json_loads(text)
    try:
        PARSERS[kind](text) if kind == "game" else PARSERS[kind](text, base_dir=base_dir)
    except NcgError as exc:
        # a mutant may name a game by a path, which is not there
        if exc.code == "UnreadableGame":
            assert kind != "game" and exc.details["path"].startswith(str(base_dir)), exc
    if kind != "game":
        _validators_agree(kind, text, base_dir)


def _validators_agree(kind, text, base_dir):
    """Each morphism the mutant describes, read into maps, gets the same
    verdict and first error from the validators and from their label-keyed
    oracles."""
    try:
        doc = json.loads(text)
    except ValueError:
        return
    if not isinstance(doc, dict):
        return
    for part in [doc] if kind == "morphism" else [doc.get("morphism"), doc.get("inverse")]:
        try:
            parts = _morphism_parts(part, base_dir, [])
        except NcgError:
            continue
        property_checks.check_validators_agree(*parts)


FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@FUZZ
@given(mutants("game"))
def test_mutated_games(text):
    _parses_or_refuses("game", text, None)


@FUZZ
@given(mutants("morphism"))
def test_mutated_morphisms(text):
    _parses_or_refuses("morphism", text, FIXTURES / "no-such-directory")


@FUZZ
@given(mutants("witness"))
def test_mutated_witnesses(text):
    _parses_or_refuses("witness", text, FIXTURES / "no-such-directory")
