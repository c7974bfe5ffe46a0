"""The document writer: the text of ``json.dumps(doc, indent=2,
ensure_ascii=False) + "\\n"``, written in bounded pieces, with shared
containers encoded once per indent level."""

import json
import os
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgames import (
    canonicalize,
    compose,
    find_isomorphism,
    load_game,
    parse_game,
    parse_morphism,
    serialize_game,
    serialize_morphism,
    serialize_witness,
    subgame_at,
)
from ncgames import documents
from ncgames.cli import cli_dispatch
from ncgames.documents import witness_to_document

from random_games import centipede_document

FIXTURES = Path(__file__).parent / "fixtures"

AWKWARD = ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", " ", " ", "é", "日", "\U0001f600"]


def reference(doc) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def pieces_of(doc) -> list:
    pieces = []
    documents._JsonWriter(pieces.append).write(doc)
    return pieces


class Ref(int):
    """A stand-in for the shared container of this index."""


text = st.text(st.one_of(st.sampled_from(AWKWARD), st.characters()), max_size=6)
refs = st.integers(0, 3).map(Ref)
values = st.recursive(
    st.one_of(refs, text, refs, st.integers(), refs, st.booleans(), st.none()),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(text, inner, max_size=4),
    max_leaves=12,
)
containers = st.lists(values, max_size=3) | st.dictionaries(text, values, max_size=3)


@st.composite
def shared_documents(draw):
    """A JSON value in which some lists and dicts occur more than once,
    at one indent level and at several; later shared containers may
    hold earlier ones, as games hold node specs."""
    pool = []

    def resolve(value):
        if isinstance(value, Ref):
            return pool[value % len(pool)] if pool else int(value)
        if isinstance(value, list):
            return [resolve(item) for item in value]
        if isinstance(value, dict):
            return {key: resolve(item) for key, item in value.items()}
        return value

    for raw in draw(st.lists(containers, min_size=1, max_size=4)):
        pool.append(resolve(raw))
    again = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    return {"doc": resolve(draw(containers)), "again": again, "deeper": [[again[0]]]}


@settings(max_examples=200, deadline=None)
@given(shared_documents(), st.sampled_from([1, 7, 64, documents._PIECE]))
def test_matches_json_dumps(doc, piece):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(documents, "_PIECE", piece)
        assert "".join(pieces_of(doc)) == reference(doc)


def test_one_container_at_one_level_and_at_several():
    spec = {"set": ["a", "b"]}
    pair = [spec, spec]
    doc = {"nodes": [spec, spec], "edges": [[spec, "c", spec], pair, pair], "deep": {"x": [[pair]]}}
    assert "".join(pieces_of(doc)) == reference(doc)


def test_empty_containers():
    empty_list, empty_dict = [], {}
    doc = [empty_list, empty_dict, {"a": empty_list, "b": [empty_dict, [empty_list]]}, [], {}]
    assert "".join(pieces_of(doc)) == reference(doc)
    for doc in ([], {}, "", 0):
        assert "".join(pieces_of(doc)) == reference(doc)


def test_awkward_text():
    doc = {key: [key, {key: key * 3}] for key in AWKWARD}
    doc["all"] = "".join(AWKWARD)
    assert "".join(pieces_of(doc)) == reference(doc)


def test_large_shared_containers_cross_every_boundary():
    # a shared list whose own text spans many pieces, used twice at one
    # level and once at another, next to a witness of a 40-stage game
    big = [{"set": [f"tok{k}-{j} " for j in range(k % 9)]} for k in range(3000)]
    game = parse_game(json.dumps(centipede_document(random.Random(40), 40)))
    doc = {
        "first": big,
        "second": big,
        "nested": [big],
        "witness": witness_to_document(canonicalize(game).witness),
    }
    pieces = pieces_of(doc)
    text, expected = "".join(pieces), reference(doc)
    # no assertion diff of megabytes of text: name the first differing offset
    same = text == expected
    assert same, f"differs from offset {len(os.path.commonprefix([text, expected]))}"
    assert len(pieces) > 20
    assert max(len(piece) for piece in pieces) <= documents._PIECE


def _run(*argv) -> int:
    return cli_dispatch([str(x) for x in argv])


class TestWrittenFilesEqualSerializedText:
    """Each file the CLI writes is the matching ``serialize_*`` text."""

    @pytest.fixture(params=["classroom", "absentminded"])
    def game_path(self, request):
        return FIXTURES / f"{request.param}.game"

    def test_convert(self, game_path, tmp_path):
        out, wout = tmp_path / "c.game", tmp_path / "c.witness"
        assert _run("convert", "--to", "canonical", game_path, "-o", out, "-w", wout) == 0
        result = canonicalize(load_game(game_path))
        assert out.read_text() == serialize_game(result.game)
        assert wout.read_text() == serialize_witness(result.witness)

    def test_iso(self, game_path, tmp_path):
        wout = tmp_path / "self.witness"
        assert _run("iso", game_path, game_path, "-w", wout) == 0
        game = load_game(game_path)
        assert wout.read_text() == serialize_witness(find_isomorphism(game, game))

    def test_subgame(self, game_path, tmp_path):
        game = load_game(game_path)
        out = tmp_path / "sub.game"
        at = json.dumps(documents._node_to_spec(game.tree.root))
        assert _run("subgame", game_path, "--at", at, "-o", out) == 0
        assert out.read_text() == serialize_game(subgame_at(game, game.tree.root))

    def test_compose(self, game_path, tmp_path):
        witness = canonicalize(load_game(game_path)).witness
        first, second = tmp_path / "f.morphism", tmp_path / "g.morphism"
        first.write_text(serialize_morphism(witness.morphism))
        second.write_text(serialize_morphism(witness.inverse))
        out = tmp_path / "fg.morphism"
        assert _run("compose", first, second, "-o", out) == 0
        composite = compose(
            parse_morphism(second.read_text()), parse_morphism(first.read_text())
        )
        assert out.read_text() == serialize_morphism(composite)
