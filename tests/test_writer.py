"""The document writer: canonical text in the layout of
``json.dumps(doc, indent=2, ensure_ascii=False) + "\\n"``, written to
files in chunks, byte for byte the ``serialize_*`` text encoded as
UTF-8, at any chunk size and at the sizes of the benchmark's largest
documents."""

import json
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncgames.documents
from ncgames import (
    DocumentError,
    build_form,
    build_game,
    build_preform,
    canonicalize,
    compose,
    find_isomorphism,
    identity_morphism,
    is_isomorphism,
    load_game,
    parse_game,
    parse_morphism,
    parse_witness,
    serialize_game,
    serialize_morphism,
    serialize_witness,
    subgame_at,
)
from ncgames.cli import cli_dispatch
from ncgames.documents import write_game, write_witness
from ncgames.labels import Atom, Seq, SetLabel
from ncgames.transforms import relabel_game

from random_games import families, random_game

FIXTURES = Path(__file__).parent / "fixtures"

AWKWARD = ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", " ", " ", "é", "日", "\U0001f600"]

# every character UTF-8 encodes: a surrogate is refused as ``UnencodableText``
tokens = st.text(st.one_of(st.sampled_from(AWKWARD), st.characters(codec="utf-8")), max_size=4)


@st.composite
def awkward_games(draw):
    """A random game renamed to awkward players, choices and node
    tokens, with atom, sequence and set labels (the empty sequence and
    the empty set among them), and the witness of its canonical form."""
    game = random_game(random.Random(draw(st.integers(0, 2**30))), max_nodes=7)
    nodes, choices, players = (
        sorted(game.tree.nodes, key=lambda t: t.token),
        sorted(game.preform.choices),
        sorted(game.players),
    )
    names = iter(draw(st.lists(
        tokens, min_size=len(nodes) + len(choices) + len(players), unique=True
    )))
    kinds = {
        "atom": Atom,
        "seq": lambda name: Seq(tuple(name)),
        "set": lambda name: SetLabel(frozenset([name] if name else [])),
    }
    node_map = {t: kinds[draw(st.sampled_from(sorted(kinds)))](next(names)) for t in nodes}
    choice_map = {c: next(names) for c in choices}
    player_map = {i: next(names) for i in players}
    renamed = relabel_game(game, node_map, choice_map, player_map)[0]
    return renamed, canonicalize(renamed).witness


@settings(max_examples=60, deadline=None)
@given(awkward_games())
def test_text_is_json_dumps_of_itself_and_parses_back(renamed):
    game, witness = renamed
    for text, parse, value in (
        (serialize_game(game), parse_game, game),
        (serialize_morphism(witness.morphism), parse_morphism, witness.morphism),
        (serialize_witness(witness), parse_witness, witness),
    ):
        assert text == json.dumps(json.loads(text), indent=2, ensure_ascii=False) + "\n"
        assert parse(text) == value


@pytest.mark.parametrize("root, leaf, player, choice, code", [
    # Atom(1) and Atom("1") are distinct labels with one spec text
    (Atom(1), Atom("1"), "P", "c", "AtomCollision"),
    # UTF-8 encodes no surrogate, in a node's, a player's or a choice's text
    (Atom("\ud800"), Atom("x"), "P", "c", "UnencodableText"),
    (Seq(("a", "\udfff")), Atom("x"), "P", "c", "UnencodableText"),
    (Atom("r"), Atom("x"), "P\udc80", "c", "UnencodableText"),
    (Atom("r"), Atom("x"), "P", "\ud83d", "UnencodableText"),
])
def test_unwritable_text_is_refused_before_a_file_is_opened(
    tmp_path, root, leaf, player, choice, code
):
    preform = build_preform({root, leaf}, {choice}, [(root, choice, leaf)])
    form = build_form(preform, {player}, {player: {choice}})
    game = build_game(form, {player: {frozenset({root, leaf}): Fraction(0)}})
    witness = is_isomorphism(identity_morphism(game))
    for serialize, value in ((serialize_game, game), (serialize_witness, witness)):
        with pytest.raises(DocumentError) as refused:
            serialize(value)
        assert refused.value.code == code
    for write, value in ((write_game, game), (write_witness, witness)):
        path = tmp_path / f"{write.__name__}.out"
        with pytest.raises(DocumentError) as refused:
            write(value, path)
        assert refused.value.code == code
        assert not path.exists()


def reference(doc) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def test_empty_containers(tmp_path):
    # the empty sequence and the empty set as labels, and a player who
    # owns no choice, against a document written out by hand
    root, leaf = Seq(()), SetLabel(frozenset())
    preform = build_preform({root, leaf}, {"c"}, [(root, "c", leaf)])
    form = build_form(preform, {"P", "Q"}, {"P": {"c"}, "Q": set()})
    play = frozenset({root, leaf})
    game = build_game(form, {"P": {play: Fraction(0)}, "Q": {play: Fraction(-1, 2)}})
    specs = [{"seq": []}, {"set": []}]
    doc = {
        "format_version": "ncg/1",
        "players": ["P", "Q"],
        "nodes": specs,
        "edges": [[specs[0], "c", specs[1]]],
        "ownership": {"P": ["c"], "Q": []},
        "utilities": [{"play": specs, "values": {"P": "0", "Q": "-1/2"}}],
    }
    identity = {
        "format_version": "ncg/1",
        "source": doc,
        "target": doc,
        "iota": [["P", "P"], ["Q", "Q"]],
        "tau": [[spec, spec] for spec in specs],
        "delta": [["c", "c"]],
        "beta": {"P": [["0", "0"]], "Q": [["-1/2", "-1/2"]]},
    }
    witness = is_isomorphism(identity_morphism(game))
    assert serialize_game(game) == reference(doc)
    assert serialize_morphism(witness.morphism) == reference(identity)
    expected = reference({"format_version": "ncg/1", "morphism": identity, "inverse": identity})
    assert serialize_witness(witness) == expected
    write_game(game, tmp_path / "g.game")
    write_witness(witness, tmp_path / "g.witness")
    assert (tmp_path / "g.game").read_text(encoding="utf-8") == reference(doc)
    assert (tmp_path / "g.witness").read_text(encoding="utf-8") == expected
    assert parse_game(reference(doc)) == game


def test_awkward_text():
    # every awkward token as a player, a choice and an atom, and all of
    # them joined as the root's atom
    root = Atom("".join(AWKWARD))
    leaves = {token: Atom(token) for token in AWKWARD}
    preform = build_preform(
        {root, *leaves.values()}, set(AWKWARD),
        [(root, token, leaf) for token, leaf in leaves.items()],
    )
    players = {token: set() for token in AWKWARD}
    players[AWKWARD[0]] = set(AWKWARD)
    form = build_form(preform, set(AWKWARD), players)
    utilities = {
        i: {frozenset({root, leaf}): Fraction(k - j, j + 1) for k, leaf in enumerate(leaves.values())}
        for j, i in enumerate(AWKWARD)
    }
    game = build_game(form, utilities)
    witness = canonicalize(game).witness
    for text, parse, value in (
        (serialize_game(game), parse_game, game),
        (serialize_witness(witness), parse_witness, witness),
    ):
        assert text == reference(json.loads(text))
        assert parse(text) == value
    doc = json.loads(serialize_game(game))
    assert doc["players"] == sorted(AWKWARD)
    assert doc["ownership"] == {i: sorted(players[i]) for i in AWKWARD}
    assert sorted(spec["atom"] for spec in doc["nodes"]) == sorted([root.token, *AWKWARD])
    assert sorted((t["atom"], c, u["atom"]) for t, c, u in doc["edges"]) == sorted(
        (root.token, token, token) for token in AWKWARD
    )


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
        # the root's spec as the document lists it
        specs = json.loads(serialize_game(game))["nodes"]
        at = json.dumps(specs[game.tree.rank[game.tree.root]])
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


def centipede(stages: int, seed: int):
    doc = families.to_document(families.centipede(random.Random(seed), stages))
    return parse_game(json.dumps(doc))


@pytest.fixture(scope="module")
def large_documents() -> dict:
    """The largest documents the benchmark writes: the canonical game and
    witness of a 60-stage centipede (about 1.0 and 3.0 MB) and the
    witness of two 120-stage centipedes that ``ncg iso`` finds (2.3 MB)."""
    converted = canonicalize(centipede(60, 60))
    rng = random.Random(120)
    g = families.centipede(rng, 120)
    left, right = (
        parse_game(json.dumps(families.to_document(families.relabel(rng, g)[0]))) for _ in "ab"
    )
    return {
        "canonical game": (write_game, converted.game, serialize_game),
        "canonical witness": (write_witness, converted.witness, serialize_witness),
        "iso witness": (write_witness, find_isomorphism(left, right), serialize_witness),
    }


@pytest.mark.parametrize("name", ["canonical game", "canonical witness", "iso witness"])
def test_large_documents_are_written_as_their_text_at_any_chunk_size(
    large_documents, name, tmp_path, monkeypatch
):
    write, value, serialize = large_documents[name]
    serialized = serialize(value)
    text = serialized.encode("utf-8")
    assert len(text) > 10**6
    path = tmp_path / "out"
    write(value, path)
    assert path.read_bytes() == text
    # a chunk per piece, chunks of a few pieces, every piece in one chunk
    # and the final newline in the next, and the whole text in one chunk
    for size in (1, 7, len(serialized) - 1, len(serialized)):
        monkeypatch.setattr(ncgames.documents, "_CHUNK", size)
        write(value, path)
        assert path.read_bytes() == text, size


def test_writing_a_large_witness_holds_a_chunk_not_its_text(large_documents, tmp_path):
    # the 3.0 MB canonical witness: its two games' pieces, each written
    # twice, and one chunk are held; a writer that joins the whole text
    # holds more than the gate
    write, value, _serialize = large_documents["canonical witness"]
    write(value, tmp_path / "warm")  # ranks each game's utilities once
    tracemalloc.start()
    try:
        write(value, tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "out").stat().st_size > 3 * 10**6
    assert peak < 2.0 * 10**6
