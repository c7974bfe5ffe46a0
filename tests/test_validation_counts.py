"""Each axiom is checked in one place: the number of morphism
validations behind identities, inversion, composition, conversion,
search and reading morphism and witness documents.  Only maps from
outside the library are validated; identities, composites, conversions
and inverses are morphisms by theorem and are built directly.  A
subgame's tree is built once, and parsing hashes labels a number of
times that grows with the nodes, not with the length of their plays:
reading the node list and the edges hashes each declared label once,
and a utility row that spells its play is matched by its text and reads
no spec.  The rows of the benchmark families are priced a player's
column at a time, each distinct text read once, and no cell is checked
on its own.  Parsing hashes no play and each distinct utility once, and solving and
checking equilibria hash no label, since they read utilities by play
position; these counts do not depend on the hash seed.  Canonicalizing
hashes no play, and the iso search's node classes no utility.  Finding
and writing an isomorphism hashes no label, play or utility, and
checking a witness no more than parsing its games, under any hash seed.
Reading a witness builds each of its games once, and checking one, or
reading a morphism ``ncg compose`` is given, reads no row or ``tau``
pair spec by spec; ``ncg compose`` reads a game both its documents name
by one file once.  Writing a witness calls the
generic encoder as often at any size.  Composing compares a middle game
given as two equal objects once, at the game layer."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

import ncgames.documents
import ncgames.game
import ncgames.preform
import ncgames.transforms
import ncgames.tree
from ncgames import (
    Atom,
    Play,
    Seq,
    SetLabel,
    compose,
    find_isomorphism,
    grand_strategies,
    identity_morphism,
    identity_tree_morphism,
    is_isomorphism,
    is_nash,
    nash_equilibria,
    parse_game,
    parse_morphism,
    parse_witness,
    play_of,
    player_strategies,
    serialize_game,
    serialize_morphism,
    serialize_witness,
    subgame_at,
    validate_preform_morphism,
)
from ncgames.cli import cli_dispatch
from ncgames.game import _node_classes
from ncgames.transforms import apply_utility_transform, canonicalize, to_choice_sequence

from random_games import families, prefixed
from conftest import a, make_absentminded_game, make_classroom_game


def count_calls(monkeypatch, modules, name):
    """Wrap ``name`` in each module with one shared counter."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted, raising=False)
    return calls


@pytest.fixture
def game_validations(monkeypatch):
    return count_calls(
        monkeypatch,
        [ncgames.game, ncgames.transforms, ncgames.documents],
        "validate_game_morphism",
    )


@pytest.fixture
def tree_validations(monkeypatch):
    return count_calls(
        monkeypatch, [ncgames.tree, ncgames.preform], "validate_tree_morphism"
    )


def test_identity_morphism_validates_nothing(classroom_game, game_validations):
    m = identity_morphism(classroom_game)
    assert m.end_preserved == classroom_game.plays
    assert game_validations == []


def test_is_isomorphism_validates_nothing(classroom_game, game_validations):
    m = identity_morphism(classroom_game)
    game_validations.clear()
    assert is_isomorphism(m) is not None
    assert game_validations == []


def test_compose_validates_nothing(classroom_game, game_validations, tree_validations):
    m = identity_morphism(classroom_game)
    assert compose(m, m) == m
    assert game_validations == []
    assert tree_validations == []


def test_compose_compares_the_middle_game_once(monkeypatch):
    # the morphisms meet at two equal games, read apart: the game layer's
    # check compares their forms, preforms and trees, so the layers below
    # compose without comparing them again
    witness = canonical_centipede_witness(15)
    first, second = witness.morphism, parse_morphism(serialize_morphism(witness.inverse))
    assert first.target is not second.source
    compared = []
    original = ncgames.tree.Structural.__eq__

    def counted(self, other):
        compared.append(type(self).__name__)
        return original(self, other)

    monkeypatch.setattr(ncgames.tree.Structural, "__eq__", counted)
    composite = compose(second, first)
    assert sorted(compared) == ["Form", "Game", "Preform", "Tree"]
    monkeypatch.undo()
    assert composite == identity_morphism(first.source)


def test_canonicalize_validates_nothing(classroom_game, game_validations):
    result = canonicalize(classroom_game)
    assert result.style == "choice-set"
    assert game_validations == []


def test_apply_utility_transform_validates_nothing(classroom_game, game_validations):
    g = classroom_game
    doubled, witness = apply_utility_transform(
        g, {i: {u: 2 * u for u in g.ranges[i]} for i in g.players}
    )
    assert witness.morphism.target == doubled
    assert game_validations == []


def test_compose_command_validates_each_document_once(
    classroom_game, game_validations, tmp_path, capsys
):
    path = tmp_path / "id.morphism"
    path.write_text(serialize_morphism(identity_morphism(classroom_game)))
    out = tmp_path / "composed.morphism"
    assert cli_dispatch(["compose", str(path), str(path), "-o", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote: {out}\n"
    assert out.read_text() == path.read_text()
    assert len(game_validations) == 2


def test_find_isomorphism_validates_the_found_morphism_once(
    classroom_game, game_validations
):
    assert find_isomorphism(classroom_game, classroom_game) is not None
    assert len(game_validations) == 1


def test_parse_witness_validates_the_morphism_once(classroom_game, game_validations):
    text = serialize_witness(canonicalize(classroom_game).witness)
    game_validations.clear()
    assert serialize_witness(parse_witness(text)) == text
    assert len(game_validations) == 1


def test_iso_check_of_a_witness_validates_once(
    classroom_game, game_validations, tmp_path, capsys
):
    path = tmp_path / "classroom.witness"
    path.write_text(serialize_witness(canonicalize(classroom_game).witness))
    game_validations.clear()
    assert cli_dispatch(["iso-check", str(path)]) == 0
    assert capsys.readouterr().out == "valid isomorphism witness\n"
    assert len(game_validations) == 1


def canonical_centipede_witness(stages: int):
    doc = families.to_document(families.centipede(random.Random(stages), stages))
    return canonicalize(parse_game(json.dumps(doc))).witness


def test_a_witness_builds_each_of_its_games_once(monkeypatch):
    # each game of a witness is written twice, and read from its text once
    text = serialize_witness(canonical_centipede_witness(60))
    reads = count_calls(monkeypatch, [ncgames.documents], "_game_at")
    w = parse_witness(text)
    assert len(reads) == 2
    assert w.morphism.target is w.inverse.source
    assert w.morphism.source is w.inverse.target


def test_iso_check_reads_no_matched_row_or_pair(monkeypatch, tmp_path, capsys):
    """``ncg iso-check`` of a 60-stage centipede's canonical witness walks
    its text: the atoms of the centipede's node list are built from
    their tokens, and the canonical game's set specs go through
    ``_node_from_spec`` once.  Every row and ``tau`` pair spells its
    specs as the node lists do, and the centipede's edges are looked up
    by their atoms' tokens, so the node readers read the specs of the
    canonical game's edges alone, which join sets.  When each edge was
    read spec by spec, both node lists went through ``_node_from_spec``
    (242 calls) and the readers read 480 specs; when the witness was
    decoded whole, checking it took 1,086 reads, a read for each spec of
    a ``tau`` pair and for the last spec of each row among them."""
    witness = canonical_centipede_witness(60)
    path = tmp_path / "centipede.witness"
    path.write_text(serialize_witness(witness))
    labels = count_calls(monkeypatch, [ncgames.documents], "_node_from_spec")
    reads = spec_reads(monkeypatch, lambda: cli_dispatch(["iso-check", str(path)]))
    assert capsys.readouterr().out == "valid isomorphism witness\n"
    games = witness.morphism.source, witness.morphism.target
    assert len(labels) == len(witness.morphism.target.tree.nodes) == 121
    assert reads == 2 * (len(witness.morphism.target.tree.nodes) - 1) == 240


def test_compose_reads_a_game_both_documents_name_once(monkeypatch, tmp_path, capsys):
    """``ncg compose`` reads the game that both morphisms name by one
    file once, so the composability check meets one object and hashes
    nothing; a copy under another name is read apart and compared by
    value.  When each document read its own copy, that check hashed 426
    labels and 124 plays for a 30-stage centipede."""
    rng = random.Random(30)
    g = families.centipede(rng, 30)
    b, first = families.relabel(rng, g)
    c, second = families.relabel(rng, b)
    for name, game in zip("abc", (g, b, c)):
        (tmp_path / f"{name}.game").write_text(json.dumps(families.to_document(game)))
    (tmp_path / "copy.game").write_text((tmp_path / "b.game").read_text())
    (tmp_path / "f.morphism").write_text(
        json.dumps(families.morphism_document("a.game", "b.game", g, first, b))
    )
    outputs, check = [], ncgames.game.check_composable
    for middle in ("b.game", "./copy.game"):
        (tmp_path / "g.morphism").write_text(
            json.dumps(families.morphism_document(middle, "c.game", b, second, c))
        )
        reads = count_calls(monkeypatch, [ncgames.documents], "_read_game")
        checks = []

        def counted(second, first):
            hashes = hash_calls(lambda: check(second, first))
            checks.append((first.target is second.source, hashes["label"], hashes["play"]))

        monkeypatch.setattr(ncgames.game, "check_composable", counted)
        out = tmp_path / "fg.morphism"
        argv = ["compose", str(tmp_path / "f.morphism"), str(tmp_path / "g.morphism"), "-o", str(out)]
        assert cli_dispatch(argv) == 0
        assert capsys.readouterr().out == f"wrote: {out}\n"
        outputs.append(out.read_text())
        if middle == "b.game":
            assert (len(reads), checks) == (3, [(True, 0, 0)])
        else:
            assert len(reads) == 4 and checks[0][:2] == (False, 426)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("layout", [{}, {"indent": 2}], ids=["compact", "indented"])
def test_a_compose_input_reads_no_spec(layout, monkeypatch, tmp_path):
    """A relabelling morphism of a 30-stage centipede as ``ncg compose``
    reads it, its games named by path: the games' atoms are built from
    their tokens and their rows split, and each of the 61 ``tau`` pairs
    is read as two node ids from its text, so the node readers read no
    spec and the strict route never runs."""
    rng = random.Random(30)
    g = families.centipede(rng, 30)
    b, renaming = families.relabel(rng, g)
    for name, game in (("a.game", g), ("b.game", b)):
        (tmp_path / name).write_text(json.dumps(families.to_document(game)))
    text = json.dumps(families.morphism_document("a.game", "b.game", g, renaming, b), **layout)
    found, tau_by_text = [], ncgames.documents._tau_by_text
    monkeypatch.setattr(
        ncgames.documents, "_tau_by_text", lambda *args: found.append(tau_by_text(*args)) or found[-1]
    )
    assert spec_reads(monkeypatch, lambda: ncgames.documents.parse_morphism(text, tmp_path)) == 0
    ((keys, values), _end), = found
    assert len(keys) == len(values) == len(g.nodes()) == 61


def test_writing_a_witness_encodes_as_many_values_at_any_size(monkeypatch):
    # specs, edges, rows and tau pairs come from templates; the encoder
    # formats only the small maps, which have one entry per player
    counts = []
    for stages in (15, 30):
        witness = canonical_centipede_witness(stages)
        calls = count_calls(monkeypatch, [ncgames.documents], "_encode")
        serialize_witness(witness)
        counts.append(len(calls))
    assert 0 < counts[1] <= counts[0]


def test_preform_validation_skips_the_tree_validator(classroom_game, tree_validations):
    pf = classroom_game.preform
    m = validate_preform_morphism(
        pf, pf, {t: t for t in pf.tree.nodes}, {c: c for c in pf.choices}
    )
    assert tree_validations == []
    assert m.tree_morphism == identity_tree_morphism(pf.tree)


def test_subgame_at_builds_one_tree(split_information_game, monkeypatch):
    builds = count_calls(monkeypatch, [ncgames.tree, ncgames.preform], "_tree_from_ids")
    sub = subgame_at(split_information_game, a(1))
    assert sub.tree.root == a(1)
    assert len(builds) == 1


def hash_calls(action) -> dict:
    """The ``__hash__`` calls of labels, plays and fractions while
    ``action()`` runs; a play hashes as its end, so each play hash is
    a label hash too."""
    kinds = {
        Atom: "label", Seq: "label", SetLabel: "label", Play: "play", Fraction: "fraction"
    }
    counts = dict.fromkeys(kinds.values(), 0)
    originals = {cls: cls.__hash__ for cls in kinds}

    def counted(kind, original):
        def hash_(value):
            counts[kind] += 1
            return original(value)

        return hash_

    for cls, kind in kinds.items():
        cls.__hash__ = counted(kind, cls.__hash__)
    try:
        action()
    finally:
        for cls, original in originals.items():
            cls.__hash__ = original
    return counts


def parsing_hashes(doc: dict) -> dict:
    """The hashes of ``parse_game`` reading ``doc``."""
    text = json.dumps(doc)
    return hash_calls(lambda: parse_game(text))


class Stopped(Exception):
    pass


@pytest.mark.parametrize(
    "doc",
    [
        families.to_document(families.stage_pooled_binary(random.Random(1), 9, 3)),
        families.to_document(families.centipede(random.Random(1), 80)),
        json.loads(serialize_game(canonicalize(make_classroom_game()).game)),
        json.loads(serialize_game(to_choice_sequence(make_absentminded_game())[0])),
    ],
    ids=["stage-pooled", "centipede", "choice sets", "choice sequences"],
)
def test_reading_the_node_list_hashes_each_declared_label_once(doc, monkeypatch):
    """Reading a document's nodes and edges, up to the building of its
    preform, hashes each declared label once, into the set of nodes; an
    edge spelling a node as the node list does finds it by its spec.  In all,
    parsing the depth-9 stage-pooled game hashes 1,534 labels, and the
    96 games of two seed-1 ``iso`` rounds 13,560; when the node list was
    numbered through a label-keyed dict, each declared label was hashed
    three times: 9,206 and 77,672, when the preform built its
    label-keyed ``feas`` at every parse, 7,160 and 59,400, and when the
    tree, preform and game built their label-keyed maps at every parse,
    6,649 and 54,976."""

    def stop(*_args):
        raise Stopped

    def read_nodes_and_edges():
        with pytest.raises(Stopped):
            parse_game(json.dumps(doc))

    monkeypatch.setattr(ncgames.documents, "_preform_from_ids", stop)
    assert hash_calls(read_nodes_and_edges)["label"] == len(doc["nodes"])


def test_parsing_hashes_labels_in_proportion_to_the_nodes():
    """Each benchmark family, parsed at about n and 2n nodes, hashes
    about twice the labels.  A centipede's plays have lengths up to its
    stage count, so a reader that hashed each row's path would grow with
    its square.  Seed 1: 241 and 481 labels for the centipede and the
    absentminded chain, 766 and 1,534 for either binary tree, 162 and
    322 for the wide tree."""
    for generate, *sizes in [
        (families.centipede, (80,), (160,)),
        (families.stage_pooled_binary, (8, 3), (9, 3)),
        (families.perfect_info_binary, (8, 3), (9, 3)),
        (families.wide_symmetric, (160,), (320,)),
        (families.absentminded_chain, (80,), (160,)),
    ]:
        docs = [families.to_document(generate(random.Random(1), *size)) for size in sizes]
        family = generate.__name__
        small_nodes, large_nodes = (len(doc["nodes"]) for doc in docs)
        short, long = (parsing_hashes(doc)["label"] for doc in docs)
        assert large_nodes >= 2 * small_nodes - 1, family
        assert 0 < long <= 2.1 * short, family


def spec_reads(monkeypatch, action) -> int:
    """The node specs read through ``_node_reader``'s readers while
    ``action()`` runs, which must not leave the text route."""
    reads = []
    reader = ncgames.documents._node_reader

    def counting_reader(labels, by_key):
        read = reader(labels, by_key)

        def counted(spec):
            reads.append(spec)
            return read(spec)

        return counted

    def strict(_text):
        raise AssertionError("the document was read by the strict route")

    monkeypatch.setattr(ncgames.documents, "_node_reader", counting_reader)
    monkeypatch.setattr(ncgames.documents, "_loads", strict)
    action()
    return len(reads)


@pytest.mark.parametrize(
    "layout",
    [{}, {"separators": (",", ":")}, {"indent": 2}],
    ids=["compact", "tight", "indented"],
)
def test_rows_that_spell_their_plays_decode_no_spec(layout, monkeypatch):
    """Each row of a centipede spells its play as the node list spells
    its nodes, so on one line or indented by two it is matched by its
    text and none of its specs is read; its edges join atoms, so they
    are looked up by their tokens in any layout.  A row in another
    layout is decoded, and its last spec is read to find its play.
    When every row was decoded, a 120-stage centipede's rows held 7,501
    of its 8,222 specs; when each edge was read spec by spec, the reader
    read the two specs of each edge in every layout."""
    for stages in (40, 80):
        doc = families.to_document(families.centipede(random.Random(stages), stages))
        text = json.dumps(doc, **layout)
        decoded = len(doc["utilities"]) if layout.get("separators") else 0
        assert spec_reads(monkeypatch, lambda: parse_game(text)) == decoded


# each benchmark family at a size of a dozen plays or more
FAMILY_SIZES = [
    (families.centipede, (30,)),
    (families.stage_pooled_binary, (5, 3)),
    (families.perfect_info_binary, (5, 2)),
    (families.wide_symmetric, (16,)),
    (families.absentminded_chain, (30,)),
]


@pytest.mark.parametrize("layout", [{}, {"indent": 2}], ids=["compact", "indented"])
@pytest.mark.parametrize("generate, size", FAMILY_SIZES, ids=lambda v: getattr(v, "__name__", ""))
def test_the_families_decode_no_spec(generate, size, layout, monkeypatch):
    """Each benchmark family's document, on one line or indented by two,
    builds its atoms from their tokens: ``_node_from_spec`` is not
    called, and the reader reads no spec.  When the node list was read
    spec by spec, each of its specs went through ``_node_from_spec``."""
    text = json.dumps(families.to_document(generate(random.Random(1), *size)), **layout)
    labels = count_calls(monkeypatch, [ncgames.documents], "_node_from_spec")
    assert spec_reads(monkeypatch, lambda: parse_game(text)) == 0
    assert labels == []


@pytest.mark.parametrize("layout", [{}, {"indent": 2}], ids=["compact", "indented"])
@pytest.mark.parametrize("generate, size", FAMILY_SIZES, ids=lambda v: getattr(v, "__name__", ""))
def test_the_families_are_priced_a_column_at_a_time(generate, size, layout, monkeypatch):
    """No row is read cell by cell and no utility is checked one at a
    time: ``_read_rows`` and ``_as_fraction`` are not called, and each
    distinct text of a player's column is read once.  When every game was
    priced cell by cell, both ran, ``_as_fraction`` once per cell, and
    the reader was called once per cell."""
    doc = families.to_document(generate(random.Random(1), *size))
    reads = []
    reader = ncgames.documents._rational_reader

    def counting_reader():
        read = reader()

        def counted(value):
            reads.append(value)
            return read(value)

        return counted

    monkeypatch.setattr(ncgames.documents, "_rational_reader", counting_reader)
    rows = count_calls(monkeypatch, [ncgames.documents], "_read_rows")
    cells = count_calls(monkeypatch, [ncgames.game], "_as_fraction")
    parse_game(json.dumps(doc, **layout))
    assert rows == [] and cells == []
    columns = [{row["values"][i] for row in doc["utilities"]} for i in doc["players"]]
    assert sorted(reads) == sorted(text for texts in columns for text in texts)


def test_decoded_rows_are_priced_a_cell_at_a_time(monkeypatch):
    """The classroom game has fewer plays than the reader splits rows
    for, so its decoded rows are read and priced cell by cell."""
    text = (Path(__file__).parent / "fixtures" / "classroom.game").read_text()
    rows = count_calls(monkeypatch, [ncgames.documents], "_read_rows")
    cells = count_calls(monkeypatch, [ncgames.game], "_as_fraction")
    game = parse_game(text)
    assert len(rows) == 1 and len(cells) == len(game.players) * len(game.plays)


def stage_pooled_counts(depth: int) -> dict:
    """The hashes of parsing a three-player stage-pooled game of ``depth``
    stages, of solving it, of finding the play of every grand strategy
    and of checking every equilibrium, with the sizes they are bounded by."""
    doc = families.to_document(families.stage_pooled_binary(random.Random(1), depth, 3))
    parsing = parsing_hashes(doc)
    game = parse_game(json.dumps(doc))
    solving = hash_calls(lambda: nash_equilibria(game))
    grand = grand_strategies(game.preform)
    equilibria = nash_equilibria(game)
    # each check walks the strategy and each deviation of each player
    deviations = sum(len(player_strategies(game.form, i)) for i in game.players)
    rows = doc["utilities"]
    return {
        "nodes": len(doc["nodes"]),
        "plays": len(rows),
        "priced": len(doc["players"]) * len(rows),
        "texts": sum(len({row["values"][i] for row in rows}) for i in doc["players"]),
        "parsing": parsing,
        "solving": solving,
        "strategies": len(grand),
        "playing": hash_calls(lambda: [play_of(game.preform, s) for s in grand]),
        "walks": len(equilibria) * (1 + deviations),
        "checking": hash_calls(lambda: [is_nash(game, s) for s in equilibria]),
    }


@pytest.mark.parametrize("depth", [8, 9])
def test_parsing_hashes_each_priced_play_and_distinct_utility_once(depth):
    """At depth 9 the former reader hashed 6,656 plays, 1,536 fractions
    and 18,929 labels (18.5 per node); one that built each player's table
    keyed by plays hashed each priced play once (1,536)."""
    counts = stage_pooled_counts(depth)
    parsing = counts["parsing"]
    assert parsing["play"] == 0
    # once per distinct text of each player's row: a range is a set built
    # by hashing its members, and sharing one hash between the players'
    # ranges would change the order each set iterates in
    assert 0 < parsing["fraction"] <= counts["texts"]
    assert 0 < parsing["label"] <= 10 * counts["nodes"]


@pytest.mark.parametrize("depth", [8, 9])
def test_solving_hashes_labels_only_to_read_utilities(depth):
    """None: utilities are read by play position.  At depth 9 the former
    solver hashed 5,115 labels, re-deriving node ids from the label-keyed
    fields, and one that read utilities by play 1,536."""
    counts = stage_pooled_counts(depth)
    assert counts["priced"] > 0 and counts["solving"]["label"] == 0


@pytest.mark.parametrize("depth", [8, 9])
def test_play_of_hashes_one_label_per_call(depth):
    """The one label hashed is the end of the play returned; the first
    call also builds ``Tree.play_by_end``, hashing each play's end once.
    At depth 9, walking the label-keyed ``feas`` and ``op`` hashed 38 per
    call."""
    counts = stage_pooled_counts(depth)
    playing = counts["playing"]["label"]
    assert playing == counts["strategies"] + counts["plays"] and counts["strategies"] > 0


@pytest.mark.parametrize("depth", [8, 9])
def test_is_nash_hashes_at_most_one_label_per_walk(depth):
    """None: the walks return end ids and utilities are read by play
    position.  At depth 9 the label-keyed walks hashed 782 labels per
    call, of 25 walks and 48 lookups, and walks that each hashed the end
    of their play, with a lookup by play for each, 73."""
    counts = stage_pooled_counts(depth)
    checking = counts["checking"]
    assert counts["walks"] > 0 and checking["play"] == checking["label"] == 0


def parsed_centipede(stages: int):
    return parse_game(json.dumps(families.to_document(families.centipede(random.Random(stages), stages))))


def test_canonicalize_hashes_no_play_and_labels_in_proportion_to_the_nodes():
    """The converted game is built on the input's node ids and priced by
    play position, and each new label is hashed once to build the node
    set, whose size checks the relabelling is injective: 283 labels at 40
    stages (81 nodes), 563 at 80 (161 nodes).  Checking injectivity by a
    set of its own hashed 364 and 724, 4.5 per node.  Relabelling through
    the label-keyed builders hashed 2,020 labels and 287 plays at 40
    stages, and 4,020 and 567 at 80."""
    games = [parsed_centipede(stages) for stages in (40, 80)]
    short, long = (hash_calls(lambda: canonicalize(g)) for g in games)
    assert short["play"] == long["play"] == 0
    assert 0 < long["label"] <= 2.1 * short["label"]
    for g, counts in zip(games, (short, long)):
        assert counts["label"] <= 3.5 * len(g.tree.nodes)


@pytest.mark.parametrize(
    "doc",
    [
        families.to_document(families.centipede(random.Random(40), 40)),
        families.to_document(families.stage_pooled_binary(random.Random(1), 6, 3)),
    ],
    ids=["centipede", "stage-pooled"],
)
def test_node_classes_hash_no_fraction(doc):
    """Leaves are classed by utility ranks listed by play position, keyed
    by lowest terms; keyed by ``Fraction``, the classes of the 40-stage
    centipede hashed 119 fractions and 82 plays."""
    g = parse_game(json.dumps(doc))
    counts = hash_calls(lambda: _node_classes(g, {}))
    assert counts["fraction"] == counts["play"] == 0


def output_under_hash_seed(script: str, seed: str) -> str:
    """The standard output of ``script`` run by a fresh interpreter with
    ``PYTHONHASHSEED`` set to ``seed``, the tests importable."""
    package_root = str(Path(ncgames.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = os.pathsep.join(
        [package_root, str(Path(__file__).parent)] + ([inherited] if inherited else [])
    )
    result = subprocess.run(
        [sys.executable, "-B", "-c", script],  # writing no bytecode
        env={"PYTHONPATH": pythonpath, "PATH": "/usr/bin:/bin", "PYTHONHASHSEED": seed},
        capture_output=True,
        text=True,
    )
    assert not result.stderr, result.stderr
    return result.stdout


def test_hash_counts_do_not_depend_on_the_hash_seed():
    script = (
        "import json, test_validation_counts as t; "
        "print(json.dumps([t.stage_pooled_counts(d) for d in (8, 9)]))"
    )
    results = {output_under_hash_seed(script, seed) for seed in ("0", "1", "2", "3", "4")}
    assert len(results) == 1


def morphism_counts() -> dict:
    """The hashes of finding an isomorphism of two 120-stage centipedes
    and writing its witness, with the label-keyed views that built, and
    the hashes of ``ncg iso-check`` of a 60-stage centipede's canonical
    witness, with those of parsing the witness's two games."""
    centipede = families.centipede(random.Random(120), 120)
    g1, g2 = (
        parse_game(json.dumps(families.to_document(prefixed(centipede, prefix))))
        for prefix in ("", "b")
    )
    found = []
    finding = hash_calls(lambda: found.append(find_isomorphism(g1, g2)) or serialize_witness(found[0]))
    views = [
        view for g in (g1, g2) for view in ((g.tree, "rank"), (g.tree, "play_by_end"), (g, "utilities"))
    ]
    # a morphism's views, its lower layers among them, are built on first read
    views += [(m, "theta") for m in (found[0].morphism, found[0].inverse)]
    witness = canonical_centipede_witness(60)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "centipede.witness"
        path.write_text(serialize_witness(witness))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            checking = hash_calls(lambda: cli_dispatch(["iso-check", str(path)]))
    games = [serialize_game(g) for g in (witness.morphism.source, witness.morphism.target)]
    return {
        "finding": finding,
        "views": [name for value, name in views if name in vars(value)],
        "checking": checking,
        "report": out.getvalue(),
        "parsing": hash_calls(lambda: [parse_game(text) for text in games]),
    }


@pytest.mark.parametrize("seed", ["0", "5"])
def test_morphisms_are_found_checked_and_written_over_ids(seed):
    """The search hands its node ids and utility ranks to the validator,
    which inverts and writes them as they are: no play, no fraction and
    no label is hashed, and no label-keyed view is built.  ``iso-check``
    reads ``tau`` pairs as node ids and ``beta`` pairs by lowest terms,
    so it hashes what parsing its two games hashes and no more.  Over the
    label-keyed maps, the search and the writing hashed 6,389 labels,
    1,331 plays and 1,222 fractions, and ``iso-check`` 3,208 labels, 671
    plays and 888 fractions, where parsing its games hashes 362, 0 and 108."""
    script = (
        "import json, test_validation_counts as t; print(json.dumps(t.morphism_counts()))"
    )
    counts = json.loads(output_under_hash_seed(script, seed))
    assert counts["finding"] == {"label": 0, "play": 0, "fraction": 0}
    assert counts["views"] == []
    assert counts["report"] == "valid isomorphism witness\n"
    assert counts["checking"] == counts["parsing"]
    assert counts["parsing"]["play"] == 0 and counts["parsing"]["fraction"] > 0
