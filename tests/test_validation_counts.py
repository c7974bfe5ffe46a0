"""Each axiom is checked in one place: the number of morphism
validations behind identities, inversion, composition, conversion,
search and reading morphism and witness documents.  Only maps from
outside the library are validated; identities, composites, conversions
and inverses are morphisms by theorem and are built directly.  A
subgame's tree is built once, and parsing hashes labels a number of
times that grows with the nodes, not with the length of their plays:
reading the node list and the edges hashes each declared label once.
Parsing hashes no play and each distinct utility once, and solving and
checking equilibria hash no label, since they read utilities by play
position; these counts do not depend on the hash seed.  Canonicalizing
hashes no play, and the iso search's node classes no utility.  Reading a
witness decodes each of its games once, and writing one calls the
generic encoder as often at any size."""

import json
import os
import random
import subprocess
import sys
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

import random_games
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
    doc = random_games.centipede_document(random.Random(stages), stages)
    return canonicalize(parse_game(json.dumps(doc))).witness


def test_a_witness_decodes_each_of_its_games_once():
    # each game of a witness is written twice, and read once
    doc = ncgames.documents._loads(serialize_witness(canonical_centipede_witness(60)))
    assert doc["morphism"]["target"] is doc["inverse"]["source"]
    assert doc["morphism"]["source"] is doc["inverse"]["target"]


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
        random_games.stage_pooled_document(random.Random(1), 9, 3),
        random_games.centipede_document(random.Random(1), 80),
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
    """A centipede's plays have lengths up to its stage count, so a
    reader that hashed each row's path would grow with its square."""
    short, long = (
        parsing_hashes(random_games.centipede_document(random.Random(1), n))["label"]
        for n in (80, 160)
    )
    assert 0 < long <= 2.1 * short


def stage_pooled_counts(depth: int) -> dict:
    """The hashes of parsing a three-player stage-pooled game of ``depth``
    stages, of solving it, of finding the play of every grand strategy
    and of checking every equilibrium, with the sizes they are bounded by."""
    doc = random_games.stage_pooled_document(random.Random(1), depth, 3)
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
    return parse_game(json.dumps(random_games.centipede_document(random.Random(stages), stages)))


def test_canonicalize_hashes_no_play_and_labels_in_proportion_to_the_nodes():
    """The converted game is built on the input's node ids and priced by
    play position: 688 labels at 40 stages, 1,368 at 80.  Relabelling
    through the label-keyed builders hashed 2,020 labels and 287 plays at
    40 stages, and 4,020 and 567 at 80."""
    games = [parsed_centipede(stages) for stages in (40, 80)]
    short, long = (hash_calls(lambda: canonicalize(g)) for g in games)
    assert short["play"] == long["play"] == 0
    assert 0 < long["label"] <= 2.1 * short["label"]


@pytest.mark.parametrize(
    "doc",
    [
        random_games.centipede_document(random.Random(40), 40),
        random_games.stage_pooled_document(random.Random(1), 6, 3),
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


def test_hash_counts_do_not_depend_on_the_hash_seed():
    package_root = str(Path(ncgames.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = os.pathsep.join(
        [package_root, str(Path(__file__).parent)] + ([inherited] if inherited else [])
    )
    script = (
        "import json, test_validation_counts as t; "
        "print(json.dumps([t.stage_pooled_counts(d) for d in (8, 9)]))"
    )
    results = set()
    for seed in ("0", "1", "2", "3", "4"):
        result = subprocess.run(
            [sys.executable, "-B", "-c", script],  # writing no bytecode
            env={"PYTHONPATH": pythonpath, "PATH": "/usr/bin:/bin", "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
        )
        assert not result.stderr, result.stderr
        results.add(result.stdout)
    assert len(results) == 1
