"""Each axiom is checked in one place: the number of morphism
validations behind identities, inversion, composition, conversion,
search and reading morphism and witness documents.  Only maps from
outside the library are validated; identities, composites, conversions
and inverses are morphisms by theorem and are built directly.  A
subgame's tree is built once."""

import pytest

import ncgames.documents
import ncgames.game
import ncgames.preform
import ncgames.transforms
import ncgames.tree
from ncgames import (
    compose,
    find_isomorphism,
    identity_morphism,
    identity_tree_morphism,
    is_isomorphism,
    parse_witness,
    serialize_morphism,
    serialize_witness,
    subgame_at,
    validate_preform_morphism,
)
from ncgames.cli import cli_dispatch
from ncgames.transforms import apply_utility_transform, canonicalize

from conftest import a


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


def test_preform_validation_skips_the_tree_validator(classroom_game, tree_validations):
    pf = classroom_game.preform
    m = validate_preform_morphism(
        pf, pf, {t: t for t in pf.tree.nodes}, {c: c for c in pf.choices}
    )
    assert tree_validations == []
    assert m.tree_morphism == identity_tree_morphism(pf.tree)


def test_subgame_at_builds_one_tree(split_information_game, monkeypatch):
    builds = count_calls(monkeypatch, [ncgames.tree, ncgames.preform], "build_tree")
    sub = subgame_at(split_information_game, a(1))
    assert sub.tree.root == a(1)
    assert len(builds) == 1
