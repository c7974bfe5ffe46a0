"""Each axiom is checked in one place: the number of morphism
validations behind inversion, composition and conversion."""

import pytest

import ncgames.game
import ncgames.preform
import ncgames.transforms
import ncgames.tree
from ncgames import (
    compose,
    identity_morphism,
    identity_tree_morphism,
    is_isomorphism,
    validate_preform_morphism,
)
from ncgames.transforms import canonicalize


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
        monkeypatch, [ncgames.game, ncgames.transforms], "validate_game_morphism"
    )


@pytest.fixture
def tree_validations(monkeypatch):
    return count_calls(
        monkeypatch, [ncgames.tree, ncgames.preform], "validate_tree_morphism"
    )


def test_is_isomorphism_validates_only_the_inverse(classroom_game, game_validations):
    m = identity_morphism(classroom_game)
    game_validations.clear()
    assert is_isomorphism(m) is not None
    assert len(game_validations) == 1


def test_compose_validates_the_composite_once(
    classroom_game, game_validations, tree_validations
):
    m = identity_morphism(classroom_game)
    game_validations.clear()
    assert compose(m, m) == m
    assert len(game_validations) == 1
    assert tree_validations == []


def test_canonicalize_validates_morphism_and_inverse(classroom_game, game_validations):
    result = canonicalize(classroom_game)
    assert result.style == "choice-set"
    assert len(game_validations) == 2


def test_preform_validation_skips_the_tree_validator(classroom_game, tree_validations):
    pf = classroom_game.preform
    m = validate_preform_morphism(
        pf, pf, {t: t for t in pf.tree.nodes}, {c: c for c in pf.choices}
    )
    assert tree_validations == []
    assert m.tree_morphism == identity_tree_morphism(pf.tree)
