"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (visible
with ``pytest tests/test_acceptance.py -v -s``).  All comparisons are
exact; the only tolerance anywhere is the one-second wall-clock bound
on the isomorphism search of criterion 7.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ncgames import (
    GameError,
    end_preserved_plays,
    find_isomorphism,
    grand_strategies,
    image_play,
    is_isomorphism,
    is_nash,
    is_subgame,
    nash_equilibria,
    parse_game,
    play_of,
    player_strategies,
    plays,
    serialize_game,
    subgame_at,
    validate_game_morphism,
    validate_tree_morphism,
)
from ncgames.cli import cli_dispatch
from ncgames.labels import Atom, Seq, SetLabel
from ncgames.transforms import (
    apply_utility_transform,
    relabel_game,
    to_choice_sequence,
    to_choice_set,
)

import oracles
import property_checks
from conftest import (
    a,
    make_absentminded_game,
    make_classroom_game,
    make_embedding_trees,
    make_split_information_game,
    nodes_of,
)
from random_games import random_game, random_strict_map, random_tree, random_tree_morphism

FIXTURES = Path(__file__).parent / "fixtures"


def report(number, outcome, description):
    print(f"criterion {number}: {outcome} - {description}")


def token_sets(collection):
    return sorted(sorted(t.token for t in group) for group in collection)


def test_criterion_1_worked_example_reproduction():
    game = make_classroom_game()

    assert token_sets(frozenset(p.path) for p in plays(game.tree)) == [
        [0, 1, 2],
        [0, 1, 4, 7],
        [0, 1, 4, 8],
        [0, 3, 5],
        [0, 3, 6],
    ]
    assert token_sets(game.preform.info_sets) == [[0], [1], [3, 4]]

    strategies = grand_strategies(game.preform)
    assert len(strategies) == 8
    assert strategies == {
        frozenset(s)
        for s in (
            {"a", "g", "e"},
            {"a", "g", "f"},
            {"a", "d", "e"},
            {"a", "d", "f"},
            {"b", "g", "e"},
            {"b", "g", "f"},
            {"b", "d", "e"},
            {"b", "d", "f"},
        )
    }

    zeta_table = {
        frozenset({"a", "g", "e"}): {0, 1, 2},
        frozenset({"a", "g", "f"}): {0, 1, 2},
        frozenset({"a", "d", "e"}): {0, 1, 4, 7},
        frozenset({"a", "d", "f"}): {0, 1, 4, 8},
        frozenset({"b", "g", "e"}): {0, 3, 5},
        frozenset({"b", "d", "e"}): {0, 3, 5},
        frozenset({"b", "g", "f"}): {0, 3, 6},
        frozenset({"b", "d", "f"}): {0, 3, 6},
    }
    assert len(zeta_table) == 8
    for strategy, expected in zeta_table.items():
        play = play_of(game.preform, strategy)
        assert {t.token for t in play.path} == expected

    assert player_strategies(game.form, "P1") == {frozenset({"a"}), frozenset({"b"})}
    assert player_strategies(game.form, "P2") == {frozenset({"g"}), frozenset({"d"})}
    assert player_strategies(game.form, "P3") == {frozenset({"e"}), frozenset({"f"})}

    report(1, "PASS", "plays, information sets, strategies, and the play table match")


def test_criterion_2_nash_reproduction():
    game = make_classroom_game()
    assert nash_equilibria(game) == {
        frozenset({"b", "d", "f"}),
        frozenset({"b", "g", "f"}),
    }
    oracle = oracles.nash_by_deviation_scan(game)
    for s in grand_strategies(game.preform):
        assert is_nash(game, s) == (s in oracle)
    report(2, "PASS", "equilibria are {b,d,f} and {b,g,f}, matching the oracle on all 8")


def test_criterion_3_end_preserved_plays():
    source, target, tau = make_embedding_trees()
    m = validate_tree_morphism(source, target, tau)
    kept = {frozenset(t.token for t in z.path) for z in end_preserved_plays(m)}
    assert kept == {frozenset({1, 2}), frozenset({1, 3})}

    play12 = next(z for z in plays(source) if {t.token for t in z.path} == {1, 2})
    play14 = next(z for z in plays(source) if {t.token for t in z.path} == {1, 4})
    image12 = image_play(m, play12)
    image14 = image_play(m, play14)
    assert {t.token for t in image12} == {10, 11, 12}
    assert {t.token for t in image14} == {10, 11, 14}
    target_play_members = {frozenset(z.path) for z in plays(target)}
    assert image12 in target_play_members
    assert image14 not in target_play_members
    report(3, "PASS", "end-preserved plays and play images match the expected sets")


def test_criterion_4_conversion_chain():
    game = make_classroom_game()

    seq_game, seq_witness = to_choice_sequence(game)
    m = seq_witness.morphism
    revalidated = validate_game_morphism(game, seq_game, m.iota, m.tau, m.delta, m.beta)
    assert is_isomorphism(revalidated) is not None
    assert m.tau[a(7)] == Seq(("a", "d", "e"))
    assert m.delta == {c: c for c in game.preform.choices}
    assert m.iota == {i: i for i in game.players}
    assert nash_equilibria(seq_game) == nash_equilibria(game)

    set_game, set_witness = to_choice_set(seq_game)
    m2 = set_witness.morphism
    revalidated2 = validate_game_morphism(
        seq_game, set_game, m2.iota, m2.tau, m2.delta, m2.beta
    )
    assert is_isomorphism(revalidated2) is not None
    assert m2.tau[Seq(("a", "d", "e"))] == SetLabel(frozenset({"a", "d", "e"}))
    assert m2.delta == {c: c for c in seq_game.preform.choices}
    assert nash_equilibria(set_game) == nash_equilibria(game)

    absentminded = make_absentminded_game()
    converted, witness = to_choice_sequence(absentminded)
    assert is_isomorphism(witness.morphism) is not None
    with pytest.raises(Exception) as err:
        to_choice_set(converted)
    assert getattr(err.value, "code", None) == "Absentminded"

    report(4, "PASS", "conversions carry validated witnesses and preserve the Nash set")


def test_criterion_5_property_suite():
    games_checked = 0
    morphisms_checked = 0
    rng = random.Random(20260811)
    while games_checked < 200:
        game = random_game(rng, max_nodes=9, max_players=3)
        games_checked += 1

        property_checks.check_tree_invariants(game.tree)
        property_checks.check_zeta_uniqueness(game.preform)
        property_checks.check_profile_bijection(game.form)

        # an isomorphism built from node relabeling, player renaming, and
        # a strictly increasing utility rescale
        relabeled, w1 = relabel_game(
            game,
            node_map={t: Atom(f"x{t.token}") for t in game.tree.nodes},
            choice_map={c: f"{c}'" for c in game.preform.choices},
            player_map={i: f"{i}'" for i in game.players},
        )
        maps = {
            i: random_strict_map(rng, relabeled.ranges[i]) for i in relabeled.players
        }
        transformed, w2 = apply_utility_transform(relabeled, maps)
        from ncgames import compose

        witness = is_isomorphism(compose(w2.morphism, w1.morphism))
        assert witness is not None
        property_checks.check_iso_witness(witness)
        property_checks.check_nash_preservation(witness)
        property_checks.check_predicate_invariance(witness)

        property_checks.check_unit_laws(w1.morphism)
        property_checks.check_unit_laws(w2.morphism)
        _again, w3 = relabel_game(
            transformed,
            node_map={t: Atom(f"z{t.token}") for t in transformed.tree.nodes},
        )
        property_checks.check_associativity(w3.morphism, w2.morphism, w1.morphism)

        # play images under sampled tree morphisms, plus the two classes
        # of end-preserving morphisms
        other = random_tree(rng, max_nodes=7)
        sampled = random_tree_morphism(rng, game.tree, other)
        if sampled is not None:
            property_checks.check_play_images(sampled)
            morphisms_checked += 1
        for t_star in sorted(game.tree.decision_nodes, key=str)[:2]:
            from ncgames import subtree_at

            sub = subtree_at(game.tree, t_star)
            inclusion = validate_tree_morphism(sub, game.tree, {t: t for t in sub.nodes})
            assert end_preserved_plays(inclusion) == sub.plays
            property_checks.check_play_images(inclusion)

    assert games_checked >= 200
    assert morphisms_checked >= 50
    report(
        5,
        "PASS",
        f"all structural properties hold on {games_checked} random games "
        f"({morphisms_checked} sampled tree morphisms)",
    )


def test_criterion_6_subgames():
    # The pooled information set {3,4} straddles every proper up-set of
    # the classroom game, so it has no proper subgame: both cuts are
    # rejected.
    game = make_classroom_game()
    for root in (3, 1):
        with pytest.raises(GameError) as err:
            subgame_at(game, a(root))
        assert err.value.code == "InformationSetCut"
        assert err.value.details["information_set"] == nodes_of(3, 4)

    # With the teacher's information set split, node 1 roots a proper
    # subgame that keeps the classroom utilities.
    split = make_split_information_game()
    sub = subgame_at(split, a(1))
    assert is_subgame(sub, split)
    play147 = sub.play_with_members(nodes_of(1, 4, 7))
    outer147 = split.play_with_members(nodes_of(0, 1, 4, 7))
    assert sub.utilities["P1"][play147] == Fraction(0)
    assert split.utilities["P1"][outer147] == Fraction(0)
    report(
        6,
        "PASS",
        "cuts at nodes 3 and 1 rejected on {3,4}; subgame at node 1 of the "
        "split-information game verified",
    )


def test_criterion_7_isomorphism_search():
    game = make_classroom_game()
    relabeled, _ = relabel_game(
        game,
        node_map={t: Atom(f"n{t.token}") for t in game.tree.nodes},
        choice_map={c: c.upper() for c in game.preform.choices},
        player_map={"P1": "Q1", "P2": "Q2", "P3": "Q3"},
    )
    disguised, _ = apply_utility_transform(
        relabeled, {i: {u: 3 * u for u in relabeled.ranges[i]} for i in relabeled.players}
    )

    start = time.monotonic()
    witness = find_isomorphism(game, disguised)
    elapsed = time.monotonic() - start
    assert witness is not None
    assert elapsed < 1.0
    revalidated = validate_game_morphism(
        game,
        disguised,
        witness.morphism.iota,
        witness.morphism.tau,
        witness.morphism.delta,
        witness.morphism.beta,
    )
    assert is_isomorphism(revalidated) is not None

    split = make_split_information_game()
    assert find_isomorphism(game, split) is None
    report(
        7,
        "PASS",
        f"witness recovered in {elapsed:.3f}s; split-information variant rejected",
    )


def test_criterion_8_cli_determinism_and_round_trip(tmp_path, capsys):
    for path in sorted(FIXTURES.glob("*.game")):
        text = path.read_text()
        assert serialize_game(parse_game(text)) == text, path.name

    classroom = FIXTURES / "classroom.game"
    outputs = {}
    for command in ("nash", "derive"):
        runs = []
        for _ in range(2):
            code = cli_dispatch([command, str(classroom)])
            assert code == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]
        outputs[command] = runs[0]
    assert outputs["nash"] == "{b,d,f}\n{b,g,f}\n"
    assert "{a,d,e} -> {0,1,4,7}" in outputs["derive"]
    report(8, "PASS", "fixtures round-trip byte-identically and reports are stable")
