"""Randomized structural properties, on seeded corpora and under
hypothesis."""

import random
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ncgames import (
    build_form,
    build_game,
    build_tree,
    compose,
    compose_tree_morphisms,
    find_isomorphism,
    is_isomorphism,
    parse_game,
    serialize_game,
    serialize_witness,
    subtree_at,
    validate_tree_morphism,
)
from ncgames.labels import Atom, Seq, SetLabel
from ncgames.transforms import (
    apply_utility_transform,
    canonicalize,
    relabel_game,
    style_report,
    to_choice_sequence,
    to_choice_set,
)

import oracles
import property_checks
from random_games import (
    random_game,
    random_strict_map,
    random_tree,
    random_tree_morphism,
)

FIXTURES = Path(__file__).parent / "fixtures"


@st.composite
def tree_strategies(draw, max_nodes=9):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    parents = [draw(st.integers(min_value=0, max_value=k - 1)) for k in range(1, n)]
    nodes = [Atom(k) for k in range(n)]
    return build_tree(nodes, [(nodes[k + 1], nodes[p]) for k, p in enumerate(parents)])


@settings(max_examples=60, deadline=None)
@given(tree_strategies())
def test_tree_invariants_hold_on_arbitrary_trees(tree):
    property_checks.check_tree_invariants(tree)


def relabeled(game, kind):
    """``game`` with its nodes renamed to labels of one kind, or a mix."""
    if kind == "int atoms":
        return game
    if kind == "sequences":
        return to_choice_sequence(game)[0]
    if kind == "text atoms":
        node_map = {t: Atom(f"n{t.token}") for t in game.tree.nodes}
    else:
        mixed = (Atom, lambda k: Seq((str(k),)), lambda k: SetLabel({str(k), "x"}))
        node_map = {t: mixed[t.token % 3](t.token) for t in game.tree.nodes}
    return relabel_game(game, node_map=node_map)[0]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**30),
    st.sampled_from(["int atoms", "text atoms", "sequences", "mixed"]),
)
def test_node_and_play_orders_match_the_label_references(seed, kind):
    game = relabeled(random_game(random.Random(seed), max_nodes=12), kind)
    for g in (game, canonicalize(game).game):
        property_checks.check_node_and_play_order(g.preform)


@settings(max_examples=40, deadline=None)
@given(tree_strategies(max_nodes=7), st.integers(min_value=0, max_value=2**30))
def test_play_images_on_sampled_morphisms(target, seed):
    rng = random.Random(seed)
    source = random_tree(rng, max_nodes=7)
    m = random_tree_morphism(rng, source, target)
    if m is None:
        return
    property_checks.check_play_images(m)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_random_game_documents_round_trip(seed):
    game = random_game(random.Random(seed))
    text = serialize_game(game)
    assert serialize_game(parse_game(text)) == text


def test_subtree_inclusions_preserve_all_ends():
    rng = random.Random(7)
    for _ in range(30):
        tree = random_tree(rng, max_nodes=9)
        for t_star in sorted(tree.decision_nodes, key=str):
            sub = subtree_at(tree, t_star)
            inclusion = validate_tree_morphism(
                sub, tree, {t: t for t in sub.nodes}
            )
            assert frozenset(inclusion.play_images) == sub.plays
            property_checks.check_play_images(inclusion)


def test_tree_isomorphisms_preserve_all_ends():
    rng = random.Random(11)
    for _ in range(30):
        tree = random_tree(rng, max_nodes=9)
        shifted = build_tree(
            {Atom(t.token + 100) for t in tree.nodes},
            {
                (Atom(c.token + 100), Atom(p.token + 100))
                for c, p in tree.pred.items()
            },
        )
        m = validate_tree_morphism(
            tree, shifted, {t: Atom(t.token + 100) for t in tree.nodes}
        )
        assert frozenset(m.play_images) == tree.plays
        assert oracles.strict_predecessors(shifted, m.tau[tree.root]) == frozenset()
        images = {frozenset(m.tau[t] for t in z.path) for z in tree.plays}
        assert images == {frozenset(z.path) for z in shifted.plays}
        assert len(images) == len(tree.plays)


def test_composed_tree_morphisms_end_preservation():
    rng = random.Random(23)
    checked = 0
    while checked < 40:
        t1 = random_tree(rng, max_nodes=7)
        t2 = random_tree(rng, max_nodes=7)
        t3 = random_tree(rng, max_nodes=7)
        first = random_tree_morphism(rng, t1, t2)
        second = random_tree_morphism(rng, t2, t3)
        if first is None or second is None:
            continue
        composed = compose_tree_morphisms(second, first)
        property_checks.check_composed_end_preservation(second, first, composed)
        checked += 1


def test_zeta_uniqueness_on_random_preforms():
    rng = random.Random(31)
    for _ in range(60):
        game = random_game(rng)
        property_checks.check_zeta_uniqueness(game.preform)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_strategy_space_matches_the_oracle_on_random_games(seed):
    property_checks.check_strategy_space(random_game(random.Random(seed)))


def test_strategy_space_matches_the_oracle_on_the_fixtures():
    for name in ("classroom.game", "absentminded.game"):
        game = parse_game((FIXTURES / name).read_text())
        property_checks.check_strategy_space(game)


def test_profile_bijection_on_random_forms():
    rng = random.Random(37)
    for _ in range(60):
        game = random_game(rng)
        property_checks.check_profile_bijection(game.form)


def random_iso_witness(rng, game):
    """A disguised copy: relabeled everything plus a random strictly
    increasing utility rescale, composed into one witness."""
    relabeled, w1 = relabel_game(
        game,
        node_map={t: Atom(f"x{t.token}") for t in game.tree.nodes},
        choice_map={c: f"{c}'" for c in game.preform.choices},
        player_map={i: f"{i}'" for i in game.players},
    )
    maps = {i: random_strict_map(rng, relabeled.ranges[i]) for i in relabeled.players}
    _transformed, w2 = apply_utility_transform(relabeled, maps)
    witness = is_isomorphism(compose(w2.morphism, w1.morphism))
    assert witness is not None
    return witness


def test_isomorphism_consequences_on_random_games():
    rng = random.Random(41)
    for _ in range(25):
        game = random_game(rng)
        witness = random_iso_witness(rng, game)
        property_checks.check_iso_witness(witness)
        property_checks.check_nash_preservation(witness)
        property_checks.check_predicate_invariance(witness)


def utility_swapped(rng, game):
    """``game`` with two plays' utilities exchanged for one player."""
    i = rng.choice(sorted(game.players))
    row = dict(game.utilities[i])
    if len(row) > 1:
        z1, z2 = rng.sample(sorted(row, key=lambda z: game.tree.rank[z.end]), 2)
        row[z1], row[z2] = row[z2], row[z1]
    return build_game(game.form, {**game.utilities, i: row})


def reowned(rng, game):
    """``game`` with every information set handed to a random owner among
    the same players."""
    players = sorted(game.players)
    assignment = {i: set() for i in players}
    for h in sorted(game.preform.info_sets, key=lambda h: min(map(game.tree.rank.get, h))):
        assignment[rng.choice(players)] |= game.preform.info_choices[h]
    return build_game(build_form(game.preform, players, assignment), game.utilities)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**30),
    st.sampled_from(["relabelled", "utility-swapped", "reowned"]),
)
def test_find_isomorphism_agrees_with_the_choice_map_oracle(seed, kind):
    rng = random.Random(seed)
    # at most six edges, so at most six choices for the oracle
    game = random_game(rng, max_nodes=7)
    other = random_iso_witness(rng, game).morphism.target
    if kind == "utility-swapped":
        other = utility_swapped(rng, other)
    elif kind == "reowned":
        other = reowned(rng, other)
    witness = find_isomorphism(game, other)
    expected = oracles.isomorphic_by_choice_maps(game, other)
    assert (witness is None) == (expected is None)
    if witness is not None:
        property_checks.check_iso_witness(witness)
        property_checks.check_class_invariance(expected)


def test_category_laws_on_random_games():
    rng = random.Random(43)
    for _ in range(25):
        game = random_game(rng)
        relabeled, w1 = relabel_game(
            game, node_map={t: Atom(f"y{t.token}") for t in game.tree.nodes}
        )
        maps = {i: random_strict_map(rng, relabeled.ranges[i]) for i in relabeled.players}
        transformed, w2 = apply_utility_transform(relabeled, maps)
        _again, w3 = relabel_game(
            transformed,
            node_map={t: Atom(f"z{t.token}") for t in transformed.tree.nodes},
        )
        property_checks.check_unit_laws(w1.morphism)
        property_checks.check_unit_laws(w2.morphism)
        property_checks.check_associativity(w3.morphism, w2.morphism, w1.morphism)


def test_conversion_witnesses_on_random_games():
    rng = random.Random(47)
    for _ in range(25):
        game = random_game(rng)
        converted, witness = to_choice_sequence(game)
        property_checks.check_iso_witness(witness)
        property_checks.check_predicate_invariance(witness)
        from ncgames.transforms import style_report

        assert style_report(converted).uses_choice_sequences


def test_canonicalize_reaches_choice_sets_exactly_when_not_absentminded():
    from ncgames.transforms import canonicalize, style_report

    rng = random.Random(53)
    for _ in range(40):
        game = random_game(rng)
        result = canonicalize(game)
        assert is_isomorphism(result.witness.morphism) is not None
        if style_report(game).no_absentmindedness:
            assert result.style == "choice-set"
            assert style_report(result.game).uses_choice_sets
        else:
            assert result.style == "choice-sequence"
            assert style_report(result.game).uses_choice_sequences


def test_style_implications_on_fixtures_random_games_and_conversions():
    fixtures = Path(__file__).parent / "fixtures"
    games = [parse_game(path.read_text()) for path in sorted(fixtures.glob("*.game"))]
    rng = random.Random(67)
    games += [random_game(rng) for _ in range(60)]
    seen_perfect = seen_sets = False
    for game in games:
        for g in (game, canonicalize(game).game):
            property_checks.check_style_implications(g)
            report = style_report(g)
            seen_perfect |= report.perfect_information
            seen_sets |= report.uses_choice_sets
    assert seen_perfect and seen_sets


def test_absentmindedness_matches_the_pairwise_oracle():
    games = [parse_game(path.read_text()) for path in sorted(FIXTURES.glob("*.game"))]
    rng = random.Random(73)
    games += [random_game(rng, max_nodes=12) for _ in range(80)]
    seen = set()
    for game in games:
        for g in (game, canonicalize(game).game):
            absentminded = oracles.absentminded_by_pairs(g.preform)
            assert style_report(g).no_absentmindedness is not absentminded
            seen.add(absentminded)
    assert seen == {True, False}


def test_utility_transform_witnesses_on_fixtures_and_random_games():
    fixtures = Path(__file__).parent / "fixtures"
    games = [parse_game(path.read_text()) for path in sorted(fixtures.glob("*.game"))]
    rng = random.Random(71)
    games += [random_game(rng) for _ in range(25)]
    for game in games:
        maps = {
            i: random_strict_map(rng, game.ranges[i])
            for i in sorted(game.players)
            if rng.random() < 0.7
        }
        _transformed, witness = apply_utility_transform(game, maps)
        property_checks.check_iso_witness(witness)


def test_isomorphisms_keep_node_classes():
    """Witnesses built without the iso search, by canonical conversion and
    by a strictly increasing utility rescale, keep every node's class."""
    fixtures = Path(__file__).parent / "fixtures"
    games = [parse_game(path.read_text()) for path in sorted(fixtures.glob("*.game"))]
    rng = random.Random(73)
    games += [random_game(rng) for _ in range(40)]
    for game in games:
        property_checks.check_class_invariance(canonicalize(game).witness)
        maps = {i: random_strict_map(rng, game.ranges[i]) for i in sorted(game.players)}
        property_checks.check_class_invariance(apply_utility_transform(game, maps)[1])


def canonicalize_by_stages(game):
    """The staged route to the canonical style: choice sequences, then,
    without absentmindedness, choice sets and the composite witness."""
    seq_game, seq_witness = to_choice_sequence(game)
    if not style_report(seq_game).no_absentmindedness:
        return seq_game, seq_witness
    set_game, set_witness = to_choice_set(seq_game)
    return set_game, is_isomorphism(compose(set_witness.morphism, seq_witness.morphism))


def test_canonicalize_matches_the_staged_conversions():
    fixtures = Path(__file__).parent / "fixtures"
    games = [parse_game(path.read_text()) for path in sorted(fixtures.glob("*.game"))]
    rng = random.Random(61)
    games += [random_game(rng) for _ in range(40)]
    styles = set()
    for game in games:
        result = canonicalize(game)
        staged_game, staged_witness = canonicalize_by_stages(game)
        assert serialize_game(result.game) == serialize_game(staged_game)
        assert serialize_witness(result.witness) == serialize_witness(staged_witness)
        property_checks.check_iso_witness(result.witness)
        styles.add(result.style)
    assert styles == {"choice-set", "choice-sequence"}


def test_extracted_subgames_are_subgames_with_matching_nash():
    from ncgames import GameError, is_subgame, nash_equilibria, subgame_at
    from oracles import nash_by_deviation_scan

    rng = random.Random(59)
    extracted = 0
    for _ in range(60):
        game = random_game(rng)
        for t_star in sorted(game.tree.decision_nodes, key=str):
            try:
                sub = subgame_at(game, t_star)
            except GameError as err:
                assert err.code == "InformationSetCut"
                continue
            extracted += 1
            assert is_subgame(sub, game)
            assert nash_equilibria(sub) == nash_by_deviation_scan(sub)
    assert extracted >= 60


def utility_bumped(rng, game):
    """``game`` with one play's utility raised by one for one player."""
    i = rng.choice(sorted(game.players))
    row = dict(game.utilities[i])
    z = rng.choice(sorted(row, key=lambda z: game.tree.rank[z.end]))
    row[z] += 1
    return build_game(game.form, {**game.utilities, i: row})


def test_is_subgame_agrees_with_the_member_set_oracle():
    from ncgames import GameError, is_subform, is_subgame, subgame_at

    rng = random.Random(61)
    verdicts = {"cut": [], "bumped": [], "not a subform": []}
    for _ in range(40):
        game, other = random_game(rng), random_game(rng)
        for t_star in sorted(game.tree.decision_nodes, key=game.tree.rank.get):
            try:
                sub = subgame_at(game, t_star)
            except GameError:
                continue
            pairs = [
                ("cut", sub, game),
                ("bumped", utility_bumped(rng, sub), game),
                ("not a subform", sub, other),
                ("not a subform", reowned(rng, sub), game),
                ("not a subform", game, sub),
            ]
            for kind, inner, outer in pairs:
                subform = oracles.subform_by_restriction(inner, outer)
                assert is_subform(inner.form, outer.form) == subform
                if kind == "not a subform" and subform:
                    continue
                expected = oracles.subgame_by_members(inner, outer)
                assert is_subgame(inner, outer) == expected
                verdicts[kind].append(expected)
    assert len(verdicts["cut"]) >= 40 and all(verdicts["cut"])
    assert not any(verdicts["bumped"])
    assert len(verdicts["not a subform"]) >= 80
