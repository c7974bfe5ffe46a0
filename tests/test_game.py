"""Game validation, morphisms, composition, isomorphisms, subgames, Nash."""

from fractions import Fraction

import pytest

from ncgames import (
    Game,
    GameError,
    MorphismError,
    Play,
    build_form,
    build_game,
    build_preform,
    compose,
    forget_morphism_to_form,
    forget_morphism_to_preform,
    forget_morphism_to_tree,
    forget_to_form,
    forget_to_preform,
    forget_to_tree,
    grand_strategies,
    identity_form_morphism,
    identity_morphism,
    is_isomorphism,
    is_nash,
    is_subgame,
    nash_equilibria,
    subgame_at,
    subtree_at,
    validate_game_morphism,
)
from ncgames.transforms import apply_utility_transform, relabel_game

import property_checks
from conftest import (
    CLASSROOM_UTILITIES, UNREADABLE, a, make_classroom_game, make_classroom_tree, nodes_of
)
from oracles import nash_by_deviation_scan


def identity_components(g):
    return (
        {i: i for i in g.players},
        {t: t for t in g.tree.nodes},
        {c: c for c in g.preform.choices},
        {i: {u: u for u in g.ranges[i]} for i in g.players},
    )


def doubled_game(g):
    """The same game with every utility doubled."""
    maps = {i: {u: 2 * u for u in g.ranges[i]} for i in g.players}
    return apply_utility_transform(g, maps)


# keys that are no play of the classroom tree, each with its listing in
# the rejection
NOT_PLAYS = {
    "two terminal nodes": (nodes_of(0, 3, 5, 6), "0,3,5,6"),
    "no terminal node": (nodes_of(0, 1), "0,1"),
    "a play missing an interior node": (nodes_of(0, 4, 7), "0,4,7"),
    "a play plus one node": (nodes_of(0, 1, 3, 5), "0,1,3,5"),
    "a node of another tree": (nodes_of(0, 3, 9), "0,3,9"),
    "a play of another tree": (
        subtree_at(make_classroom_tree(), a(1)).play_by_end[a(2)], "1,2"
    ),
}


class TestBuildGame:
    @pytest.mark.parametrize("key, listing", NOT_PLAYS.values(), ids=NOT_PLAYS)
    def test_key_that_is_no_play(self, classroom_form, key, listing):
        table = {i: dict(row) for i, row in CLASSROOM_UTILITIES.items()}
        table["P1"][key] = 5
        with pytest.raises(GameError) as err:
            build_game(classroom_form, table)
        assert str(err.value) == (
            f"UnknownPlayInTable [[G2]]: utility row of P1 prices {{{listing}}}, "
            "which is not a play"
        )

    @pytest.mark.parametrize("key, _listing", NOT_PLAYS.values(), ids=NOT_PLAYS)
    def test_play_with_members_of_no_play(self, classroom_game, key, _listing):
        nodes = key.path if isinstance(key, Play) else key
        assert classroom_game.play_with_members(nodes) is None

    def test_node_sets_give_the_trees_own_plays(self, classroom_game):
        own = classroom_game.tree.play_by_end
        twins = make_classroom_tree().play_by_end
        for end, play in own.items():
            assert classroom_game.play_with_members(frozenset(play.path)) is play
            assert classroom_game.play_with_members(twins[end].path) is play
        game = build_game(classroom_game.form, CLASSROOM_UTILITIES)
        assert all(z is own[z.end] for row in game.utilities.values() for z in row)

    def test_worked_utilities(self, classroom_game):
        play = classroom_game.play_with_members(nodes_of(0, 3, 5))
        assert classroom_game.utilities["P1"][play] == Fraction(1)
        assert classroom_game.ranges["P1"] == {Fraction(-1), Fraction(0), Fraction(1)}

    def test_minimal_game(self):
        pf = build_preform({a(0), a(1)}, {"c"}, [(a(0), "c", a(1))])
        form = build_form(pf, {"solo"}, {"solo": {"c"}})
        game = build_game(form, {"solo": {frozenset({a(0), a(1)}): 0}})
        assert game.ranges["solo"] == {Fraction(0)}

    def test_missing_utility(self, classroom_form):
        table = {
            i: dict(row) for i, row in CLASSROOM_UTILITIES.items()
        }
        del table["P2"][nodes_of(0, 1, 2)]
        with pytest.raises(GameError) as err:
            build_game(classroom_form, table)
        assert err.value.code == "MissingUtility"

    def test_play_priced_twice(self, classroom_game):
        plays = list(classroom_game.tree.play_by_end.values())
        table = {i: dict(row) for i, row in classroom_game.utilities.items()}
        table["P2"][frozenset(plays[0].path)] = 7
        assert len(table["P2"]) == len(plays) + 1
        with pytest.raises(GameError) as err:
            build_game(classroom_game.form, table)
        assert err.value.code == "DuplicateUtility"
        assert err.value.details == {"player": "P2"}
        assert str(err.value) == (
            "DuplicateUtility [[G2]]: utility row of P2 prices the play ending at "
            f"{plays[0].end.token} twice"
        )

    def test_plays_of_an_equal_tree_become_this_trees(self, classroom_form):
        other = make_classroom_game()
        game = build_game(classroom_form, other.utilities)
        own = classroom_form.preform.tree.play_by_end
        assert game.utilities == other.utilities
        for row in game.utilities.values():
            assert all(z is own[z.end] for z in row)

    def test_floats_rejected(self, classroom_form):
        table = {i: dict(row) for i, row in CLASSROOM_UTILITIES.items()}
        table["P1"][nodes_of(0, 3, 5)] = 0.5
        with pytest.raises(GameError) as err:
            build_game(classroom_form, table)
        assert err.value.code == "NotRational"

    def test_booleans_rejected(self, classroom_form):
        # ``True == 1``, but a truth value is no utility
        table = {i: dict(row) for i, row in CLASSROOM_UTILITIES.items()}
        table["P1"][nodes_of(0, 3, 5)] = True
        with pytest.raises(GameError) as err:
            build_game(classroom_form, table)
        assert err.value.code == "NotRational"

    @pytest.mark.parametrize("text", UNREADABLE.values(), ids=UNREADABLE)
    def test_unreadable_text_rejected(self, classroom_form, text):
        table = {i: dict(row) for i, row in CLASSROOM_UTILITIES.items()}
        table["P1"][nodes_of(0, 3, 5)] = text
        with pytest.raises(GameError) as err:
            build_game(classroom_form, table)
        assert err.value.code == "NotRational"
        assert len(str(err.value)) < 100


class TestValidateGameMorphism:
    def test_identity_components_validate(self, classroom_game):
        m = validate_game_morphism(
            classroom_game, classroom_game, *identity_components(classroom_game)
        )
        assert m.end_preserved == classroom_game.plays

    def test_doubling_utilities_validates(self, classroom_game):
        target, _w = doubled_game(classroom_game)
        iota, tau, delta, _ = identity_components(classroom_game)
        beta = {
            i: {u: 2 * u for u in classroom_game.ranges[i]}
            for i in classroom_game.players
        }
        m = validate_game_morphism(classroom_game, target, iota, tau, delta, beta)
        assert m.beta["P1"][Fraction(1)] == Fraction(2)

    def test_non_monotone_beta_rejected(self, classroom_game):
        target, _w = doubled_game(classroom_game)
        iota, tau, delta, _ = identity_components(classroom_game)
        beta = {
            i: {u: 2 * u for u in classroom_game.ranges[i]}
            for i in classroom_game.players
        }
        beta["P1"] = {Fraction(-1): 0, Fraction(0): 0, Fraction(1): Fraction(-2)}
        with pytest.raises(MorphismError) as err:
            validate_game_morphism(classroom_game, target, iota, tau, delta, beta)
        assert err.value.code == "BetaNotMonotone"

    def test_beta_domain_mismatch(self, classroom_game):
        iota, tau, delta, beta = identity_components(classroom_game)
        beta["P1"] = {Fraction(0): Fraction(0)}
        with pytest.raises(MorphismError) as err:
            validate_game_morphism(
                classroom_game, classroom_game, iota, tau, delta, beta
            )
        assert err.value.code == "BetaDomainMismatch"

    @pytest.mark.parametrize("text", UNREADABLE.values(), ids=UNREADABLE)
    def test_unreadable_beta_text_rejected(self, classroom_game, text):
        iota, tau, delta, beta = identity_components(classroom_game)
        beta["P1"][Fraction(1)] = text
        with pytest.raises(GameError) as err:
            validate_game_morphism(
                classroom_game, classroom_game, iota, tau, delta, beta
            )
        assert err.value.code == "NotRational"

    def test_boolean_beta_rejected(self, classroom_game):
        iota, tau, delta, beta = identity_components(classroom_game)
        beta["P1"][Fraction(1)] = True
        with pytest.raises(GameError) as err:
            validate_game_morphism(
                classroom_game, classroom_game, iota, tau, delta, beta
            )
        assert err.value.code == "NotRational"

    def test_utility_equation_failure(self, classroom_game):
        target, _w = doubled_game(classroom_game)
        iota, tau, delta, _ = identity_components(classroom_game)
        # weakly increasing and lands in the target range, but wrong values
        beta = {
            i: {u: 2 * u for u in classroom_game.ranges[i]}
            for i in classroom_game.players
        }
        beta["P3"] = {Fraction(0): Fraction(0), Fraction(1): Fraction(0)}
        with pytest.raises(MorphismError) as err:
            validate_game_morphism(classroom_game, target, iota, tau, delta, beta)
        assert err.value.code == "UtilityEquationFails"

    def test_utility_equation_failure_names_the_first_play(self, classroom_game):
        target, _w = doubled_game(classroom_game)
        iota, tau, delta, _ = identity_components(classroom_game)
        beta = {
            i: {u: 2 * u for u in classroom_game.ranges[i]}
            for i in classroom_game.players
        }
        # P2 fails on the plays ending at 7 and 8, P3 on those at 2, 6, 7
        beta["P2"] = {Fraction(0): Fraction(0), Fraction(1): Fraction(0)}
        beta["P3"] = {Fraction(0): Fraction(0), Fraction(1): Fraction(0)}
        with pytest.raises(MorphismError) as err:
            validate_game_morphism(classroom_game, target, iota, tau, delta, beta)
        assert str(err.value) == (
            "UtilityEquationFails [[g4]]: player P2: utility map gives 0 on the "
            "play ending at 7 but its image is priced 2"
        )
        assert err.value.details["play"].end == a(7)

    def test_embedding_with_partial_beta_domain(self, classroom_game):
        """A subgame-style inclusion prices only the end-preserved plays."""
        sub = subgame_at(classroom_game, a(0))
        m = validate_game_morphism(
            sub,
            classroom_game,
            {i: i for i in sub.players},
            {t: t for t in sub.tree.nodes},
            {c: c for c in sub.preform.choices},
            {i: {u: u for u in sub.ranges[i]} for i in sub.players},
        )
        assert m.end_preserved == sub.plays


class TestIdentityAndCompose:
    def test_identity_is_isomorphism(self, classroom_game):
        witness = is_isomorphism(identity_morphism(classroom_game))
        assert witness is not None
        assert witness.inverse == identity_morphism(classroom_game)

    def test_identity_beta_is_range_identity(self, classroom_game):
        m = identity_morphism(classroom_game)
        assert m.beta["P1"] == {
            Fraction(-1): Fraction(-1),
            Fraction(0): Fraction(0),
            Fraction(1): Fraction(1),
        }

    def test_identity_on_single_play_game_has_singleton_beta(self):
        pf = build_preform({a(0), a(1)}, {"c"}, [(a(0), "c", a(1))])
        form = build_form(pf, {"solo"}, {"solo": {"c"}})
        game = build_game(form, {"solo": {frozenset({a(0), a(1)}): 7}})
        m = identity_morphism(game)
        assert m.beta == {"solo": {Fraction(7): Fraction(7)}}

    def test_unit_laws(self, classroom_game):
        target, witness = doubled_game(classroom_game)
        m = witness.morphism
        assert compose(identity_morphism(target), m) == m
        assert compose(m, identity_morphism(classroom_game)) == m

    def test_double_then_affine_composition(self, classroom_game):
        doubled, w1 = doubled_game(classroom_game)
        plus_one, w2 = apply_utility_transform(
            doubled, {i: {u: u + 1 for u in doubled.ranges[i]} for i in doubled.players}
        )
        composed = compose(w2.morphism, w1.morphism)
        assert composed.beta["P1"] == {
            Fraction(1): Fraction(3),
            Fraction(0): Fraction(1),
            Fraction(-1): Fraction(-1),
        }

    def test_composition_with_isomorphism_keeps_end_preserved(self, classroom_game):
        sub = subgame_at(classroom_game, a(0))
        inclusion = validate_game_morphism(
            sub,
            classroom_game,
            {i: i for i in sub.players},
            {t: t for t in sub.tree.nodes},
            {c: c for c in sub.preform.choices},
            {i: {u: u for u in sub.ranges[i]} for i in sub.players},
        )
        _target, witness = doubled_game(classroom_game)
        composed = compose(witness.morphism, inclusion)
        assert composed.end_preserved == inclusion.end_preserved

    def test_associativity(self, classroom_game):
        g1, w1 = doubled_game(classroom_game)
        g2, w2 = apply_utility_transform(
            g1, {i: {u: u + 1 for u in g1.ranges[i]} for i in g1.players}
        )
        g3, w3 = relabel_game(g2, node_map={t: a(t.token + 50) for t in g2.tree.nodes})
        left = compose(w3.morphism, compose(w2.morphism, w1.morphism))
        right = compose(compose(w3.morphism, w2.morphism), w1.morphism)
        assert left == right

    def test_mismatched_composition_rejected(self, classroom_game):
        _target, witness = doubled_game(classroom_game)
        with pytest.raises(MorphismError) as err:
            compose(witness.morphism, witness.morphism)
        assert err.value.code == "TargetSourceMismatch"

    def test_composite_utility_map_cut_by_both_restrictions(self):
        """Chained embeddings shrink the utility maps two ways.

        The middle game prices one play at a value its own embedding
        into the third game never realizes (cutting the chain) and
        another at a value that survives only through an unrelated
        play (cut instead because the play stops being end-preserved).
        """

        def game_of(nodes, triples, player, utilities):
            pf = build_preform({a(n) for n in nodes}, {c for _t, c, _n in triples},
                               [(a(t), c, a(n)) for t, c, n in triples])
            form = build_form(pf, {player}, {player: pf.choices})
            table = {
                player: {
                    frozenset(a(n) for n in play): value
                    for play, value in utilities.items()
                }
            }
            return build_game(form, table)

        source = game_of(
            ["R", "C1", "C2", "C3", "C4"],
            [("R", "q0", "C1"), ("R", "p0", "C2"), ("C2", "x", "C3"), ("C2", "y", "C4")],
            "A",
            {("R", "C1"): 7, ("R", "C2", "C3"): 2, ("R", "C2", "C4"): 4},
        )
        middle = game_of(
            [10, 11, 12, 13, 14, 15, 16, 17],
            [(10, "q", 17), (10, "p", 11), (11, "u", 12), (11, "v", 13),
             (11, "w", 14), (14, "s", 15), (14, "t", 16)],
            "B",
            {(10, 17): 3, (10, 11, 12): 0, (10, 11, 13): 1,
             (10, 11, 14, 15): 2, (10, 11, 14, 16): 3},
        )
        # same shape shifted by ten, with fresh branches below the images
        # of the two terminals 12 and 17
        final = game_of(
            [20, 21, 22, 23, 24, 25, 26, 27, 28, 29],
            [(20, "q'", 27), (20, "p'", 21), (21, "u'", 22), (21, "v'", 23),
             (21, "w'", 24), (24, "s'", 25), (24, "t'", 26),
             (22, "r1", 28), (27, "r2", 29)],
            "C",
            {(20, 27, 29): 100, (20, 21, 22, 28): 11, (20, 21, 23): 10,
             (20, 21, 24, 25): 20, (20, 21, 24, 26): 30},
        )

        first = validate_game_morphism(
            source,
            middle,
            {"A": "B"},
            {a("R"): a(10), a("C1"): a(17), a("C2"): a(11), a("C3"): a(12), a("C4"): a(13)},
            {"q0": "q", "p0": "p", "x": "u", "y": "v"},
            {"A": {2: 0, 4: 1, 7: 3}},
        )
        assert {z.end.token for z in first.end_preserved} == {"C1", "C3", "C4"}

        second = validate_game_morphism(
            middle,
            final,
            {"B": "C"},
            {a(n): a(n + 10) for n in (10, 11, 12, 13, 14, 15, 16, 17)},
            {c: f"{c}'" for c in ("q", "p", "u", "v", "w", "s", "t")},
            {"B": {1: 10, 2: 20, 3: 30}},
        )
        assert {z.end.token for z in second.end_preserved} == {13, 15, 16}

        composed = compose(second, first)
        # C3's utility 2 chains to 0, which the second map never accepts;
        # C1's utility 7 chains to 3, which stays acceptable, but C1's play
        # maps onto a branch that keeps growing, so only C4 survives
        assert {z.end.token for z in composed.end_preserved} == {"C4"}
        assert composed.beta == {"A": {Fraction(4): Fraction(10)}}


class TestIsIsomorphism:
    def test_doubling_witness_inverse_halves(self, classroom_game):
        _target, witness = doubled_game(classroom_game)
        assert witness.inverse.beta["P1"][Fraction(2)] == Fraction(1)

    def test_collapsing_beta_is_not_isomorphism(self, classroom_game):
        # collapse P1's three utilities onto two in the target
        table = {
            i: {z: classroom_game.utilities[i][z] for z in classroom_game.plays}
            for i in classroom_game.players
        }
        for z in classroom_game.plays:
            if table["P1"][z] == Fraction(-1):
                table["P1"][z] = Fraction(0)
        target = build_game(classroom_game.form, table)
        iota, tau, delta, _ = identity_components(classroom_game)
        beta = {
            i: {u: u for u in classroom_game.ranges[i]} for i in classroom_game.players
        }
        beta["P1"] = {
            Fraction(-1): Fraction(0),
            Fraction(0): Fraction(0),
            Fraction(1): Fraction(1),
        }
        m = validate_game_morphism(classroom_game, target, iota, tau, delta, beta)
        assert is_isomorphism(m) is None
        property_checks.check_iso_characterizations(m)


class TestNonStrictTransformRejected:
    def test_weakly_increasing_map_rejected(self, classroom_game):
        with pytest.raises(Exception) as err:
            apply_utility_transform(
                classroom_game,
                {"P1": {Fraction(-1): 0, Fraction(0): 0, Fraction(1): 1}},
            )
        assert getattr(err.value, "code", None) == "NotStrictlyIncreasing"


class TestSubgame:
    def test_root_subgame_is_the_game_itself(self, classroom_game):
        sub = subgame_at(classroom_game, a(0))
        assert sub == classroom_game
        assert is_subgame(sub, classroom_game)

    def test_pooled_information_set_blocks_cut_at_3(self, classroom_game):
        with pytest.raises(GameError) as err:
            subgame_at(classroom_game, a(3))
        assert err.value.code == "InformationSetCut"
        assert err.value.details["information_set"] == nodes_of(3, 4)

    def test_pooled_information_set_blocks_cut_at_1(self, classroom_game):
        # the up-set of node 1 contains node 4 but not its information
        # partner 3, so this cut is rejected as well
        with pytest.raises(GameError) as err:
            subgame_at(classroom_game, a(1))
        assert err.value.code == "InformationSetCut"
        assert err.value.details["information_set"] == nodes_of(3, 4)

    def test_split_information_game_has_proper_subgame(self, split_information_game):
        sub = subgame_at(split_information_game, a(1))
        assert {t.token for t in sub.tree.nodes} == {1, 2, 4, 7, 8}
        got = sorted(
            sorted(t.token for t in z.path) for z in sub.plays
        )
        assert got == [[1, 2], [1, 4, 7], [1, 4, 8]]
        play147 = sub.play_with_members(nodes_of(1, 4, 7))
        outer147 = split_information_game.play_with_members(nodes_of(0, 1, 4, 7))
        assert sub.utilities["P1"][play147] == Fraction(0)
        assert (
            sub.utilities["P1"][play147]
            == split_information_game.utilities["P1"][outer147]
        )
        assert is_subgame(sub, split_information_game)

    def test_perturbed_utility_breaks_subgame(self, split_information_game):
        sub = subgame_at(split_information_game, a(1))
        table = {
            i: {z: sub.utilities[i][z] for z in sub.plays} for i in sub.players
        }
        bump = sub.play_with_members(nodes_of(1, 2))
        table["P1"][bump] = table["P1"][bump] + 1
        perturbed = build_game(sub.form, table)
        assert not is_subgame(perturbed, split_information_game)

    def test_no_member_set_lookup(self, split_information_game, monkeypatch):
        sub = subgame_at(split_information_game, a(1))
        lookups = []
        original = Game.play_with_members

        def counting(game, members):
            lookups.append(game)
            return original(game, members)

        monkeypatch.setattr(Game, "play_with_members", counting)
        assert is_subgame(sub, split_information_game)
        assert lookups == []

    def test_terminal_root_rejected(self, classroom_game):
        with pytest.raises(Exception) as err:
            subgame_at(classroom_game, a(2))
        assert getattr(err.value, "code", None) == "NotDecisionNode"

    def test_subgame_nash_matches_local_enumeration(self, split_information_game):
        sub = subgame_at(split_information_game, a(1))
        assert nash_equilibria(sub) == nash_by_deviation_scan(sub)


class TestNash:
    def test_worked_equilibria(self, classroom_game):
        assert nash_equilibria(classroom_game) == {
            frozenset({"b", "d", "f"}),
            frozenset({"b", "g", "f"}),
        }

    def test_is_nash_membership(self, classroom_game):
        assert is_nash(classroom_game, {"b", "d", "f"})
        assert is_nash(classroom_game, {"b", "g", "f"})
        assert not is_nash(classroom_game, {"a", "d", "f"})

    def test_is_nash_agrees_with_oracle_on_all_strategies(self, classroom_game):
        oracle = nash_by_deviation_scan(classroom_game)
        for s in grand_strategies(classroom_game.preform):
            assert is_nash(classroom_game, s) == (s in oracle)

    def test_single_strategy_game_is_trivially_nash(self):
        pf = build_preform({a(0), a(1)}, {"c"}, [(a(0), "c", a(1))])
        form = build_form(pf, {"solo"}, {"solo": {"c"}})
        game = build_game(form, {"solo": {frozenset({a(0), a(1)}): 0}})
        assert nash_equilibria(game) == {frozenset({"c"})}

    def test_two_choice_game_picks_better_play(self):
        pf = build_preform(
            {a(0), a(1), a(2)}, {"l", "r"}, [(a(0), "l", a(1)), (a(0), "r", a(2))]
        )
        form = build_form(pf, {"solo"}, {"solo": {"l", "r"}})
        game = build_game(
            form,
            {"solo": {frozenset({a(0), a(1)}): 0, frozenset({a(0), a(2)}): 1}},
        )
        assert nash_equilibria(game) == {frozenset({"r"})}

    def test_non_strategy_rejected(self, classroom_game):
        with pytest.raises(GameError) as err:
            is_nash(classroom_game, {"a", "b"})
        assert err.value.code == "NotAStrategy"


class TestForgetful:
    def test_object_projections(self, classroom_game):
        from conftest import make_classroom_form, make_classroom_preform, make_classroom_tree

        assert forget_to_form(classroom_game) == make_classroom_form()
        assert forget_to_preform(classroom_game) == make_classroom_preform()
        assert forget_to_tree(classroom_game) == make_classroom_tree()

    def test_identity_projects_to_identity(self, classroom_game):
        projected = forget_morphism_to_form(identity_morphism(classroom_game))
        assert projected == identity_form_morphism(classroom_game.form)

    def test_composition_projects_to_composition(self, classroom_game):
        from ncgames import compose_form_morphisms

        g1, w1 = doubled_game(classroom_game)
        _g2, w2 = apply_utility_transform(
            g1, {i: {u: u + 1 for u in g1.ranges[i]} for i in g1.players}
        )
        composed = compose(w2.morphism, w1.morphism)
        assert forget_morphism_to_form(composed) == compose_form_morphisms(
            forget_morphism_to_form(w2.morphism), forget_morphism_to_form(w1.morphism)
        )

    def test_morphism_projections_share_components(self, classroom_game):
        m = identity_morphism(classroom_game)
        assert forget_morphism_to_preform(m).tau == m.tau
        assert forget_morphism_to_tree(m).tau == m.tau
