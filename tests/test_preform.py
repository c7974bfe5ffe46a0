"""Preform validation, grand strategies, the strategy-to-play map, and
preform morphisms."""

import random

import pytest

from ncgames import (
    GameError,
    MorphismError,
    PreformError,
    StrategySpaceTooLarge,
    build_preform,
    compose_preform_morphisms,
    count_grand_strategies,
    grand_strategies,
    identity_preform_morphism,
    is_grand_strategy,
    is_subpreform,
    play_of,
    subgame_at,
    validate_preform_morphism,
)
from ncgames.transforms import canonicalize, to_choice_sequence

from conftest import (
    CLASSROOM_CHOICES,
    CLASSROOM_NODES,
    CLASSROOM_TRIPLES,
    a,
    nodes_of,
)
from oracles import zeta_by_scan
from random_games import random_game


def info_sets_as_tokens(pf):
    return sorted(sorted(t.token for t in h) for h in pf.info_sets)


class TestBuildPreform:
    def test_classroom_information_sets(self, classroom_preform):
        assert info_sets_as_tokens(classroom_preform) == [[0], [1], [3, 4]]

    def test_minimal_preform(self):
        pf = build_preform(nodes_of(0, 1), {"c"}, [(a(0), "c", a(1))])
        assert info_sets_as_tokens(pf) == [[0]]

    def test_orphan_choice_rejected(self):
        with pytest.raises(PreformError) as err:
            build_preform(
                CLASSROOM_NODES, CLASSROOM_CHOICES | {"z"}, CLASSROOM_TRIPLES
            )
        assert err.value.code == "OrphanChoice"

    def test_operator_not_injective_on_targets(self):
        triples = [(a(0), "c", a(1)), (a(0), "d", a(1))]
        with pytest.raises(PreformError) as err:
            build_preform(nodes_of(0, 1), {"c", "d"}, triples)
        assert str(err.value) == (
            "OperatorNotInjective [P1]: node 1 is reached by both (0, c) and (0, d)"
        )

    def test_operator_not_functional(self):
        triples = [(a(0), "c", a(1)), (a(0), "c", a(2))]
        with pytest.raises(PreformError) as err:
            build_preform(nodes_of(0, 1, 2), {"c"}, triples)
        assert err.value.code == "OperatorNotInjective"

    def test_operator_hits_root(self):
        triples = [(a(0), "c", a(1)), (a(1), "d", a(0))]
        with pytest.raises(PreformError) as err:
            build_preform(nodes_of(0, 1), {"c", "d"}, triples)
        assert err.value.code == "OperatorHitsRoot"

    def test_unreachable_node(self):
        triples = [(a(0), "c", a(1))]
        with pytest.raises(PreformError) as err:
            build_preform(nodes_of(0, 1, 2), {"c"}, triples)
        assert str(err.value) == (
            "NodeUnreachable [P2]: derived predecessor structure is not a tree "
            "(MultipleRoots [T2]: nodes without predecessors: 0, 2)"
        )

    def test_triple_with_an_undeclared_choice(self):
        triples = CLASSROOM_TRIPLES + ((a(0), "zz", a(1)),)
        with pytest.raises(PreformError) as err:
            build_preform(CLASSROOM_NODES, CLASSROOM_CHOICES, triples)
        assert str(err.value) == (
            "UnknownChoice: operator triple mentions undeclared choice zz"
        )

    def test_info_set_overlap(self):
        # c pools nodes 0 and 1, d is feasible at 1 only, so node 1 would
        # belong to two distinct information sets
        triples = [
            (a(0), "c", a(1)),
            (a(1), "c", a(2)),
            (a(1), "d", a(3)),
        ]
        with pytest.raises(PreformError) as err:
            build_preform(nodes_of(0, 1, 2, 3), {"c", "d"}, triples)
        assert err.value.code == "InfoSetOverlap"

    def test_previous_choice_and_parent(self, classroom_preform):
        for (t, c), t_next in classroom_preform.op.items():
            assert classroom_preform.prev_choice[t_next] == c
            assert classroom_preform.tree.pred[t_next] == t


class TestProducingChoices:
    """``_ids.prev`` keeps the choice that produced each node, by node id,
    and ``prev_choice`` is its view by label."""

    @staticmethod
    def check(pf):
        ids, prev = pf.tree._ids, pf._ids.prev
        reaching = [[] for _ in ids.labels]
        for (_t, c), t_next in pf._ids.op.items():
            reaching[t_next].append(c)
        assert len(prev) == len(ids.labels)
        for k, choices in enumerate(reaching):
            if k == ids.walk[0]:
                assert choices == [] and prev[k] is None
            else:
                assert [prev[k]] == choices
        assert list(pf.prev_choice.items()) == [
            (t_next, c) for (_t, c), t_next in pf.op.items()
        ]

    @pytest.mark.parametrize("seed", range(30))
    def test_random_games_their_conversions_and_subgames(self, seed):
        g = random_game(random.Random(seed), max_nodes=12)
        games = [g, to_choice_sequence(g)[0], canonicalize(g).game]
        for t in g.tree.decision_nodes:
            try:
                games.append(subgame_at(g, t))
            except GameError:  # an up-set that cuts an information set
                pass
        for game in games:
            self.check(game.preform)


class TestGrandStrategies:
    def test_classroom_has_eight(self, classroom_preform):
        strategies = grand_strategies(classroom_preform)
        assert len(strategies) == count_grand_strategies(classroom_preform) == 8
        assert frozenset({"a", "g", "e"}) in strategies
        assert frozenset({"b", "d", "f"}) in strategies

    def test_single_choice_preform(self):
        pf = build_preform(nodes_of(0, 1), {"c"}, [(a(0), "c", a(1))])
        assert grand_strategies(pf) == {frozenset({"c"})}

    def test_cap_guard(self, classroom_preform):
        with pytest.raises(StrategySpaceTooLarge):
            grand_strategies(classroom_preform, cap=7)

    def test_membership_predicate(self, classroom_preform):
        assert is_grand_strategy(classroom_preform, {"a", "d", "e"})
        assert not is_grand_strategy(classroom_preform, {"a", "b", "e"})
        assert not is_grand_strategy(classroom_preform, {"a", "d"})
        assert not is_grand_strategy(classroom_preform, {"a", "d", "e", "f"})


class TestPlayOf:
    def test_worked_values(self, classroom_preform):
        table = {
            ("a", "g", "e"): {0, 1, 2},
            ("a", "g", "f"): {0, 1, 2},
            ("a", "d", "e"): {0, 1, 4, 7},
            ("a", "d", "f"): {0, 1, 4, 8},
            ("b", "g", "e"): {0, 3, 5},
            ("b", "d", "e"): {0, 3, 5},
            ("b", "g", "f"): {0, 3, 6},
            ("b", "d", "f"): {0, 3, 6},
        }
        for strategy, expected in table.items():
            play = play_of(classroom_preform, frozenset(strategy))
            assert {t.token for t in play.path} == expected

    def test_agrees_with_scan_oracle(self, classroom_preform):
        for s in grand_strategies(classroom_preform):
            assert play_of(classroom_preform, s) == zeta_by_scan(classroom_preform, s)

    def test_single_strategy_preform(self):
        pf = build_preform(nodes_of(0, 1), {"c"}, [(a(0), "c", a(1))])
        play = play_of(pf, {"c"})
        assert {t.token for t in play.path} == {0, 1}

    def test_rejects_non_strategy(self, classroom_preform):
        with pytest.raises(PreformError) as err:
            play_of(classroom_preform, {"a", "b", "e"})
        assert err.value.code == "NotAStrategy"


def restriction_preform(preform, root_token):
    sub_nodes = preform.tree.descendants(a(root_token))
    triples = [
        (t, c, t_next)
        for (t, c), t_next in preform.op.items()
        if t in sub_nodes
    ]
    choices = {c for _t, c, _n in triples}
    return build_preform(sub_nodes, choices, triples)


class TestPreformMorphism:
    def test_identity_valid(self, classroom_preform):
        m = identity_preform_morphism(classroom_preform)
        assert m.delta["e"] == "e"

    def test_swapping_choices_breaks_triples(self, classroom_preform):
        delta = {c: c for c in classroom_preform.choices}
        delta["e"], delta["f"] = "f", "e"
        tau = {t: t for t in classroom_preform.tree.nodes}
        with pytest.raises(MorphismError) as err:
            validate_preform_morphism(
                classroom_preform, classroom_preform, tau, delta
            )
        assert err.value.code == "TripleNotPreserved"

    def test_restriction_inclusion_valid(self, classroom_preform):
        inner = restriction_preform(classroom_preform, 3)
        m = validate_preform_morphism(
            inner,
            classroom_preform,
            {t: t for t in inner.tree.nodes},
            {c: c for c in inner.choices},
        )
        assert m.tree_morphism.source == inner.tree

    def test_composition(self, classroom_preform):
        inner = restriction_preform(classroom_preform, 3)
        inclusion = validate_preform_morphism(
            inner,
            classroom_preform,
            {t: t for t in inner.tree.nodes},
            {c: c for c in inner.choices},
        )
        composed = compose_preform_morphisms(
            inclusion, identity_preform_morphism(inner)
        )
        assert composed == inclusion


class TestIsSubpreform:
    def test_self_is_subpreform(self, classroom_preform):
        assert is_subpreform(classroom_preform, classroom_preform)

    def test_restriction_at_3_fails_info_set_containment(self, classroom_preform):
        # the restriction's information set {3} is not an information set
        # of the full preform, where 3 is pooled with 4
        inner = restriction_preform(classroom_preform, 3)
        assert info_sets_as_tokens(inner) == [[3]]
        assert not is_subpreform(inner, classroom_preform)

    def test_restriction_at_1_fails_info_set_containment(self, classroom_preform):
        inner = restriction_preform(classroom_preform, 1)
        assert info_sets_as_tokens(inner) == [[1], [4]]
        assert not is_subpreform(inner, classroom_preform)

    def test_unrelated_preform_is_not_subpreform(self, classroom_preform):
        other = build_preform(nodes_of(0, 1), {"c"}, [(a(0), "c", a(1))])
        assert not is_subpreform(other, classroom_preform)
