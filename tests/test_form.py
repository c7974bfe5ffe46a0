"""Form validation, player strategies, and the profile bijection."""

import itertools
from pathlib import Path

import pytest

from ncgames import (
    FormError,
    MorphismError,
    NcgError,
    build_form,
    build_game,
    build_preform,
    grand_strategies,
    grand_to_profile,
    identity_form_morphism,
    is_subform,
    play_of,
    player_strategies,
    profile_to_grand,
    validate_form_morphism,
    validate_game_morphism,
)
from ncgames.labels import token_key

from conftest import CLASSROOM_OWNERSHIP, a, nodes_of


class TestBuildForm:
    def test_classroom_derivations(self, classroom_form):
        assert classroom_form.player_info_sets["P3"] == {nodes_of(3, 4)}
        assert classroom_form.owner["d"] == "P2"

    def test_single_player_form(self, classroom_preform):
        form = build_form(
            classroom_preform, {"solo"}, {"solo": classroom_preform.choices}
        )
        assert form.player_info_sets["solo"] == classroom_preform.info_sets

    def test_choice_owned_twice(self, classroom_preform):
        ownership = {"P1": {"a", "b"}, "P2": {"g", "d", "e"}, "P3": {"e", "f"}}
        with pytest.raises(FormError) as err:
            build_form(classroom_preform, {"P1", "P2", "P3"}, ownership)
        assert err.value.code == "ChoiceOwnedTwice"

    def test_unassigned_choice(self, classroom_preform):
        ownership = {"P1": {"a", "b"}, "P2": {"g", "d"}, "P3": {"e"}}
        with pytest.raises(FormError) as err:
            build_form(classroom_preform, {"P1", "P2", "P3"}, ownership)
        assert err.value.code == "UnassignedChoice"

    def test_node_split_across_players(self, classroom_preform):
        ownership = {"P1": {"a", "g"}, "P2": {"b", "d"}, "P3": {"e", "f"}}
        with pytest.raises(FormError) as err:
            build_form(classroom_preform, {"P1", "P2", "P3"}, ownership)
        assert err.value.code == "NodeSplitAcrossPlayers"

    def test_node_split_names_the_first_node(self, classroom_preform):
        # every decision node (0, 1, 3 and 4) is split
        ownership = {"P1": {"a", "g", "e"}, "P2": {"b", "d", "f"}, "P3": set()}
        with pytest.raises(FormError) as err:
            build_form(classroom_preform, {"P1", "P2", "P3"}, ownership)
        assert str(err.value) == (
            "NodeSplitAcrossPlayers [F3]: choices feasible at 0 belong to "
            "several players"
        )

    def test_node_split_names_the_least_ranked_split_node(self):
        # two split sets, {1, 3} and {2}; the edges list the set of 2
        # first, and node 3 before node 1
        edges = [
            (2, "u", 6), (2, "v", 7), (3, "p", 8), (3, "q", 9),
            (1, "p", 4), (1, "q", 5), (0, "x", 1), (0, "y", 2), (0, "z", 3),
        ]
        preform = build_preform(
            nodes_of(*range(10)),
            {c for _t, c, _n in edges},
            [(a(t), c, a(n)) for t, c, n in edges],
        )
        assert [sorted(t.token for t in h) for h, _ in preform.info_set_order] == [
            [0], [1, 3], [2]
        ]
        ownership = {"P1": {"x", "y", "z", "p", "u"}, "P2": {"q", "v"}}
        with pytest.raises(FormError) as err:
            build_form(preform, {"P1", "P2"}, ownership)
        assert str(err.value) == (
            "NodeSplitAcrossPlayers [F3]: choices feasible at 1 belong to "
            "several players"
        )

    def test_player_owning_an_undeclared_choice(self, classroom_preform):
        ownership = {**CLASSROOM_OWNERSHIP, "P1": CLASSROOM_OWNERSHIP["P1"] | {"zz"}}
        with pytest.raises(FormError) as err:
            build_form(classroom_preform, {"P1", "P2", "P3"}, ownership)
        assert str(err.value) == "UnknownChoice: player P1 owns undeclared choice zz"

    def test_player_must_be_assigned_explicitly(self, classroom_preform):
        ownership = dict(CLASSROOM_OWNERSHIP)
        with pytest.raises(FormError) as err:
            build_form(classroom_preform, {"P1", "P2", "P3", "P4"}, ownership)
        assert err.value.code == "MissingPlayer"

    def test_vacuous_player_accepted_when_explicit(self, classroom_preform):
        ownership = dict(CLASSROOM_OWNERSHIP)
        ownership["observer"] = set()
        form = build_form(
            classroom_preform, {"P1", "P2", "P3", "observer"}, ownership
        )
        assert form.player_info_sets["observer"] == frozenset()


class TestPlayerStrategies:
    def test_classroom_strategy_sets(self, classroom_form):
        assert player_strategies(classroom_form, "P1") == {
            frozenset({"a"}),
            frozenset({"b"}),
        }
        assert player_strategies(classroom_form, "P2") == {
            frozenset({"g"}),
            frozenset({"d"}),
        }
        assert player_strategies(classroom_form, "P3") == {
            frozenset({"e"}),
            frozenset({"f"}),
        }

    def test_vacuous_player_has_empty_strategy(self, classroom_preform):
        ownership = dict(CLASSROOM_OWNERSHIP)
        ownership["observer"] = set()
        form = build_form(
            classroom_preform, {"P1", "P2", "P3", "observer"}, ownership
        )
        assert player_strategies(form, "observer") == {frozenset()}

    def test_unknown_player(self, classroom_form):
        with pytest.raises(FormError) as err:
            player_strategies(classroom_form, "P9")
        assert err.value.code == "UnknownPlayer"


class TestProfileBijection:
    def test_worked_split(self, classroom_form):
        profile = grand_to_profile(classroom_form, {"b", "d", "f"})
        assert profile == {
            "P1": frozenset({"b"}),
            "P2": frozenset({"d"}),
            "P3": frozenset({"f"}),
        }

    def test_single_player_split_is_the_whole_strategy(self, classroom_preform):
        form = build_form(
            classroom_preform, {"solo"}, {"solo": classroom_preform.choices}
        )
        strategy = frozenset({"a", "g", "e"})
        assert grand_to_profile(form, strategy) == {"solo": strategy}

    def test_worked_merge_and_play(self, classroom_form):
        merged = profile_to_grand(
            classroom_form,
            {"P1": {"a"}, "P2": {"g"}, "P3": {"e"}},
        )
        assert merged == frozenset({"a", "g", "e"})
        play = play_of(classroom_form.preform, merged)
        assert {t.token for t in play.path} == {0, 1, 2}

    def test_round_trip_both_ways(self, classroom_form):
        for s in grand_strategies(classroom_form.preform):
            assert profile_to_grand(classroom_form, grand_to_profile(classroom_form, s)) == s
        players = sorted(classroom_form.players)
        pools = [sorted(player_strategies(classroom_form, i), key=sorted) for i in players]
        for combo in itertools.product(*pools):
            profile = dict(zip(players, combo))
            assert grand_to_profile(
                classroom_form, profile_to_grand(classroom_form, profile)
            ) == profile

    def test_missing_player_rejected(self, classroom_form):
        with pytest.raises(FormError) as err:
            profile_to_grand(classroom_form, {"P1": {"a"}, "P2": {"g"}})
        assert err.value.code == "MissingPlayer"

    def test_invalid_component_rejected(self, classroom_form):
        with pytest.raises(FormError) as err:
            profile_to_grand(
                classroom_form, {"P1": {"a"}, "P2": {"g"}, "P3": {"e", "f"}}
            )
        assert err.value.code == "InvalidComponent"

    def test_disjoint_union_per_player(self, classroom_form):
        # the per-player choice blocks partition each information set's
        # choices player by player
        feas = classroom_form.preform.feas
        for i in classroom_form.players:
            blocks = [
                frozenset().union(*(feas[t] for t in h))
                for h in classroom_form.player_info_sets[i]
            ]
            union = frozenset(c for block in blocks for c in block)
            assert union == classroom_form.assignment[i]
            assert sum(len(b) for b in blocks) == len(union)


class TestFormMorphism:
    def test_identity_valid(self, classroom_form):
        m = identity_form_morphism(classroom_form)
        assert m.iota == {"P1": "P1", "P2": "P2", "P3": "P3"}

    def test_player_swap_breaks_ownership(self, classroom_form):
        iota = {"P1": "P2", "P2": "P1", "P3": "P3"}
        tau = {t: t for t in classroom_form.preform.tree.nodes}
        delta = {c: c for c in classroom_form.preform.choices}
        with pytest.raises(MorphismError) as err:
            validate_form_morphism(classroom_form, classroom_form, iota, tau, delta)
        assert err.value.code == "PlayerOwnershipViolated"


def restriction_form(form, root_token):
    preform = form.preform
    sub_nodes = preform.tree.descendants(a(root_token))
    triples = [
        (t, c, t_next) for (t, c), t_next in preform.op.items() if t in sub_nodes
    ]
    choices = {c for _t, c, _n in triples}
    inner_preform = build_preform(sub_nodes, choices, triples)
    ownership = {i: form.assignment[i] & frozenset(choices) for i in form.players}
    return build_form(inner_preform, form.players, ownership)


class TestIsSubform:
    def test_self_subform(self, classroom_form):
        assert is_subform(classroom_form, classroom_form)

    def test_restriction_fails_when_information_is_refined(self, classroom_form):
        inner = restriction_form(classroom_form, 3)
        assert {frozenset({a(3)})} <= inner.preform.info_sets
        assert not is_subform(inner, classroom_form)

    def test_perfect_information_restriction_is_subform(self, split_information_game):
        form = split_information_game.form
        inner = restriction_form(form, 1)
        assert is_subform(inner, form)


# tokens whose ``str`` order (10 and "10" tie, then 2, then "b") differs
# from their ``token_key`` order: 10, 2, "10", "b"
MIXED = (2, 10, "10", "b")


def order_facts() -> dict:
    """The player order, the stage order, and the least missing player
    that each of four validators names, on a game whose players, choices
    and nodes are ``MIXED`` tokens; each fact as its ``repr``."""
    root, x = a("r"), a(2)
    preform = build_preform(
        {root, x, a("b"), a(10), a("10")},
        MIXED,
        [(root, 2, x), (root, "b", a("b")), (x, 10, a(10)), (x, "10", a("10"))],
    )
    ownership = {"10": {2, "b"}, 2: {10, "10"}, 10: set(), "b": set()}
    form = build_form(preform, MIXED, ownership)
    rows = {i: {z: k for k, z in enumerate(preform.tree.play_by_end.values())} for i in MIXED}
    g = build_game(form, rows)
    tree = preform.tree
    identities = [{t: t for t in tree.nodes}, {c: c for c in preform.choices}]
    missing = []
    for reject in (
        lambda: build_form(preform, MIXED, {10: set()}),
        lambda: build_game(form, {10: rows[10]}),
        lambda: validate_form_morphism(form, form, {10: 10}, *identities),
        lambda: validate_game_morphism(
            g, g, {i: i for i in MIXED}, *identities, {10: {u: u for u in g.ranges[10]}}
        ),
    ):
        with pytest.raises(NcgError) as err:
            reject()
        missing.append(str(err.value))
    return {
        "player_rank": repr(list(form.player_rank.items())),
        "stage_order": repr(tree.stage_order),
        "stage_order_by_sort": repr(tuple(sorted(tree.rank, key=tree.stage.__getitem__))),
        "missing": missing,
    }


class TestOrders:
    def test_players_in_token_order_and_nodes_by_stage(self):
        facts = order_facts()
        assert facts["player_rank"] == repr([(10, 0), (2, 1), ("10", 2), ("b", 3)])
        assert facts["player_rank"] == repr(
            [(i, k) for k, i in enumerate(sorted(MIXED, key=token_key))]
        )
        assert facts["stage_order"] == facts["stage_order_by_sort"] == repr(
            (a("r"), a(2), a("b"), a(10), a("10"))
        )

    def test_validators_name_the_same_least_missing_player(self):
        assert order_facts()["missing"] == [
            "MissingPlayer: player 2 has no choice assignment; "
            "declare vacuous players with an empty set",
            "MissingUtility [G2]: no utility row for player 2",
            "NotTotal [f1]: map undefined on source player 2",
            "BetaDomainMismatch [g2]: no utility map for player 2",
        ]

    def test_orders_agree_under_hash_seeds(self):
        """``order_facts`` in fresh interpreters under several hash
        seeds gives what it gives here."""
        import json
        import os
        import subprocess
        import sys

        import ncgames

        package_root = str(Path(ncgames.__file__).resolve().parent.parent)
        inherited = os.environ.get("PYTHONPATH")
        pythonpath = os.pathsep.join(
            [package_root, str(Path(__file__).parent)] + ([inherited] if inherited else [])
        )
        script = "import json, test_form; print(json.dumps(test_form.order_facts()))"
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
        assert results == {json.dumps(order_facts()) + "\n"}
