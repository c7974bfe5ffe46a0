"""Tree construction, derived structure, plays, and tree morphisms."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgames import (
    TreeError,
    MorphismError,
    build_tree,
    compose_tree_morphisms,
    identity_tree_morphism,
    is_tree_isomorphism,
    subtree_at,
    validate_tree_morphism,
)
from conftest import (
    CLASSROOM_NODES,
    CLASSROOM_PRED_PAIRS,
    a,
    make_classroom_tree,
    make_embedding_trees,
    nodes_of,
)
from ncgames import parse_game, serialize_game
from ncgames.labels import render_label
from oracles import image_play, strict_predecessors, tree_by_walk_up
from random_games import centipede_document


def members(play):
    return {t.token for t in play.path}


class TestBuildTree:
    def test_classroom_tree_derivations(self, classroom_tree):
        assert classroom_tree.root == a(0)
        assert classroom_tree.decision_nodes == nodes_of(0, 1, 3, 4)
        assert classroom_tree.stage[a(7)] == 3
        assert classroom_tree.stage[a(0)] == 0
        assert classroom_tree.stage[a(4)] == 2

    def test_minimal_tree(self):
        tree = build_tree(nodes_of(0, 1), {(a(1), a(0))})
        assert tree.root == a(0)
        assert tree.decision_nodes == nodes_of(0)

    def test_two_cycle_is_rejected(self):
        with pytest.raises(TreeError) as err:
            build_tree(nodes_of(0, 1), {(a(0), a(1)), (a(1), a(0))})
        assert err.value.code == "Cycle"

    def test_disconnected_cycle_is_rejected(self):
        with pytest.raises(TreeError) as err:
            build_tree(
                nodes_of(0, 1, 2, 3),
                {(a(1), a(0)), (a(2), a(3)), (a(3), a(2))},
            )
        assert err.value.code == "Cycle"

    def test_two_parents_rejected(self):
        with pytest.raises(TreeError) as err:
            build_tree(nodes_of(0, 1, 2), {(a(2), a(0)), (a(2), a(1)), (a(1), a(0))})
        assert err.value.code == "DuplicatePredecessor"

    def test_single_node_rejected(self):
        with pytest.raises(TreeError) as err:
            build_tree(nodes_of(0), set())
        assert err.value.code == "TooSmall"

    def test_no_pairs_rejected(self):
        with pytest.raises(TreeError) as err:
            build_tree(nodes_of(0, 1), set())
        assert err.value.code == "NoRoot"

    def test_isolated_node_rejected(self):
        with pytest.raises(TreeError) as err:
            build_tree(nodes_of(0, 1, 2), {(a(1), a(0))})
        assert err.value.code == "MultipleRoots"

    def test_undeclared_node_rejected(self):
        with pytest.raises(TreeError) as err:
            build_tree(nodes_of(0, 1), {(a(1), a(0)), (a(2), a(0))})
        assert err.value.code == "UnknownNode"

    def test_structural_equality(self, classroom_tree):
        again = build_tree(CLASSROOM_NODES, CLASSROOM_PRED_PAIRS)
        assert classroom_tree == again
        assert hash(classroom_tree) == hash(again)


class TestStrictPredecessors:
    def test_deep_node(self, classroom_tree):
        assert strict_predecessors(classroom_tree, a(7)) == nodes_of(0, 1, 4)

    def test_root_has_none(self, classroom_tree):
        assert strict_predecessors(classroom_tree, a(0)) == frozenset()

    def test_count_equals_stage(self, classroom_tree):
        for t in classroom_tree.nodes:
            assert len(strict_predecessors(classroom_tree, t)) == classroom_tree.stage[t]


class TestPlays:
    def test_classroom_plays(self, classroom_tree):
        expected = [
            {0, 3, 5},
            {0, 3, 6},
            {0, 1, 4, 7},
            {0, 1, 4, 8},
            {0, 1, 2},
        ]
        got = [members(p) for p in classroom_tree.plays]
        assert sorted(map(sorted, got)) == sorted(map(sorted, expected))

    def test_two_node_tree_single_play(self):
        tree = build_tree(nodes_of(0, 1), {(a(1), a(0))})
        (play,) = tree.plays
        assert members(play) == {0, 1}

    def test_embedding_target_plays(self):
        _source, target, _tau = make_embedding_trees()
        got = sorted(sorted(members(p)) for p in target.plays)
        assert [10, 17] in got
        assert len(got) == 5

    def test_play_carries_end_and_path(self, classroom_tree):
        for play in classroom_tree.plays:
            assert play.path[0] == classroom_tree.root
            assert play.path[-1] == play.end
            assert len(frozenset(play.path)) == classroom_tree.stage[play.end] + 1


class TestPlayIdentity:
    """A play is fixed by its end: it compares by end and path, and
    hashes by its end."""

    def test_path_holds_the_trees_own_labels(self, classroom_tree):
        ids = {id(t) for t in classroom_tree.nodes}
        for play in classroom_tree.plays:
            assert all(id(t) in ids for t in play.path)

    def test_plays_of_equal_trees_are_equal(self):
        first, second = make_classroom_tree(), make_classroom_tree()
        assert first.play_by_end is not second.play_by_end
        for end, play in first.play_by_end.items():
            twin = second.play_by_end[end]
            assert play is not twin
            assert play == twin
            assert hash(play) == hash(twin)
        assert first.plays == second.plays

    def test_plays_of_other_trees_differ(self, classroom_tree):
        sub = subtree_at(classroom_tree, a(1))
        for end, play in sub.play_by_end.items():
            assert play.end == classroom_tree.play_by_end[end].end
            assert play != classroom_tree.play_by_end[end]

    def test_play_holds_only_its_end_and_path(self, classroom_tree):
        for play in classroom_tree.plays:
            assert vars(play).keys() == {"end", "path"}

    def test_deep_centipede_equals_itself_reparsed(self):
        text = json.dumps(centipede_document(random.Random(300), 300))
        g, again = parse_game(text), parse_game(text)
        assert g == again
        assert hash(g.tree) == hash(again.tree)
        assert serialize_game(g) == serialize_game(again)


class TestSubtree:
    def test_subtree_at_inner_node(self, classroom_tree):
        sub = subtree_at(classroom_tree, a(3))
        assert sub.nodes == nodes_of(3, 5, 6)
        assert sub.root == a(3)

    def test_subtree_at_root_is_identity(self, classroom_tree):
        assert subtree_at(classroom_tree, a(0)) == classroom_tree

    def test_subtree_at_terminal_rejected(self, classroom_tree):
        with pytest.raises(TreeError) as err:
            subtree_at(classroom_tree, a(5))
        assert err.value.code == "NotDecisionNode"


class TestTreeMorphism:
    def test_embedding_validates(self):
        source, target, tau = make_embedding_trees()
        m = validate_tree_morphism(source, target, tau)
        assert m.tau[a(1)] == a(11)

    def test_identity_validates(self, classroom_tree):
        m = identity_tree_morphism(classroom_tree)
        assert m.source == m.target == classroom_tree

    def test_edge_not_preserved(self, classroom_tree):
        tau = {t: t for t in classroom_tree.nodes}
        tau[a(2)] = a(7)
        with pytest.raises(MorphismError) as err:
            validate_tree_morphism(classroom_tree, classroom_tree, tau)
        assert err.value.code == "EdgeNotPreserved"

    def test_missing_node_not_total(self, classroom_tree):
        tau = {t: t for t in classroom_tree.nodes if t != a(5)}
        with pytest.raises(MorphismError) as err:
            validate_tree_morphism(classroom_tree, classroom_tree, tau)
        assert err.value.code == "NotTotal"


class TestEndPreservedPlays:
    def test_embedding_keeps_two_plays(self):
        source, target, tau = make_embedding_trees()
        m = validate_tree_morphism(source, target, tau)
        kept = {frozenset(members(p)) for p in m.play_images}
        assert kept == {frozenset({1, 2}), frozenset({1, 3})}

    def test_identity_keeps_all(self, classroom_tree):
        m = identity_tree_morphism(classroom_tree)
        assert frozenset(m.play_images) == classroom_tree.plays

    def test_subtree_inclusion_keeps_all(self, classroom_tree):
        sub = subtree_at(classroom_tree, a(3))
        inclusion = validate_tree_morphism(
            sub, classroom_tree, {t: t for t in sub.nodes}
        )
        assert frozenset(inclusion.play_images) == sub.plays


class TestImagePlay:
    def test_end_preserved_image_is_target_play(self):
        source, target, tau = make_embedding_trees()
        m = validate_tree_morphism(source, target, tau)
        play12 = next(p for p in source.plays if members(p) == {1, 2})
        image = image_play(m, play12)
        assert {t.token for t in image} == {10, 11, 12}
        assert image in {frozenset(p.path) for p in target.plays}
        assert frozenset(m.play_images[play12].path) == image

    def test_dropped_play_image_is_not_target_play(self):
        source, target, tau = make_embedding_trees()
        m = validate_tree_morphism(source, target, tau)
        play14 = next(p for p in source.plays if members(p) == {1, 4})
        image = image_play(m, play14)
        assert {t.token for t in image} == {10, 11, 14}
        assert image not in {frozenset(p.path) for p in target.plays}
        assert play14 not in m.play_images

    def test_identity_image_is_same_play(self, classroom_tree):
        m = identity_tree_morphism(classroom_tree)
        for play in classroom_tree.plays:
            assert image_play(m, play) == frozenset(play.path)


class TestComposeAndIso:
    def test_unit_laws(self):
        source, target, tau = make_embedding_trees()
        m = validate_tree_morphism(source, target, tau)
        assert compose_tree_morphisms(identity_tree_morphism(target), m) == m
        assert compose_tree_morphisms(m, identity_tree_morphism(source)) == m

    def test_inclusion_composition(self, classroom_tree):
        sub = subtree_at(classroom_tree, a(3))
        inclusion = validate_tree_morphism(
            sub, classroom_tree, {t: t for t in sub.nodes}
        )
        composed = compose_tree_morphisms(inclusion, identity_tree_morphism(sub))
        assert composed == inclusion

    def test_mismatch_rejected(self, classroom_tree):
        source, target, tau = make_embedding_trees()
        m = validate_tree_morphism(source, target, tau)
        with pytest.raises(MorphismError) as err:
            compose_tree_morphisms(m, identity_tree_morphism(classroom_tree))
        assert err.value.code == "TargetSourceMismatch"

    def test_identity_is_isomorphism(self, classroom_tree):
        inverse = is_tree_isomorphism(identity_tree_morphism(classroom_tree))
        assert inverse is not None
        assert inverse == identity_tree_morphism(classroom_tree)

    def test_embedding_is_not_isomorphism(self):
        source, target, tau = make_embedding_trees()
        m = validate_tree_morphism(source, target, tau)
        assert is_tree_isomorphism(m) is None

    def test_relabeling_is_isomorphism(self, classroom_tree):
        shifted = build_tree(
            {a(t.token + 100) for t in classroom_tree.nodes},
            {(a(c.token + 100), a(p.token + 100)) for c, p in classroom_tree.pred.items()},
        )
        tau = {t: a(t.token + 100) for t in classroom_tree.nodes}
        m = validate_tree_morphism(classroom_tree, shifted, tau)
        inverse = is_tree_isomorphism(m)
        assert inverse is not None
        assert inverse.tau[a(105)] == a(5)


@st.composite
def parent_lists(draw, max_nodes=40):
    """Node labels in a drawn order and ``(child, parent)`` pairs, also in
    a drawn order, of a tree whose parents come from a drawn list."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    parents = [draw(st.integers(min_value=0, max_value=k - 1)) for k in range(1, n)]
    labels = [a(k) for k in range(n)]
    pairs = [(labels[k], labels[p]) for k, p in enumerate(parents, start=1)]
    return draw(st.permutations(labels)), draw(st.permutations(pairs))


class TestWalkUpOracle:
    """``build_tree``'s walk down from the root against the walk-up
    reference in ``tests/oracles.py``."""

    @staticmethod
    def check(nodes, pairs):
        tree = build_tree(nodes, pairs)
        stage, paths, cycle_from = tree_by_walk_up(nodes, pairs)
        assert cycle_from is None
        assert tree.stage == stage
        assert {end: z.path for end, z in tree.play_by_end.items()} == paths
        assert {frozenset(z.path) for z in tree.plays} == {
            frozenset(p) for p in paths.values()
        }
        for end, z in tree.play_by_end.items():
            assert z.end == end
            assert z.path[0] == tree.root and len(z.path) == stage[end] + 1

    @settings(max_examples=200, deadline=None)
    @given(parent_lists())
    def test_random_trees(self, tree_input):
        self.check(*tree_input)

    def test_classroom_tree(self):
        self.check(CLASSROOM_NODES, CLASSROOM_PRED_PAIRS)

    def test_deep_chain(self):
        n = 20_000
        nodes = [a(k) for k in range(n)]
        pairs = [(nodes[k], nodes[k - 1]) for k in range(1, n)]
        self.check(nodes, pairs)
        # a broom: the long handle ends in many leaves
        nodes += [a(n + k) for k in range(50)]
        pairs += [(a(n + k), nodes[n - 2]) for k in range(50)]
        self.check(nodes, pairs)

    @settings(max_examples=200, deadline=None)
    @given(parent_lists(max_nodes=12), st.data())
    def test_cycles_are_named_as_the_walk_up_names_them(self, tree_input, data):
        nodes, pairs = tree_input
        n = len(nodes)
        size = data.draw(st.integers(min_value=1, max_value=4))
        cycle = [a(n + k) for k in range(size)]
        pairs = pairs + [(cycle[k], cycle[k - 1]) for k in range(size)]
        tails = data.draw(st.integers(min_value=0, max_value=3))
        hanging = cycle[:]
        for k in range(tails):
            tail = a(n + size + k)
            pairs.append((tail, data.draw(st.sampled_from(hanging))))
            hanging.append(tail)
        nodes = data.draw(st.permutations(list(nodes) + hanging))
        pairs = data.draw(st.permutations(pairs))
        _stage, _paths, cycle_from = tree_by_walk_up(nodes, pairs)
        with pytest.raises(TreeError) as err:
            build_tree(nodes, pairs)
        assert (err.value.code, err.value.axiom) == ("Cycle", "[T2]")
        assert str(err.value).endswith(
            f": predecessor chain from {render_label(cycle_from)} never reaches the root"
        )
