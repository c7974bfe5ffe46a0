"""Identity and totality contracts shared by all four layers.

Each structure and each morphism is identified by its defining data:
the fields and views that equality and hashing consult.  A tree's
predecessor map, a preform's operator and a game's utility tables are
such views, computed on first use from the integer core the builder
kept, which equality reads only through them.  Derived fields are never
consulted, and neither are the other views computed on first use: the
label-keyed structure of a tree and a preform, and a morphism's lower
layers.  Reading a document and solving it, or running ``ncg nash`` or
``ncg validate`` on it, builds no view of its tree, preform or game.  No field or computed view of a value can be rebound or
deleted, while the mappings it exposes are plain dicts, as the README
says.  Every
morphism validator rejects a component map that is not a total
function into the target with the same codes, axiom tags and messages,
and every composition rejects morphisms that do not meet.
"""

import dataclasses
import json
import random
from types import SimpleNamespace

import pytest

from ncgames import (
    Form,
    FormMorphism,
    Game,
    GameError,
    GameMorphism,
    IsoWitness,
    MorphismError,
    Play,
    Preform,
    PreformMorphism,
    Tree,
    TreeMorphism,
    build_game,
    build_preform,
    build_tree,
    compose,
    compose_form_morphisms,
    compose_preform_morphisms,
    compose_tree_morphisms,
    find_isomorphism,
    identity_form_morphism,
    identity_morphism,
    identity_preform_morphism,
    identity_tree_morphism,
    load_game,
    nash_equilibria,
    parse_game,
    serialize_game,
    serialize_morphism,
    subgame_at,
    subtree_at,
    validate_form_morphism,
    validate_game_morphism,
    validate_preform_morphism,
    validate_tree_morphism,
)
import ncgames.cli
from ncgames.cli import cli_dispatch
from ncgames.labels import Atom
from ncgames.transforms import (
    CanonicalForm,
    StyleReport,
    apply_utility_transform,
    canonicalize,
    relabel_game,
    style_report,
    to_choice_sequence,
    to_choice_set,
)

from random_games import families

from conftest import (
    CLASSROOM_CHOICES,
    CLASSROOM_NODES,
    CLASSROOM_PRED_PAIRS,
    CLASSROOM_TRIPLES,
    CLASSROOM_UTILITIES,
    a,
    make_absentminded_game,
    make_classroom_form,
    make_classroom_game,
    make_classroom_tree,
    make_split_information_game,
)

# the fields and views equality and hashing consult, and the fields
# derived from them
DEFINING = {
    Tree: ("nodes", "pred"),
    TreeMorphism: ("source", "target", "tau"),
    Preform: ("tree", "choices", "op"),
    PreformMorphism: ("source", "target", "tau", "delta"),
    Form: ("preform", "players", "assignment"),
    FormMorphism: ("source", "target", "iota", "tau", "delta"),
    Game: ("form", "utilities"),
    GameMorphism: ("source", "target", "iota", "tau", "delta", "beta"),
}
DERIVED = {
    Tree: ("root", "_ids"),
    TreeMorphism: ("_ids",),
    Preform: ("info_sets", "info_set_of", "info_set_order", "_ids"),
    PreformMorphism: ("_ids",),
    Form: ("owner", "player_info_sets", "player_rank"),
    FormMorphism: ("_ids",),
    Game: ("ranges", "_ids"),
    GameMorphism: ("_ids",),
}
# the views computed on first use: a tree's, a preform's and a game's
# label-keyed structure and a morphism's maps by label, over the core
# kept in ``_ids`` (equality reads those named in ``DEFINING``), and a
# morphism's lower layers
VIEWS = [
    (Tree, "pred"),
    (Tree, "rank"),
    (Tree, "play_by_end"),
    (Tree, "decision_nodes"),
    (Tree, "stage"),
    (Tree, "plays"),
    (Tree, "children_map"),
    (Tree, "stage_order"),
    (Preform, "op"),
    (Preform, "feas"),
    (Preform, "prev_choice"),
    (Game, "utilities"),
    (TreeMorphism, "tau"),
    (PreformMorphism, "tau"),
    (FormMorphism, "tau"),
    (GameMorphism, "tau"),
    (GameMorphism, "beta"),
    (TreeMorphism, "play_images"),
    (PreformMorphism, "tree_morphism"),
    (FormMorphism, "preform_morphism"),
    (GameMorphism, "form_morphism"),
    (GameMorphism, "theta"),
    (GameMorphism, "end_preserved"),
]


def build(cls):
    """A fresh classroom value of ``cls``, sharing nothing with earlier calls;
    a tree is built alone, since pricing a game reads its plays by end."""
    g = make_classroom_game()
    return {
        Tree: make_classroom_tree,
        Preform: lambda: g.preform,
        Form: lambda: g.form,
        Game: lambda: g,
        TreeMorphism: lambda: identity_tree_morphism(g.tree),
        PreformMorphism: lambda: identity_preform_morphism(g.preform),
        FormMorphism: lambda: identity_form_morphism(g.form),
        GameMorphism: lambda: identity_morphism(g),
    }[cls]()


def rebuilt(name):
    """A classroom value built through the builders with its defining
    view ``name`` changed and its other defining data kept: one
    edge moved, the successors of one node's two choices swapped, or one
    utility changed."""
    if name == "pred":
        pairs = CLASSROOM_PRED_PAIRS - {(a(2), a(1))} | {(a(2), a(0))}
        return build_tree(CLASSROOM_NODES, pairs)
    if name == "op":
        swapped = {(a(1), "g", a(2)): (a(1), "g", a(4)), (a(1), "d", a(4)): (a(1), "d", a(2))}
        triples = [swapped.get(triple, triple) for triple in CLASSROOM_TRIPLES]
        return build_preform(CLASSROOM_NODES, CLASSROOM_CHOICES, triples)
    utilities = {i: dict(row) for i, row in CLASSROOM_UTILITIES.items()}
    key = next(iter(utilities["P1"]))
    utilities["P1"][key] += 1
    return build_game(make_classroom_form(), utilities)


def remapped(m, name):
    """The morphism ``m`` with the map ``name`` of its id core changed and
    the others kept: every node sent to node id 0, or one player's
    utility map dropped."""
    ids = dict(vars(m._ids))
    ids[name] = [0] * len(ids["tau"]) if name == "tau" else altered(ids[name])
    return dataclasses.replace(m, _ids=SimpleNamespace(**ids))


def altered(value):
    """A value of the same shape that differs from ``value``."""
    if type(value) in DEFINING:
        name = DEFINING[type(value)][0]
        return dataclasses.replace(value, **{name: altered(getattr(value, name))})
    if isinstance(value, frozenset):
        return value | {Atom("extra")}
    dropped = next(iter(value))
    return {k: v for k, v in value.items() if k != dropped}


CLASSES = list(DEFINING)
MORPHISMS = (TreeMorphism, PreformMorphism, FormMorphism, GameMorphism)
UNCONSULTED_VIEWS = [(cls, name) for cls, name in VIEWS if name not in DEFINING[cls]]


class TestEqualityAndHash:
    @pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
    def test_fields_are_defining_or_derived(self, cls):
        names = {f.name for f in dataclasses.fields(cls)}
        views = {name for owner, name in VIEWS if owner is cls}
        assert names == set(DEFINING[cls] + DERIVED[cls]) - views

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
    def test_independent_builds_are_equal_with_equal_hashes(self, cls):
        first, second = build(cls), build(cls)
        assert first is not second
        assert first == second and not first != second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    @pytest.mark.parametrize(
        "cls, name",
        [(cls, name) for cls in CLASSES for name in DEFINING[cls]],
        ids=lambda x: getattr(x, "__name__", x),
    )
    def test_changing_a_defining_field_breaks_equality(self, cls, name):
        value = build(cls)
        if cls in MORPHISMS and (cls, name) in VIEWS:
            changed = remapped(value, name)
            for other in DEFINING[cls]:
                assert (getattr(changed, other) == getattr(value, other)) == (other != name)
        elif (cls, name) in VIEWS:
            changed = rebuilt(name)
            for other in DEFINING[cls]:
                assert (getattr(changed, other) == getattr(value, other)) == (other != name)
        else:
            changed = dataclasses.replace(value, **{name: altered(getattr(value, name))})
        assert value != changed and changed != value
        assert not value == changed

    @pytest.mark.parametrize(
        "cls, name",
        [(cls, name) for cls in CLASSES for name in DERIVED[cls]],
        ids=lambda x: getattr(x, "__name__", x),
    )
    def test_derived_field_is_never_consulted(self, cls, name):
        value = build(cls)
        blanked = dataclasses.replace(value, **{name: object()})
        if name == "_ids":  # the core, read only through the views built from it
            for view in DEFINING[cls]:
                if (cls, view) in VIEWS:
                    vars(blanked)[view] = getattr(value, view)
        assert value == blanked and blanked == value
        assert hash(blanked) == hash(value)

    @pytest.mark.parametrize(
        "cls, name", UNCONSULTED_VIEWS, ids=lambda x: getattr(x, "__name__", x)
    )
    def test_cached_view_is_never_consulted(self, cls, name):
        value, fresh = build(cls), build(cls)
        getattr(value, name)
        assert name in vars(value) and name not in vars(fresh)
        assert value == fresh and fresh == value
        assert hash(value) == hash(fresh)

    def test_reading_and_solving_a_document_builds_no_tree_or_preform_view(
        self, tmp_path, monkeypatch, capsys
    ):
        def built_views(g) -> list:
            parts = {Tree: g.tree, Preform: g.preform, Game: g}
            return [name for cls, name in VIEWS if cls in parts and name in vars(parts[cls])]

        g = parse_game(serialize_game(make_classroom_game()))
        assert nash_equilibria(g)
        assert built_views(g) == []
        path = tmp_path / "classroom.game"
        path.write_text(serialize_game(make_classroom_game()), encoding="utf-8")
        loaded = []
        monkeypatch.setattr(
            ncgames.cli, "load_game", lambda file: loaded.append(load_game(file)) or loaded[-1]
        )
        for command in ("nash", "validate"):
            assert cli_dispatch([command, str(path)]) == 0
            assert capsys.readouterr().out
        assert len(loaded) == 2 and list(map(built_views, loaded)) == [[], []]

    @pytest.mark.parametrize(
        "make, action",
        [
            (make_classroom_game, canonicalize),
            (make_split_information_game, lambda g: subgame_at(g, a(1))),
        ],
        ids=["canonicalize", "subgame_at"],
    )
    def test_up_sets_and_absentmindedness_build_no_children_or_decision_nodes(
        self, make, action
    ):
        g = make()
        action(g)
        assert {"children_map", "decision_nodes"}.isdisjoint(vars(g.tree))

    def test_subgame_reads_only_the_kept_ids(self):
        # the up-set, the kept triples and the prices come from the id
        # cores, so no label-keyed view of the outer game is built
        def built_views(g) -> list:
            views = [(g.tree, "rank"), (g.tree, "play_by_end"), (g.preform, "op"), (g, "utilities")]
            return [name for value, name in views if name in vars(value)]

        # a parsed game's atoms are text
        classroom = parse_game(serialize_game(make_classroom_game()))
        for t_star in ("1", "3"):  # each up-set cuts the set {3, 4}
            with pytest.raises(GameError) as refused:
                subgame_at(classroom, Atom(t_star))
            assert refused.value.code == "InformationSetCut"
        split = make_split_information_game()
        g = parse_game(serialize_game(split))
        text = serialize_game(subgame_at(g, Atom("1")))
        assert built_views(classroom) == built_views(g) == []
        assert text == serialize_game(subgame_at(split, a(1)))

    @pytest.mark.parametrize(
        "sequences, action",
        [
            (False, canonicalize),
            (False, to_choice_sequence),
            (True, to_choice_set),
            (False, style_report),
            (True, style_report),
            (False, lambda g: apply_utility_transform(
                g, {i: {u: 2 * u for u in g.ranges[i]} for i in g.players}
            )),
            (False, lambda g: subgame_at(g, Atom("d20"))),
            (False, lambda g: subtree_at(g.tree, Atom("d20"))),
        ],
        ids=[
            "canonicalize", "to_choice_sequence", "to_choice_set", "style_report",
            "style_report of choice sequences", "apply_utility_transform", "subgame_at",
            "subtree_at",
        ],
    )
    def test_derived_games_build_no_label_keyed_view_of_their_input(self, sequences, action):
        # conversions and restrictions are built on the id core of their
        # input; a parsed game has built none of its views
        g = parse_game(json.dumps(families.to_document(families.centipede(random.Random(40), 40))))
        if sequences:
            g = parse_game(serialize_game(to_choice_sequence(g)[0]))
        assert action(g)
        views = ("pred", "rank", "play_by_end", "plays", "stage_order", "children_map",
                 "op", "prev_choice", "feas", "utilities")
        assert [name for part in (g.tree, g.preform, g) for name in views
                if name in vars(part)] == []

    def test_views_follow_a_replaced_map(self):
        m = identity_morphism(make_classroom_game())
        assert m.theta.tau == m.tau
        # every node goes to the root
        root = m.source.tree._ids.walk[0]
        ids = SimpleNamespace(**{**vars(m._ids), "tau": [root] * len(m._ids.tau)})
        changed = dataclasses.replace(m, _ids=ids)
        assert changed.tau == {t: a(0) for t in m.tau}
        assert changed.theta.tau is changed.tau
        assert changed.form_morphism.tau is changed.tau
        assert changed.form_morphism.preform_morphism.tree_morphism.tau is changed.tau
        # so no play keeps its end
        assert m.theta.play_images and m.end_preserved
        assert not changed.theta.play_images and not changed.end_preserved
        assert not dataclasses.replace(m.theta, _ids=ids).play_images

    @pytest.mark.parametrize(
        "route", ["validated", "identity", "composite", "search", "inverse"]
    )
    def test_theta_is_the_form_morphisms_tree_morphism(self, route):
        g = make_classroom_game()
        unit = identity_morphism(g)
        m = {
            "validated": lambda: validate_game_morphism(
                g, g, unit.iota, unit.tau, unit.delta, unit.beta
            ),
            "identity": lambda: unit,
            "composite": lambda: compose(unit, unit),
            "search": lambda: find_isomorphism(g, g).morphism,
            "inverse": lambda: find_isomorphism(g, g).inverse,
        }[route]()
        assert m.theta is m.form_morphism.preform_morphism.tree_morphism

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
    def test_other_classes_compare_unequal(self, cls):
        value = build(cls)
        lookalike = SimpleNamespace(
            **{f.name: getattr(value, f.name) for f in dataclasses.fields(cls)}
        )
        others = [build(other) for other in CLASSES if other is not cls]
        for other in others + [lookalike, None, "x"]:
            assert not value == other and value != other
            assert not other == value and other != value


# every other value class the library returns, with a fresh classroom value
OTHER_VALUES = {
    Play: lambda g: g.tree.play_by_end[a(2)],
    IsoWitness: lambda g: find_isomorphism(g, g),
    StyleReport: style_report,
    CanonicalForm: canonicalize,
}


class TestImmutability:
    @pytest.mark.parametrize("cls", CLASSES + list(OTHER_VALUES), ids=lambda c: c.__name__)
    def test_no_field_or_view_can_be_set_or_deleted(self, cls):
        value = build(cls) if cls in DEFINING else OTHER_VALUES[cls](make_classroom_game())
        views = [name for owner, name in VIEWS if owner is cls]
        for name in views:
            getattr(value, name)
        for name in [f.name for f in dataclasses.fields(cls)] + views:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)

    def test_exposed_mappings_are_plain_dicts(self):
        # read-only views would have to change this test and the README together
        m = identity_morphism(make_classroom_game())
        g = m.source
        assert [type(x) for x in (g.tree.pred, g.preform.op, g.utilities, m.tau)] == [dict] * 4


def _fresh():
    g = make_classroom_game()
    return g, {t: t for t in g.tree.nodes}, {c: c for c in g.preform.choices}


def _validate_tree(edit):
    g, tau, _ = _fresh()
    edit(tau)
    validate_tree_morphism(g.tree, g.tree, tau)


def _validate_preform_choices(edit):
    g, tau, delta = _fresh()
    edit(delta)
    validate_preform_morphism(g.preform, g.preform, tau, delta)


def _validate_preform_nodes(edit):
    g, tau, delta = _fresh()
    edit(tau)
    validate_preform_morphism(g.preform, g.preform, tau, delta)


def _validate_form_players(edit):
    g, tau, delta = _fresh()
    iota = {i: i for i in g.players}
    edit(iota)
    validate_form_morphism(g.form, g.form, iota, tau, delta)


def _set(key, value):
    return lambda m: m.__setitem__(key, value)


def _drop(key):
    return lambda m: m.__delitem__(key)


TOTALITY_PATHS = [
    # (validator, edit, code, axiom, message)
    (_validate_tree, _set(a(9), a(0)), "UnknownNode", None,
     "UnknownNode: map defined on 9, which is not a source node"),
    (_validate_tree, _drop(a(5)), "NotTotal", "[t1]",
     "NotTotal [t1]: map undefined on source node 5"),
    (_validate_tree, _set(a(5), a(9)), "NotTotal", "[t1]",
     "NotTotal [t1]: map sends 5 to 9, which is not a target node"),
    (_validate_preform_choices, _set("z", "a"), "UnknownChoice", None,
     "UnknownChoice: map defined on z, which is not a source choice"),
    (_validate_preform_choices, _drop("e"), "NotTotal", "[p1]",
     "NotTotal [p1]: map undefined on source choice e"),
    (_validate_preform_choices, _set("e", "z"), "NotTotal", "[p1]",
     "NotTotal [p1]: map sends e to z, which is not a target choice"),
    (_validate_preform_nodes, _set(a(9), a(0)), "UnknownNode", None,
     "UnknownNode: map defined on 9, which is not a source node"),
    (_validate_preform_nodes, _drop(a(5)), "NotTotal", "[p1]",
     "NotTotal [p1]: map undefined on source node 5"),
    (_validate_preform_nodes, _set(a(5), a(9)), "NotTotal", "[p1]",
     "NotTotal [p1]: map sends 5 to 9, which is not a target node"),
    (_validate_form_players, _set("P4", "P1"), "UnknownPlayer", None,
     "UnknownPlayer: map defined on P4, which is not a source player"),
    (_validate_form_players, _drop("P3"), "NotTotal", "[f1]",
     "NotTotal [f1]: map undefined on source player P3"),
    (_validate_form_players, _set("P3", "P4"), "NotTotal", "[f1]",
     "NotTotal [f1]: map sends P3 to P4, which is not a target player"),
]


class TestTotality:
    @pytest.mark.parametrize(
        "validate, edit, code, axiom, message",
        TOTALITY_PATHS,
        ids=[f"{p[0].__name__[10:]}-{p[2]}-{p[4].split(': ')[1][:8]}" for p in TOTALITY_PATHS],
    )
    def test_rejection(self, validate, edit, code, axiom, message):
        with pytest.raises(MorphismError) as err:
            validate(edit)
        assert (err.value.code, err.value.axiom, str(err.value)) == (code, axiom, message)

    def test_unknown_key_is_reported_before_a_missing_one(self):
        def edit(tau):
            del tau[a(5)]
            tau[a(9)] = a(0)

        with pytest.raises(MorphismError) as err:
            _validate_tree(edit)
        assert err.value.code == "UnknownNode"

    @pytest.mark.parametrize(
        "validate, axiom",
        [(_validate_tree, "[t1]"), (_validate_preform_nodes, "[p1]")],
        ids=["tree", "preform"],
    )
    def test_failing_keys_are_reported_in_node_order(self, validate, axiom):
        def edit(tau):
            for t in (a(8), a(5), a(7)):
                del tau[t]
            tau[a(6)] = a(9)

        with pytest.raises(MorphismError) as err:
            validate(edit)
        # 5 is the least by label of the nodes the map fails on
        assert str(err.value) == f"NotTotal {axiom}: map undefined on source node 5"

    def test_least_failing_key_may_be_one_mapped_outside(self):
        def edit(tau):
            del tau[a(8)]
            tau[a(2)] = a(9)

        with pytest.raises(MorphismError) as err:
            _validate_tree(edit)
        assert str(err.value) == "NotTotal [t1]: map sends 2 to 9, which is not a target node"

    def test_layers_are_checked_players_then_choices_then_nodes(self):
        g, tau, _ = _fresh()
        del tau[a(5)]
        with pytest.raises(MorphismError) as err:
            validate_form_morphism(g.form, g.form, {"P1": "P1"}, tau, {})
        assert err.value.axiom == "[f1]" and "player" in str(err.value)
        with pytest.raises(MorphismError) as err:
            validate_preform_morphism(g.preform, g.preform, tau, {})
        assert err.value.axiom == "[p1]" and "choice" in str(err.value)


COMPOSITIONS = [
    (compose_tree_morphisms, lambda g: identity_tree_morphism(g.tree)),
    (compose_preform_morphisms, lambda g: identity_preform_morphism(g.preform)),
    (compose_form_morphisms, lambda g: identity_form_morphism(g.form)),
    (compose, identity_morphism),
]


@pytest.mark.parametrize(
    "compose_at, identity_at", COMPOSITIONS, ids=lambda x: getattr(x, "__name__", "")
)
def test_composing_morphisms_that_do_not_meet(compose_at, identity_at):
    classroom = identity_at(make_classroom_game())
    absentminded = identity_at(make_absentminded_game())
    with pytest.raises(MorphismError) as err:
        compose_at(classroom, absentminded)
    assert (err.value.code, err.value.axiom, str(err.value)) == (
        "TargetSourceMismatch",
        None,
        "TargetSourceMismatch: first morphism's target differs from "
        "second morphism's source",
    )


def test_composites_meeting_at_one_game_numbered_two_ways(tmp_path, capsys):
    """One game read from two documents whose node lists run in opposite
    orders numbers its nodes two ways.  Morphisms that meet there compose,
    at every layer and through ``ncg compose``, to the composite over one
    shared middle game: the first's node ids are renumbered into the
    second's numbering."""
    doc = json.loads(serialize_game(make_classroom_game()))
    reversed_text = json.dumps(dict(doc, nodes=doc["nodes"][::-1]))
    g, g_reversed = parse_game(json.dumps(doc)), parse_game(reversed_text)
    assert g == g_reversed and g.tree._ids.labels != g_reversed.tree._ids.labels

    first = relabel_game(g, node_map={t: Atom(f"x{t.token}") for t in g.tree.nodes})[1].inverse

    def doubled(h):
        maps = {i: {u: 2 * u for u in h.ranges[i]} for i in h.players}
        return apply_utility_transform(h, maps)[1].morphism

    apart, shared = doubled(g_reversed), doubled(g)
    for compose_at, layer in [
        (compose_tree_morphisms, lambda m: m.theta),
        (compose_preform_morphisms, lambda m: m.form_morphism.preform_morphism),
        (compose_form_morphisms, lambda m: m.form_morphism),
        (compose, lambda m: m),
    ]:
        composite = compose_at(layer(apart), layer(first))
        expected = compose_at(layer(shared), layer(first))
        assert composite == expected and dict(composite.tau) == dict(expected.tau)
    composite, expected = compose(apart, first), compose(shared, first)
    assert composite.beta == expected.beta
    assert serialize_morphism(composite) == serialize_morphism(expected)

    (tmp_path / "reversed.game").write_text(reversed_text)
    (tmp_path / "first.morphism").write_text(serialize_morphism(first))
    second = dict(json.loads(serialize_morphism(apart)), source="reversed.game")
    (tmp_path / "second.morphism").write_text(json.dumps(second))
    out = tmp_path / "composite.morphism"
    argv = ["compose", str(tmp_path / "first.morphism"), str(tmp_path / "second.morphism")]
    assert cli_dispatch(argv + ["-o", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote: {out}\n"
    assert out.read_text() == serialize_morphism(expected)
