"""Reusable structural property checks, shared by the property suite
and the acceptance run.

Each check raises AssertionError on violation; all comparisons are
exact.
"""

from __future__ import annotations

import itertools
import math

from ncgames import (
    FormMorphism,
    GameMorphism,
    PreformMorphism,
    TreeMorphism,
    compose,
    compose_form_morphisms,
    compose_preform_morphisms,
    compose_tree_morphisms,
    count_grand_strategies,
    grand_strategies,
    grand_to_profile,
    identity_form_morphism,
    identity_morphism,
    identity_preform_morphism,
    identity_tree_morphism,
    is_grand_strategy,
    is_isomorphism,
    is_nash,
    is_tree_isomorphism,
    nash_equilibria,
    play_of,
    player_strategies,
    profile_to_grand,
    validate_form_morphism,
    validate_game_morphism,
    validate_preform_morphism,
    validate_tree_morphism,
)
from ncgames.errors import FormError, NcgError, PreformError
from ncgames.game import _node_classes
from ncgames.labels import token_key
from ncgames.transforms import style_report

import oracles


def check_tree_invariants(tree):
    """Stage counts, chain structure, and plays against the brute-force
    maximal-chain oracle."""
    for t in tree.nodes:
        preds = oracles.strict_predecessors(tree, t)
        assert len(preds) == tree.stage[t]
        chain = preds | {t}
        for x, y in itertools.combinations(chain, 2):
            assert oracles.comparable(tree.pred, x, y)
    for z in tree.plays:
        assert z.path[0] == tree.root
        assert len(frozenset(z.path)) == tree.stage[z.end] + 1
        assert _is_consecutive_chain(tree.pred, frozenset(z.path))
    assert {frozenset(z.path) for z in tree.plays} == oracles.maximal_chains(
        tree.nodes, tree.pred
    )


def check_node_and_play_order(preform):
    """The one node order and play order of the preform's tree, the
    children lists, the orders ``stage``, ``children_map`` and
    ``stage_order`` iterate in and the information-set order against the
    ``label_key`` references; each set's choices in ``token_key`` order,
    and as many grand strategies as the product of their numbers."""
    tree = preform.tree
    by_label = oracles.nodes_by_label(tree)
    assert list(tree.rank) == by_label
    assert list(tree.rank.values()) == list(range(len(by_label)))
    assert list(tree.play_by_end.values()) == oracles.plays_by_path(tree)
    for t in tree.nodes:
        assert list(tree.children(t)) == [u for u in by_label if tree.pred.get(u) == t]
    check_view_orders(tree, {t: len(oracles.strict_predecessors(tree, t)) for t in by_label})
    order = preform.info_set_order
    assert [h for h, _choices in order] == oracles.info_sets_by_label(preform)
    scanned = oracles.info_sets_by_scan(preform)
    for h, choices in order:
        assert choices == tuple(sorted(scanned[h], key=token_key))
    assert count_grand_strategies(preform) == math.prod(len(cs) for _h, cs in order)


def check_view_orders(tree, stage):
    """``stage`` iterates in walk order, ``children_map`` lists the
    decision nodes by their least child and ``stage_order`` the nodes by
    ``stage``, the given stages, each against a ``label_key`` reference."""
    assert list(tree.stage) == oracles.preorder_by_label(tree.nodes, tree.pred)
    successors = oracles.successors_by_label(tree.nodes, tree.pred)
    assert list(tree.children_map.items()) == list(successors.items())
    by_label = oracles.nodes_by_label(tree)
    assert tree.stage_order == tuple(sorted(by_label, key=stage.__getitem__))


def _is_consecutive_chain(pred, subset):
    ordered = sorted(subset, key=lambda t: len(oracles.reachable_by_pred(pred, t)))
    for x, y in itertools.combinations(ordered, 2):
        if not oracles.comparable(pred, x, y):
            return False
    for x in subset:
        for y in subset:
            walk = oracles.reachable_by_pred(pred, y)
            if x in walk:
                between = walk[1 : walk.index(x)]
                if any(t not in subset for t in between):
                    return False
    return True


def check_play_images(m):
    """Images of plays are consecutive chains with a play-independent
    prefix, and end preservation matches image-is-a-play exactly.  The
    ``play_images`` view holds exactly the plays whose image is a play,
    in source play order, each with the target play on its image."""
    target_play_members = {frozenset(z.path) for z in m.target.plays}
    prefix = oracles.strict_predecessors(m.target, m.tau[m.source.root])
    images = m.play_images
    for z in m.source.plays:
        image = frozenset(m.tau[t] for t in z.path)
        assert _is_consecutive_chain(m.target.pred, image)
        shallowest = min(image, key=lambda t: m.target.stage[t])
        assert oracles.strict_predecessors(m.target, shallowest) == prefix
        full = oracles.image_play(m, z)
        assert full == prefix | image
        assert (full in target_play_members) == (z in images)
        if z in images:
            assert images[z] in m.target.plays
            assert frozenset(images[z].path) == full
    assert list(images) == [z for z in m.source.play_by_end.values() if z in images]


def check_composed_end_preservation(second, first, composed):
    """End preservation shrinks under composition, is stable when the
    second morphism preserves all ends, and images of doubly preserved
    plays stay preserved."""
    kept_first = frozenset(first.play_images)
    kept_second = frozenset(second.play_images)
    kept_composed = frozenset(composed.play_images)
    assert kept_composed <= kept_first
    if kept_second == second.source.plays:
        assert kept_composed == kept_first
    second_members = {frozenset(z.path): z for z in second.source.plays}
    for z in kept_composed:
        image = oracles.image_play(first, z)
        assert image in second_members
        assert second_members[image] in kept_second


def check_zeta_uniqueness(preform):
    for s in grand_strategies(preform):
        assert play_of(preform, s) == oracles.zeta_by_scan(preform, s)


def check_strategy_space(game):
    """The library's strategy sets equal the oracle's enumeration from
    the raw operator, the count agrees with the enumeration, and both
    equilibrium routes agree with each other and with the oracle."""
    pf = game.preform
    grand = grand_strategies(pf)
    assert grand == oracles.strategies_by_scan(pf)
    assert count_grand_strategies(pf) == len(grand)
    for i in game.players:
        owned = game.form.assignment[i]
        assert player_strategies(game.form, i) == oracles.strategies_by_scan(pf, owned)
    equilibria = nash_equilibria(game)
    assert equilibria == oracles.nash_by_deviation_scan(game)
    for s in grand:
        assert is_nash(game, s) == (s in equilibria)


def _near_misses(rng, choices, members, draws):
    """Random subsets of ``choices``, and members of ``members`` with one
    choice added, dropped or swapped for another, so that subsets that
    miss a strategy by one choice are tried as often as strategies."""
    choices, members = sorted(choices, key=repr), sorted(members, key=sorted)
    for _ in range(draws):
        if not members or rng.random() < 0.3:
            yield frozenset(c for c in choices if rng.random() < 0.5)
            continue
        s = set(rng.choice(members))
        edit = rng.randrange(4)
        if s and edit in (1, 3):
            s.discard(rng.choice(sorted(s)))
        if choices and edit in (2, 3):
            s.add(rng.choice(choices))
        yield frozenset(s)


def _foreign_and_doubled(rng, pf, members, draws):
    """Members of ``members`` with a token of no set added or swapped in
    for one of their choices, and with a second choice of one set added
    or swapped in for another set's choice."""
    members = sorted(members, key=sorted)
    wide = [choices for _h, choices in pf.info_set_order if len(choices) > 1]
    for _ in range(draws if members else 0):
        s = set(rng.choice(members))
        edit = rng.randrange(4)
        if s and edit in (1, 3):
            s.discard(rng.choice(sorted(s)))
        if edit < 2:
            s.add("\0foreign")
        elif wide:
            s.update(rng.choice(wide))
        yield frozenset(s)


def check_play_of(pf, s, grand):
    """``play_of`` gives the oracle's play of a grand strategy, and refuses
    any other choice set as ``NotAStrategy``, naming its sorted choices."""
    if s in grand:
        assert play_of(pf, s) == oracles.zeta_by_scan(pf, s)
        return
    try:
        play_of(pf, s)
    except PreformError as exc:
        listing = ",".join(sorted(map(str, s)))
        assert exc.code == "NotAStrategy" and exc.axiom is None
        assert str(exc) == (
            f"NotAStrategy: {{{listing}}} does not select exactly one feasible choice "
            "per information set"
        )
    else:
        raise AssertionError(f"play_of accepted {sorted(s)}")


def check_strategy_tests(game, rng, draws=40):
    """``is_grand_strategy`` is membership in the oracle's enumeration,
    and ``play_of`` the oracle's play of a member, refusing any other
    draw; ``profile_to_grand`` merges exactly the profiles whose every
    component the oracle lists for its player; otherwise it names the
    first player, in ``player_rank`` order, whose component is not listed."""
    pf, form = game.preform, game.form
    grand = oracles.strategies_by_scan(pf)
    for s in itertools.chain(
        _near_misses(rng, pf.choices, grand, draws),
        _foreign_and_doubled(rng, pf, grand, draws // 4),
    ):
        assert is_grand_strategy(pf, s) is (s in grand)
        check_play_of(pf, s, grand)
    own = {i: oracles.strategies_by_scan(pf, form.assignment[i]) for i in form.players}
    for _ in range(draws):
        profile = {}
        for i in form.player_rank:
            # mostly from the player's own choices, sometimes from any
            pool = form.assignment[i] if rng.random() < 0.8 else pf.choices
            profile[i] = next(_near_misses(rng, pool, own[i], 1))
        invalid = [i for i in form.player_rank if profile[i] not in own[i]]
        if not invalid:
            merged = profile_to_grand(form, profile)
            assert merged == frozenset().union(*profile.values()) and merged in grand
            continue
        try:
            profile_to_grand(form, profile)
        except FormError as exc:
            assert exc.code == "InvalidComponent"
            assert exc.details == {"player": invalid[0]}
        else:
            raise AssertionError(f"accepted an invalid component of {invalid[0]}")


def check_profile_bijection(form):
    for s in grand_strategies(form.preform):
        assert profile_to_grand(form, grand_to_profile(form, s)) == s
    for profile in oracles.profiles(form):
        assert grand_to_profile(form, profile_to_grand(form, profile)) == profile


# each morphism class with its validator, the maps it takes after the
# source and the target, and its views, the lower layers computed from
# its maps
VALIDATORS = {
    TreeMorphism: (validate_tree_morphism, ("tau",), ()),
    PreformMorphism: (validate_preform_morphism, ("tau", "delta"), ("tree_morphism",)),
    FormMorphism: (validate_form_morphism, ("iota", "tau", "delta"), ("preform_morphism",)),
    GameMorphism: (
        validate_game_morphism,
        ("iota", "tau", "delta", "beta"),
        ("form_morphism", "theta", "end_preserved"),
    ),
}


def check_revalidates(m):
    """The validator of the layer of ``m``, run on its maps by label, returns
    a morphism equal to ``m`` whose views equal those of ``m``, and each
    view that is a morphism revalidates in turn.  Identities, composites,
    conversions and inverses are morphisms by theorem and are built
    unvalidated; this is where those theorems are checked."""
    validate, maps, views = VALIDATORS[type(m)]
    again = validate(m.source, m.target, *(getattr(m, name) for name in maps))
    assert again == m
    for name in views:
        view = getattr(m, name)
        assert getattr(again, name) == view
        if type(view) in VALIDATORS:
            check_revalidates(view)


def _verdict(validate, args, names=None):
    """What ``validate`` makes of ``args``: what it returns, or the maps
    ``names`` of the morphism it returns, or else its error, with its
    class, code, axiom, details and message."""
    try:
        result = validate(*args)
    except NcgError as exc:
        return "refused", type(exc), exc.code, exc.axiom, exc.details, str(exc)
    return "accepted", result if names is None else tuple(getattr(result, n) for n in names)


def check_validators_agree(source, target, iota, tau, delta, beta) -> str:
    """The validator of each layer gives the verdict of the label-keyed
    oracle of its layer, with the same first error, on the candidate game
    morphism ``(iota, tau, delta, beta)`` from ``source`` to ``target``
    as given (its node map and utility maps may be over node ids and
    utility ranks) and by label.  Returns the game layer's verdict:
    ``accepted``, or the axiom of the error, ``None`` for one with none."""
    given = {"iota": iota, "tau": tau, "delta": delta, "beta": beta}
    by_labels = {
        **given, "tau": dict(tau.items()), "beta": {i: dict(b.items()) for i, b in beta.items()}
    }
    layers = [
        (TreeMorphism, oracles.validate_tree_morphism_by_labels, (source.tree, target.tree)),
        (PreformMorphism, oracles.validate_preform_morphism_by_labels,
         (source.preform, target.preform)),
        (FormMorphism, oracles.validate_form_morphism_by_labels, (source.form, target.form)),
        (GameMorphism, oracles.validate_game_morphism_by_labels, (source, target)),
    ]
    for cls, oracle, games in layers:
        validate, names, _views = VALIDATORS[cls]
        expected = _verdict(oracle, (*games, *(by_labels[n] for n in names)))
        for maps in (given, by_labels):
            assert _verdict(validate, (*games, *(maps[n] for n in names)), names) == expected
    return "accepted" if expected[0] == "accepted" else expected[3]


def _check_unit_laws(compose_at, identity_at, m):
    """Both identities around ``m`` and both composites with them
    revalidate, and each composite is ``m``."""
    before, after = identity_at(m.source), identity_at(m.target)
    for composite in (compose_at(after, m), compose_at(m, before)):
        assert composite == m
        check_revalidates(composite)
    check_revalidates(before)
    check_revalidates(after)


def check_form_unit_laws(m):
    _check_unit_laws(compose_form_morphisms, identity_form_morphism, m)


def check_preform_unit_laws(m):
    _check_unit_laws(compose_preform_morphisms, identity_preform_morphism, m)


def check_unit_laws(m):
    """The unit laws of a game morphism and of its form, preform and
    tree morphisms."""
    _check_unit_laws(compose, identity_morphism, m)
    check_form_unit_laws(m.form_morphism)
    check_preform_unit_laws(m.form_morphism.preform_morphism)
    _check_unit_laws(compose_tree_morphisms, identity_tree_morphism, m.theta)


def check_associativity(third, second, first):
    """Associativity of game morphisms and of their form, preform and
    tree morphisms; every composite revalidates."""
    layers = [
        (compose, lambda m: m),
        (compose_form_morphisms, lambda m: m.form_morphism),
        (compose_preform_morphisms, lambda m: m.form_morphism.preform_morphism),
        (compose_tree_morphisms, lambda m: m.theta),
    ]
    for compose_at, view in layers:
        h, g, f = view(third), view(second), view(first)
        inner = [compose_at(g, f), compose_at(h, g)]
        outer = [compose_at(h, inner[0]), compose_at(inner[1], f)]
        assert outer[0] == outer[1]
        for composite in inner + outer:
            check_revalidates(composite)


def _bijects(mapping, domain, codomain):
    values = set(mapping.values())
    return len(values) == len(domain) and values == set(codomain)


def iso_characterizations(m):
    """The paper's two characterizations of a game isomorphism: every
    component bijective, and bijective structure maps with strictly
    increasing utility maps."""
    structure = (
        _bijects(m.iota, m.source.players, m.target.players)
        and _bijects(m.tau, m.source.tree.nodes, m.target.tree.nodes)
        and _bijects(m.delta, m.source.preform.choices, m.target.preform.choices)
    )
    all_components = structure and all(
        _bijects(m.beta[i], frozenset(m.beta[i]), m.target.ranges[m.iota[i]])
        for i in m.source.players
    )
    strict = structure and all(
        _strictly_increasing(m.beta[i]) for i in m.source.players
    )
    return all_components, strict


def _strictly_increasing(bmap):
    ordered = sorted(bmap)
    return all(bmap[u] < bmap[v] for u, v in zip(ordered, ordered[1:]))


def check_iso_characterizations(m):
    all_components, strict = iso_characterizations(m)
    assert all_components == strict
    assert (is_isomorphism(m) is not None) == all_components


def check_tree_iso_inverse(m):
    """A bijective tree morphism has a valid inverse that undoes it."""
    inverse = is_tree_isomorphism(m)
    assert inverse is not None
    # built by inversion, the inverse is validated here only, as are the
    # identities and composites
    check_revalidates(inverse)
    for composite, tree in (
        (compose_tree_morphisms(inverse, m), m.source),
        (compose_tree_morphisms(m, inverse), m.target),
    ):
        unit = identity_tree_morphism(tree)
        assert composite == unit
        check_revalidates(composite)
        check_revalidates(unit)


def check_iso_witness(witness):
    """The full battery of isomorphism consequences."""
    m = witness.morphism
    g, h = m.source, m.target
    check_tree_iso_inverse(m.theta)

    # built by inversion, the inverse is validated here only, with its
    # views
    check_revalidates(witness.inverse)

    # both characterizations hold, in both directions
    assert iso_characterizations(m) == (True, True)
    assert iso_characterizations(witness.inverse) == (True, True)

    # the inverse undoes the morphism on both sides
    assert compose(witness.inverse, m) == identity_morphism(g)
    assert compose(m, witness.inverse) == identity_morphism(h)

    # plays biject under the node map
    images = {frozenset(m.tau[t] for t in z.path) for z in g.plays}
    assert images == {frozenset(z.path) for z in h.plays}
    assert len(images) == len(g.plays)

    # every play's end is preserved and the target root is the image root
    assert m.end_preserved == g.plays
    assert oracles.strict_predecessors(h.tree, m.tau[g.tree.root]) == frozenset()

    # choices biject information set by information set
    source_sets, target_sets = (oracles.info_sets_by_scan(x.preform) for x in (g, h))
    for info, choices in source_sets.items():
        image_info = frozenset(m.tau[t] for t in info)
        assert image_info in h.preform.info_sets
        mapped = {m.delta[c] for c in choices}
        assert mapped == target_sets[image_info]
        assert len(mapped) == len(choices)

    # strategies biject per player and as grand strategies
    for i in g.players:
        mapped = {
            frozenset(m.delta[c] for c in s) for s in player_strategies(g.form, i)
        }
        assert mapped == player_strategies(h.form, m.iota[i])
    mapped_grand = {
        frozenset(m.delta[c] for c in s) for s in grand_strategies(g.preform)
    }
    assert mapped_grand == grand_strategies(h.preform)

    # the strategy-to-play square commutes
    for s in grand_strategies(g.preform):
        image_play_members = frozenset(
            m.tau[t] for t in play_of(g.preform, s).path
        )
        mapped_strategy = frozenset(m.delta[c] for c in s)
        assert image_play_members == frozenset(play_of(h.preform, mapped_strategy).path)

    # utility maps are strictly increasing bijections matching the tables
    for i in g.players:
        bmap = m.beta[i]
        assert frozenset(bmap) == g.ranges[i]
        assert frozenset(bmap.values()) == h.ranges[m.iota[i]]
        ordered = sorted(bmap)
        assert all(bmap[u] < bmap[v] for u, v in zip(ordered, ordered[1:]))
        for z in g.plays:
            image = h.play_with_members(frozenset(m.tau[t] for t in z.path))
            assert bmap[g.utilities[i][z]] == h.utilities[m.iota[i]][image]


def check_class_invariance(witness):
    """The node map keeps every node's class, numbered in one table for
    both games, so the iso search's class filter drops no isomorphism."""
    m = witness.morphism
    table = {}
    source = _node_classes(m.source, table)  # by node id
    target = _node_classes(m.target, table)
    target_id = dict(zip(m.target.tree._ids.labels, range(len(target))))
    assert all(
        c == target[target_id[m.tau[t]]] for t, c in zip(m.source.tree._ids.labels, source)
    )


def check_nash_preservation(witness):
    m = witness.morphism
    g, h = m.source, m.target
    mapped = {}
    for s in grand_strategies(g.preform):
        image = frozenset(m.delta[c] for c in s)
        mapped[s] = image
        assert is_nash(g, s) == is_nash(h, image)
    source_nash = {s for s in mapped if is_nash(g, s)}
    target_nash = {s for s in grand_strategies(h.preform) if is_nash(h, s)}
    assert {mapped[s] for s in source_nash} == target_nash


def check_style_implications(g):
    """Perfect information and the choice-set style each rule out
    absentmindedness: a one-node information set has no two comparable
    nodes, and in choice-set style a choice made between two comparable
    nodes of one information set would be feasible again at the later
    node and leave its set label unchanged."""
    report = style_report(g)
    if report.perfect_information:
        assert report.no_absentmindedness
    if report.uses_choice_sets:
        assert report.no_absentmindedness


def check_predicate_invariance(witness):
    r1 = style_report(witness.morphism.source)
    r2 = style_report(witness.morphism.target)
    assert r1.no_absentmindedness == r2.no_absentmindedness
    assert r1.perfect_information == r2.perfect_information
