"""Independent brute-force oracles.

Everything here recomputes results from first principles, by exhaustive
enumeration over the raw data, and deliberately avoids the library's
own derivation paths so the two sides can check each other.
"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction

from ncgames import Play, is_isomorphism, validate_game_morphism
from ncgames.errors import DocumentSyntaxError, GameError, MorphismError
from ncgames.labels import Atom, Seq, SetLabel, label_key, render_label, render_token, token_key


def reachable_by_pred(pred, start):
    """All nodes reached by iterating the predecessor map from ``start``."""
    out = [start]
    while out[-1] in pred:
        out.append(pred[out[-1]])
    return out


def strict_predecessors(tree, t):
    """All nodes strictly before ``t``, by walking up the predecessor map."""
    return frozenset(reachable_by_pred(tree.pred, t)[1:])


def up_sets_by_pred(nodes, pred):
    """Each node's up-set: the nodes whose predecessor chain meets it."""
    up = {t: set() for t in nodes}
    for u in nodes:
        for t in reachable_by_pred(pred, u):
            up[t].add(u)
    return up


def successors_by_label(nodes, pred):
    """Each node that precedes something, with its immediate successors
    in ``label_key`` order; the nodes listed in ``label_key`` order of
    their least successor."""
    below: dict = {}
    for t in sorted(nodes, key=label_key):
        if t in pred:
            below.setdefault(pred[t], []).append(t)
    return {t: tuple(kids) for t, kids in below.items()}


def preorder_by_label(nodes, pred):
    """The nodes depth first from the root, successors in ``label_key``
    order."""
    below = successors_by_label(nodes, pred)
    (root,) = frozenset(nodes) - pred.keys()
    out, stack = [], [root]
    while stack:
        out.append(stack.pop())
        stack.extend(reversed(below.get(out[-1], ())))
    return out


def image_play(m, z):
    """The nodes of the play ``z`` under the node map, joined with the
    strict predecessors of the image of the source root: the chain that
    is a target play exactly when the morphism preserves the end of ``z``."""
    prefix = strict_predecessors(m.target, m.tau[m.source.root])
    return prefix | frozenset(m.tau[t] for t in z.path)


def tree_by_walk_up(nodes, pairs):
    """A tree's stages and plays found by walking up its predecessor map.

    Returns ``(stage, paths, cycle_from)``: each node's distance from the
    root, each terminal node's root-to-end path, and ``None``; or, when
    some node's chain never reaches the root, ``(None, None, start)``
    with ``start`` the least such node by ``label_key``.  Each walk
    stops at the first node whose stage is known.
    """
    node_set = frozenset(nodes)
    pred = dict(pairs)
    (root,) = node_set - pred.keys()
    stage = {root: 0}
    for start in sorted(node_set, key=label_key):
        walk, seen, t = [], set(), start
        while t not in stage:
            if t in seen:
                return None, None, start
            seen.add(t)
            walk.append(t)
            t = pred[t]
        for offset, u in enumerate(reversed(walk), start=1):
            stage[u] = stage[t] + offset
    paths = {}
    for end in node_set - set(pred.values()):
        path = [end]
        while path[-1] != root:
            path.append(pred[path[-1]])
        paths[end] = tuple(reversed(path))
    return stage, paths, None


def node_map_by_operator(g1, g2, delta):
    """The node map that the operator axiom τ(op(t, c)) = op(τ(t), δ(c))
    forces from root to root, read off the raw operators; ``None`` when
    some image step is undefined in ``g2``."""
    out = {}
    for (t, c), t_next in g1.preform.op.items():
        out.setdefault(t, []).append((c, t_next))
    (root1,) = g1.tree.nodes - set(g1.preform.op.values())
    (root2,) = g2.tree.nodes - set(g2.preform.op.values())
    tau, frontier = {root1: root2}, [root1]
    while frontier:
        t = frontier.pop()
        for c, t_next in out.get(t, ()):
            image = g2.preform.op.get((tau[t], delta[c]))
            if image is None:
                return None
            tau[t_next] = image
            frontier.append(t_next)
    return tau


def utility_maps_pointwise(g1, g2, iota, tau):
    """Each player's utility map, sending the utility of every play to the
    utility of the play with the image members; ``None`` when some image is
    not a play or some map is not a function."""
    by_members = {frozenset(z.path): z for z in g2.tree.plays}
    beta = {i: {} for i in g1.players}
    for z in g1.tree.plays:
        image = by_members.get(frozenset(tau[t] for t in z.path))
        if image is None:
            return None
        for i in g1.players:
            u, v = g1.utilities[i][z], g2.utilities[iota[i]][image]
            if beta[i].setdefault(u, v) != v:
                return None
    return beta


def isomorphic_by_choice_maps(g1, g2):
    """An isomorphism witness found by trying every bijection of choices
    and of players, or ``None`` when there is none.

    The node map follows from the roots and δ by the operator axiom, each
    utility map is read off pointwise, and a candidate counts when
    ``validate_game_morphism`` and ``is_isomorphism`` accept it.  For
    small games only: at most six choices.
    """
    choices1 = sorted(g1.preform.choices, key=repr)
    choices2 = sorted(g2.preform.choices, key=repr)
    players1 = sorted(g1.players, key=repr)
    players2 = sorted(g2.players, key=repr)
    assert len(choices1) <= 6, "the oracle enumerates every choice bijection"
    if len(choices1) != len(choices2) or len(players1) != len(players2):
        return None
    for choice_images in itertools.permutations(choices2):
        delta = dict(zip(choices1, choice_images))
        tau = node_map_by_operator(g1, g2, delta)
        if tau is None:
            continue
        for player_images in itertools.permutations(players2):
            iota = dict(zip(players1, player_images))
            beta = utility_maps_pointwise(g1, g2, iota, tau)
            if beta is None:
                continue
            try:
                morphism = validate_game_morphism(g1, g2, iota, tau, delta, beta)
            except MorphismError:
                continue
            witness = is_isomorphism(morphism)
            if witness is not None:
                return witness
    return None


def subform_by_restriction(inner, outer):
    """Whether ``inner`` is ``outer`` restricted to the up-set of its root:
    its nodes are that up-set, and its choices, operator triples,
    information sets, players and choice ownership are among the outer
    ones."""
    root, pred = inner.tree.root, outer.tree.pred
    up_set = {t for t in outer.tree.nodes if root in reachable_by_pred(pred, t)}
    return (
        inner.tree.nodes == up_set
        and inner.preform.choices <= outer.preform.choices
        and inner.preform.op.items() <= outer.preform.op.items()
        and inner.preform.info_sets <= outer.preform.info_sets
        and inner.players <= outer.players
        and all(inner.form.assignment[i] <= outer.form.assignment[i] for i in inner.players)
    )


def subgame_by_members(inner, outer):
    """Whether ``inner`` is a subgame of ``outer`` by the paper's
    definition: a subform, each of whose plays is priced like the outer
    play whose nodes are its own plus the outer strict predecessors of
    the inner root."""
    if not subform_by_restriction(inner, outer):
        return False
    prefix = frozenset(reachable_by_pred(outer.tree.pred, inner.tree.root)[1:])
    by_members = {frozenset(z.path): z for z in outer.tree.plays}
    for z in inner.tree.plays:
        extended = by_members.get(prefix | frozenset(z.path))
        if extended is None or any(
            inner.utilities[i][z] != outer.utilities[i][extended] for i in inner.players
        ):
            return False
    return True


def weakly_precedes(pred, a, b):
    return a in reachable_by_pred(pred, b)


def comparable(pred, a, b):
    return weakly_precedes(pred, a, b) or weakly_precedes(pred, b, a)


def absentminded_by_pairs(preform):
    """Whether some information set holds two comparable nodes, checked
    pair by pair on the sets read off the raw operator."""
    pred = preform.tree.pred
    return any(
        comparable(pred, x, y)
        for nodes in info_sets_by_scan(preform)
        for x, y in itertools.combinations(nodes, 2)
    )


def maximal_chains(nodes, pred):
    """All maximal chains of the precedence order, by subset enumeration."""
    nodes = sorted(nodes, key=repr)

    def is_chain(subset):
        return all(
            comparable(pred, x, y) for x, y in itertools.combinations(subset, 2)
        )

    chains = [
        frozenset(subset)
        for r in range(1, len(nodes) + 1)
        for subset in itertools.combinations(nodes, r)
        if is_chain(subset)
    ]
    return {
        chain
        for chain in chains
        if not any(chain < other for other in chains)
    }


def plays_matching_strategy(preform, strategy):
    """Plays all of whose non-root nodes were produced by the strategy."""
    return {
        z
        for z in preform.tree.plays
        if all(preform.prev_choice[t] in strategy for t in z.path[1:])
    }


def zeta_by_scan(preform, strategy):
    """The unique strategy-consistent play, found by scanning all plays."""
    matches = plays_matching_strategy(preform, strategy)
    assert len(matches) == 1, f"expected one matching play, found {len(matches)}"
    return next(iter(matches))


def info_sets_by_scan(preform):
    """Information sets read off the raw operator: the set of nodes at
    which each choice is feasible, mapped to the choices feasible there."""
    where = {}
    for t, c in preform.op:
        where.setdefault(c, set()).add(t)
    sets = {}
    for c, nodes in where.items():
        sets.setdefault(frozenset(nodes), set()).add(c)
    return sets


def strategies_by_scan(preform, owned=None):
    """Every choice set taking one choice from each information set whose
    choices all lie in ``owned`` (every information set when ``owned`` is
    None)."""
    pools = [
        sorted(choices, key=repr)
        for choices in info_sets_by_scan(preform).values()
        if owned is None or choices <= owned
    ]
    return {frozenset(combo) for combo in itertools.product(*pools)}


def profiles(form):
    """All strategy profiles, player by player."""
    players = sorted(form.players, key=repr)
    pools = [
        sorted(strategies_by_scan(form.preform, form.assignment[i]), key=sorted)
        for i in players
    ]
    for combo in itertools.product(*pools):
        yield dict(zip(players, combo))


def nash_by_deviation_scan(game):
    """Equilibria via the definition: no player gains by swapping their
    component for any of their strategies, with strategies enumerated
    and plays resolved by the scans above."""
    preform = game.preform
    own = {
        i: strategies_by_scan(preform, game.form.assignment[i]) for i in game.players
    }
    out = set()
    for s in strategies_by_scan(preform):
        good = True
        for i in game.players:
            payoff = game.utilities[i][zeta_by_scan(preform, s)]
            others = s - game.form.assignment[i]
            for alternative in own[i]:
                swapped = others | alternative
                if game.utilities[i][zeta_by_scan(preform, swapped)] > payoff:
                    good = False
                    break
            if not good:
                break
        if good:
            out.add(s)
    return out


def nodes_by_label(tree):
    """The tree's nodes sorted by ``label_key``."""
    return sorted(tree.nodes, key=label_key)


def plays_by_path(tree):
    """The tree's plays sorted by their root-to-end paths, compared node
    by node with ``label_key``."""
    return sorted(tree.plays, key=lambda z: tuple(label_key(t) for t in z.path))


def info_sets_by_label(preform):
    """The information sets sorted by the sorted ``label_key``s of their
    nodes."""
    return sorted(
        info_sets_by_scan(preform), key=lambda h: sorted(label_key(t) for t in h)
    )


# The label-keyed maps as the builders once built them at every parse,
# from the raw inputs, to compare the views over the kept ids with.


def eager_tree_maps(nodes, pairs):
    """A tree's predecessor map, ranks and plays by end: each child with
    its parent, in the order of its first ``(child, parent)`` pair; the
    nodes in ``label_key`` order, each with its position; and the plays
    by their ends, in lexicographic order of their paths by that order."""
    pred = {}
    for child, parent in pairs:
        pred.setdefault(child, parent)
    position = {t: k for k, t in enumerate(sorted(nodes, key=label_key))}
    _stage, paths, _start = tree_by_walk_up(nodes, pred.items())
    ordered = sorted(paths.values(), key=lambda path: [position[t] for t in path])
    return pred, position, {path[-1]: Play(path[-1], path) for path in ordered}


def eager_op(triples):
    """The operator: each ``(node, choice)`` with its successor, in the
    order of its first triple."""
    op = {}
    for t, c, t_next in triples:
        op.setdefault((t, c), t_next)
    return op


def eager_utilities(players, rows, plays):
    """Each player's utility table and range, the players in ``token_key``
    order: the row's keys, plays or node sets, replaced by the play among
    ``plays`` with those nodes, in row order, and the range built from
    the row's distinct value objects in row order."""
    by_members = {frozenset(z.path): z for z in plays}
    tables, ranges = {}, {}
    for i in sorted(players, key=token_key):
        table = tables[i] = {}
        for key, value in rows[i].items():
            z = by_members[frozenset(key.path if isinstance(key, Play) else key)]
            table[z] = value if isinstance(value, Fraction) else Fraction(value)
        ranges[i] = frozenset({id(u): u for u in table.values()}.values())
    return tables, ranges


def label_of_spec(spec):
    """The node label a document's node spec names."""
    (kind, value), = spec.items()
    return {"atom": Atom, "seq": lambda v: Seq(tuple(v)), "set": SetLabel}[kind](value)


def loads_by_json(text):
    """A document's text decoded by one ``json.loads`` call, each object
    decoded on its own, or the ``DocumentSyntaxError`` the reader raises
    when that call fails."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except ValueError as exc:
        raise DocumentSyntaxError(
            f"a number has more than {sys.get_int_max_str_digits()} digits"
        ) from exc
    except RecursionError as exc:
        raise DocumentSyntaxError("document nests too deeply") from exc


# The morphism validators over label-keyed maps, as the library once ran
# them: the second route, which the validators over node ids and utility
# ranks must agree with, verdict and first error alike.  Nodes are
# ordered by ``label_key``, players and choices by ``token_key``, and each
# returns the validated maps by label.


def check_map_by_labels(mapping, domain, codomain, kind, axiom, key):
    """Reject a component map that is not a total function into
    ``codomain``: a key outside ``domain`` first, in the map's order, then
    the least element of ``domain`` by ``key`` where the map fails."""
    render = render_label if kind == "node" else render_token
    for x in mapping:
        if x not in domain:
            raise MorphismError(
                f"Unknown{kind.capitalize()}",
                f"map defined on {render(x)}, which is not a source {kind}",
            )
    failing = [x for x in domain if x not in mapping or mapping[x] not in codomain]
    if failing:
        x = min(failing, key=key)
        if x not in mapping:
            raise MorphismError(
                "NotTotal", f"map undefined on source {kind} {render(x)}", axiom=axiom
            )
        raise MorphismError(
            "NotTotal",
            f"map sends {render(x)} to {render(mapping[x])}, "
            f"which is not a target {kind}",
            axiom=axiom,
        )


def validate_tree_morphism_by_labels(source, target, tau):
    check_map_by_labels(tau, source.nodes, target.nodes, "node", "[t1]", label_key)
    for child, parent in source.pred.items():
        if target.pred.get(tau[child]) != tau[parent]:
            raise MorphismError(
                "EdgeNotPreserved",
                f"edge ({render_label(child)}, {render_label(parent)}) maps to "
                f"({render_label(tau[child])}, {render_label(tau[parent])}), "
                "which is not a target edge",
                axiom="[t2]",
                child=child,
                parent=parent,
            )
    return (dict(tau),)


def validate_preform_morphism_by_labels(source, target, tau, delta):
    check_map_by_labels(delta, source.choices, target.choices, "choice", "[p1]", token_key)
    check_map_by_labels(tau, source.tree.nodes, target.tree.nodes, "node", "[p1]", label_key)
    for (t, c), t_next in source.op.items():
        if target.op.get((tau[t], delta[c])) != tau[t_next]:
            raise MorphismError(
                "TripleNotPreserved",
                f"triple ({render_label(t)}, {render_token(c)}, {render_label(t_next)}) "
                "does not map into the target operator graph",
                axiom="[p2]",
                node=t,
                choice=c,
                successor=t_next,
            )
    return dict(tau), dict(delta)


def validate_form_morphism_by_labels(source, target, iota, tau, delta):
    players = sorted(source.players, key=token_key)
    check_map_by_labels(iota, source.players, target.players, "player", "[f1]", token_key)
    tau, delta = validate_preform_morphism_by_labels(source.preform, target.preform, tau, delta)
    for i in players:
        image = {delta[c] for c in source.assignment[i]}
        if not image <= target.assignment[iota[i]]:
            raise MorphismError(
                "PlayerOwnershipViolated",
                f"choices of player {render_token(i)} do not all map to choices of "
                f"{render_token(iota[i])}",
                axiom="[f3]",
                player=i,
            )
    return dict(iota), tau, delta


def as_fraction(value):
    """A utility as the library reads it: an exact rational, floats refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise GameError(
                "NotRational", f"utility text {value[:40]!r} is not an exact rational"
            ) from None
    raise GameError(
        "NotRational",
        f"utility {value!r} is not an exact rational; floats are rejected",
    )


def validate_game_morphism_by_labels(source, target, iota, tau, delta, beta):
    """The maps by label of the game morphism ``(iota, tau, delta, beta)``,
    each utility map keyed by ``Fraction``, or the first broken rule.  The
    end-preserved plays are the source plays whose end maps to a target
    play's end, found by their ends."""
    iota, tau, delta = validate_form_morphism_by_labels(
        source.form, target.form, iota, tau, delta
    )
    by_end = {z.end: z for z in target.tree.plays}
    images = {z: by_end[tau[z.end]] for z in source.tree.plays if tau[z.end] in by_end}
    players = sorted(source.players, key=token_key)

    norm_beta = {}
    for i in beta:
        if i not in source.players:
            raise MorphismError(
                "UnknownPlayer",
                f"utility map given for {render_token(i)}, which is not a source player",
            )
    for i in players:
        if i not in beta:
            raise MorphismError(
                "BetaDomainMismatch",
                f"no utility map for player {render_token(i)}",
                axiom="[g2]",
                player=i,
            )
        bmap = {as_fraction(u): as_fraction(v) for u, v in beta[i].items()}
        if len(bmap) != len(beta[i]):
            raise MorphismError(
                "DuplicateUtility",
                f"utility map of {render_token(i)} names one utility twice",
                axiom="[g2]",
                player=i,
            )
        expected_domain = frozenset(source.utilities[i][z] for z in images)
        if frozenset(bmap) != expected_domain:
            raise MorphismError(
                "BetaDomainMismatch",
                f"utility map of {render_token(i)} is defined on "
                f"{sorted(bmap)} but the end-preserved plays realize "
                f"{sorted(expected_domain)}",
                axiom="[g2]",
                player=i,
            )
        if not frozenset(bmap.values()) <= target.ranges[iota[i]]:
            raise MorphismError(
                "BetaDomainMismatch",
                f"utility map of {render_token(i)} leaves the utility range of "
                f"{render_token(iota[i])}",
                axiom="[g2]",
                player=i,
            )
        ordered = sorted(bmap)
        for u1, u2 in zip(ordered, ordered[1:]):
            if bmap[u1] > bmap[u2]:
                raise MorphismError(
                    "BetaNotMonotone",
                    f"utility map of {render_token(i)} sends {u2} below {u1} "
                    f"although {u2} > {u1}",
                    axiom="[g3]",
                    player=i,
                    lower=u1,
                    upper=u2,
                )
        norm_beta[i] = bmap

    for i in players:
        beta_i, source_row = norm_beta[i], source.utilities[i]
        target_row = target.utilities[iota[i]]
        failing = [
            z for z, image in images.items() if beta_i[source_row[z]] != target_row[image]
        ]
        if failing:
            z = min(failing, key=lambda z: label_key(z.end))
            raise MorphismError(
                "UtilityEquationFails",
                f"player {render_token(i)}: utility map gives "
                f"{beta_i[source_row[z]]} on the play ending at "
                f"{render_label(z.end)} but its image is priced {target_row[images[z]]}",
                axiom="[g4]",
                player=i,
                play=z,
            )
    return iota, tau, delta, norm_beta
