"""Seeded random generation of small trees, morphisms, and games.

Pooling decision nodes of equal branching into shared information sets
occasionally produces absentminded games, which is intentional: the
predicates and conversions must cope with them.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ncgames import (
    build_form,
    build_game,
    build_preform,
    build_tree,
    validate_tree_morphism,
)
from ncgames.labels import Atom


def random_tree(rng: random.Random, max_nodes: int = 9, min_nodes: int = 2):
    n = rng.randint(min_nodes, max_nodes)
    nodes = [Atom(k) for k in range(n)]
    pairs = [(nodes[k], nodes[rng.randrange(k)]) for k in range(1, n)]
    return build_tree(nodes, pairs)


def random_tree_morphism(rng: random.Random, source, target, attempts: int = 40):
    """A random edge-preserving node map, or ``None`` if sampling fails.

    Built root-first: the source root may land anywhere, and each child
    must land on a child of its parent's image, which is exactly the
    edge condition.
    """
    target_nodes = sorted(target.nodes, key=lambda t: (target.stage[t], str(t)))
    order = sorted(source.nodes, key=lambda t: (source.stage[t], str(t)))
    for _ in range(attempts):
        tau = {source.root: rng.choice(target_nodes)}
        ok = True
        for t in order[1:]:
            options = target.children(tau[source.pred[t]])
            if not options:
                ok = False
                break
            tau[t] = rng.choice(options)
        if ok:
            return validate_tree_morphism(source, target, tau)
    return None


def random_game(rng: random.Random, max_nodes: int = 9, max_players: int = 3):
    tree = random_tree(rng, max_nodes=max_nodes)
    by_degree: dict = {}
    for t in tree.decision_nodes:
        by_degree.setdefault(len(tree.children(t)), []).append(t)

    triples = []
    info_sets = []
    counter = 0
    for degree in sorted(by_degree):
        members = sorted(by_degree[degree], key=lambda t: str(t))
        rng.shuffle(members)
        while members:
            take = rng.randint(1, len(members))
            pool, members = members[:take], members[take:]
            choices = [f"c{counter + k}" for k in range(degree)]
            counter += degree
            info_sets.append(choices)
            for t in pool:
                kids = list(tree.children(t))
                rng.shuffle(kids)
                for c, child in zip(choices, kids):
                    triples.append((t, c, child))

    all_choices = [c for group in info_sets for c in group]
    preform = build_preform(tree.nodes, all_choices, triples)

    player_count = rng.randint(1, max_players)
    players = [f"P{k + 1}" for k in range(player_count)]
    ownership = {i: set() for i in players}
    for group in info_sets:
        owner = rng.choice(players)
        ownership[owner].update(group)
    form = build_form(preform, players, ownership)

    utilities = {
        i: {
            z: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for z in preform.tree.plays
        }
        for i in players
    }
    return build_game(form, utilities)


def random_strict_map(rng: random.Random, values):
    """A random strictly increasing map on the given finite set."""
    ordered = sorted(values)
    out = {}
    level = Fraction(rng.randint(-2, 2))
    for u in ordered:
        level += Fraction(rng.randint(1, 4), rng.randint(1, 3))
        out[u] = level
    return out


def centipede_document(rng: random.Random, stages: int, prefix: str = "") -> dict:
    """The ``ncg/1`` document of a two-player centipede with ``stages``
    take-or-pass nodes and seeded utilities.

    Every token starts with ``prefix``, so two documents drawn from
    equally seeded generators under different prefixes are relabellings
    of one game.
    """
    players = [f"{prefix}P1", f"{prefix}P2"]
    ownership = {i: [] for i in players}
    edges, plays, path = [], [], [{"atom": f"{prefix}d0"}]
    for k in range(stages):
        ownership[players[k % 2]] += [f"{prefix}x{k}", f"{prefix}g{k}"]
        leaf = {"atom": f"{prefix}e{k}"}
        nxt = {"atom": f"{prefix}d{k + 1}" if k + 1 < stages else f"{prefix}end"}
        edges += [[path[-1], f"{prefix}x{k}", leaf], [path[-1], f"{prefix}g{k}", nxt]]
        plays.append(path + [leaf])
        path = path + [nxt]
    plays.append(path)
    return {
        "format_version": "ncg/1",
        "players": players,
        "nodes": [edges[0][0]] + [edge[2] for edge in edges],
        "edges": edges,
        "ownership": ownership,
        "utilities": [
            {
                "play": play,
                "values": {i: str(rng.randint(0, stages // 2)) for i in players},
            }
            for play in plays
        ],
    }


def wide_document(rng: random.Random, width: int) -> dict:
    """The ``ncg/1`` document of a root at which P1 picks one of
    ``width`` leaves, all priced alike except one seeded deciding leaf.
    P2 owns no choice, so it is a vacuous player.
    """
    deciding = rng.randrange(width)
    root, leaves = {"atom": "r"}, [{"atom": f"w{k}"} for k in range(width)]
    return {
        "format_version": "ncg/1",
        "players": ["P1", "P2"],
        "nodes": [root] + leaves,
        "edges": [[root, f"c{k}", leaf] for k, leaf in enumerate(leaves)],
        "ownership": {"P1": [f"c{k}" for k in range(width)], "P2": []},
        "utilities": [
            {
                "play": [root, leaf],
                "values": {"P1": str(int(k == deciding)), "P2": str(-int(k == deciding))},
            }
            for k, leaf in enumerate(leaves)
        ],
    }


def stage_pooled_document(rng: random.Random, depth: int, player_count: int) -> dict:
    """The ``ncg/1`` document of a complete binary tree of ``depth``
    stages whose stage ``k`` is one information set with the two choices
    ``a<k>`` and ``b<k>``, owned by player ``k`` modulo ``player_count``,
    with seeded utilities.
    """
    players = [f"P{k + 1}" for k in range(player_count)]
    ownership = {i: [] for i in players}
    edges, frontier, serial = [], [[{"atom": "r"}]], 0
    for stage in range(depth):
        pair = [f"a{stage}", f"b{stage}"]
        ownership[players[stage % player_count]] += pair
        grown = []
        for path in frontier:
            for choice in pair:
                serial += 1
                child = {"atom": f"t{serial}"}
                edges.append([path[-1], choice, child])
                grown.append(path + [child])
        frontier = grown
    return {
        "format_version": "ncg/1",
        "players": players,
        "nodes": [edges[0][0]] + [edge[2] for edge in edges],
        "edges": edges,
        "ownership": ownership,
        "utilities": [
            {"play": path, "values": {i: str(rng.randint(-3, 3)) for i in players}}
            for path in frontier
        ],
    }
