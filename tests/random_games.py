"""Seeded random generation of small trees, morphisms, and games.

Pooling decision nodes of equal branching into shared information sets
occasionally produces absentminded games, which is intentional: the
predicates and conversions must cope with them.

The scalable families (centipedes, wide trees, stage-pooled trees) are
not generated here: ``families`` is ``bench/families.py``, the
benchmark's own generator, and a test's document is
``families.to_document(families.centipede(rng, n))`` or the like.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

from ncgames import (
    GameError,
    build_form,
    build_game,
    build_preform,
    build_tree,
    compose,
    is_isomorphism,
    subgame_at,
    validate_tree_morphism,
)
from ncgames.labels import Atom, label_key
from ncgames.transforms import apply_utility_transform, relabel_game

_path = Path(__file__).resolve().parents[1] / "bench" / "families.py"
_spec = importlib.util.spec_from_file_location("ncg_bench_families", _path)
families = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)  # read by ``dataclass``
_spec.loader.exec_module(families)


def prefixed(raw, prefix: str):
    """``raw`` with every player, choice and node token led by ``prefix``: a relabelling."""
    p = prefix.__add__
    return families.RawGame(
        [p(i) for i in raw.players], p(raw.root), [tuple(map(p, edge)) for edge in raw.edges],
        {p(c): p(i) for c, i in raw.owner.items()},
        {p(z): {p(i): u for i, u in row.items()} for z, row in raw.utilities.items()},
    )


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


def pooled_chain_game(stages: int, pooled):
    """A one-player chain of ``stages`` stop-or-go nodes whose stop
    choices each lead to a left-or-right node with two leaves.

    The chain nodes at the depths in ``pooled`` form one information
    set, so the game is absentminded exactly when there are two of them;
    the left-or-right nodes form one set of pairwise incomparable nodes.
    """
    triples = []
    for k in range(stages):
        t, side = Atom(f"d{k}"), Atom(f"s{k}")
        go, stop = ("go", "stop") if k in pooled else (f"go{k}", f"stop{k}")
        after = Atom(f"d{k + 1}" if k + 1 < stages else "end")
        triples += [(t, go, after), (t, stop, side)]
        triples += [(side, "left", Atom(f"l{k}")), (side, "right", Atom(f"r{k}"))]
    nodes = {u for t, _c, t_next in triples for u in (t, t_next)}
    choices = {c for _t, c, _n in triples}
    preform = build_preform(nodes, choices, triples)
    form = build_form(preform, ["P1"], {"P1": choices})
    return build_game(form, {"P1": {z: Fraction(0) for z in preform.tree.plays}})


def random_strict_map(rng: random.Random, values):
    """A random strictly increasing map on the given finite set."""
    ordered = sorted(values)
    out = {}
    level = Fraction(rng.randint(-2, 2))
    for u in ordered:
        level += Fraction(rng.randint(1, 4), rng.randint(1, 3))
        out[u] = level
    return out


def random_iso_witness(rng: random.Random, game):
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


def subgame_inclusion(g, t_star):
    """The maps by label of the inclusion of the subgame of ``g`` at
    ``t_star`` into ``g``, a morphism that keeps every play's end, with
    the subgame; ``None`` when the up-set of ``t_star`` cuts an
    information set."""
    try:
        sub = subgame_at(g, t_star)
    except GameError:
        return None
    maps = (
        {i: i for i in sub.players},
        {t: t for t in sub.tree.nodes},
        {c: c for c in sub.preform.choices},
        {i: {u: u for u in sub.ranges[i]} for i in sub.players},
    )
    return sub, maps


# the edits ``perturbed_maps`` draws from, each (map, edit)
EDITS = [
    (name, edit)
    for name in ("iota", "tau", "delta")
    for edit in ("move", "swap", "drop", "stray key", "stray value")
] + [("tau", "move")] * 3 + [
    ("beta", edit)
    for edit in ("shift", "shift", "move", "move", "drop", "add", "text", "float",
                 "drop player", "stray player")
]


def perturbed_maps(rng: random.Random, source, target, maps, edits: int) -> tuple:
    """``maps``, the (iota, tau, delta, beta) of a candidate morphism from
    ``source`` to ``target`` by label, copied with ``edits`` random edits,
    so that most break some rule of some layer: an image moved, two
    images swapped, an entry dropped, a key or an image that is no
    element, a utility map shifted one utility up its target's range, a
    utility named twice, or one that is no exact rational."""
    iota, tau, delta = (dict(m) for m in maps[:3])
    beta = {i: dict(bmap) for i, bmap in maps[3].items()}
    domains = {
        "iota": sorted(source.players), "tau": sorted(source.tree.nodes, key=label_key),
        "delta": sorted(source.preform.choices),
    }
    images = {
        "iota": sorted(target.players), "tau": sorted(target.tree.nodes, key=label_key),
        "delta": sorted(target.preform.choices),
    }
    strays = {"iota": "P9", "tau": Atom("stray"), "delta": "c99"}
    for _ in range(edits):
        name, edit = rng.choice(EDITS)
        if name != "beta":
            mapping, keys = {"iota": iota, "tau": tau, "delta": delta}[name], domains[name]
            key = rng.choice(keys)
            if edit == "move":
                mapping[key] = rng.choice(images[name])
            elif edit == "swap":
                other = rng.choice(keys)
                if key in mapping and other in mapping:
                    mapping[key], mapping[other] = mapping[other], mapping[key]
            elif edit == "drop":
                mapping.pop(key, None)
            elif edit == "stray key":
                mapping[strays[name]] = rng.choice(images[name])
            else:
                mapping[key] = strays[name]
            continue
        players = sorted(beta)
        if edit == "stray player" or not players:
            beta["P9"] = {}
            continue
        i = rng.choice(players)
        if edit == "drop player":
            del beta[i]
            continue
        bmap, j = beta[i], iota.get(i)
        ranged = sorted(target.ranges[j]) if j in target.players else [Fraction(0)]
        keys = sorted(bmap, key=Fraction)
        if edit == "shift":
            up = {v: w for v, w in zip(ranged, ranged[1:] + ranged[-1:])}
            beta[i] = {u: up.get(v, v) for u, v in bmap.items()}
        elif edit == "move" and keys:
            bmap[rng.choice(keys)] = rng.choice(ranged)
        elif edit == "drop" and keys:
            del bmap[rng.choice(keys)]
        elif edit == "add":
            bmap[Fraction(rng.randint(-3, 3), rng.randint(1, 3))] = rng.choice(ranged)
        elif edit == "text" and keys:
            u = rng.choice(keys)
            bmap[str(u)] = bmap[u]  # the same utility, named twice
        elif edit == "float" and keys:
            u = rng.choice(keys)
            bmap[u] = float(bmap[u])
    return iota, tau, delta, beta
