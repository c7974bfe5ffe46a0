"""Seeded generators for the five benchmark game families.

Games are built here as plain data (``RawGame``) and written as ``ncg/1``
documents without going through the library, so the program under test
only ever sees the documents.  Every generator takes a
``random.Random``; the same seed gives the same game.  Nothing here
iterates a ``set``, so the output does not depend on the hash seed.

The families:

* ``perfect_info_binary``: complete binary tree, one information set per
  decision node.
* ``stage_pooled_binary``: complete binary tree whose stage ``k`` is one
  information set with two choices.
* ``centipede``: a chain of take-or-pass nodes alternating between two
  players.
* ``wide_symmetric``: a root with ``width`` leaves, all priced alike
  except one deciding leaf.
* ``absentminded_chain``: a chain of stop-or-go nodes forming one
  information set of one player.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

FORMAT_VERSION = "ncg/1"


@dataclass
class RawGame:
    """A game as plain data: nodes are text tokens, utilities exact."""

    players: List[str]
    root: str
    edges: List[Tuple[str, str, str]]  # (node, choice, successor)
    owner: Dict[str, str]  # choice -> player
    utilities: Dict[str, Dict[str, Fraction]]  # leaf -> player -> value (int or Fraction)

    def nodes(self) -> List[str]:
        return [self.root] + [child for _t, _c, child in self.edges]

    def parent(self) -> Dict[str, str]:
        return {child: t for t, _c, child in self.edges}

    def path(self, leaf: str, parent: Dict[str, str] = None) -> List[str]:
        parent = parent or self.parent()
        out = [leaf]
        while out[-1] != self.root:
            out.append(parent[out[-1]])
        out.reverse()
        return out

    def leaves(self) -> List[str]:
        decision = {t for t, _c, _n in self.edges}
        return [t for t in self.nodes() if t not in decision]

    def info_sets(self) -> List[List[str]]:
        """Choices grouped by the exact set of nodes where they are feasible."""
        at: Dict[str, List[str]] = {}
        for t, c, _n in self.edges:
            at.setdefault(c, []).append(t)
        groups: Dict[Tuple[str, ...], List[str]] = {}
        for c, where in at.items():
            groups.setdefault(tuple(sorted(where)), []).append(c)
        return list(groups.values())

    def grand_strategy_count(self) -> int:
        count = 1
        for choices in self.info_sets():
            count *= len(choices)
        return count


def _values(rng: random.Random, players: List[str], low: int, high: int) -> Dict[str, int]:
    return {i: rng.randint(low, high) for i in players}


def perfect_info_binary(rng: random.Random, depth: int, player_count: int) -> RawGame:
    players = [f"P{k + 1}" for k in range(player_count)]
    edges, owner = [], {}
    frontier, serial = ["r"], 0
    for _stage in range(depth):
        nxt = []
        for t in frontier:
            player = rng.choice(players)
            for side in ("L", "R"):
                serial += 1
                child, choice = f"t{serial}", f"{side}{serial}"
                edges.append((t, choice, child))
                owner[choice] = player
                nxt.append(child)
        frontier = nxt
    utilities = {leaf: _values(rng, players, -3, 3) for leaf in frontier}
    return RawGame(players, "r", edges, owner, utilities)


def stage_pooled_binary(rng: random.Random, depth: int, player_count: int) -> RawGame:
    players = [f"P{k + 1}" for k in range(player_count)]
    edges, owner = [], {}
    frontier, serial = ["r"], 0
    for stage in range(depth):
        player = players[stage % player_count]
        pair = (f"a{stage}", f"b{stage}")
        for choice in pair:
            owner[choice] = player
        nxt = []
        for t in frontier:
            for choice in pair:
                serial += 1
                child = f"t{serial}"
                edges.append((t, choice, child))
                nxt.append(child)
        frontier = nxt
    utilities = {leaf: _values(rng, players, -3, 3) for leaf in frontier}
    return RawGame(players, "r", edges, owner, utilities)


def centipede(rng: random.Random, stages: int) -> RawGame:
    players = ["P1", "P2"]
    edges, owner, utilities = [], {}, {}
    t = "d0"
    for k in range(stages):
        player = players[k % 2]
        take, go = f"x{k}", f"g{k}"
        owner[take] = owner[go] = player
        leaf = f"e{k}"
        nxt = f"d{k + 1}" if k + 1 < stages else "end"
        edges.append((t, take, leaf))
        edges.append((t, go, nxt))
        utilities[leaf] = _values(rng, players, 0, stages // 2)
        t = nxt
    utilities["end"] = _values(rng, players, 0, stages // 2)
    return RawGame(players, "d0", edges, owner, utilities)


def wide_symmetric(rng: random.Random, width: int) -> RawGame:
    """P1 picks one of ``width`` leaves; only one leaf is priced apart.

    P2 owns no choice, so it is a vacuous player.
    """
    players = ["P1", "P2"]
    edges, owner, utilities = [], {}, {}
    deciding = rng.randrange(width)
    for k in range(width):
        choice, leaf = f"c{k}", f"w{k}"
        edges.append(("r", choice, leaf))
        owner[choice] = "P1"
        value = 1 if k == deciding else 0
        utilities[leaf] = {"P1": value, "P2": -value}
    return RawGame(players, "r", edges, owner, utilities)


def absentminded_chain(rng: random.Random, stages: int) -> RawGame:
    """One player who cannot tell the chain's nodes apart."""
    players = ["P1", "P2"]
    edges, utilities = [], {}
    t = "d0"
    for k in range(stages):
        leaf = f"e{k}"
        nxt = f"d{k + 1}" if k + 1 < stages else "end"
        edges.append((t, "stop", leaf))
        edges.append((t, "go", nxt))
        utilities[leaf] = _values(rng, players, -stages, stages)
        t = nxt
    utilities["end"] = _values(rng, players, -stages, stages)
    return RawGame(players, "d0", edges, {"stop": "P1", "go": "P1"}, utilities)


@dataclass
class Relabelling:
    """The renaming applied by :func:`relabel`, kept to translate answers."""

    nodes: Dict[str, str]
    choices: Dict[str, str]
    players: Dict[str, str]


def _fresh_names(rng: random.Random, prefix: str, old: List[str]) -> Dict[str, str]:
    numbers = rng.sample(range(10 * len(old) + 10), len(old))
    salt = rng.randrange(1 << 16)
    return {name: f"{prefix}{salt:x}_{n}" for name, n in zip(old, numbers)}


def relabel(rng: random.Random, g: RawGame) -> Tuple[RawGame, Relabelling]:
    """A randomly renamed copy of ``g``; an isomorphism by construction.

    Each player's utilities also go through a strictly increasing affine
    map, which keeps the equilibria and the isomorphism class, so no two
    copies share a document or a utility table.
    """
    nodes = _fresh_names(rng, "n", g.nodes())
    choices = _fresh_names(rng, "c", list(g.owner))
    players = _fresh_names(rng, "p", g.players)
    scale = {i: (Fraction(rng.randint(1, 5), rng.randint(1, 3)), rng.randint(-9, 9)) for i in g.players}
    values = {
        i: {u: a * u + b for u in {row[i] for row in g.utilities.values()}}
        for i, (a, b) in scale.items()
    }
    edges = [(nodes[t], choices[c], nodes[n]) for t, c, n in g.edges]
    rng.shuffle(edges)
    order = list(g.players)
    rng.shuffle(order)
    copy = RawGame(
        players=[players[i] for i in order],
        root=nodes[g.root],
        edges=edges,
        owner={choices[c]: players[i] for c, i in g.owner.items()},
        utilities={
            nodes[leaf]: {players[i]: values[i][u] for i, u in row.items()}
            for leaf, row in g.utilities.items()
        },
    )
    return copy, Relabelling(nodes, choices, players)


def perturb(rng: random.Random, g: RawGame) -> RawGame:
    """A copy in which one player's utility range gains one value.

    A leaf whose utility that player shares with another leaf gets a
    value outside the range, so the copy's range is one larger and no
    bijective utility map to ``g`` exists: the two are never isomorphic.
    """
    for i in g.players:
        seen: Dict[Fraction, List[str]] = {}
        for leaf in g.leaves():
            seen.setdefault(g.utilities[leaf][i], []).append(leaf)
        tied = [leaves for leaves in seen.values() if len(leaves) > 1]
        if tied:
            leaf = rng.choice(rng.choice(tied))
            fresh = max(seen) + 1
            utilities = {t: dict(row) for t, row in g.utilities.items()}
            utilities[leaf][i] = fresh
            return RawGame(list(g.players), g.root, list(g.edges), dict(g.owner), utilities)
    raise ValueError("no player has tied utilities to perturb")


def to_document(g: RawGame) -> dict:
    """The ``ncg/1`` game document for ``g``."""
    ownership: Dict[str, List[str]] = {i: [] for i in g.players}
    for c, i in g.owner.items():
        ownership[i].append(c)
    parent = g.parent()
    return {
        "format_version": FORMAT_VERSION,
        "players": list(g.players),
        "nodes": [{"atom": t} for t in g.nodes()],
        "edges": [[{"atom": t}, c, {"atom": n}] for t, c, n in g.edges],
        "ownership": ownership,
        "utilities": [
            {
                "play": [{"atom": t} for t in g.path(leaf, parent)],
                "values": {i: str(g.utilities[leaf][i]) for i in g.players},
            }
            for leaf in g.leaves()
        ],
    }


def morphism_document(
    source_path: str, target_path: str, source: RawGame, renaming: Relabelling, target: RawGame
) -> dict:
    """The ``ncg/1`` morphism document of a relabelling, games by path."""
    beta = {}
    for i in source.players:
        pairs = {}
        for leaf, row in source.utilities.items():
            pairs[row[i]] = target.utilities[renaming.nodes[leaf]][renaming.players[i]]
        beta[i] = [[str(u), str(v)] for u, v in sorted(pairs.items())]
    return {
        "format_version": FORMAT_VERSION,
        "source": source_path,
        "target": target_path,
        "iota": [[i, renaming.players[i]] for i in source.players],
        "tau": [[{"atom": t}, {"atom": renaming.nodes[t]}] for t in source.nodes()],
        "delta": [[c, renaming.choices[c]] for c in source.owner],
        "beta": beta,
    }
