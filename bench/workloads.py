"""The three job mixes, their inputs, and the answers each job must give.

A workload is a list of rounds; a round is a fixed sequence of jobs and
every job gets freshly generated documents, so no document serves two
jobs of a run.  Expected answers come from the generators (by
construction) or, for equilibria, from an outcome-table enumeration over
the generator's own data; :func:`cross_check_nash` compares that
enumeration with the test suite's deviation-scan oracle.  Nothing here
reads the output under test to decide what is right.

Why these mixes:

* ``solve``: ``nash``, ``derive`` and ``validate`` on stage-pooled and
  perfect-information binary trees.  Time goes to strategy enumeration,
  ``play_of`` and deviation scanning; no morphism is validated, no game
  converted, no isomorphism searched.
* ``structure``: conversions to canonical and choice-sequence style, the
  ``iso-check`` of each witness just written, subgames and composition
  of relabelling morphisms.  Time goes to morphism validation at all
  four layers, rebuilding preforms and writing large documents; no
  strategy is enumerated and nothing is searched.
* ``iso``: ``iso`` on isomorphic and non-isomorphic pairs.  Time goes to
  backtracking and to candidate morphisms that mostly fail validation;
  no equilibrium is computed.

In each mix the slowest job class is about a fifth of the jobs, so the
90th percentile falls inside that class rather than on a border between
two classes; and the jobs around the median take about the same time, so
the median does not jump between classes either.  In ``iso`` the median
falls among the exhaustive searches of width-6 trees, whose work does
not depend on where a search happens to find a mismatch; in
``structure`` among the canonical conversions of 25-stage centipedes.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

import families as fam

# (command, family, size, players); sizes are (full, tiny).
SOLVE_ROUND = [
    ("nash", "pooled", (9, 4), 3),
    ("nash", "pooled", (9, 4), 3),
    ("nash", "pooled", (8, 4), 2),
    ("nash", "perfect", (3, 2), 2),
    ("nash", "pooled", (7, 3), 3),
    ("nash", "pooled", (6, 3), 2),
    ("derive", "pooled", (9, 4), 3),
    ("derive", "perfect", (3, 2), 3),
    ("validate", "pooled", (9, 4), 2),
    ("validate", "perfect", (3, 2), 3),
]

# (command, family, size); each convert is followed by an iso-check of its witness.
STRUCTURE_ROUND = [
    ("canonical", "centipede", (60, 6)),
    ("canonical", "centipede", (60, 6)),
    ("canonical", "centipede", (60, 6)),
    ("csq", "centipede", (40, 5)),
    ("canonical", "centipede", (25, 4)),
    ("canonical", "centipede", (25, 4)),
    ("canonical", "centipede", (25, 4)),
    ("canonical", "chain", (30, 4)),
    ("csq", "chain", (15, 3)),
    ("subgame", "centipede", (60, 6)),
    ("compose", "centipede", (30, 4)),
]

# (family, size, players); each base game gives an isomorphic and a non-isomorphic pair.
# Every size leaves some player with tied utilities (pigeonhole), which the
# non-isomorphic copy needs.
ISO_ROUND = [
    ("centipede", (120, 8), 2),
    ("centipede", (120, 8), 2),
    ("centipede", (120, 8), 2),
    ("centipede", (120, 8), 2),
    ("centipede", (60, 5), 2),
    ("wide", (6, 3), 2),
    ("wide", (6, 4), 2),
    ("wide", (6, 3), 2),
    ("wide", (6, 4), 2),
    ("wide", (6, 3), 2),
    ("wide", (6, 4), 2),
    ("pooled", (3, 3), 3),
]

WORKLOADS = ("solve", "structure", "iso")

#: Wall time of one round on the reference machine (seconds); only used to
#: size the pool of inputs so that a run does not exhaust it.
ROUND_SECONDS = {"solve": 1.4, "structure": 3.3, "iso": 3.4}


@dataclass
class Job:
    argv: List[str]
    kind: str  # the job class, e.g. "nash pooled-9x3"
    expect: dict


@dataclass
class Plan:
    jobs: List[Job] = field(default_factory=list)
    round_size: int = 0
    #: one game per equilibrium job class, with the expected equilibria
    nash_samples: Dict[str, tuple] = field(default_factory=dict)


def _game(rng, family: str, size: int, players: int = 2) -> fam.RawGame:
    if family == "pooled":
        return fam.stage_pooled_binary(rng, size, players)
    if family == "perfect":
        return fam.perfect_info_binary(rng, size, players)
    if family == "centipede":
        return fam.centipede(rng, size)
    if family == "chain":
        return fam.absentminded_chain(rng, size)
    if family == "wide":
        return fam.wide_symmetric(rng, size)
    raise ValueError(family)


def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc))


def nash_by_outcome_table(g: fam.RawGame) -> set:
    """Pure equilibria from the table of outcomes of every grand strategy.

    A profile is an equilibrium when every player's utility equals the
    best they can get with the other players' components held fixed.
    """
    info = g.info_sets()
    children: Dict[str, Dict[str, str]] = {}
    for t, c, n in g.edges:
        children.setdefault(t, {})[c] = n
    profiles = list(itertools.product(*info))
    payoffs = []
    for s in profiles:
        chosen, t = set(s), g.root
        while t in children:
            (t,) = [n for c, n in children[t].items() if c in chosen]
        payoffs.append(g.utilities[t])
    stable = [True] * len(profiles)
    for i in g.players:
        mine = {k for k, choices in enumerate(info) if g.owner[choices[0]] == i}
        keys = [tuple(c for k, c in enumerate(s) if k not in mine) for s in profiles]
        best: Dict[tuple, Fraction] = {}
        for key, u in zip(keys, payoffs):
            if key not in best or u[i] > best[key]:
                best[key] = u[i]
        for n, (key, u) in enumerate(zip(keys, payoffs)):
            if u[i] < best[key]:
                stable[n] = False
    return {frozenset(s) for s, ok in zip(profiles, stable) if ok}


def _derive_lines(g: fam.RawGame) -> int:
    """Lines of ``ncg derive``: eight headers, then plays, information
    sets, players and the strategy-to-play table."""
    return 8 + len(g.leaves()) + len(g.info_sets()) + len(g.players) + g.grand_strategy_count()


def _solve_round(rng, plan: Plan, work: Path, r: int, tiny: bool) -> None:
    for k, (command, family, sizes, players) in enumerate(SOLVE_ROUND):
        size = sizes[tiny]
        # fresh tokens per game, so set-iteration order differs between games
        g, _ = fam.relabel(rng, _game(rng, family, size, players))
        path = f"r{r}-{k}.game"
        _write(work / path, fam.to_document(g))
        kind = f"{command} {family}-{size}x{players}"
        if command == "nash":
            expect = {"equilibria": sorted(sorted(s) for s in nash_by_outcome_table(g))}
            plan.nash_samples.setdefault(kind, (g, expect["equilibria"]))
        elif command == "derive":
            expect = {"lines": _derive_lines(g), "first": "players: " + ",".join(sorted(g.players))}
        else:
            expect = {
                "line": f"ok: {len(g.players)} players, {len(g.nodes())} nodes, "
                f"{len(g.owner)} choices, {len(g.leaves())} plays, "
                f"{g.grand_strategy_count()} grand strategies"
            }
        plan.jobs.append(Job([command, path], kind, dict(expect, command=command)))


def _structure_round(rng, plan: Plan, work: Path, r: int, tiny: bool) -> None:
    for k, (command, family, sizes) in enumerate(STRUCTURE_ROUND):
        size = sizes[tiny]
        g = _game(rng, family, size)
        stem = f"r{r}-{k}"
        kind = f"{command} {family}-{size}"
        if command in ("canonical", "csq"):
            _write(work / f"{stem}.game", fam.to_document(g))
            style = "choice-set" if command == "canonical" and family == "centipede" else "choice-sequence"
            out, wit = f"{stem}.out.game", f"{stem}.witness"
            plan.jobs.append(Job(
                ["convert", "--to", command, f"{stem}.game", "-o", out, "-w", wit],
                kind, {"command": "convert", "style": style, "output": out, "game": g},
            ))
            plan.jobs.append(Job(["iso-check", wit], f"iso-check {family}-{size}", {"command": "iso-check"}))
        elif command == "subgame":
            _write(work / f"{stem}.game", fam.to_document(g))
            at, out = f"d{size // 2}", f"{stem}.sub.game"
            plan.jobs.append(Job(
                ["subgame", f"{stem}.game", "--at", at, "-o", out],
                kind, {"command": "subgame", "output": out, "game": g, "at": at},
            ))
        else:
            b, first = fam.relabel(rng, g)
            c, second = fam.relabel(rng, b)
            names = [f"{stem}.{x}.game" for x in "abc"]
            for name, game in zip(names, (g, b, c)):
                _write(work / name, fam.to_document(game))
            _write(work / f"{stem}.f.morphism", fam.morphism_document(names[0], names[1], g, first, b))
            _write(work / f"{stem}.g.morphism", fam.morphism_document(names[1], names[2], b, second, c))
            composite = fam.Relabelling(
                {t: second.nodes[u] for t, u in first.nodes.items()},
                {x: second.choices[y] for x, y in first.choices.items()},
                {i: second.players[j] for i, j in first.players.items()},
            )
            out = f"{stem}.fg.morphism"
            plan.jobs.append(Job(
                ["compose", f"{stem}.f.morphism", f"{stem}.g.morphism", "-o", out],
                kind,
                {"command": "compose", "output": out,
                 "morphism": fam.morphism_document(names[0], names[2], g, composite, c)},
            ))


def _iso_round(rng, plan: Plan, work: Path, r: int, tiny: bool) -> None:
    for k, (family, sizes, players) in enumerate(ISO_ROUND):
        size = sizes[tiny]
        g = _game(rng, family, size, players)
        for pair, isomorphic in (("same", True), ("other", False)):
            left, _ = fam.relabel(rng, g)
            right, _ = fam.relabel(rng, g if isomorphic else fam.perturb(rng, g))
            stem = f"r{r}-{k}-{pair}"
            _write(work / f"{stem}.a.game", fam.to_document(left))
            _write(work / f"{stem}.b.game", fam.to_document(right))
            wit = f"{stem}.witness"
            plan.jobs.append(Job(
                ["iso", f"{stem}.a.game", f"{stem}.b.game", "-w", wit],
                f"iso {family}-{size}x{players} {'isomorphic' if isomorphic else 'non-isomorphic'}",
                {"command": "iso", "isomorphic": isomorphic, "witness": wit,
                 "nodes": (left.nodes(), right.nodes())},
            ))


ROUNDS = {"solve": _solve_round, "structure": _structure_round, "iso": _iso_round}


def build(workload: str, seed: int, rounds: int, work: Path, tiny: bool = False) -> Plan:
    """Write ``rounds`` rounds of inputs into ``work``; the seed fixes them all."""
    rng = random.Random(f"{workload}/{seed}")
    plan = Plan()
    for r in range(rounds):
        ROUNDS[workload](rng, plan, work, r, tiny)
    plan.round_size = len(plan.jobs) // rounds
    return plan


def _load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("ncg_test_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _library_game(g: fam.RawGame):
    """The same game built through the library's builders (for the oracle)."""
    from ncgames import Atom, build_form, build_game, build_preform

    preform = build_preform(
        [Atom(t) for t in g.nodes()], list(g.owner), [(Atom(t), c, Atom(n)) for t, c, n in g.edges]
    )
    assignment = {i: [c for c, owner in g.owner.items() if owner == i] for i in g.players}
    form = build_form(preform, g.players, assignment)
    parent = g.parent()
    utilities = {
        i: {frozenset(Atom(t) for t in g.path(leaf, parent)): row[i] for leaf, row in g.utilities.items()}
        for i in g.players
    }
    return build_game(form, utilities)


def cross_check_nash(plan: Plan, root: Path) -> None:
    """Compare the outcome-table equilibria with the deviation-scan oracle
    on one game of every equilibrium job class."""
    if not plan.nash_samples:
        return
    oracles = _load_oracles(root)
    for kind, (g, expected) in plan.nash_samples.items():
        found = sorted(sorted(s) for s in oracles.nash_by_deviation_scan(_library_game(g)))
        if found != expected:
            raise RuntimeError(f"reference equilibria disagree with the oracle on {kind}")


# --- checking answers -------------------------------------------------------


def _strategies(stdout: str) -> List[List[str]]:
    out = []
    for line in stdout.splitlines():
        if not (line.startswith("{") and line.endswith("}")):
            return [["unparsable:", line]]
        out.append(sorted(line[1:-1].split(",")) if len(line) > 2 else [])
    return sorted(out)


def _atom(spec) -> str:
    return spec["atom"]


def _check_converted(doc: dict, g: fam.RawGame, style: str) -> Optional[str]:
    kind = "set" if style == "choice-set" else "seq"
    if len(doc["nodes"]) != len(g.nodes()) or len(doc["utilities"]) != len(g.leaves()):
        return "converted game has the wrong number of nodes or plays"
    if any(list(spec) != [kind] for spec in doc["nodes"]):
        return f"converted nodes are not {kind} labels"
    for t, c, n in doc["edges"]:
        if kind == "seq":
            grows = n[kind] == t[kind] + [c]
        else:
            grows = c not in t[kind] and sorted(n[kind]) == sorted(t[kind] + [c])
        if not grows:
            return "a converted edge does not add its choice to the history"
    parent = g.parent()
    prev_choice = {n: c for _t, c, n in g.edges}
    by_history = {}
    for leaf, row in g.utilities.items():
        history = [prev_choice[n] for n in g.path(leaf, parent)[1:]]
        key = tuple(history) if kind == "seq" else tuple(sorted(history))
        by_history[key] = {i: str(u) for i, u in row.items()}
    for entry in doc["utilities"]:
        end = entry["play"][-1][kind]
        key = tuple(end) if kind == "seq" else tuple(sorted(end))
        if by_history.get(key) != entry["values"]:
            return "a converted play is priced differently from the original"
    return None


def _check_subgame(doc: dict, g: fam.RawGame, at: str) -> Optional[str]:
    parent = g.parent()
    keep = [t for t in g.nodes() if at in g.path(t, parent)]
    if sorted(_atom(s) for s in doc["nodes"]) != sorted(keep):
        return "subgame has the wrong nodes"
    leaves = {leaf for leaf in g.leaves() if leaf in keep}
    for entry in doc["utilities"]:
        leaf = _atom(entry["play"][-1])
        if leaf not in leaves or entry["values"] != {i: str(u) for i, u in g.utilities[leaf].items()}:
            return "a subgame play is priced differently from its extension"
        leaves.discard(leaf)
    return "subgame misses a play" if leaves else None


def _morphism_maps(doc: dict) -> tuple:
    return (
        sorted(map(tuple, doc["iota"])),
        sorted((_atom(a), _atom(b)) for a, b in doc["tau"]),
        sorted(map(tuple, doc["delta"])),
        {i: sorted((Fraction(u), Fraction(v)) for u, v in pairs) for i, pairs in doc["beta"].items()},
    )


def _check_witness(doc: dict, left: List[str], right: List[str]) -> Optional[str]:
    tau = [(_atom(a), _atom(b)) for a, b in doc["morphism"]["tau"]]
    if sorted(a for a, _b in tau) != sorted(left) or sorted(b for _a, b in tau) != sorted(right):
        return "witness node map is not a bijection between the two games"
    return None


def check(job: Job, record: dict, work: Path) -> Optional[str]:
    """Why the job's answer is wrong, or ``None`` when it is right."""
    if record["error"] is not None:
        return record["error"]
    expect, lines = job.expect, record["stdout"].splitlines()
    command, code = expect["command"], record["code"]
    if command == "iso":
        if expect["isomorphic"]:
            if code != 0 or lines[:1] != ["isomorphic"]:
                return "isomorphic pair not found isomorphic"
            doc = json.loads((work / expect["witness"]).read_text())
            return _check_witness(doc, *expect["nodes"])
        if code != 1 or lines != ["not isomorphic"]:
            return "non-isomorphic pair not reported as such"
        return None
    if code != 0:
        return f"exit code {code}: {lines[:1]}"
    if command == "nash":
        return None if _strategies(record["stdout"]) == expect["equilibria"] else "wrong equilibria"
    if command == "derive":
        ok = len(lines) == expect["lines"] and lines[0] == expect["first"]
        return None if ok else "derive report has the wrong shape"
    if command == "validate":
        return None if lines == [expect["line"]] else "wrong validate summary"
    if command == "iso-check":
        return None if lines == ["valid isomorphism witness"] else "witness not confirmed"
    doc = json.loads((work / expect["output"]).read_text())
    if command == "convert":
        if lines[:1] != [f"style: {expect['style']}"]:
            return "wrong style reached"
        return _check_converted(doc, expect["game"], expect["style"])
    if command == "subgame":
        return _check_subgame(doc, expect["game"], expect["at"])
    if command == "compose":
        return None if _morphism_maps(doc) == _morphism_maps(expect["morphism"]) else "wrong composite"
    raise ValueError(command)
