"""Games: a form plus one exact-rational utility function per player.

Utilities are :class:`fractions.Fraction` values keyed by plays.  Exact
arithmetic is not a nicety here: morphism validation demands exact
order and equality of utilities, and floats would produce spurious
failures.  Each utility function's codomain is defined to be its range,
so surjectivity holds by construction.

A game morphism carries player, node, and choice maps plus one finite
weakly increasing utility map per player, defined exactly on the
utilities of the end-preserved plays.  Only maps from outside the
library are validated; identities, composites and inverses are
morphisms by theorem, built directly.  Isomorphisms are the morphisms
whose every component bijects; they come with an explicit inverse,
packaged as an :class:`IsoWitness` so third parties can re-validate
without searching.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import prod
from types import SimpleNamespace
from typing import Dict, Iterable, Mapping, Optional

from .errors import GameError, MorphismError, SearchBudgetExceeded
from .form import (
    Form,
    FormMorphism,
    build_form,
    identity_form_morphism,
    is_subform,
    player_strategies,
    validate_form_morphism,
)
from .labels import NodeLabel, Token, render_label, render_token
from .preform import (
    DEFAULT_STRATEGY_CAP,
    Preform,
    _pools,
    _preform_from_ids,
    _walk,
    is_grand_strategy,
    render_strategy,
)
from .tree import (
    Play,
    Structural,
    Tree,
    TreeMorphism,
    _is_bijection,
    _play_with_ids,
    _up_set,
    check_composable,
    is_tree_isomorphism,
)

__all__ = [
    "DEFAULT_SEARCH_BUDGET",
    "Game",
    "GameMorphism",
    "IsoWitness",
    "build_game",
    "validate_game_morphism",
    "identity_morphism",
    "compose",
    "is_isomorphism",
    "find_isomorphism",
    "is_subgame",
    "subgame_at",
    "nash_equilibria",
    "is_nash",
]

DEFAULT_SEARCH_BUDGET = 200_000


@dataclass(frozen=True, eq=False)
class Game(Structural):
    """A validated game: form plus per-player utility tables over plays.

    ``_ids`` keeps each player's utilities by play position in
    ``Tree.play_by_end``, ``values``, and the positions in the order the
    player's row priced them, ``rows``.  ``utilities``, the tables in
    that order, is a view over them built on first read, which equality
    and hashing read with ``form``."""

    form: Form
    ranges: Mapping[Token, frozenset] = field(compare=False)
    _ids: SimpleNamespace = field(compare=False, repr=False)

    _defining_views = ("utilities",)

    def __repr__(self) -> str:
        return f"Game({self.form!r})"

    @cached_property
    def utilities(self) -> Mapping[Token, Mapping[Play, Fraction]]:
        plays = list(self.tree.play_by_end.values())
        return {
            i: {plays[p]: values[p] for p in self._ids.rows[i]}
            for i, values in self._ids.values.items()
        }

    @property
    def preform(self) -> Preform:
        return self.form.preform

    @property
    def tree(self) -> Tree:
        return self.form.preform.tree

    @property
    def players(self) -> frozenset:
        return self.form.players

    @property
    def plays(self) -> frozenset:
        return self.tree.plays

    def play_with_members(self, members: Iterable[NodeLabel]) -> Optional[Play]:
        tree = self.tree
        end = _play_with_ids(tree._ids.plays, _node_ids(tree, members))
        return None if end is None else tree.play_by_end[tree._ids.labels[end]]


def _node_ids(tree: Tree, members: Iterable[NodeLabel]) -> frozenset:
    """The ids of ``members``, -1 standing for any that is no node."""
    order, rank = tree._ids.order, tree.rank
    return frozenset(order[rank[t]] if t in rank else -1 for t in members)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):  # also past the digit limit
            raise GameError(
                "NotRational", f"utility text {value[:40]!r} is not an exact rational"
            ) from None
    raise GameError(
        "NotRational",
        f"utility {value!r} is not an exact rational; floats are rejected",
    )


def build_game(form: Form, utilities: Mapping) -> Game:
    """Validate a utility table: every play priced for every player.

    A table is keyed by plays, or by the sets of their nodes, each found
    by the ids of its nodes."""
    tree = form.preform.tree
    plays = tree._ids.plays

    def slots(row):
        for key, value in row.items():
            nodes = key.path if isinstance(key, Play) else key
            end = _play_with_ids(plays, _node_ids(tree, nodes))
            yield (frozenset(nodes) if end is None else plays[end][0]), value

    return _priced(form, {i: slots(row) for i, row in utilities.items()})


def _priced(form: Form, rows: Mapping) -> Game:
    """[G2] over utility rows whose keys are play positions.

    ``rows`` maps each player to its ``(slot, value)`` pairs, in row
    order; a slot is the position of the priced play in ``play_by_end``,
    or the node set of a key that is no play.  Each pair is checked as
    it comes, so the first broken rule is the one reported, and each
    player's values are listed by position once, in row order.  A range
    holds a row's distinct value objects, so values that share one
    object (as a document's equal texts do) are hashed once per row."""
    tree = form.preform.tree
    labels, ends = tree._ids.labels, list(tree._ids.plays)
    for i in rows:
        if i not in form.players:
            raise GameError(
                "UnknownPlayer",
                f"utility table mentions undeclared player {render_token(i)}",
            )
    values: Dict[Token, list] = {}
    order: Dict[Token, list] = {}
    ranges: Dict[Token, frozenset] = {}
    for i in form.player_rank:
        if i not in rows:
            raise GameError(
                "MissingUtility",
                f"no utility row for player {render_token(i)}",
                axiom="[G2]",
                player=i,
            )
        by_play: list = [None] * len(ends)
        priced: list = []
        for p, value in rows[i]:
            if not isinstance(p, int):
                listing = ",".join(sorted((render_label(t) for t in p)))
                raise GameError(
                    "UnknownPlayInTable",
                    f"utility row of {render_token(i)} prices {{{listing}}}, "
                    "which is not a play",
                    axiom="[G2]",
                )
            if by_play[p] is not None:
                raise GameError(
                    "DuplicateUtility",
                    f"utility row of {render_token(i)} prices the play ending at "
                    f"{render_label(labels[ends[p]])} twice",
                    axiom="[G2]",
                    player=i,
                )
            priced.append(p)
            by_play[p] = _as_fraction(value)
        if len(priced) != len(ends):
            # in play order, so the first unpriced play is reported
            end = labels[ends[by_play.index(None)]]
            raise GameError(
                "MissingUtility",
                f"player {render_token(i)} has no utility for the play ending at "
                f"{render_label(end)}",
                axiom="[G2]",
                player=i,
                play=tree.play_by_end[end],
            )
        values[i], order[i] = by_play, priced
        ranges[i] = frozenset({id(u): u for u in map(by_play.__getitem__, priced)}.values())
    return Game(form=form, ranges=ranges, _ids=SimpleNamespace(values=values, rows=order))


@dataclass(frozen=True, eq=False)
class GameMorphism(Structural):
    """A game morphism; its lower layers and end-preserved plays are views of its maps."""

    source: Game
    target: Game
    iota: Mapping[Token, Token]
    tau: Mapping[NodeLabel, NodeLabel]
    delta: Mapping[Token, Token]
    beta: Mapping[Token, Mapping[Fraction, Fraction]]

    @cached_property
    def form_morphism(self) -> FormMorphism:
        return FormMorphism(
            self.source.form, self.target.form, self.iota, self.tau, self.delta
        )

    @cached_property
    def theta(self) -> TreeMorphism:
        return self.form_morphism.preform_morphism.tree_morphism

    @cached_property
    def end_preserved(self) -> frozenset:
        return frozenset(self.theta.play_images)


@dataclass(frozen=True)
class IsoWitness:
    """An isomorphism with its explicit inverse, built by inversion."""

    morphism: GameMorphism
    inverse: GameMorphism


def validate_game_morphism(
    source: Game,
    target: Game,
    iota: Mapping,
    tau: Mapping,
    delta: Mapping,
    beta: Mapping,
) -> GameMorphism:
    """Check the component maps and the utility conditions.

    The utility maps must be defined exactly on the utilities of the
    end-preserved plays, land in the target player's utility range, be
    weakly increasing, and reproduce the target utility of every
    end-preserved play's image.
    """
    form_morphism = validate_form_morphism(source.form, target.form, iota, tau, delta)
    images = TreeMorphism(source.tree, target.tree, form_morphism.tau).play_images

    norm_beta: Dict[Token, Dict[Fraction, Fraction]] = {}
    for i in beta:
        if i not in source.players:
            raise MorphismError(
                "UnknownPlayer",
                f"utility map given for {render_token(i)}, which is not a source player",
            )
    for i in source.form.player_rank:
        if i not in beta:
            raise MorphismError(
                "BetaDomainMismatch",
                f"no utility map for player {render_token(i)}",
                axiom="[g2]",
                player=i,
            )
        bmap = {_as_fraction(u): _as_fraction(v) for u, v in beta[i].items()}
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
        if not frozenset(bmap.values()) <= target.ranges[form_morphism.iota[i]]:
            raise MorphismError(
                "BetaDomainMismatch",
                f"utility map of {render_token(i)} leaves the utility range of "
                f"{render_token(form_morphism.iota[i])}",
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

    for i in source.form.player_rank:
        beta_i, source_row = norm_beta[i], source.utilities[i]
        target_row = target.utilities[form_morphism.iota[i]]
        failing = [
            z for z, image in images.items() if beta_i[source_row[z]] != target_row[image]
        ]
        if failing:
            # the least by rank, so every run names the same play
            z = min(failing, key=lambda z: source.tree.rank[z.end])
            raise MorphismError(
                "UtilityEquationFails",
                f"player {render_token(i)}: utility map gives "
                f"{beta_i[source_row[z]]} on the play ending at "
                f"{render_label(z.end)} but its image is priced {target_row[images[z]]}",
                axiom="[g4]",
                player=i,
                play=z,
            )

    return GameMorphism(
        source, target, form_morphism.iota, form_morphism.tau, form_morphism.delta, norm_beta
    )


def identity_morphism(g: Game) -> GameMorphism:
    """The identity on ``g``, built unvalidated: a morphism by theorem."""
    below = identity_form_morphism(g.form)
    beta = {i: {u: u for u in g.ranges[i]} for i in g.players}
    return GameMorphism(g, g, below.iota, below.tau, below.delta, beta)


def compose(second: GameMorphism, first: GameMorphism) -> GameMorphism:
    """``first`` and then ``second``, unvalidated: a morphism by theorem.

    The utility maps chain on the utilities of the plays end-preserved
    by the composite node map, where both are defined: a morphism keeps
    decision nodes, so ``first`` preserves such a play and ``second`` its image.
    """
    check_composable(second, first)
    iota = {i: second.iota[first.iota[i]] for i in first.source.players}
    tau = {t: second.tau[first.tau[t]] for t in first.source.tree.nodes}
    delta = {c: second.delta[first.delta[c]] for c in first.source.preform.choices}
    images = TreeMorphism(first.source.tree, second.target.tree, tau).play_images
    beta: Dict[Token, Dict[Fraction, Fraction]] = {}
    for i in first.source.players:
        b1, b2 = first.beta[i], second.beta[first.iota[i]]
        realized = {first.source.utilities[i][z] for z in images}
        beta[i] = {u: b2[b1[u]] for u in realized}
    return GameMorphism(first.source, second.target, iota, tau, delta, beta)


def is_isomorphism(m: GameMorphism) -> Optional[IsoWitness]:
    """An explicit inverse when every component bijects, else ``None``.

    The inverse is built by inverting each component, unvalidated.  That
    it is a morphism, the paper's equivalent characterization (bijective
    structure maps with strictly increasing utility maps) and the
    identity composites are theorems checked by the test suite, not here.
    """
    theta = is_tree_isomorphism(m.theta)
    if theta is None or not (
        _is_bijection(m.iota, m.source.players, m.target.players)
        and _is_bijection(m.delta, m.source.preform.choices, m.target.preform.choices)
        and all(
            _is_bijection(m.beta[i], frozenset(m.beta[i]), m.target.ranges[m.iota[i]])
            for i in m.source.players
        )
    ):
        return None

    iota = {v: k for k, v in m.iota.items()}
    delta = {v: k for k, v in m.delta.items()}
    beta = {j: {v: u for u, v in m.beta[i].items()} for j, i in iota.items()}
    return IsoWitness(m, GameMorphism(m.target, m.source, iota, theta.tau, delta, beta))


def is_subgame(inner: Game, outer: Game) -> bool:
    """Whether ``inner`` is a subgame of ``outer``.

    Beyond the form conditions, every inner play must be priced exactly
    like its extension by the outer strict predecessors of the inner
    root.
    """
    if not is_subform(inner.form, outer.form):
        return False
    # the inner tree is the outer one's up-set of its root, so an inner
    # play extends to the outer play with the same end
    return all(
        inner.utilities[i][z] == outer.utilities[i][outer.tree.play_by_end[z.end]]
        for z in inner.plays
        for i in inner.players
    )


def subgame_at(g: Game, t_star: NodeLabel) -> Game:
    """The subgame rooted at ``t_star``.

    Rejects roots whose up-set cuts an information set; the remaining
    structure is the restriction, with every player retained (possibly
    vacuous) and each play priced as its extension in ``g``.  The
    up-set, the kept triples and the prices are read from the id cores
    of ``g``, so no label-keyed view of it is built, and the subgame's
    node ids number the up-set in walk order.
    """
    ids, pf, up = g.tree._ids, g.preform, _up_set(g.tree, t_star)
    cut = [k for k, h in enumerate(pf._ids.sets) if 0 < sum(t in up for t in h) < len(h)]
    if cut:
        h = pf.info_set_order[cut[0]][0]
        listing = ",".join(sorted((render_label(t) for t in h)))
        raise GameError(
            "InformationSetCut",
            f"information set {{{listing}}} straddles the up-set of "
            f"{render_label(t_star)}",
            information_set=h,
        )
    triples = [(up[t], c, up[t_next]) for (t, c), t_next in pf._ids.op.items() if t in up]
    kept_choices = frozenset(c for _t, c, _n in triples)
    labels = list(map(ids.labels.__getitem__, up))
    preform = _preform_from_ids(frozenset(labels), labels, kept_choices, triples)
    assignment = {i: g.form.assignment[i] & kept_choices for i in g.players}
    form = build_form(preform, g.players, assignment)
    # a subgame play extends to the outer play with the same end
    in_g, values = list(up), g._ids.values  # each subgame id's id in ``g``
    outer = [ids.plays[in_g[e]][0] for e in preform.tree._ids.plays]  # by subgame play
    return _priced(form, {i: enumerate(map(values[i].__getitem__, outer)) for i in values})


def is_nash(g: Game, s: Iterable[Token], cap: int = DEFAULT_STRATEGY_CAP) -> bool:
    """Whether no player gains by replacing their component of ``s``."""
    s = frozenset(s)
    if not is_grand_strategy(g.preform, s):
        raise GameError(
            "NotAStrategy",
            f"{render_strategy(s)} is not a grand strategy of this game",
        )
    plays = g.tree._ids.plays
    on_path = plays[_walk(g.preform, s)][0]
    # in token order, so the first player over the cap is the same in every run
    for i in g.form.player_rank:
        values, rest = g._ids.values[i], s - g.form.assignment[i]
        best = values[on_path]
        for d in player_strategies(g.form, i, cap=cap):
            if values[plays[_walk(g.preform, rest | d)][0]] > best:
                return False
    return True


def _offsets(positions, stride, radix) -> list:
    """Every sum of one ``x * stride[k]``, ``x < radix[k]``, for each ``k``
    in ``positions``: the strategy numbers that vary only there, from 0."""
    out = [0]
    for k in positions:
        out = [o + x * stride[k] for x in range(radix[k]) for o in out]
    return out


def _outcome_table(pf: Preform, stride: list) -> list:
    """The position in ``play_by_end`` of the play of each grand strategy,
    by strategy number: mixed radix over the choices of each set of
    ``info_set_order``, with ``stride[k]`` the weight of set ``k``.

    One walk down the tree's node ids branches only at sets not yet
    assigned on its path, so each leaf it reaches fills every completion
    of the sets still free with one play.
    """
    ids, op, set_at = pf.tree._ids, pf._ids.op, pf._ids.set_at
    pools = [choices for _h, choices in pf.info_set_order]
    radix = list(map(len, pools))
    succ = [[op[t, c] for c in pools[k]] if k >= 0 else None for t, k in enumerate(set_at)]
    play_at = [-1] * len(set_at)
    for end, (p, _path) in ids.plays.items():
        play_at[end] = p
    branching = [k for k, r in enumerate(radix) if r > 1]

    outcome = [0] * prod(radix)
    chosen = [-1] * len(radix)  # each set's choice on the current path, or -1
    trail: list = []  # the sets assigned on the current path, in order
    # a frame is a node, its strategy number so far, the set whose choice
    # led to it with that choice (set -1 at the root) and the trail length
    stack = [(ids.walk[0], 0, -1, 0, 0)]  # the walk starts at the root
    while stack:
        t, base, k, x, mark = stack.pop()
        while len(trail) > mark:
            chosen[trail.pop()] = -1
        if k >= 0:
            chosen[k] = x
            trail.append(k)
        k = set_at[t]
        while k >= 0 and chosen[k] >= 0:
            t = succ[t][chosen[k]]
            k = set_at[t]
        if k < 0:
            p, free = play_at[t], [k for k in branching if chosen[k] < 0]
            for o in _offsets(free, stride, radix):
                outcome[base + o] = p
        else:
            mark = len(trail)
            stack.extend(
                (u, base + x * stride[k], k, x, mark) for x, u in enumerate(succ[t])
            )
    return outcome


def nash_equilibria(g: Game, cap: int = DEFAULT_STRATEGY_CAP) -> frozenset:
    """All pure-strategy equilibria: for each player, the grand
    strategies that reach the best utility among those that share the
    other players' components.

    Grand strategies are numbered in mixed radix over
    ``Preform.info_set_order``, and one table holds each one's play.  A
    player's utilities are compared by their rank in the player's range,
    which orders them exactly, and the strategies that share the other
    players' components are found by stride arithmetic over the player's
    own sets.  The test suite compares the result with a direct
    deviation scan.
    """
    pf, form = g.preform, g.form
    # each player's count is checked first and in token order, so the
    # first player over the cap is the same in every run
    for i in form.player_rank:
        _pools(pf, form.player_info_sets[i], cap)
    pools = _pools(pf, pf.info_sets, cap)
    radix = list(map(len, pools))
    stride = [1] * len(radix)
    for k in reversed(range(len(radix) - 1)):
        stride[k] = stride[k + 1] * radix[k + 1]
    outcome = _outcome_table(pf, stride)

    stable = bytearray(b"\1") * len(outcome)
    owner_at = [form.owner[choices[0]] for choices in pools]
    for i in form.player_rank:
        mine = [k for k, j in enumerate(owner_at) if j == i]
        if not mine:  # a vacuous player has one strategy, so no deviation
            continue
        value = _utility_ranks(g, i)
        payoff = [value[p] for p in outcome]
        own = _offsets(mine, stride, radix)
        rest = [k for k, j in enumerate(owner_at) if j != i]
        for base in _offsets(rest, stride, radix):
            group = [payoff[base + o] for o in own]
            top = max(group)
            for o, u in zip(own, group):
                if u < top:
                    stable[base + o] = 0
    return frozenset(
        frozenset(choices[j // step % len(choices)] for choices, step in zip(pools, stride))
        for j in itertools.compress(range(len(outcome)), stable)
    )


def _utility_ranks(g: Game, i: Token) -> list:
    """Player ``i``'s utility of each play, by play position, as its rank
    in the player's range, which orders utilities exactly; keyed by lowest
    terms, which equal fractions share and which hash faster than a ``Fraction``."""
    rank = {(u.numerator, u.denominator): r for r, u in enumerate(sorted(g.ranges[i]))}
    return [rank[u.numerator, u.denominator] for u in g._ids.values[i]]


def _node_classes(g: Game, table: Dict[tuple, int]) -> Dict[NodeLabel, int]:
    """Each node's class, numbered in ``table``, which both games share: a
    leaf's is its players' sorted (utility rank, choices owned) pairs, a
    decision node's its information set's size and its children's sorted
    classes.  Isomorphisms keep classes; the numbers follow the order of
    the node ids, so only their equality is meaningful.
    """
    ids, sets, set_at = g.tree._ids, g.preform._ids.sets, g.preform._ids.set_at
    ranks = [_utility_ranks(g, i) for i in g.form.player_rank]
    owned = [len(g.form.assignment[i]) for i in g.form.player_rank]
    classes = [0] * len(set_at)
    for k in reversed(ids.walk):  # each node after its children
        kids = ids.children[k]
        if kids:
            key = (len(sets[set_at[k]]), tuple(sorted(map(classes.__getitem__, kids))))
        else:
            p = ids.plays[k][0]
            key = tuple(sorted((rank[p], n) for rank, n in zip(ranks, owned)))
        classes[k] = table.setdefault(key, len(table))
    return dict(zip(ids.labels, classes))


def find_isomorphism(
    g1: Game, g2: Game, budget: int = DEFAULT_SEARCH_BUDGET
) -> Optional[IsoWitness]:
    """Search for an isomorphism between two games.

    Nodes are mapped depth-first in a fixed order, by stage and by rank,
    making the returned witness deterministic.  The choice map δ is fixed
    along the way by the operator axiom τ(op(t, c)) = op(τ(t), δ(c)): a
    node reached by a choice c with δ(c) fixed has one candidate, else
    any child of its parent's image produced by a choice not yet in the
    image of δ, and taking it fixes δ(c).  So δ and the node map are
    injective by construction.  Candidates keep the node class, as every
    isomorphism does, so games whose roots differ in class are refused
    unsearched.  Each complete map forces the player map through
    ownership and each utility map pointwise through the play images.
    Raises :class:`SearchBudgetExceeded` after ``budget`` node expansions.
    """
    table: Dict[tuple, int] = {}
    class1, class2 = _node_classes(g1, table), _node_classes(g2, table)
    if class1[g1.tree.root] != class2[g2.tree.root]:
        return None
    vacuous1 = [i for i in g1.form.player_rank if not g1.form.assignment[i]]
    vacuous2 = [i for i in g2.form.player_rank if not g2.form.assignment[i]]
    prev1, prev2, op2 = g1.preform.prev_choice, g2.preform.prev_choice, g2.preform.op
    # by stage, and by rank within a stage
    order = g1.tree.stage_order
    # a choice's image is fixed by the first node in ``order`` that the
    # choice reaches (scanned in reverse, so the first one is kept)
    fixes = {t: c for c, t in {prev1[t]: t for t in reversed(order[1:])}.items()}
    owned1 = [(i, choices) for i, choices in g1.form.assignment.items() if choices]
    mapping: Dict[NodeLabel, NodeLabel] = {}
    delta: Dict[Token, Token] = {}
    delta_image: set = set()
    expansions = 0

    def candidates(t: NodeLabel) -> list:
        if t in fixes:
            pool = g2.tree.children(mapping[g1.tree.pred[t]])
            pool = [u for u in pool if prev2[u] not in delta_image]
        else:
            pool = [op2.get((mapping[g1.tree.pred[t]], delta[prev1[t]]))]
        return [u for u in pool if u is not None and class2[u] == class1[t]]

    def complete() -> Optional[IsoWitness]:
        iota: Dict[Token, Token] = {}
        for i, choices in owned1:
            owners = {g2.form.owner[delta[c]] for c in choices}
            if len(owners) > 1:
                return None
            (iota[i],) = owners
        images = TreeMorphism(g1.tree, g2.tree, mapping).play_images.items()

        def utility_map(i: Token, j: Token) -> Optional[Dict]:
            """β_i read off the play images, if strictly increasing."""
            bmap: Dict[Fraction, Fraction] = {}
            for z, image in images:
                u, v = g1.utilities[i][z], g2.utilities[j][image]
                if bmap.setdefault(u, v) != v:
                    return None
            ordered = sorted(bmap)
            strict = all(bmap[u1] < bmap[u2] for u1, u2 in zip(ordered, ordered[1:]))
            return bmap if strict else None

        beta = {i: utility_map(i, j) for i, j in iota.items()}
        if None in beta.values():
            return None
        # vacuous players match when their utilities order the plays alike, an
        # equivalence, so first free matches give the first matching permutation
        free = list(vacuous2)
        for i in vacuous1:
            for j in free:
                beta[i] = utility_map(i, j)
                if beta[i] is not None:
                    iota[i] = j
                    free.remove(j)
                    break
            else:
                return None
        return is_isomorphism(validate_game_morphism(g1, g2, iota, mapping, delta, beta))

    # depth-first over ``order`` with an explicit stack of candidate
    # iterators, one per node, so deep trees do not recurse; a node is
    # in ``mapping`` while its frame holds a candidate
    stack = [iter([g2.tree.root])]
    while stack:
        t = order[len(stack) - 1]
        if t in mapping:  # withdraw the previous candidate
            del mapping[t]
            if t in fixes:
                delta_image.discard(delta.pop(fixes[t]))
        u = next(stack[-1], None)
        if u is None:
            stack.pop()
            continue
        expansions += 1
        if expansions > budget:
            raise SearchBudgetExceeded(budget)
        mapping[t] = u
        if t in fixes:
            delta[fixes[t]] = prev2[u]
            delta_image.add(prev2[u])
        if len(stack) < len(order):
            stack.append(iter(candidates(order[len(stack)])))
            continue
        witness = complete()
        if witness is not None:
            return witness
    return None
