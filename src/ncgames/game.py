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
    _compose_form_morphisms,
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
    _picked,
    _walk,
    render_strategy,
)
from .tree import (
    Play,
    Structural,
    Tree,
    TreeMorphism,
    _IdMap,
    _inverse,
    _play_images,
    _play_with_ids,
    _up_set,
    check_composable,
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
    ``Tree.play_by_end``, ``values``, the positions in the order the
    player's row priced them, ``rows``, and each player's utility order,
    once ``_utility_ranks`` has built it, ``ranks``.  ``utilities``, the
    tables in that order, is a view over them built on first read, which
    equality and hashing read with ``form``."""

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
        end = _play_with_ids(tree._ids.plays, tree._ids.paths, _node_ids(tree, members))
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
    plays, paths = tree._ids.plays, tree._ids.paths

    def slots(row):
        for key, value in row.items():
            nodes = key.path if isinstance(key, Play) else key
            end = _play_with_ids(plays, paths, _node_ids(tree, nodes))
            yield (frozenset(nodes) if end is None else plays[end]), value

    return _priced(form, {i: slots(row) for i, row in utilities.items()})


def _priced(form: Form, rows: Mapping) -> Game:
    """[G2] over utility rows whose keys are play positions.

    ``rows`` maps each player to its ``(slot, value)`` pairs, in row
    order; a slot is the position of the priced play in ``play_by_end``,
    or the node set of a key that is no play.  Each pair is checked as
    it comes, so the first broken rule is the one reported, and each
    player's values are listed by position once, in row order.  A range
    holds a row's distinct value objects, so values that share one
    object (as a document's equal texts do) are hashed once per row.
    The reader skips this loop for rows that price each play once with
    a text for each player, and prices those a column at a time
    (``documents._by_column``)."""
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
    ids = SimpleNamespace(values=values, rows=order, ranks={})
    return Game(form=form, ranges=ranges, _ids=ids)


@dataclass(frozen=True, eq=False)
class GameMorphism(Structural):
    """A game morphism.  ``_ids`` keeps its node map as its tree morphism
    keeps it, and ``beta``, each source player's utility map from the
    ranks of its utilities in ``_utility_ranks`` to the ranks of its
    image's.  ``tau`` by label, ``beta`` by ``Fraction``, the lower
    layers and the end-preserved plays are views of its maps."""

    source: Game
    target: Game
    iota: Mapping[Token, Token]
    delta: Mapping[Token, Token]
    _ids: SimpleNamespace = field(compare=False, repr=False)

    _defining_views = ("tau", "beta")

    @cached_property
    def form_morphism(self) -> FormMorphism:
        source, target = self.source.form, self.target.form
        return FormMorphism(source, target, self.iota, self.delta, self._ids)

    @cached_property
    def theta(self) -> TreeMorphism:
        return self.form_morphism.preform_morphism.tree_morphism

    @cached_property
    def tau(self) -> Mapping[NodeLabel, NodeLabel]:
        return self.theta.tau

    @cached_property
    def beta(self) -> Mapping[Token, Mapping[Fraction, Fraction]]:
        beta = {}
        for i, ranks in self._ids.beta.items():
            source = _utility_ranks(self.source, i)[0]
            target = _utility_ranks(self.target, self.iota[i])[0]
            beta[i] = {source[r]: target[s] for r, s in ranks.items()}
        return beta

    @cached_property
    def end_preserved(self) -> frozenset:
        return frozenset(self.theta.play_images)


@dataclass(frozen=True)
class IsoWitness:
    """An isomorphism with its explicit inverse, built by inversion."""

    morphism: GameMorphism
    inverse: GameMorphism


def _utility_ids(bmap: Mapping, source: Game, i: Token, target: Game, j: Token) -> tuple:
    """The keys and the values of the utility map ``bmap`` as ranks of
    ``i``'s utilities in ``source`` and ``j``'s in ``target``, -1 outside
    them: read as ranks from an ``_IdMap`` over those, else found by
    lowest terms, so no ``Fraction`` is hashed."""
    (range1, _, rank1), (range2, _, rank2) = _utility_ranks(source, i), _utility_ranks(target, j)
    if type(bmap) is _IdMap and bmap.key_labels is range1 and bmap.value_labels is range2:
        return bmap.domain, bmap.image
    pairs = [(_as_fraction(u), _as_fraction(v)) for u, v in bmap.items()]
    terms = [((u.numerator, u.denominator), (v.numerator, v.denominator)) for u, v in pairs]
    if len({u for u, _v in terms}) != len(bmap):
        raise MorphismError(
            "DuplicateUtility",
            f"utility map of {render_token(i)} names one utility twice",
            axiom="[g2]",
            player=i,
        )
    return [rank1.get(u, -1) for u, _v in terms], [rank2.get(v, -1) for _u, v in terms]


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
    end-preserved play's image; they are checked as maps of ranks.
    """
    below = validate_form_morphism(source.form, target.form, iota, tau, delta)
    images = _play_images(source.tree, target.tree, below._ids.tau)
    for i in beta:
        if i not in source.players:
            raise MorphismError(
                "UnknownPlayer",
                f"utility map given for {render_token(i)}, which is not a source player",
            )
    ranked: Dict[Token, Dict[int, int]] = {}
    for i in source.form.player_rank:
        if i not in beta:
            raise MorphismError(
                "BetaDomainMismatch",
                f"no utility map for player {render_token(i)}",
                axiom="[g2]",
                player=i,
            )
        j = below.iota[i]
        keys, values = _utility_ids(beta[i], source, i, target, j)
        range1, ranks1, _ = _utility_ranks(source, i)
        realized = {ranks1[p] for p, _q in images}
        if set(keys) != realized:  # -1, a utility outside the range, is never realized
            raise MorphismError(
                "BetaDomainMismatch",
                f"utility map of {render_token(i)} is defined on "
                f"{sorted(map(_as_fraction, beta[i]))} but the end-preserved plays "
                f"realize {[range1[r] for r in sorted(realized)]}",
                axiom="[g2]",
                player=i,
            )
        if -1 in values:
            raise MorphismError(
                "BetaDomainMismatch",
                f"utility map of {render_token(i)} leaves the utility range of "
                f"{render_token(j)}",
                axiom="[g2]",
                player=i,
            )
        pairs = sorted(zip(keys, values))
        for (r1, s1), (r2, s2) in zip(pairs, pairs[1:]):
            if s1 > s2:
                u1, u2 = range1[r1], range1[r2]
                raise MorphismError(
                    "BetaNotMonotone",
                    f"utility map of {render_token(i)} sends {u2} below {u1} "
                    f"although {u2} > {u1}",
                    axiom="[g3]",
                    player=i,
                    lower=u1,
                    upper=u2,
                )
        ranked[i] = dict(pairs)

    ends, rank = list(source.tree._ids.plays), source.tree._ids.rank
    for i, bmap in ranked.items():
        ranks1 = _utility_ranks(source, i)[1]
        range2, ranks2, _ = _utility_ranks(target, below.iota[i])
        failing = [(p, q) for p, q in images if bmap[ranks1[p]] != ranks2[q]]
        if failing:
            # the least by the rank of its end, so every run names the same play
            p, q = min(failing, key=lambda pair: rank[ends[pair[0]]])
            z = source.tree.play_by_end[source.tree._ids.labels[ends[p]]]
            raise MorphismError(
                "UtilityEquationFails",
                f"player {render_token(i)}: utility map gives "
                f"{range2[bmap[ranks1[p]]]} on the play ending at {render_label(z.end)} "
                f"but its image is priced {range2[ranks2[q]]}",
                axiom="[g4]",
                player=i,
                play=z,
            )

    ids = SimpleNamespace(tau=below._ids.tau, beta=ranked)
    return GameMorphism(source, target, below.iota, below.delta, ids)


def _identity_ranks(g: Game) -> dict:
    """Each player's identity utility map, over the ranks of its range."""
    return {i: dict(zip(range(len(u)), range(len(u)))) for i, u in g.ranges.items()}


def identity_morphism(g: Game) -> GameMorphism:
    """The identity on ``g``, built unvalidated: a morphism by theorem."""
    below = identity_form_morphism(g.form)
    ids = SimpleNamespace(tau=below._ids.tau, beta=_identity_ranks(g))
    return GameMorphism(g, g, below.iota, below.delta, ids)


def compose(second: GameMorphism, first: GameMorphism) -> GameMorphism:
    """``first`` and then ``second``, unvalidated: a morphism by theorem.

    The utility maps chain on the utilities of the plays end-preserved
    by the composite node map, where both are defined: a morphism keeps
    decision nodes, so ``first`` preserves such a play and ``second`` its image.
    Equal games order their utilities alike, so the ranks of ``first``'s
    target are those of ``second``'s source.
    """
    check_composable(second, first)  # once: the layers below compose unchecked
    below = _compose_form_morphisms(second.form_morphism, first.form_morphism)
    images = _play_images(first.source.tree, second.target.tree, below._ids.tau)
    beta: Dict[Token, Dict[int, int]] = {}
    for i in first.source.form.player_rank:
        b1, b2 = first._ids.beta[i], second._ids.beta[first.iota[i]]
        ranks = _utility_ranks(first.source, i)[1]
        beta[i] = {r: b2[b1[r]] for r in sorted({ranks[p] for p, _q in images})}
    ids = SimpleNamespace(tau=below._ids.tau, beta=beta)
    return GameMorphism(first.source, second.target, below.iota, below.delta, ids)


def is_isomorphism(m: GameMorphism) -> Optional[IsoWitness]:
    """An explicit inverse when every component bijects, else ``None``.

    The inverse is built by inverting each component, unvalidated: the
    node ids, and each utility map's ranks.  That it is a morphism, the
    paper's equivalent characterization (bijective structure maps with
    strictly increasing utility maps) and the identity composites are
    theorems checked by the test suite, not here.
    """
    # each map lands in the target, so it bijects when it has as many
    # images as keys, and as the target has elements
    tau = _inverse(m._ids.tau, len(m.target.tree.nodes))
    iota = {v: k for k, v in m.iota.items()}
    delta = {v: k for k, v in m.delta.items()}
    if tau is None or not (
        len(iota) == len(m.iota) == len(m.target.players)
        and len(delta) == len(m.delta) == len(m.target.preform.choices)
        and all(
            len(set(ranks.values())) == len(ranks) == len(m.target.ranges[m.iota[i]])
            for i, ranks in m._ids.beta.items()
        )
    ):
        return None
    beta = {m.iota[i]: {s: r for r, s in ranks.items()} for i, ranks in m._ids.beta.items()}
    inverse = GameMorphism(m.target, m.source, iota, delta, SimpleNamespace(tau=tau, beta=beta))
    return IsoWitness(m, inverse)


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
    outer = [ids.plays[in_g[e]] for e in preform.tree._ids.plays]  # by subgame play
    return _priced(form, {i: enumerate(map(values[i].__getitem__, outer)) for i in values})


def is_nash(g: Game, s: Iterable[Token], cap: int = DEFAULT_STRATEGY_CAP) -> bool:
    """Whether no player gains by replacing their component of ``s``."""
    s, pf = frozenset(s), g.preform
    picked = _picked(pf, s)
    if picked is None:
        raise GameError(
            "NotAStrategy",
            f"{render_strategy(s)} is not a grand strategy of this game",
        )
    plays, pos = g.tree._ids.plays, pf._ids.pos.__getitem__
    on_path = plays[_walk(pf, picked)]
    # in token order, so the first player over the cap is the same in every run
    for i in g.form.player_rank:
        values = g._ids.values[i]
        best = values[on_path]
        for d in player_strategies(g.form, i, cap=cap):
            deviation = dict(picked)
            deviation.update(zip(map(pos, d), d))  # ``d`` in place of i's choices
            if values[plays[_walk(pf, deviation)]] > best:
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
    for end, p in ids.plays.items():
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
        value = _utility_ranks(g, i)[1]
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


def _utility_ranks(g: Game, i: Token) -> tuple:
    """Player ``i``'s range in increasing order, the rank there of the
    player's utility of each play, by play position, and the rank of
    each utility by its lowest terms; sorted once per game and player
    and kept in ``_ids.ranks``.  Values are found in the range by lowest
    terms, which equal fractions share and which hash faster than a
    ``Fraction``.  The range is sorted by each value's nearest float,
    which never orders two values wrongly, and by the value only where
    two floats tie, so few comparisons run ``Fraction``'s Python code.
    Each play's value is looked up by its own lowest terms: a game read
    by column shares one object per distinct text, but ranking those
    objects once and mapping the plays by ``id`` costs more than it
    saves on games of a few dozen plays."""
    ranked = g._ids.ranks.get(i)
    if ranked is None:
        try:
            ordered = [u for _f, u in sorted((float(u), u) for u in g.ranges[i])]
        except OverflowError:  # a value past the floats
            ordered = sorted(g.ranges[i])
        rank = {(u.numerator, u.denominator): r for r, u in enumerate(ordered)}
        ranks = [rank[u.numerator, u.denominator] for u in g._ids.values[i]]
        ranked = g._ids.ranks[i] = ordered, ranks, rank
    return ranked


def _node_classes(g: Game, table: Dict[tuple, int]) -> list:
    """Each node's class, by node id, numbered in ``table``, which both
    games share: a leaf's is its players' sorted (utility rank, choices
    owned) pairs, a decision node's its information set's size and its
    children's sorted classes.  Isomorphisms keep classes; the numbers
    follow the order of the node ids, so only their equality is meaningful.
    """
    ids, sets, set_at = g.tree._ids, g.preform._ids.sets, g.preform._ids.set_at
    ranks = [_utility_ranks(g, i)[1] for i in g.form.player_rank]
    owned = [len(g.form.assignment[i]) for i in g.form.player_rank]
    classes = [0] * len(set_at)
    for k in reversed(ids.walk):  # each node after its children
        kids = ids.children[k]
        if kids:
            key = (len(sets[set_at[k]]), tuple(sorted(map(classes.__getitem__, kids))))
        else:
            p = ids.plays[k]
            key = tuple(sorted((rank[p], n) for rank, n in zip(ranks, owned)))
        classes[k] = table.setdefault(key, len(table))
    return classes


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
    ownership and each utility map pointwise through the play images,
    rank to rank in ``_utility_ranks``.  The search maps node ids, read
    from the tree's and the preform's id cores, and the morphism found
    is validated over those ids and ranks, so no label is read.
    Raises :class:`SearchBudgetExceeded` after ``budget`` node expansions.
    """
    table: Dict[tuple, int] = {}
    class1, class2 = _node_classes(g1, table), _node_classes(g2, table)
    ids1, ids2 = g1.tree._ids, g2.tree._ids
    if class1[ids1.walk[0]] != class2[ids2.walk[0]]:  # the roots
        return None
    vacuous1 = [i for i in g1.form.player_rank if not g1.form.assignment[i]]
    vacuous2 = [i for i in g2.form.player_rank if not g2.form.assignment[i]]
    prev1, prev2 = g1.preform._ids.prev, g2.preform._ids.prev
    parent1, children2, op2 = ids1.parent, ids2.children, g2.preform._ids.op
    # node ids by stage, and by rank within a stage
    order = sorted(ids1.order, key=ids1.stage.__getitem__)
    # a choice's image is fixed by the first node in ``order`` that the
    # choice reaches (scanned in reverse, so the first one is kept)
    fixes = {t: c for c, t in {prev1[t]: t for t in reversed(order[1:])}.items()}
    owned1 = [(i, choices) for i, choices in g1.form.assignment.items() if choices]
    mapping = [-1] * len(order)  # each node id's image id, -1 while unmapped
    delta: Dict[Token, Token] = {}
    delta_image: set = set()
    expansions = 0

    def candidates(t: int) -> list:
        up = mapping[parent1[t]]
        if t in fixes:
            pool = [u for u in children2[up] if prev2[u] not in delta_image]
        else:
            pool = [op2.get((up, delta[prev1[t]]))]
        return [u for u in pool if u is not None and class2[u] == class1[t]]

    def complete() -> Optional[IsoWitness]:
        iota: Dict[Token, Token] = {}
        for i, choices in owned1:
            owners = {g2.form.owner[delta[c]] for c in choices}
            if len(owners) > 1:
                return None
            (iota[i],) = owners
        images = _play_images(g1.tree, g2.tree, mapping)

        def utility_map(i: Token, j: Token) -> Optional[Dict]:
            """β_i read off the play images rank to rank, if strictly increasing."""
            ranks1, ranks2 = _utility_ranks(g1, i)[1], _utility_ranks(g2, j)[1]
            bmap: Dict[int, int] = {}
            for p, q in images:
                if bmap.setdefault(ranks1[p], ranks2[q]) != ranks2[q]:
                    return None
            ordered = sorted(bmap)
            if any(bmap[r1] >= bmap[r2] for r1, r2 in zip(ordered, ordered[1:])):
                return None
            return bmap

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
        # the maps go to the validator as ids, which it reads without labels
        tau = _IdMap(range(len(mapping)), list(mapping), ids1.labels, ids2.labels)
        for i, bmap in beta.items():
            ranges = _utility_ranks(g1, i)[0], _utility_ranks(g2, iota[i])[0]
            beta[i] = _IdMap(list(bmap), list(bmap.values()), *ranges)
        return is_isomorphism(validate_game_morphism(g1, g2, iota, tau, delta, beta))

    # depth-first over ``order`` with an explicit stack of candidate
    # iterators, one per node, so deep trees do not recurse; a node is
    # mapped while its frame holds a candidate
    stack = [iter([ids2.walk[0]])]
    while stack:
        t = order[len(stack) - 1]
        if mapping[t] >= 0:  # withdraw the previous candidate
            mapping[t] = -1
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
