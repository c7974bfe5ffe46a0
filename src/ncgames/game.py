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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterable, Mapping, Optional

from .errors import GameError, MorphismError, SearchBudgetExceeded
from .form import (
    Form,
    FormMorphism,
    build_form,
    is_subform,
    player_strategies,
    validate_form_morphism,
)
from .labels import NodeLabel, Token, render_label, render_token
from .preform import (
    DEFAULT_STRATEGY_CAP,
    Preform,
    _pools,
    _walk,
    build_preform,
    grand_strategies,
    is_grand_strategy,
    render_strategy,
)
from .tree import (
    Play,
    Structural,
    Tree,
    TreeMorphism,
    _is_bijection,
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
    """A validated game: form plus per-player utility tables over plays."""

    form: Form
    utilities: Mapping[Token, Mapping[Play, Fraction]]
    ranges: Mapping[Token, frozenset] = field(compare=False)

    def __repr__(self) -> str:
        return f"Game({self.form!r})"

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
        return _play_with_nodes(self.tree, frozenset(members))


def _play_with_nodes(tree: Tree, nodes: frozenset) -> Optional[Play]:
    """The play of ``tree`` whose nodes are ``nodes``, if any, found
    through its end: a play's one node that precedes nothing."""
    end = next((t for t in nodes if t not in tree.decision_nodes), None)
    play = tree.play_by_end.get(end)
    if play is None or len(play.path) != len(nodes) or not nodes.issuperset(play.path):
        return None
    return play


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

    A table is keyed by plays, or by the sets of their nodes; a key that
    is a play of this very tree is taken as it is."""
    plays = form.preform.tree.play_by_end
    for i in utilities:
        if i not in form.players:
            raise GameError(
                "UnknownPlayer",
                f"utility table mentions undeclared player {render_token(i)}",
            )
    table: Dict[Token, Dict[Play, Fraction]] = {}
    ranges: Dict[Token, frozenset] = {}
    for i in form.player_rank:
        if i not in utilities:
            raise GameError(
                "MissingUtility",
                f"no utility row for player {render_token(i)}",
                axiom="[G2]",
                player=i,
            )
        row: Dict[Play, Fraction] = {}
        for key, value in utilities[i].items():
            if isinstance(key, Play) and plays.get(key.end) is key:
                play = key
            else:
                nodes = frozenset(key.path if isinstance(key, Play) else key)
                play = _play_with_nodes(form.preform.tree, nodes)
                if play is None:
                    listing = ",".join(sorted((render_label(t) for t in nodes)))
                    raise GameError(
                        "UnknownPlayInTable",
                        f"utility row of {render_token(i)} prices {{{listing}}}, "
                        "which is not a play",
                        axiom="[G2]",
                    )
            if play in row:
                raise GameError(
                    "DuplicateUtility",
                    f"utility row of {render_token(i)} prices the play ending at "
                    f"{render_label(play.end)} twice",
                    axiom="[G2]",
                    player=i,
                )
            row[play] = _as_fraction(value)
        if len(row) != len(plays):
            # every key is a play, so some play is unpriced; in play
            # order, so the first one is reported
            play = next(play for play in plays.values() if play not in row)
            raise GameError(
                "MissingUtility",
                f"player {render_token(i)} has no utility for the play ending at "
                f"{render_label(play.end)}",
                axiom="[G2]",
                player=i,
                play=play,
            )
        table[i] = row
        ranges[i] = frozenset(row.values())
    return Game(form=form, utilities=table, ranges=ranges)


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
        return TreeMorphism(self.source.tree, self.target.tree, self.tau)

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
    return GameMorphism(
        g,
        g,
        {i: i for i in g.players},
        {t: t for t in g.tree.nodes},
        {c: c for c in g.preform.choices},
        {i: {u: u for u in g.ranges[i]} for i in g.players},
    )


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
    vacuous) and each play priced as its extension in ``g``.
    """
    sub_nodes = _up_set(g.tree, t_star)
    order = g.preform.info_set_order
    cut = [h for h, _choices in order if h & sub_nodes and not h <= sub_nodes]
    if cut:
        h = cut[0]
        listing = ",".join(sorted((render_label(t) for t in h)))
        raise GameError(
            "InformationSetCut",
            f"information set {{{listing}}} straddles the up-set of "
            f"{render_label(t_star)}",
            information_set=h,
        )
    triples = [
        (t, c, t_next) for (t, c), t_next in g.preform.op.items() if t in sub_nodes
    ]
    kept_choices = frozenset(c for _t, c, _n in triples)
    preform = build_preform(sub_nodes, kept_choices, triples)
    assignment = {i: g.form.assignment[i] & kept_choices for i in g.players}
    form = build_form(preform, g.players, assignment)
    # a subgame play extends to the outer play with the same end
    utilities = {
        i: {z: g.utilities[i][g.tree.play_by_end[z.end]] for z in preform.tree.plays}
        for i in g.players
    }
    return build_game(form, utilities)


def is_nash(g: Game, s: Iterable[Token], cap: int = DEFAULT_STRATEGY_CAP) -> bool:
    """Whether no player gains by replacing their component of ``s``."""
    s = frozenset(s)
    if not is_grand_strategy(g.preform, s):
        raise GameError(
            "NotAStrategy",
            f"{render_strategy(s)} is not a grand strategy of this game",
        )
    on_path = _walk(g.preform, s)
    # in token order, so the first player over the cap is the same in every run
    for i in g.form.player_rank:
        row, rest = g.utilities[i], s - g.form.assignment[i]
        for d in player_strategies(g.form, i, cap=cap):
            if row[_walk(g.preform, rest | d)] > row[on_path]:
                return False
    return True


def nash_equilibria(g: Game, cap: int = DEFAULT_STRATEGY_CAP) -> frozenset:
    """All pure-strategy equilibria: for each player, the grand
    strategies that reach the best utility among those that share the
    other players' components.

    Each grand strategy's play is computed once; the test suite compares
    the result with a direct deviation scan.
    """
    # each player's count is checked first and in token order, so the
    # first player over the cap is the same in every run
    for i in g.form.player_rank:
        _pools(g.preform, g.form.player_info_sets[i], cap)
    outcome = {s: _walk(g.preform, s) for s in grand_strategies(g.preform, cap=cap)}
    equilibria = set(outcome)
    for i in g.form.player_rank:
        row, own = g.utilities[i], g.form.assignment[i]
        # each player owns their choices, so a group holds one strategy
        # per strategy of ``i``
        groups: dict = {}
        for s, play in outcome.items():
            groups.setdefault(s - own, []).append((row[play], s))
        for group in groups.values():
            top = max(u for u, _s in group)
            equilibria.difference_update(s for u, s in group if u < top)
    return frozenset(equilibria)


def _node_classes(g: Game, table: Dict[tuple, int]) -> Dict[NodeLabel, int]:
    """Each node's class, numbered in ``table``, which both games share: a
    leaf's is its players' sorted (utility rank, choices owned) pairs, a
    decision node's its information set's size and its children's sorted
    classes.  Isomorphisms keep classes; the numbers follow set iteration
    order, so only their equality is meaningful.
    """
    tree, prev, info_set_of = g.tree, g.preform.prev_choice, g.preform.info_set_of
    leaves: Dict[NodeLabel, list] = {t: [] for t in tree.play_by_end}
    for i, row in g.utilities.items():
        rank = {u: k for k, u in enumerate(sorted(g.ranges[i]))}
        for z, u in row.items():
            leaves[z.end].append((rank[u], len(g.form.assignment[i])))
    classes = {t: table.setdefault(tuple(sorted(k)), len(table)) for t, k in leaves.items()}
    # deepest first, so every child's class is known
    for t in reversed(tree.stage_order):
        kids = tree.children(t)
        if kids:
            key = (len(info_set_of[prev[kids[0]]]), tuple(sorted(map(classes.get, kids))))
            classes[t] = table.setdefault(key, len(table))
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
