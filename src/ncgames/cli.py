"""Command-line interface.

Reports are line-oriented and deterministic: identical inputs produce
byte-identical output.  Exit codes: 0 on success, 1 when validation or
a precondition fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from pathlib import Path

from .documents import (
    _document_by_text,
    _morphism_from_text,
    _morphism_parts,
    _node_from_spec,
    _read,
    _validated,
    _witness_from_document,
    load_game,
    write_game,
    write_morphism,
    write_witness,
)
from .errors import NcgError
from .game import (
    DEFAULT_SEARCH_BUDGET, compose, find_isomorphism, is_isomorphism, nash_equilibria,
    subgame_at,
)
from .labels import Atom, render_label, render_token
from .preform import DEFAULT_STRATEGY_CAP, _pools, count_grand_strategies, play_of
from .transforms import canonicalize, to_choice_sequence, to_choice_set

__all__ = ["main", "cli_dispatch"]


# the zeta lines ``ncg derive`` prints at once, so that at the strategy
# cap it holds a batch of them, not the table
_BATCH = 4096


def _strategy_tuple(ordered, s):
    """The strategy's choices listed in ``Preform.info_set_order``."""
    return tuple(c for _h, choices in ordered for c in choices if c in s)


def _render_strategy(choices, render=render_token) -> str:
    return "{" + ",".join(map(render, choices)) + "}"


def _parse_node_argument(text: str):
    try:
        spec = json.loads(text)
    except (ValueError, RecursionError):  # not JSON, or hostile JSON
        return Atom(text)
    if isinstance(spec, dict):
        return _node_from_spec(spec)
    return Atom(text)


def _cmd_validate(args) -> int:
    game = load_game(args.file)
    print(
        f"ok: {len(game.players)} players, {len(game.tree.nodes)} nodes, "
        f"{len(game.preform.choices)} choices, {len(game.tree._ids.plays)} plays, "
        f"{count_grand_strategies(game.preform)} grand strategies"
    )
    return 0


def _cmd_derive(args) -> int:
    game = load_game(args.file)
    pf, ids = game.preform, game.tree._ids
    # counted first, so a game over the cap is refused before any output;
    # no player has more strategies than the game
    pools = _pools(pf, pf.info_sets, args.strategy_cap)
    # each node and each choice is rendered once, and every line joins those texts
    node = list(map(render_label, ids.labels))
    token = {c: render_token(c) for c in pf.choices}
    listing = functools.partial(_render_strategy, render=token.__getitem__)
    print("players: " + ",".join(map(render_token, game.form.player_rank)))
    print("nodes: " + ",".join(map(node.__getitem__, ids.order)))
    print("root: " + node[ids.walk[0]])
    print("decision-nodes: " + ",".join(node[k] for k in ids.order if ids.children[k]))
    print("plays:")
    texts = ["{" + ",".join(map(node.__getitem__, path)) + "}" for path in ids.paths]
    print(*texts, sep="\n")
    print("information-sets:")
    for (_h, choices), members in zip(pf.info_set_order, pf._ids.sets):
        owner = game.form.owner[choices[0]]
        members = ",".join(map(node.__getitem__, sorted(members, key=ids.rank.__getitem__)))
        print(f"{{{members}}}: {render_token(owner)} {listing(choices)}")
    # text choices, so products of pools in ``token_key`` order come sorted
    print("strategies:")
    for i in game.form.player_rank:
        own = itertools.product(*_pools(pf, game.form.player_info_sets[i], args.strategy_cap))
        print(f"{render_token(i)}: " + " ".join(map(listing, own)))
    print("zeta:")
    text_of = dict(zip(game.tree.play_by_end.values(), texts))
    rendered = [list(map(token.__getitem__, pool)) for pool in pools]
    lines = (
        "{" + ",".join(r) + "} -> " + text_of[play_of(pf, s)]
        for s, r in zip(itertools.product(*pools), itertools.product(*rendered))
    )
    while batch := list(itertools.islice(lines, _BATCH)):
        print(*batch, sep="\n")
    return 0


def _cmd_nash(args) -> int:
    game = load_game(args.file)
    ordered = game.preform.info_set_order
    equilibria = nash_equilibria(game, cap=args.strategy_cap)
    for s in sorted(_strategy_tuple(ordered, s) for s in equilibria):
        print(_render_strategy(s))
    return 0


def _cmd_convert(args) -> int:
    game = load_game(args.file)
    stem = Path(args.file).with_suffix("")
    if args.to == "csq":
        converted, witness = to_choice_sequence(game)
        style = "choice-sequence"
    elif args.to == "cset":
        converted, witness = to_choice_set(game)
        style = "choice-set"
    else:
        result = canonicalize(game)
        converted, witness, style = result.game, result.witness, result.style
    out = Path(args.output or f"{stem}.{args.to}.game")
    wout = Path(args.witness_output or f"{stem}.{args.to}.witness")
    write_game(converted, out)
    write_witness(witness, wout)
    print(f"style: {style}")
    print(f"wrote: {out}")
    print(f"wrote: {wout}")
    return 0


def _cmd_iso(args) -> int:
    g1 = load_game(args.file1)
    g2 = load_game(args.file2)
    witness = find_isomorphism(g1, g2, budget=args.search_budget)
    if witness is None:
        print("not isomorphic")
        return 1
    pair = f"{Path(args.file1).with_suffix('')}__{Path(args.file2).stem}"
    wout = Path(args.witness_output or f"{pair}.witness")
    write_witness(witness, wout)
    print("isomorphic")
    print(f"wrote: {wout}")
    return 0


def _cmd_iso_check(args) -> int:
    base_dir, built = Path(args.file).parent, []
    doc = _document_by_text(_read(args.file), base_dir, built)
    if isinstance(doc, dict) and "morphism" in doc:
        _witness_from_document(doc, base_dir)
        print("valid isomorphism witness")
        return 0
    morphism = _validated(_morphism_parts(doc, base_dir, built))
    if is_isomorphism(morphism) is None:
        print("not an isomorphism")
        return 1
    print("valid isomorphism")
    return 0


def _cmd_subgame(args) -> int:
    game = load_game(args.file)
    node = _parse_node_argument(args.at)
    sub = subgame_at(game, node)
    out = Path(args.output or f"{Path(args.file).with_suffix('')}.subgame.game")
    write_game(sub, out)
    print(f"wrote: {out}")
    return 0


def _cmd_compose(args) -> int:
    built: list = []  # a game both documents name by one file is read once
    first, second = (
        _morphism_from_text(_read(path), Path(path).parent, built)
        for path in (args.first, args.second)
    )
    composite = compose(second, first)
    pair = f"{Path(args.first).with_suffix('')}__{Path(args.second).stem}"
    out = Path(args.output or f"{pair}.morphism")
    write_morphism(composite, out)
    print(f"wrote: {out}")
    return 0


def _limit(text: str) -> int:
    """A limit given on the command line: a whole number, 0 or more."""
    try:
        value = int(text)
    except ValueError:  # reported as for a plain ``int`` option
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative; a limit is 0 or more")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first dispatch and reused by later ones."""
    parser = argparse.ArgumentParser(
        prog="ncg",
        description="Validate, analyze, and convert node-and-choice game documents.",
    )
    parser.add_argument(
        "--strategy-cap",
        type=_limit,
        default=DEFAULT_STRATEGY_CAP,
        help="refuse exhaustive enumeration beyond this many strategies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a game document")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser(
        "derive", help="print plays, information sets, strategies, and the play table"
    )
    p.add_argument("file")
    p.set_defaults(handler=_cmd_derive)

    p = sub.add_parser("nash", help="enumerate pure-strategy equilibria")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_nash)

    p = sub.add_parser("convert", help="convert a game to a canonical node style")
    p.add_argument("--to", choices=["csq", "cset", "canonical"], required=True)
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.add_argument("-w", "--witness-output")
    p.set_defaults(handler=_cmd_convert)

    p = sub.add_parser("iso", help="search for an isomorphism between two games")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("-w", "--witness-output")
    p.add_argument("--search-budget", type=_limit, default=DEFAULT_SEARCH_BUDGET)
    p.set_defaults(handler=_cmd_iso)

    p = sub.add_parser("iso-check", help="re-validate a morphism or witness document")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_iso_check)

    p = sub.add_parser("subgame", help="extract the subgame rooted at a node")
    p.add_argument("file")
    p.add_argument("--at", required=True, help="node token or JSON node spec")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_subgame)

    p = sub.add_parser("compose", help="compose two morphism documents (first, then second)")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_compose)

    return parser


def cli_dispatch(argv) -> int:
    """Run one command; returns the exit code instead of exiting."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (NcgError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}")
        return 1


def main(argv=None) -> int:
    """The ``ncg`` command.  Reports are written as UTF-8 whatever the
    locale, as documents are."""
    reconfigure = getattr(sys.stdout, "reconfigure", None)
    if reconfigure is not None:
        reconfigure(encoding="utf-8")
    return cli_dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
