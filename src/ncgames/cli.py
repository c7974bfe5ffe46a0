"""Command-line interface.

Reports are line-oriented and deterministic: identical inputs produce
byte-identical output.  Exit codes: 0 on success, 1 when validation or
a precondition fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .documents import (
    _loads,
    _morphism_parts,
    _node_from_spec,
    _read,
    _validated,
    _witness_from_document,
    load_game,
    parse_morphism,
    write_game,
    write_morphism,
    write_witness,
)
from .errors import NcgError
from .form import player_strategies
from .game import (
    DEFAULT_SEARCH_BUDGET, compose, find_isomorphism, is_isomorphism, nash_equilibria,
    subgame_at,
)
from .labels import Atom, render_label, render_token
from .preform import DEFAULT_STRATEGY_CAP, count_grand_strategies, grand_strategies, play_of
from .transforms import canonicalize, to_choice_sequence, to_choice_set

__all__ = ["main", "cli_dispatch"]


def _strategy_tuple(ordered, s):
    """The strategy's choices listed in ``Preform.info_set_order``."""
    return tuple(c for _h, choices in ordered for c in choices if c in s)


def _render_strategy(choices) -> str:
    return "{" + ",".join(render_token(c) for c in choices) + "}"


def _render_play(play) -> str:
    return "{" + ",".join(render_label(t) for t in play.path) + "}"


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
        f"{len(game.preform.choices)} choices, {len(game.plays)} plays, "
        f"{count_grand_strategies(game.preform)} grand strategies"
    )
    return 0


def _cmd_derive(args) -> int:
    game = load_game(args.file)
    # enumerated first, so a game over the cap is refused before any
    # output; no player has more strategies than the game
    grand = grand_strategies(game.preform, cap=args.strategy_cap)
    print("players: " + ",".join(map(render_token, game.form.player_rank)))
    rank = game.tree.rank
    print("nodes: " + ",".join(map(render_label, rank)))
    print("root: " + render_label(game.tree.root))
    print(
        "decision-nodes: "
        + ",".join(render_label(t) for t in rank if t in game.tree.decision_nodes)
    )
    print("plays:")
    for play in game.tree.play_by_end.values():
        print(_render_play(play))
    ordered = game.preform.info_set_order
    print("information-sets:")
    for h, choices in ordered:
        owner = game.form.owner[choices[0]]
        listing = ",".join(render_token(c) for c in choices)
        members = ",".join(render_label(t) for t in sorted(h, key=rank.__getitem__))
        print(f"{{{members}}}: {render_token(owner)} {{{listing}}}")
    print("strategies:")
    for i in game.form.player_rank:
        options = sorted(
            _strategy_tuple(ordered, s)
            for s in player_strategies(game.form, i, cap=args.strategy_cap)
        )
        print(f"{render_token(i)}: " + " ".join(map(_render_strategy, options)))
    print("zeta:")
    for s in sorted(_strategy_tuple(ordered, s) for s in grand):
        print(f"{_render_strategy(s)} -> {_render_play(play_of(game.preform, s))}")
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
    doc = _loads(_read(args.file))
    base_dir = Path(args.file).parent
    if isinstance(doc, dict) and "morphism" in doc:
        _witness_from_document(doc, base_dir)
        print("valid isomorphism witness")
        return 0
    morphism = _validated(_morphism_parts(doc, base_dir, []))
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
    first = parse_morphism(_read(args.first), base_dir=Path(args.first).parent)
    second = parse_morphism(_read(args.second), base_dir=Path(args.second).parent)
    composite = compose(second, first)
    pair = f"{Path(args.first).with_suffix('')}__{Path(args.second).stem}"
    out = Path(args.output or f"{pair}.morphism")
    write_morphism(composite, out)
    print(f"wrote: {out}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first dispatch and reused by later ones."""
    parser = argparse.ArgumentParser(
        prog="ncg",
        description="Validate, analyze, and convert node-and-choice game documents.",
    )
    parser.add_argument(
        "--strategy-cap",
        type=int,
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
    p.add_argument("--search-budget", type=int, default=DEFAULT_SEARCH_BUDGET)
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
