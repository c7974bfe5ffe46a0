"""Textual documents for games, morphisms, and isomorphism witnesses.

The wire format is JSON tagged ``"ncg/1"``.  Utilities travel as
strings ("3", "-1/2") so no floating point ever enters the format, and
serialization is canonical: fields in a fixed order, collections
sorted, rationals in lowest terms with a positive denominator.  Parsing
a document and serializing the result reproduces the canonical text,
and any structural violation is reported through the name of the first
broken rule.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring as _encode_str
from pathlib import Path
from typing import Dict

from .errors import (
    AxiomViolation,
    DocumentError,
    DocumentSyntaxError,
    NcgError,
)
from .game import (
    Game,
    GameMorphism,
    IsoWitness,
    build_game,
    is_isomorphism,
    validate_game_morphism,
)
from .form import build_form
from .labels import Atom, NodeLabel, Seq, SetLabel
from .preform import build_preform

__all__ = [
    "FORMAT_VERSION",
    "parse_game",
    "serialize_game",
    "game_to_document",
    "parse_morphism",
    "serialize_morphism",
    "morphism_to_document",
    "parse_witness",
    "serialize_witness",
    "witness_to_document",
    "write_game",
    "write_morphism",
    "write_witness",
    "load_game",
]

FORMAT_VERSION = "ncg/1"

_RATIONAL = re.compile(r"[+-]?\d+(?:/0*[1-9]\d*)?")


def _parse_rational(value) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise DocumentSyntaxError(f"utility {value!r} is not rational text")
    if isinstance(value, int):
        return Fraction(value)
    if not _RATIONAL.fullmatch(value):
        raise DocumentSyntaxError(f"utility {value!r} is not rational text")
    try:
        return Fraction(value)
    except ValueError as exc:  # the interpreter's integer digit limit
        raise DocumentSyntaxError(
            f"utility has a number of more than {sys.get_int_max_str_digits()} digits"
        ) from exc


def _format_rational(value: Fraction) -> str:
    return str(value)


def _node_to_spec(label: NodeLabel) -> dict:
    if isinstance(label, Atom):
        return {"atom": str(label.token)}
    if isinstance(label, Seq):
        return {"seq": [str(c) for c in label.choices]}
    if isinstance(label, SetLabel):
        return {"set": sorted(str(c) for c in label.choices)}
    raise DocumentError("UnknownLabel", f"cannot serialize node label {label!r}")


def _node_from_spec(spec) -> NodeLabel:
    if not isinstance(spec, dict) or len(spec) != 1:
        raise DocumentSyntaxError(f"node spec {spec!r} must have exactly one key")
    (kind, value), = spec.items()
    if kind == "atom":
        if not isinstance(value, str):
            raise DocumentSyntaxError(f"atom token {value!r} must be text")
        return Atom(value)
    if kind in ("seq", "set"):
        if not isinstance(value, list) or not all(isinstance(c, str) for c in value):
            raise DocumentSyntaxError(f"{kind} node {value!r} must list choice tokens")
        return Seq(tuple(value)) if kind == "seq" else SetLabel(frozenset(value))
    raise DocumentSyntaxError(f"unknown node kind {kind!r}")


def _label_reader():
    """A reader of node specs that returns one label object per node.

    The first occurrence of a spec goes through ``_node_from_spec``, so
    a malformed spec is rejected with its own message; later ones reuse
    its label, found by a key built only from a value of exactly the
    type its kind requires.  Equal labels spelled otherwise (a set in
    another order) share the first one's object too.
    """
    by_key: dict = {}
    by_label: dict = {}

    def read(spec) -> NodeLabel:
        key = None
        if type(spec) is dict and len(spec) == 1:
            (kind, value), = spec.items()
            if kind == "atom":
                if type(value) is str:
                    key = kind, value
            elif type(value) is list:
                key = kind, tuple(value)
        try:
            return by_key[key]
        except (KeyError, TypeError):  # new, or holding an unhashable value
            pass
        label = _node_from_spec(spec)  # raises on every spec without a key
        label = by_key[key] = by_label.setdefault(label, label)
        return label

    return read


def _rational_reader():
    """``_parse_rational`` with one ``Fraction`` per distinct text."""
    by_text: dict = {}

    def read(value) -> Fraction:
        if type(value) is not str:  # ``True == 1``, so only text is shared
            return _parse_rational(value)
        number = by_text.get(value)
        if number is None:
            number = by_text[value] = _parse_rational(value)
        return number

    return read


def _require(mapping, key, kind, where):
    if not isinstance(mapping, dict) or key not in mapping:
        raise DocumentSyntaxError(f"{where} is missing the {key!r} field")
    value = mapping[key]
    if not isinstance(value, kind):
        raise DocumentSyntaxError(f"{where} field {key!r} has the wrong shape")
    return value


def _loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except ValueError as exc:  # the interpreter's integer digit limit
        raise DocumentSyntaxError(
            f"a number has more than {sys.get_int_max_str_digits()} digits"
        ) from exc
    except RecursionError as exc:
        raise DocumentSyntaxError("document nests too deeply") from exc


def _check_version(doc, where):
    version = _require(doc, "format_version", str, where)
    if version != FORMAT_VERSION:
        raise DocumentSyntaxError(
            f"{where} has format_version {version!r}, expected {FORMAT_VERSION!r}"
        )


def _game_from_document(doc) -> tuple:
    """The game a document describes and the reader of node specs that
    built it, which returns the game's own label for each of its nodes."""
    _check_version(doc, "game document")
    players = _require(doc, "players", list, "game document")
    if not all(isinstance(i, str) for i in players):
        raise DocumentSyntaxError("players must be text tokens")
    if len(set(players)) != len(players):
        raise DocumentSyntaxError("duplicate player entry")

    label = _label_reader()
    nodes = [label(spec) for spec in _require(doc, "nodes", list, "game document")]
    if len(set(nodes)) != len(nodes):
        raise DocumentSyntaxError("duplicate node entry")

    triples = []
    for entry in _require(doc, "edges", list, "game document"):
        if not isinstance(entry, list) or len(entry) != 3 or not isinstance(entry[1], str):
            raise DocumentSyntaxError(f"edge {entry!r} must be [node, choice, node]")
        triples.append((label(entry[0]), entry[1], label(entry[2])))

    ownership = _require(doc, "ownership", dict, "game document")
    assignment: Dict[str, frozenset] = {}
    for player, choices in ownership.items():
        if not isinstance(choices, list) or not all(isinstance(c, str) for c in choices):
            raise DocumentSyntaxError(f"ownership of {player!r} must list choice tokens")
        assignment[player] = frozenset(choices)

    rational = _rational_reader()
    utilities: Dict[str, Dict[frozenset, Fraction]] = {i: {} for i in players}
    for entry in _require(doc, "utilities", list, "game document"):
        play_nodes = _require(entry, "play", list, "utility entry")
        members = frozenset(map(label, play_nodes))
        values = _require(entry, "values", dict, "utility entry")
        for player, value in values.items():
            row = utilities.setdefault(player, {})
            if members in row:
                raise DocumentSyntaxError("duplicate utility entry for one play")
            row[members] = rational(value)

    choices = frozenset(c for _t, c, _n in triples) | frozenset(
        c for cs in assignment.values() for c in cs
    )
    try:
        preform = build_preform(nodes, choices, triples)
        form = build_form(preform, players, assignment)
        return build_game(form, utilities), label
    except NcgError as exc:
        raise AxiomViolation(exc) from exc


def parse_game(text: str) -> Game:
    """Read a game document, reporting the first violated rule by name."""
    return _game_from_document(_loads(text))[0]


def load_game(path) -> Game:
    return parse_game(Path(path).read_text())


def _game_parts(g: Game) -> tuple:
    """The canonical document for a game, with the node specs it shares.

    Nodes, edges and plays are listed in the tree's order (``Tree.rank``
    and ``Tree.play_by_end``)."""
    specs = {t: _node_to_spec(t) for t in g.tree.nodes}
    if len({json.dumps(spec, sort_keys=True) for spec in specs.values()}) != len(specs):
        raise DocumentError(
            "AtomCollision",
            "two distinct node labels serialize to the same text",
        )
    rank = g.tree.rank
    edges = sorted(
        g.preform.op.items(),
        key=lambda e: (rank[e[0][0]], str(e[0][1]), rank[e[1]]),
    )
    players = sorted(g.players, key=str)
    utilities = [
        {
            "play": [specs[t] for t in play.path],
            "values": {str(i): _format_rational(g.utilities[i][play]) for i in players},
        }
        for play in g.tree.play_by_end.values()
    ]
    doc = {
        "format_version": FORMAT_VERSION,
        "players": [str(i) for i in players],
        "nodes": [specs[t] for t in rank],
        "edges": [[specs[t], str(c), specs[t_next]] for (t, c), t_next in edges],
        "ownership": {
            str(i): sorted(str(c) for c in g.form.assignment[i]) for i in players
        },
        "utilities": utilities,
    }
    return doc, specs


def game_to_document(g: Game) -> dict:
    """The canonical document for a game."""
    return _game_parts(g)[0]


#: The writer hands text to its output in pieces of about this many
#: characters, so no text as long as a whole document is ever built.
_PIECE = 1 << 15


def _shared_containers(doc) -> set:
    """The ids of the lists and dicts that occur more than once in ``doc``."""
    seen, shared = set(), set()
    stack = [doc] if isinstance(doc, (dict, list, tuple)) else []
    while stack:
        o = stack.pop()
        if id(o) in seen:
            shared.add(id(o))
            continue
        seen.add(id(o))
        children = o.values() if isinstance(o, dict) else o
        stack.extend(c for c in children if isinstance(c, (dict, list, tuple)))
    return shared


class _JsonWriter:
    """Writes ``json.dumps(doc, indent=2, ensure_ascii=False) + "\n"``,
    byte for byte, to ``emit`` in pieces of at most ``_PIECE``
    characters, unless one string, or one list or dict of strings
    (never split), is longer.

    A list or dict that occurs more than once in the document is
    encoded once per indent level and its text reused.  Keys must be
    strings; ``encode_basestring`` raises ``TypeError`` on any other.
    """

    def __init__(self, emit):
        self.emit = emit
        self.buf = []
        self.size = 0

    def write(self, doc) -> None:
        self.shared = _shared_containers(doc)
        self.memo = {}  # (id, level) -> pieces of text
        self.value(doc, 0, "")
        self.add("\n")
        self.flush()

    def add(self, text: str) -> None:
        if self.size + len(text) > _PIECE:
            self.flush()
        self.buf.append(text)
        self.size += len(text)

    def flush(self) -> None:
        if self.buf:
            self.emit("".join(self.buf))
            self.buf = []
            self.size = 0

    def value(self, o, level: int, prefix: str) -> None:
        """Write ``prefix``, then ``o`` at indent ``level``."""
        if isinstance(o, str):
            self.add(prefix + _encode_str(o))
        elif not isinstance(o, (dict, list, tuple)):
            self.add(prefix + json.dumps(o))
        elif id(o) not in self.shared:
            self.container(o, level, prefix)
        else:
            pieces = self.memo.get((id(o), level))
            if pieces is None:
                pieces = self.memo[id(o), level] = self.capture(o, level)
            self.add(prefix)
            for piece in pieces:
                self.add(piece)

    def capture(self, o, level: int) -> list:
        """The text of one container, written into its own pieces."""
        outer = self.emit, self.buf, self.size
        pieces = []
        self.emit, self.buf, self.size = pieces.append, [], 0
        self.container(o, level, "")
        self.flush()
        self.emit, self.buf, self.size = outer
        return pieces

    def container(self, o, level: int, prefix: str) -> None:
        is_dict = isinstance(o, dict)
        if not o:
            self.add(prefix + ("{}" if is_dict else "[]"))
            return
        inner = "\n" + "  " * (level + 1)
        opening, separator = prefix + ("{" if is_dict else "[") + inner, "," + inner
        closing = "\n" + "  " * level + ("}" if is_dict else "]")
        items = o.items() if is_dict else o
        # flat containers of text, such as node specs, in one piece
        if all(isinstance(v, str) for v in (o.values() if is_dict else o)):
            texts = (
                (_encode_str(k) + ": " + _encode_str(v) for k, v in items)
                if is_dict
                else map(_encode_str, o)
            )
            self.add(opening + separator.join(texts) + closing)
            return
        prefix = opening
        for item in items:
            if is_dict:
                key, item = item
                prefix += _encode_str(key) + ": "
            self.value(item, level + 1, prefix)
            prefix = separator
        self.add(closing)


def _text(doc) -> str:
    pieces = []
    _JsonWriter(pieces.append).write(doc)
    return "".join(pieces)


def _write(doc, path) -> None:
    with Path(path).open("w") as out:
        _JsonWriter(out.write).write(doc)


def serialize_game(g: Game) -> str:
    return _text(game_to_document(g))


def write_game(g: Game, path) -> None:
    """Write ``serialize_game(g)`` to ``path`` without building the text."""
    _write(game_to_document(g), path)


def _pairs_to_map(entries, parse_left, parse_right, what) -> dict:
    if not isinstance(entries, list):
        raise DocumentSyntaxError(f"{what} must be a list of pairs")
    mapping = {}
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 2:
            raise DocumentSyntaxError(f"{what} entry {entry!r} must be a pair")
        left = parse_left(entry[0])
        if left in mapping:
            raise DocumentSyntaxError(f"{what} maps {entry[0]!r} twice")
        mapping[left] = parse_right(entry[1])
    return mapping


def _token(value):
    if not isinstance(value, str):
        raise DocumentSyntaxError(f"token {value!r} must be text")
    return value


def _game_from_ref(ref, base_dir, built: list) -> tuple:
    """The game a path or inline document names, with its reader of node
    specs; ``built`` lists the (reference, game, reader) triples read so
    far, and an equal reference reuses its game."""
    for seen, game, label in built:
        if seen == ref:
            return game, label
    if isinstance(ref, str):
        path = Path(base_dir) / ref
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise DocumentError(
                "UnreadableGame",
                f"cannot read the game at {path} ({type(exc).__name__})",
                path=str(path),
            ) from exc
        game, label = _game_from_document(_loads(text))
    elif isinstance(ref, dict):
        game, label = _game_from_document(ref)
    else:
        raise DocumentSyntaxError("game reference must be a path or an inline document")
    built.append((ref, game, label))
    return game, label


def _morphism_from_document(doc, base_dir, built: list) -> GameMorphism:
    _check_version(doc, "morphism document")
    source, source_label = _game_from_ref(
        _require(doc, "source", (str, dict), "morphism document"), base_dir, built
    )
    target, target_label = _game_from_ref(
        _require(doc, "target", (str, dict), "morphism document"), base_dir, built
    )
    iota = _pairs_to_map(doc.get("iota", []), _token, _token, "iota")
    tau = _pairs_to_map(doc.get("tau", []), source_label, target_label, "tau")
    delta = _pairs_to_map(doc.get("delta", []), _token, _token, "delta")
    beta_doc = _require(doc, "beta", dict, "morphism document")
    beta = {
        player: _pairs_to_map(entries, _parse_rational, _parse_rational, "beta")
        for player, entries in beta_doc.items()
    }
    try:
        return validate_game_morphism(source, target, iota, tau, delta, beta)
    except NcgError as exc:
        raise AxiomViolation(exc) from exc


def parse_morphism(text: str, base_dir=".") -> GameMorphism:
    """Read and validate a morphism document.

    Game references given as paths are resolved against ``base_dir``.
    """
    return _morphism_from_document(_loads(text), base_dir, [])


def _morphism_document(m: GameMorphism, built: dict) -> dict:
    """The morphism's document; ``built`` maps ``id(game)`` to the parts
    of each game's document, so each is built once per call."""
    for g in (m.source, m.target):
        if id(g) not in built:
            built[id(g)] = _game_parts(g)
    source, source_specs = built[id(m.source)]
    target, target_specs = built[id(m.target)]
    return {
        "format_version": FORMAT_VERSION,
        "source": source,
        "target": target,
        "iota": [
            [str(i), str(m.iota[i])] for i in sorted(m.iota, key=str)
        ],
        "tau": [
            [source_specs[t], target_specs[m.tau[t]]]
            for t in sorted(m.tau, key=m.source.tree.rank.__getitem__)
        ],
        "delta": [
            [str(c), str(m.delta[c])] for c in sorted(m.delta, key=str)
        ],
        "beta": {
            str(i): [
                [_format_rational(u), _format_rational(v)]
                for u, v in sorted(m.beta[i].items())
            ]
            for i in sorted(m.beta, key=str)
        },
    }


def morphism_to_document(m: GameMorphism) -> dict:
    return _morphism_document(m, {})


def serialize_morphism(m: GameMorphism) -> str:
    return _text(morphism_to_document(m))


def write_morphism(m: GameMorphism, path) -> None:
    """Write ``serialize_morphism(m)`` to ``path`` without building the text."""
    _write(morphism_to_document(m), path)


def witness_to_document(w: IsoWitness) -> dict:
    built: dict = {}
    return {
        "format_version": FORMAT_VERSION,
        "morphism": _morphism_document(w.morphism, built),
        "inverse": _morphism_document(w.inverse, built),
    }


def serialize_witness(w: IsoWitness) -> str:
    return _text(witness_to_document(w))


def write_witness(w: IsoWitness, path) -> None:
    """Write ``serialize_witness(w)`` to ``path`` without building the text."""
    _write(witness_to_document(w), path)


def parse_witness(text: str, base_dir=".") -> IsoWitness:
    """Read a witness document and re-validate both directions.

    The embedded morphism must be an isomorphism and the embedded
    inverse must equal its component-wise inverse.
    """
    return _witness_from_document(_loads(text), base_dir)


def _witness_from_document(doc, base_dir) -> IsoWitness:
    _check_version(doc, "witness document")
    built: list = []  # each game the two morphisms share is built once
    morphism = _morphism_from_document(
        _require(doc, "morphism", dict, "witness document"), base_dir, built
    )
    claimed_inverse = _morphism_from_document(
        _require(doc, "inverse", dict, "witness document"), base_dir, built
    )
    witness = is_isomorphism(morphism)
    if witness is None:
        raise DocumentError("NotAnIsomorphism", "embedded morphism does not biject")
    if witness.inverse != claimed_inverse:
        raise DocumentError(
            "InverseMismatch", "embedded inverse is not the inverse of the morphism"
        )
    return witness
