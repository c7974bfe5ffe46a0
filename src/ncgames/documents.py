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
from json.decoder import WHITESPACE
from json.encoder import encode_basestring as _encode_str
from json.scanner import make_scanner
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
    _priced,
    is_isomorphism,
    validate_game_morphism,
)
from .form import build_form
from .labels import Atom, NodeLabel, Seq, SetLabel
from .preform import _preform_from_ids
from .tree import _NodeIds, _play_with_ids

__all__ = [
    "FORMAT_VERSION",
    "parse_game",
    "serialize_game",
    "parse_morphism",
    "serialize_morphism",
    "parse_witness",
    "serialize_witness",
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


def _spec_key(spec):
    """An atom's text, which no other key equals, or a sequence's or a
    set's kind and tokens as spelled; ``None`` for some malformed specs."""
    if type(spec) is dict and len(spec) == 1:
        key = spec.get("atom")
        if type(key) is str:
            return key
        (kind, value), = spec.items()
        if type(value) is list:
            return kind, tuple(value)
    return None


def _node_reader(node_specs: list):
    """A reader of node specs that returns each node's integer id, with
    the list of labels it indexes and the set of declared nodes.

    Each spec of the ``nodes`` list goes through ``_node_from_spec``, in
    order, and its ``_spec_key`` maps to its position there.  Only a spec
    read later whose key misses (a set spelled in another order, or an
    undeclared node, which gets the next free id) is looked up by label."""
    labels = list(map(_node_from_spec, node_specs))
    nodes = frozenset(labels)
    if len(nodes) != len(labels):
        raise DocumentSyntaxError("duplicate node entry")
    by_key = {_spec_key(spec): k for k, spec in enumerate(node_specs)}
    by_label = None  # built on the first key that misses

    def read(spec) -> int:
        nonlocal by_label
        try:
            key = _spec_key(spec)
            k = by_key.get(key)
        except TypeError:  # a token that is no text
            key = k = None
        if k is None:
            if by_label is None:
                by_label = _NodeIds(labels)
            k = by_key[key] = by_label[_node_from_spec(spec)]
        return k

    return read, labels, nodes


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


_scan = make_scanner(json.JSONDecoder())  # as ``json.loads`` scans
_space = WHITESPACE.match  # the whitespace ``json.loads`` skips


def _loads(text: str):
    """``json.loads(text)``, an object value that repeats the text of an
    object decoded earlier in the document decoded once and shared.

    The top two object levels are walked here and each deeper value is
    decoded in one scanner call, so a witness decodes each game once.
    An object's text ends at its own closing brace and decoding is
    deterministic, so a value whose text starts with an earlier
    object's whole text decodes to that object.  Any failure falls back
    to ``json.loads``, whose error is the one reported."""
    try:
        start = _space(text).end()
        if not text.startswith("{", start):
            raise ValueError("not an object")
        doc, end = _object(text, start, 2, [])
        if _space(text, end).end() != len(text):
            raise ValueError("extra data")
        return doc
    except (ValueError, TypeError, IndexError, StopIteration, RecursionError):
        pass
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


def _object(text: str, at: int, levels: int, decoded: list) -> tuple:
    """The object whose text starts at ``at`` and the index past it.
    Its members are read here; a member value that is an object is one
    of ``decoded``, the (start, end, value) of each object decoded so
    far, when its text repeats that one's, and is otherwise walked the
    same way while ``levels`` remain, else decoded in one scanner call.
    Raises on any text this walk does not read as ``json.loads`` does."""
    doc = {}
    at = _space(text, at + 1).end()
    if text[at] == "}":
        return doc, at + 1
    while True:
        if text[at] != '"':
            raise ValueError("expected a key")
        key, at = _scan(text, at)
        at = _space(text, at).end()
        if text[at] != ":":
            raise ValueError("expected a colon")
        at = _space(text, at + 1).end()
        if text[at] != "{":
            value, at = _scan(text, at)
        else:
            repeat = _repeated(text, at, decoded)
            if repeat is not None:
                value, at = repeat
            else:
                start = at
                if levels > 1:
                    value, at = _object(text, at, levels - 1, decoded)
                else:
                    value, at = _scan(text, at)
                decoded.append((start, at, value))
        doc[key] = value
        at = _space(text, at).end()
        if text[at] == "}":
            return doc, at + 1
        if text[at] != ",":
            raise ValueError("expected a comma")
        at = _space(text, at + 1).end()


def _repeated(text: str, at: int, decoded: list):
    """The value and end of the first object of ``decoded`` whose whole
    text the text at ``at`` starts with, or ``None``; the last
    characters are compared first, so that only a likely repeat is
    compared whole."""
    for first, last, value in decoded:
        n = last - first
        tail = min(n, 64)
        if text.startswith(text[last - tail:last], at + n - tail) and text.startswith(
            text[first:last], at
        ):
            return value, at + n
    return None


def _check_version(doc, where):
    version = _require(doc, "format_version", str, where)
    if version != FORMAT_VERSION:
        raise DocumentSyntaxError(
            f"{where} has format_version {version!r}, expected {FORMAT_VERSION!r}"
        )


def _read_rows(rows, players, read, labels, rational, plays, node_specs) -> dict:
    """Each player's utility row, mapping each slot that ``_priced``
    reads to its value; each row is read once, in document order, so the
    first broken rule is the one reported.

    A play is fixed by its end, so a row is looked up by the id of its
    last spec in ``plays`` (a tree's plays by end id, each with its
    position and id path) and priced at that position when it lists
    exactly the specs of ``node_specs`` at its id path.  Any other row
    is read spec by spec and priced at the position of the play with
    its set of node ids, or keyed by its set of nodes when that is no
    play, as every row is when ``plays`` is empty (the preform or form
    did not build)."""
    utilities: Dict[str, dict] = {i: {} for i in players}
    for entry in rows:
        play_specs = _require(entry, "play", list, "utility entry")
        try:
            slot, ids = plays[read(play_specs[-1])]
        except (NcgError, LookupError):  # no spec, a malformed one, or no end
            ids = None
        if ids is None or play_specs != list(map(node_specs.__getitem__, ids)):
            found = frozenset(map(read, play_specs))
            end = _play_with_ids(plays, found)
            slot = frozenset(map(labels.__getitem__, found)) if end is None else plays[end][0]
        values = _require(entry, "values", dict, "utility entry")
        for player, value in values.items():
            row = utilities.setdefault(player, {})
            if slot in row:
                raise DocumentSyntaxError("duplicate utility entry for one play")
            row[slot] = rational(value)
    return utilities


def _game_from_document(doc) -> tuple:
    """The game a document describes and a reader of node specs that
    returns the game's own label for each of its nodes.

    Nodes are read as their positions in the ``nodes`` list, and edges
    as triples of them.  Utility rows are read after the preform and
    form are built, so a row can be read by its end; a fault in a row
    is still reported before a fault of the tree."""
    _check_version(doc, "game document")
    players = _require(doc, "players", list, "game document")
    if not all(isinstance(i, str) for i in players):
        raise DocumentSyntaxError("players must be text tokens")
    if len(set(players)) != len(players):
        raise DocumentSyntaxError("duplicate player entry")

    node_specs = _require(doc, "nodes", list, "game document")
    read, labels, nodes = _node_reader(node_specs)

    triples = []
    for entry in _require(doc, "edges", list, "game document"):
        if not isinstance(entry, list) or len(entry) != 3 or not isinstance(entry[1], str):
            raise DocumentSyntaxError(f"edge {entry!r} must be [node, choice, node]")
        triples.append((read(entry[0]), entry[1], read(entry[2])))

    ownership = _require(doc, "ownership", dict, "game document")
    assignment: Dict[str, frozenset] = {}
    for player, choices in ownership.items():
        if not isinstance(choices, list) or not all(isinstance(c, str) for c in choices):
            raise DocumentSyntaxError(f"ownership of {player!r} must list choice tokens")
        assignment[player] = frozenset(choices)

    rows = _require(doc, "utilities", list, "game document")
    choices = frozenset(c for _t, c, _n in triples) | frozenset(
        c for cs in assignment.values() for c in cs
    )
    fault = None
    plays: dict = {}
    try:
        preform = _preform_from_ids(nodes, labels, choices, triples)
        form = build_form(preform, players, assignment)
    except NcgError as exc:
        fault = exc
    else:
        plays = preform.tree._ids.plays
    utilities = _read_rows(
        rows, players, read, labels, _rational_reader(), plays, node_specs
    )
    try:
        if fault is not None:
            raise fault
        game = _priced(form, {i: row.items() for i, row in utilities.items()})
    except NcgError as exc:
        raise AxiomViolation(exc) from exc
    return game, lambda spec: labels[read(spec)]


def _open(path, mode: str = "r"):
    """A document file, read or written as UTF-8 whatever the locale."""
    return Path(path).open(mode, encoding="utf-8")


def _read(path) -> str:
    with _open(path) as file:
        return file.read()


def parse_game(text: str) -> Game:
    """Read a game document, reporting the first violated rule by name."""
    return _game_from_document(_loads(text))[0]


def load_game(path) -> Game:
    return parse_game(_read(path))


def _items(texts, level: int):
    """A list at indent ``level`` in the layout of ``json.dumps(...,
    indent=2)``, one piece per item; ``texts`` are the items' texts,
    already indented for ``level + 1``."""
    inner = "\n" + "  " * (level + 1)
    opening = prefix = "[" + inner
    for text in texts:
        yield prefix + text
        prefix = "," + inner
    yield "[]" if prefix is opening else "\n" + "  " * level + "]"


def _members(members, level: int):
    """A dict at indent ``level`` in the same layout; ``members`` are
    (key, pieces) pairs, each value's pieces already indented for it."""
    inner = "\n" + "  " * (level + 1)
    opening = prefix = "{" + inner
    for key, pieces in members:
        yield prefix + _encode_str(key) + ": "
        yield from pieces
        prefix = "," + inner
    yield "{}" if prefix is opening else "\n" + "  " * level + "}"


def _list(texts, level: int) -> str:
    """``"".join(_items(texts, level))`` from one template: ``texts``
    are the items' texts, none of them empty."""
    inner = "\n" + "  " * (level + 1)
    body = ("," + inner).join(texts)
    return "[" + inner + body + inner[:-2] + "]" if body else "[]"


def _encode(value, level: int) -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)`` at indent
    ``level``, for text, lists of text or of lists of text, and dicts of
    those.  A list is formatted from templates, so only a dict's values
    are encoded by a further call."""
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, dict):
        members = ((k, [_encode(v, level + 1)]) for k, v in value.items())
        return "".join(_members(members, level))
    return _list([
        _encode_str(v) if isinstance(v, str) else _list(map(_encode_str, v), level + 1)
        for v in value
    ], level)


def _indent(texts: list, levels: int) -> list:
    """The texts moved ``levels`` indent levels deeper."""
    pad = "\n" + "  " * levels
    return [text.replace("\n", pad) for text in texts]


def _spec_text(label: NodeLabel, level: int) -> str:
    """The text of ``label``'s node spec at indent ``level``: ``{"atom":
    token}``, ``{"seq": [token, ...]}`` or ``{"set": [token, ...]}``,
    the set's tokens sorted, each formatted from one template."""
    outer = "\n" + "  " * level
    inner = outer + "  "
    if isinstance(label, Atom):
        return "{" + inner + '"atom": ' + _encode_str(str(label.token)) + outer + "}"
    if isinstance(label, Seq):
        kind, tokens = '"seq": ', map(str, label.choices)
    elif isinstance(label, SetLabel):
        kind, tokens = '"set": ', sorted(map(str, label.choices))
    else:
        raise DocumentError("UnknownLabel", f"cannot serialize node label {label!r}")
    return "{" + inner + kind + _list(map(_encode_str, tokens), level + 1) + outer + "}"


def _node_texts(g: Game, level: int) -> list:
    """Each node's spec text at indent ``level``, by node id.

    Two distinct labels with one text raise ``AtomCollision`` here,
    before any piece of a document is produced."""
    texts = [_spec_text(t, level) for t in g.tree._ids.labels]
    if len(set(texts)) != len(texts):
        raise DocumentError(
            "AtomCollision",
            "two distinct node labels serialize to the same text",
        )
    return texts


def _game_pieces(g: Game, level: int, nodes: list):
    """The canonical text of a game's document at indent ``level``, one
    piece per node, edge and play row; ``nodes`` is
    ``_node_texts(g, level + 2)``, the texts of the node list.

    Nodes, edges and plays are listed in the tree's order (``Tree.rank``
    and ``Tree.play_by_end``), read from the id cores of the tree, the
    preform and the game.  Each edge triple and play row is one join of
    a template's pieces."""
    players = sorted(g.players, key=str)
    tree = g.tree._ids
    rank = tree.rank
    edges = sorted(
        g.preform._ids.op.items(),
        key=lambda e: (rank[e[0][0]], str(e[0][1]), rank[e[1]]),
    )
    edge_specs, play_specs = _indent(nodes, 1), _indent(nodes, 2)
    # each play row, {"play": [spec, ...], "values": {player: value, ...}}, is one join
    pad = "\n" + "  " * (level + 3)
    opening, separator = "{" + pad + '"play": [' + pad + "  ", "," + pad + "  "
    values, closing = pad + "]," + pad + '"values": ', "\n" + "  " * (level + 2) + "}"
    keys = [pad + "  " + _encode_str(str(i)) + ": " for i in players]
    tables = [g._ids.values[i] for i in players]
    ownership = {str(i): sorted(str(c) for c in g.form.assignment[i]) for i in players}
    return _members((
        ("format_version", [_encode_str(FORMAT_VERSION)]),
        ("players", [_encode([str(i) for i in players], level + 1)]),
        ("nodes", _items(map(nodes.__getitem__, tree.order), level + 1)),
        ("edges", _items((
            _list((edge_specs[t], _encode_str(str(c)), edge_specs[u]), level + 2)
            for (t, c), u in edges
        ), level + 1)),
        ("ownership", [_encode(ownership, level + 1)]),
        ("utilities", _items((
            opening + separator.join(map(play_specs.__getitem__, path)) + values
            + ("{" + ",".join([k + _encode_str(str(v[p])) for k, v in zip(keys, tables)])
               + pad + "}" if players else "{}")
            + closing
            for p, path in tree.plays.values()
        ), level + 1)),
    ), level)


def _embedded(games, level: int) -> dict:
    """Maps ``id(g)`` of each game embedded at indent ``level`` to its
    node texts by id and its pieces.  A game embedded more than once is
    rendered once, into a list that each embedding writes; any other is
    rendered as it is written."""
    built: dict = {}
    for g in games:
        if id(g) in built:
            nodes, pieces = built[id(g)]
            built[id(g)] = nodes, list(pieces)
        else:
            nodes = _node_texts(g, level + 2)
            built[id(g)] = nodes, _game_pieces(g, level, nodes)
    return built


def _write(pieces, path) -> None:
    """Write the document's pieces, then its final newline, to ``path``."""
    with _open(path, "w") as out:
        out.writelines(pieces)
        out.write("\n")


def serialize_game(g: Game) -> str:
    return "".join(_game_pieces(g, 0, _node_texts(g, 2))) + "\n"


def write_game(g: Game, path) -> None:
    """Write ``serialize_game(g)`` to ``path`` without building the text."""
    _write(_game_pieces(g, 0, _node_texts(g, 2)), path)


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
            text = _read(path)
        except (OSError, UnicodeDecodeError) as exc:
            raise DocumentError(
                "UnreadableGame",
                f"cannot read the game at {path} ({type(exc).__name__})",
                path=str(path),
            ) from exc
        game, label = _game_from_document(_loads(text))
    else:
        game, label = _game_from_document(ref)
    built.append((ref, game, label))
    return game, label


def _morphism_parts(doc, base_dir, built: list) -> tuple:
    """The games and maps of a morphism document, not yet validated."""
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
    rational = _rational_reader()
    beta = {
        player: _pairs_to_map(entries, rational, rational, "beta")
        for player, entries in beta_doc.items()
    }
    return source, target, iota, tau, delta, beta


def _validated(parts: tuple) -> GameMorphism:
    try:
        return validate_game_morphism(*parts)
    except NcgError as exc:
        raise AxiomViolation(exc) from exc


def parse_morphism(text: str, base_dir=".") -> GameMorphism:
    """Read and validate a morphism document.

    Game references given as paths are resolved against ``base_dir``.
    """
    return _validated(_morphism_parts(_loads(text), base_dir, []))


def _morphism_pieces(m: GameMorphism, level: int, built: dict):
    """The canonical text of a morphism's document at indent ``level``,
    in pieces; ``built`` is ``_embedded`` of its source and target at
    ``level + 1``, whose node texts are also those of ``tau``."""
    source_nodes, source = built[id(m.source)]
    target_nodes, target = built[id(m.target)]
    ids = m.source.tree._ids
    target_text = dict(zip(m.target.tree._ids.labels, target_nodes))
    iota = [[str(i), str(m.iota[i])] for i in sorted(m.iota, key=str)]
    delta = [[str(c), str(m.delta[c])] for c in sorted(m.delta, key=str)]
    beta = {
        str(i): [[str(u), str(v)] for u, v in sorted(m.beta[i].items())]
        for i in sorted(m.beta, key=str)
    }
    return _members((
        ("format_version", [_encode_str(FORMAT_VERSION)]),
        ("source", source),
        ("target", target),
        ("iota", [_encode(iota, level + 1)]),
        ("tau", _items((
            _list((source_nodes[k], target_text[m.tau[ids.labels[k]]]), level + 2)
            for k in ids.order
        ), level + 1)),
        ("delta", [_encode(delta, level + 1)]),
        ("beta", [_encode(beta, level + 1)]),
    ), level)


def serialize_morphism(m: GameMorphism) -> str:
    return "".join(_morphism_pieces(m, 0, _embedded((m.source, m.target), 1))) + "\n"


def write_morphism(m: GameMorphism, path) -> None:
    """Write ``serialize_morphism(m)`` to ``path`` without building the text."""
    _write(_morphism_pieces(m, 0, _embedded((m.source, m.target), 1)), path)


def _witness_pieces(w: IsoWitness):
    """The canonical text of a witness's document, in pieces.  Each of
    its games is rendered once, and its spec texts are checked before
    the first piece."""
    m, inverse = w.morphism, w.inverse
    built = _embedded((m.source, m.target, inverse.source, inverse.target), 2)
    return _members((
        ("format_version", [_encode_str(FORMAT_VERSION)]),
        ("morphism", _morphism_pieces(m, 1, built)),
        ("inverse", _morphism_pieces(inverse, 1, built)),
    ), 0)


def serialize_witness(w: IsoWitness) -> str:
    return "".join(_witness_pieces(w)) + "\n"


def write_witness(w: IsoWitness, path) -> None:
    """Write ``serialize_witness(w)`` to ``path`` without building the text."""
    _write(_witness_pieces(w), path)


def parse_witness(text: str, base_dir=".") -> IsoWitness:
    """Read a witness document, validating only its morphism.

    The morphism must be an isomorphism and the embedded inverse must
    equal its component-wise inverse; one that differs is validated first.
    """
    return _witness_from_document(_loads(text), base_dir)


def _witness_from_document(doc, base_dir) -> IsoWitness:
    _check_version(doc, "witness document")
    built: list = []  # each game the two morphisms share is built once
    morphism = _validated(_morphism_parts(
        _require(doc, "morphism", dict, "witness document"), base_dir, built
    ))
    claimed = _morphism_parts(
        _require(doc, "inverse", dict, "witness document"), base_dir, built
    )
    witness = is_isomorphism(morphism)
    m = witness and witness.inverse
    if m and claimed == (m.source, m.target, m.iota, m.tau, m.delta, m.beta):
        return witness
    _validated(claimed)
    if witness is None:
        raise DocumentError("NotAnIsomorphism", "embedded morphism does not biject")
    raise DocumentError(
        "InverseMismatch", "embedded inverse is not the inverse of the morphism"
    )
