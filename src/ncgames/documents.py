"""Textual documents for games, morphisms, and isomorphism witnesses.

The wire format is JSON tagged ``"ncg/1"``.  Utilities travel as
strings ("3", "-1/2") so no floating point ever enters the format, and
serialization is canonical: fields in a fixed order, collections
sorted, rationals in lowest terms with a positive denominator.  Parsing
a document and serializing the result reproduces the canonical text,
and any structural violation is reported through the name of the first
broken rule.

Documents are read without decoding most of their text.  A game's node
list and edges are decoded in one scanner call each; atoms become labels
straight from their tokens, and edges between atoms are looked up by
those tokens a list at a time (``_nodes_from_specs``, ``_edge_ids``).
Its utility rows and a morphism's ``tau`` pairs, in ``ncg``'s layout
or on one line, are split by one splitter (``_split``), and each row's
play and each pair's specs matched against the texts of the game's
plays (``_split_rows``) and node specs (``_tau_by_text``), spelled by
``_spec_texts`` as the writer spells them.  A list with a row or a pair
that matches nothing is decoded whole.  Matched rows that price each
play once with a text for each declared player are priced a player's
column at a time (``_by_column``), each distinct text read once; any
other rows are read cell by cell (``_read_rows``).  A game embedded
in a morphism or a witness is read the same way over its own span of
the text, once however often its text repeats.  A document that route
does not read is decoded whole and read as before, so every verdict and
message is the same.  A token that decodes to a surrogate, which UTF-8
cannot encode, is refused on either route (``_encodable``).

Documents are written straight from the id cores: each node's spec text
is spelled once, and each edge triple, play row and map pair is one
join of its template's parts.  The pieces are chained, without a frame
per nesting level, and written in chunks of about ``_CHUNK`` characters,
each joined, encoded and written by one call (``_write``).
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction
from itertools import chain, repeat
from json.decoder import WHITESPACE
from json.encoder import encode_basestring as _encode_str
from json.scanner import make_scanner
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, NamedTuple

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
    _utility_ids,
    _utility_ranks,
    is_isomorphism,
    validate_game_morphism,
)
from .form import build_form
from .labels import Atom, NodeLabel, Seq, SetLabel
from .preform import _preform_from_ids
from .tree import _IdMap, _NodeIds, _play_with_ids

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

# a utility's text: its numerator, then its denominator if it has one
_RATIONAL = re.compile(r"([+-]?\d+)(?:/(0*[1-9]\d*))?")

# a surrogate code point, which no UTF-8 text holds: JSON decodes a lone
# \ud800 escape to one, and a pair of escapes to the character they spell
_SURROGATE = re.compile(r"[\ud800-\udfff]")


def _unencodable(texts: list):
    """The first of ``texts`` that holds a surrogate, or ``None``.  An
    ASCII text is passed at the cost of ``str.isascii``, which reads a
    flag of the string, not its characters."""
    if all(map(str.isascii, texts)):
        return None
    return next(filter(_SURROGATE.search, texts), None)


def _encodable(tokens: list) -> None:
    """Refuse a token that holds a surrogate: no document that holds one
    can be written back or printed, as UTF-8 cannot encode it."""
    bad = _unencodable(tokens)
    if bad is not None:
        raise DocumentSyntaxError(
            f"token {bad!r} holds a lone surrogate, which UTF-8 cannot encode"
        )


def _node_from_spec(spec) -> NodeLabel:
    if not isinstance(spec, dict) or len(spec) != 1:
        raise DocumentSyntaxError(f"node spec {spec!r} must have exactly one key")
    (kind, value), = spec.items()
    if kind == "atom":
        if not isinstance(value, str):
            raise DocumentSyntaxError(f"atom token {value!r} must be text")
        _encodable([value])
        return Atom(value)
    if kind in ("seq", "set"):
        if not isinstance(value, list) or not all(isinstance(c, str) for c in value):
            raise DocumentSyntaxError(f"{kind} node {value!r} must list choice tokens")
        _encodable(value)
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


def _node_reader(labels: list, by_key: dict) -> Callable:
    """A reader of node specs that returns each node's integer id, its
    position in ``labels``; ``by_key`` maps each declared spec's
    ``_spec_key`` to its id.  Only a spec whose key misses (a set spelled
    in another order, or an undeclared node, which gets the next free id)
    is looked up by label, and its key kept."""
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

    return read


class _Nodes:
    """The nodes a game's ``nodes`` list declares: their labels by id,
    the set of them, the list's specs as decoded, each node's id by the
    ``_spec_key`` of its spec, a reader of node specs (``_node_reader``),
    and the texts of their specs in each layout asked for
    (``spec_texts``)."""

    def __init__(self, labels: list, by_key: dict, specs: list):
        self.labels = labels
        self.nodes = frozenset(labels)
        if len(self.nodes) != len(labels):
            raise DocumentSyntaxError("duplicate node entry")
        self.by_key = by_key
        self.read = _node_reader(labels, by_key)
        self.specs = specs
        self.texts: dict = {}

    def spec_texts(self, pad: str) -> list:
        """The text of each node's spec by id, in ``_spec_texts``'s layout
        ``pad``, spelled once per layout."""
        texts = self.texts.get(pad)
        if texts is None:
            texts = self.texts[pad] = _spec_texts(self.specs, pad)
        return texts

    def spec_ids(self, pad: str) -> dict:
        """Each node's id by its spec's text in the layout ``pad``."""
        texts = self.spec_texts(pad)
        return dict(zip(texts, range(len(texts))))


def _nodes_from_specs(specs: list) -> _Nodes:
    """The nodes of a decoded ``nodes`` list.  When each spec is an
    atom's, ``{"atom": token}`` with a text token, the labels are built
    from the tokens a list at a time; else each spec is read by
    ``_node_from_spec``, in order, so the first malformed one is the one
    reported."""
    try:
        tokens = list(map(itemgetter("atom"), specs))
    except (KeyError, TypeError):  # a spec of another kind, or no object
        tokens = None
    if tokens is not None and set(map(len, specs)) == {1} and set(map(type, tokens)) == {str}:
        _encodable(tokens)
        return _Nodes(list(map(Atom, tokens)), dict(zip(tokens, range(len(tokens)))), specs)
    labels = list(map(_node_from_spec, specs))
    by_key = {_spec_key(spec): k for k, spec in enumerate(specs)}
    return _Nodes(labels, by_key, specs)


def _rational_reader():
    """A reader of utilities, integers or text that ``_RATIONAL`` matches,
    with one ``Fraction`` per distinct text.  Each text is parsed once,
    by the match, and its parts are read as integers."""
    by_text: dict = {}

    def read(value) -> Fraction:
        if type(value) is str:  # ``True == 1``, so only text is shared
            number = by_text.get(value)
            if number is not None:
                return number
        elif isinstance(value, int) and not isinstance(value, bool):
            return Fraction(value)
        match = isinstance(value, str) and _RATIONAL.fullmatch(value)
        if not match:
            raise DocumentSyntaxError(f"utility {value!r} is not rational text")
        try:
            number = by_text[value] = Fraction(int(match[1]), int(match[2] or 1))
        except ValueError as exc:  # the interpreter's integer digit limit
            raise DocumentSyntaxError(
                f"utility has a number of more than {sys.get_int_max_str_digits()} digits"
            ) from exc
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
    """``json.loads(text)``, its failure raised as a ``DocumentSyntaxError``:
    the strict route, which the text routes fall back to."""
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


def _object(text: str, at: int, stop=None, members=None) -> tuple:
    """The object whose text starts at ``at`` and the index past it.
    Its members are read here, each value that ``members`` has no reader
    for decoded in one scanner call.  With ``stop``, the walk ends at the
    first member of that name, which maps to the index of its value,
    undecoded.  ``members`` maps a name to the reader of its value: given
    the value's index and the members read so far, it returns the value
    and the index past it.  Raises on any text this walk does not read as
    ``json.loads`` does."""
    doc = {}
    if text[at] != "{":
        raise ValueError("expected an object")
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
        if key == stop:
            doc[key] = at
            return doc, at
        if members and key in members:
            doc[key], at = members[key](at, doc)
        else:
            doc[key], at = _scan(text, at)
        at = _space(text, at).end()
        if text[at] == "}":
            return doc, at + 1
        if text[at] != ",":
            raise ValueError("expected a comma")
        at = _space(text, at + 1).end()


def _repeated(text: str, at: int, decoded: list):
    """The value and end of the first object of ``decoded``, the (start,
    end, value) of each object read so far, whose whole text the text at
    ``at`` starts with, or ``None``; the last characters are compared
    first, so that only a likely repeat is compared whole."""
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


def _read_rows(rows, players, nodes: _Nodes, rational, plays, paths) -> dict:
    """Each player's utility row, mapping each slot that ``_priced``
    reads to its value; each row is read once, in document order, so the
    first broken rule is the one reported.

    Rows that ``_rows_by_text`` matched by their text come as the pair
    of lists of their plays' positions and their ``values``.  A decoded
    row is looked up by the id of its last spec in ``plays`` (a tree's
    plays by end id) and priced at that play's position when it lists
    exactly the specs of ``nodes`` at the play's id path in ``paths``.
    Any other row is read spec by spec and priced at the position of the
    play with its set of node ids, or keyed by its set of nodes when
    that is no play, as every row is when ``plays`` is empty (the
    preform or form did not build)."""
    read, labels = nodes.read, nodes.labels

    def decoded(entry) -> tuple:
        play_specs = _require(entry, "play", list, "utility entry")
        try:
            slot = plays[read(play_specs[-1])]
            ids = paths[slot]
        except (NcgError, LookupError):  # no spec, a malformed one, or no end
            ids = None
        if ids is None or play_specs != list(map(nodes.specs.__getitem__, ids)):
            found = frozenset(map(read, play_specs))
            end = _play_with_ids(plays, paths, found)
            slot = frozenset(map(labels.__getitem__, found)) if end is None else plays[end]
        return slot, _require(entry, "values", dict, "utility entry")

    utilities: Dict[str, dict] = {i: {} for i in players}
    for slot, values in zip(*rows) if type(rows) is tuple else map(decoded, rows):
        for player, value in values.items():
            row = utilities.setdefault(player, {})
            if slot in row:
                raise DocumentSyntaxError("duplicate utility entry for one play")
            row[slot] = rational(value)
    return utilities


def _by_column(form, slots: list, values: list, rational) -> Game | None:
    """The game whose rows ``_split_rows`` matched, their plays' positions
    and their ``values``, priced a player's column at a time; ``None``,
    which leaves the rows to ``_read_rows``, unless the rows price each
    play once, each names exactly the declared players and every value
    is rational text.  Each distinct text of a column is read once, and
    its number placed at each of its plays' positions by C-level maps;
    the range is the column's distinct numbers, so no cell is checked,
    hashed or keyed one at a time."""
    players, n = form.player_rank, len(slots)
    if n != len(form.preform.tree._ids.paths) or len(set(slots)) != n:
        return None
    rows = list(map(values.__getitem__, sorted(range(n), key=slots.__getitem__)))  # by play
    try:
        columns = [list(map(itemgetter(i), rows)) for i in players]
    except KeyError:  # a row omits a player
        return None
    if set(map(len, rows)) != {len(players)} or set(map(type, chain(*columns))) != {str}:
        return None
    try:  # a text that is no rational is reported row by row, as ``_read_rows`` reads
        numbers = [dict(zip(texts, map(rational, texts))) for texts in map(dict.fromkeys, columns)]
    except NcgError:
        return None
    ids = SimpleNamespace(values={}, rows=dict.fromkeys(players, slots), ranks={})
    ranges = {}
    for i, column, number in zip(players, columns, numbers):
        ids.values[i] = list(map(number.__getitem__, column))
        ranges[i] = frozenset(number.values())
    return Game(form=form, ranges=ranges, _ids=ids)


def _spec_texts(specs: list, pad: str) -> list:
    """The text of each node spec, decoded from a ``nodes`` list or built
    by ``_spec``, as ``json.dumps`` writes it on one line when ``pad`` is
    empty, else indented by two from ``pad``, a newline and the spec's
    own indent.  A sequence's or a set's tokens are spelled in their own
    order, so each text decodes to its spec."""
    inner = pad and pad + "  "
    try:
        head, tail = "{" + inner + '"atom": ', pad + "}"
        return [head + _encode_str(spec["atom"]) + tail for spec in specs]
    except KeyError:  # a sequence or set spec
        pass
    deep, comma = (inner + "  ", ",") if pad else ("", ", ")
    texts = []
    for spec in specs:
        (kind, value), = spec.items()
        if kind == "atom":
            value = _encode_str(value)
        else:
            tokens = (comma + deep).join(map(_encode_str, value))
            value = "[" + deep + tokens + inner + "]" if tokens else "[]"
        texts.append("{" + inner + '"' + kind + '": ' + value + pad + "}")
    return texts


def _split(text: str, first: int, lead: str, head: str, close: str, least: int = 0):
    """The texts of the items of the list whose first item starts at
    ``first``, with ``lead`` before each, each between an item's ``head``
    and ``close``, and the index past the list, or ``None``.  The list's
    end is searched for past ``least``, a lower bound on the length of
    its items' texts, and the list is split at the text between two
    items in one pass; the caller checks each text, which a token that
    holds that text, or the list's end, splits wrongly."""
    if not text.startswith(head, first):
        return None
    first += len(head)
    ending = close + lead[:-2] + "]"
    end = text.find(ending, first + least)
    if end < 0:
        return None
    between = close + ("," if lead else ", ") + lead + head
    return text[first:end].split(between), end + len(ending)


def _layout(text: str, at: int) -> tuple:
    """The index of the first item of the list whose text starts at
    ``at``, and the text before each item when the list is laid out as
    ``json.dumps`` lays one out on one line or indented by two (none, or
    a newline and the item's indent), else ``None``."""
    if text[at] != "[":
        raise ValueError("expected a list")
    start, at = at, _space(text, at + 1).end()
    lead = text[start + 1:at]
    return at, lead if lead in ("", "\n" + " " * (len(lead) - 1)) else None


# the rows of a game of fewer plays are decoded: splitting them costs
# more (the crossover is at nine to twelve rows on the families of
# ``bench/families.py``; six rows took a quarter longer split)
_FEW = 12


def _rows_by_text(text: str, at: int, tree, nodes: _Nodes) -> tuple:
    """The utility rows of the list whose text starts at ``at``, each as
    ``json.loads`` reads it, and the index past the game's object, which
    the list must close.  Given the id core of the game's tree, the rows
    of a game of ``_FEW`` plays or more, laid out as ``_layout`` reads,
    are read by ``_split_rows``; any others are decoded whole."""
    first, lead = _layout(text, at)
    found = None
    if tree is not None and len(tree.paths) >= _FEW and lead is not None:
        found = _split_rows(text, first, lead, tree, nodes)
    rows, at = found or _scan(text, at)
    at = _space(text, at).end()
    if text[at] != "}":
        raise ValueError("the utilities are not the game's last member")
    return rows, at + 1


def _split_rows(text: str, first: int, lead: str, tree, nodes: _Nodes):
    """The rows of the list whose first row starts at ``first``, with
    ``lead`` before each, as the positions of their plays and their
    ``values``, and the index past the list; ``None`` unless each row's
    ``play`` has exactly the text of a play, each spec's text by
    ``_Nodes.spec_texts``.  ``tree`` is the id core of the game's tree.

    The list is split by ``_split``, and each row at the last text
    before its ``values``; no play's spec is decoded.  The ``values``
    are decoded in one scanner call, each between its braces, joined by
    a newline, which no text of a string holds; ``_read_rows`` refuses a
    value that is a list or an object, so each object read is one row's."""
    indent = lead and lead + "  "  # each member of a row
    pad = indent and indent + "  "  # each spec of its play
    comma = "," if lead else ", "
    middle = indent + "]" + comma + indent + '"values": {'
    texts = nodes.spec_texts(pad)
    prefix, parent, sep = list(texts), tree.parent, comma + pad
    for k in tree.walk[1:]:  # each node's play so far, parents first
        prefix[k] = prefix[parent[k]] + sep + texts[k]
    keys = list(map(prefix.__getitem__, map(itemgetter(-1), tree.paths)))  # by position
    del prefix  # the texts of inner nodes, freed before the rows are split
    # a row for each play holds its text, so the list closes past them all
    n, head = len(keys), "{" + indent + '"play": [' + pad
    found = _split(text, first, lead, head, "}" + lead + "}", sum(map(len, keys)) + n * len(middle))
    if found is None:
        return None
    rows, end = found
    parts = list(map(str.rpartition, rows, repeat(middle)))
    slots = list(map(dict(zip(keys, range(n))).get, map(itemgetter(0), parts)))
    if None in slots or set(map(itemgetter(1), parts)) != {middle}:
        return None
    joined = "[{" + "},\n{".join(map(itemgetter(2), parts)) + "}]"
    try:
        values, at = _scan(joined, 0)
    except (ValueError, StopIteration):
        return None
    if at != len(joined) or len(values) != len(slots) or set(map(type, values)) != {dict}:
        return None
    return (slots, values), end


def _edge_ids(edges: list, nodes: _Nodes) -> list:
    """The (node, choice, node) id triples of a decoded ``edges`` list.
    When each edge lists two atoms that ``nodes`` declares and a text
    choice, the ids are looked up by the atoms' tokens a list at a time;
    else each edge is read in turn by ``nodes.read``, so the first
    malformed one is the one reported."""
    try:  # an edge of fewer than three items fails the unpacking
        sources, choices, targets = zip(*edges)
        heads = list(map(nodes.by_key.get, map(itemgetter("atom"), sources)))
        tails = list(map(nodes.by_key.get, map(itemgetter("atom"), targets)))
        n = len(edges)
        if (
            None not in heads and None not in tails and sum(map(len, edges)) == 3 * n
            and sum(map(len, sources)) == sum(map(len, targets)) == n
            and set(map(type, choices)) == {str}
        ):
            return list(zip(heads, choices, tails))
    except (KeyError, TypeError, ValueError):  # a spec of another kind, or no edge
        pass
    triples, read = [], nodes.read
    for entry in edges:
        if not isinstance(entry, list) or len(entry) != 3 or not isinstance(entry[1], str):
            raise DocumentSyntaxError(f"edge {entry!r} must be [node, choice, node]")
        triples.append((read(entry[0]), entry[1], read(entry[2])))
    return triples


def _game_from_document(doc, rows_at=None) -> tuple:
    """The game a document describes as a ``_Read``, whose reader of node
    specs returns the game's node id of each, numbering a spec of no node
    of the game past its nodes, and ``None``.

    Nodes are read as their positions in the ``nodes`` list, and edges
    as triples of them.  Utility rows are read after the preform and
    form are built, so a row can be read by its end; a fault in a row
    is still reported before a fault of the tree.  Given ``rows_at``, a
    document's text and the index of its ``utilities`` list, which
    ``doc`` lacks, the rows are read from that text by ``_rows_by_text``,
    and the index past the game's object there comes in place of ``None``."""
    _check_version(doc, "game document")
    players = _require(doc, "players", list, "game document")
    if not all(isinstance(i, str) for i in players):
        raise DocumentSyntaxError("players must be text tokens")
    if len(set(players)) != len(players):
        raise DocumentSyntaxError("duplicate player entry")

    nodes = _nodes_from_specs(_require(doc, "nodes", list, "game document"))
    triples = _edge_ids(_require(doc, "edges", list, "game document"), nodes)

    ownership = _require(doc, "ownership", dict, "game document")
    assignment: Dict[str, frozenset] = {}
    for player, choices in ownership.items():
        if not isinstance(choices, list) or not all(isinstance(c, str) for c in choices):
            raise DocumentSyntaxError(f"ownership of {player!r} must list choice tokens")
        assignment[player] = frozenset(choices)

    if rows_at is None:
        rows = _require(doc, "utilities", list, "game document")
    choices = frozenset(map(itemgetter(1), triples)).union(*assignment.values())
    _encodable([*players, *assignment, *choices])
    fault = tree = None
    plays: dict = {}
    paths: list = []
    try:
        preform = _preform_from_ids(nodes.nodes, nodes.labels, choices, triples)
        form = build_form(preform, players, assignment)
    except NcgError as exc:
        fault = exc
    else:
        tree = preform.tree._ids
        plays, paths = tree.plays, tree.paths
    end = None
    if rows_at is not None:
        rows, end = _rows_by_text(*rows_at, tree, nodes)
    rational = _rational_reader()
    game = _by_column(form, *rows, rational) if type(rows) is tuple else None
    if game is None:
        utilities = _read_rows(rows, players, nodes, rational, plays, paths)
        _encodable(list(utilities))  # the players the rows name
        try:
            if fault is not None:
                raise fault
            game = _priced(form, {i: row.items() for i, row in utilities.items()})
        except NcgError as exc:
            raise AxiomViolation(exc) from exc
    return _Read(game, nodes), end


class _Read(NamedTuple):
    """A game read from a document, and the nodes its ``nodes`` list
    declares, with their reader and their specs' texts."""

    game: Game
    nodes: _Nodes


def _game_at(text: str, at: int) -> tuple:
    """The game whose document's text starts at ``at``, as a ``_Read``,
    and the index past it.  The members before ``utilities`` are
    decoded, and the rows are read from the text by ``_rows_by_text``
    once the preform is built.  Raises on any fault, and on text this
    route does not read."""
    doc, _at = _object(text, at, "utilities")
    return _game_from_document(doc, (text, doc.pop("utilities")))


# what a text can make a text route raise; each sends the text to the strict route
_FAULTS = (NcgError, ValueError, LookupError, TypeError, StopIteration, RuntimeError)


def _read(path, code: str = "UnreadableDocument", kind: str = "document") -> str:
    """The text of the document at ``path``, refused as ``code`` when it
    cannot be read as UTF-8 text, or names no file (a ``ValueError``:
    the path holds a NUL character)."""
    try:
        with Path(path).open(encoding="utf-8") as file:  # whatever the locale
            return file.read()
    except (OSError, UnicodeDecodeError, ValueError) as exc:
        raise DocumentError(
            code, f"cannot read the {kind} at {path} ({type(exc).__name__})", path=str(path)
        ) from exc


def _read_game(path) -> str:
    """The text of the game document at ``path``, refused as ``UnreadableGame``."""
    return _read(path, "UnreadableGame", "game")


def _game_from_text(text: str) -> _Read:
    """The game of the document ``text``, as ``_game_from_document(
    _loads(text))`` reads it, read by ``_game_at`` when the document is
    one game object whose last member is ``utilities``.  Any failure of
    that route leaves the document to the strict one, so every error and
    its message are the same."""
    try:
        game, end = _game_at(text, _space(text).end())
        if _space(text, end).end() != len(text):
            raise ValueError("extra data")
        return game
    except _FAULTS:
        return _game_from_document(_loads(text))[0]


def parse_game(text: str) -> Game:
    """Read a game document, reporting the first violated rule by name."""
    return _game_from_text(text).game


def load_game(path) -> Game:
    return parse_game(_read_game(path))


def _items(rows, level: int):
    """A list at indent ``level`` in the layout of ``json.dumps(...,
    indent=2)``, in pieces, one per item.  ``rows`` is an iterator over
    the items' texts, already indented for ``level + 1``, each after the
    text between two items: a comma, a newline and that indent.  The
    first item's comma becomes the list's opening bracket."""
    first = next(rows, None)
    if first is None:
        return ("[]",)
    return chain(("[" + first[1:],), rows, ("\n" + "  " * level + "]",))


def _members(members, level: int):
    """A dict at indent ``level`` in the same layout, in pieces; ``members``
    are (key, pieces) pairs, each value's pieces already indented for it.
    The pieces are chained, so no frame runs per piece."""
    inner = "\n" + "  " * (level + 1)
    parts, prefix = [], "{" + inner
    for key, pieces in members:
        parts += (prefix + _encode_str(key) + ": ",), pieces
        prefix = "," + inner
    parts.append(("\n" + "  " * level + "}",) if parts else ("{}",))
    return chain.from_iterable(parts)


def _pair_items(pairs, level: int):
    """A list of pairs at indent ``level`` in the same layout, in pieces:
    ``pairs`` are the (left, right) texts of its items, already indented
    for ``level + 2``, and each item is one join."""
    inner = "\n" + "  " * (level + 2)
    opening = ",\n" + "  " * (level + 1) + "[" + inner
    separator, closing = "," + inner, inner[:-2] + "]"
    return _items(
        ("".join((opening, left, separator, right, closing)) for left, right in pairs), level
    )


def _encode(value, level: int) -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)`` at indent
    ``level``, for a list of text or a dict of lists of text.  A list is
    formatted from one template, so only a dict's values are encoded by
    a further call."""
    if isinstance(value, dict):
        members = ((k, [_encode(v, level + 1)]) for k, v in value.items())
        return "".join(_members(members, level))
    inner = "\n" + "  " * (level + 1)
    body = ("," + inner).join(map(_encode_str, value))
    return "[" + inner + body + inner[:-2] + "]" if body else "[]"


def _indent(texts: list, levels: int) -> list:
    """The texts moved ``levels`` indent levels deeper."""
    pad = "\n" + "  " * levels
    return [text.replace("\n", pad) for text in texts]


def _spec(label: NodeLabel) -> dict:
    """``label``'s node spec: ``{"atom": token}``, ``{"seq": [token,
    ...]}`` or ``{"set": [token, ...]}``, the set's tokens sorted."""
    if isinstance(label, Atom):
        return {"atom": str(label.token)}
    if isinstance(label, Seq):
        return {"seq": list(map(str, label.choices))}
    if isinstance(label, SetLabel):
        return {"set": sorted(map(str, label.choices))}
    raise DocumentError("UnknownLabel", f"cannot serialize node label {label!r}")


def _node_texts(g: Game, level: int) -> list:
    """Each node's spec text at indent ``level``, by node id, spelled by
    ``_spec_texts`` as the reader spells it.

    Two distinct labels with one text raise ``AtomCollision`` here, and
    a node, player or choice whose text holds a surrogate, which UTF-8
    cannot encode, raises ``UnencodableText``: both before any piece of
    a document is produced, so no file is opened."""
    texts = _spec_texts(list(map(_spec, g.tree._ids.labels)), "\n" + "  " * level)
    if len(set(texts)) != len(texts):
        raise DocumentError(
            "AtomCollision",
            "two distinct node labels serialize to the same text",
        )
    bad = _unencodable([*texts, *map(str, g.players), *map(str, g.preform.choices)])
    if bad is not None:
        raise DocumentError(
            "UnencodableText", f"{bad!r} holds a surrogate, which UTF-8 cannot encode"
        )
    return texts


def _game_pieces(g: Game, level: int, nodes: list):
    """The canonical text of a game's document at indent ``level``, one
    piece per node, edge and play row; ``nodes`` is
    ``_node_texts(g, level + 2)``, the texts of the node list.

    Nodes, edges and plays are listed in the tree's order (``Tree.rank``
    and ``Tree.play_by_end``), read from the id cores of the tree, the
    preform and the game.  Each edge triple and play row is one join of
    its template's parts: a play's specs are taken with the text before
    each, and each player's utility texts are spelled once per value, by
    rank (``_utility_ranks``)."""
    players = sorted(g.players, key=str)
    tree = g.tree._ids
    rank = tree.rank
    edges = sorted(
        g.preform._ids.op.items(),
        key=lambda e: (rank[e[0][0]], str(e[0][1]), rank[e[1]]),
    )
    item = ",\n" + "  " * (level + 2)  # before each item of the game's lists
    # an edge, [spec, choice, spec]
    inner = "\n" + "  " * (level + 3)
    opening, comma, closing = item + "[" + inner, "," + inner, inner[:-2] + "]"
    edge_specs = _indent(nodes, 1)
    # a play row, {"play": [spec, ...], "values": {player: value, ...}}; each
    # spec but the root's, which starts every play, comes after a comma
    play_specs = _indent(nodes, 2)
    specs = [comma + "  " + text for text in play_specs]
    specs[tree.walk[0]] = play_specs[tree.walk[0]]
    head = item + "{" + inner + '"play": [' + inner + "  "
    values, end = inner + "]," + inner + '"values": {', "}\n" + "  " * (level + 2) + "}"
    tail = inner + end if players else values + end
    columns = []  # each player's utility text by play position
    for j, i in enumerate(players):
        ordered, ranks, _rank = _utility_ranks(g, i)
        key = (values if j == 0 else ",") + inner + "  " + _encode_str(str(i)) + ": "
        texts = [key + _encode_str(str(u)) for u in ordered]
        columns.append(list(map(texts.__getitem__, ranks)))
    ownership = {str(i): sorted(str(c) for c in g.form.assignment[i]) for i in players}
    return _members((
        ("format_version", [_encode_str(FORMAT_VERSION)]),
        ("players", [_encode([str(i) for i in players], level + 1)]),
        ("nodes", _items(map(item.__add__, map(nodes.__getitem__, tree.order)), level + 1)),
        ("edges", _items((
            "".join((
                opening, edge_specs[t], comma, _encode_str(str(c)), comma, edge_specs[u], closing
            ))
            for (t, c), u in edges
        ), level + 1)),
        ("ownership", [_encode(ownership, level + 1)]),
        ("utilities", _items((
            "".join((head, *map(specs.__getitem__, path), *cells, tail))
            for path, *cells in zip(tree.paths, *columns)
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


# the characters of pieces joined, encoded and written by one call: one
# call for the whole text is slower, as its buffers fault their pages in
_CHUNK = 1 << 16


def _write(pieces, path) -> None:
    """Write the document's pieces, then its final newline, to ``path``
    as UTF-8, in chunks of about ``_CHUNK`` characters, each joined,
    encoded and written in one call, so no more than a chunk of the text
    is held at once.  The file is binary: lines end with ``\\n`` on every
    platform, as in the text ``serialize_*`` returns."""
    chunk: list = []
    size = 0
    with Path(path).open("wb") as out:
        for piece in pieces:
            chunk.append(piece)
            size += len(piece)
            if size >= _CHUNK:
                out.write("".join(chunk).encode())
                chunk.clear()
                size = 0
        chunk.append("\n")
        out.write("".join(chunk).encode())


def serialize_game(g: Game) -> str:
    return "".join(_game_pieces(g, 0, _node_texts(g, 2))) + "\n"


def write_game(g: Game, path) -> None:
    """Write ``serialize_game(g)`` to ``path`` without building the text."""
    _write(_game_pieces(g, 0, _node_texts(g, 2)), path)


def _pairs(entries, parse_left, parse_right, what, key=None) -> tuple:
    """The left and the right values of a list of pairs, in order; a
    left value is refused when ``key`` of it, or it, repeats."""
    if not isinstance(entries, list):
        raise DocumentSyntaxError(f"{what} must be a list of pairs")
    lefts, rights, seen = [], [], set()
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 2:
            raise DocumentSyntaxError(f"{what} entry {entry!r} must be a pair")
        left = parse_left(entry[0])
        seen.add(left if key is None else key(left))
        if len(seen) == len(lefts):
            raise DocumentSyntaxError(f"{what} maps {entry[0]!r} twice")
        lefts.append(left)
        rights.append(parse_right(entry[1]))
    return lefts, rights


def _token(value):
    if not isinstance(value, str):
        raise DocumentSyntaxError(f"token {value!r} must be text")
    _encodable([value])
    return value


def _game_from_ref(ref, base_dir, built: list) -> _Read:
    """The game a path or inline document names, as a ``_Read``, or
    ``ref`` itself when it is one; ``built`` lists the (key, game) pairs
    read so far, a path keyed by the real path of the file it names and
    an inline document by itself, and an equal key reuses its game."""
    if type(ref) is _Read:
        return ref
    path = None
    if isinstance(ref, str):
        _encodable([ref])  # a path, refused before it is opened
        path = Path(base_dir) / ref
    try:
        key = ref if path is None else os.path.realpath(path)
    except ValueError:  # a NUL in the path, which ``_read_game`` refuses
        key = path
    for seen, game in built:
        if seen == key:
            return game
    if path is not None:
        game = _game_from_text(_read_game(path))
    else:
        game, _end = _game_from_document(ref)
    built.append((key, game))
    return game


def _morphism_parts(doc, base_dir, built: list) -> tuple:
    """The games and maps of a morphism document, not yet validated.

    ``tau`` is an ``_IdMap`` over the games' node ids, read by their
    readers (or already read by ``_document_by_text``), and each utility
    map one over its pairs' rationals, in document order, so the
    validator reads the first as ids and the second as ranks, found by
    lowest terms."""
    _check_version(doc, "morphism document")
    source, target = (
        _game_from_ref(_require(doc, key, (str, dict, _Read), "morphism document"), base_dir, built)
        for key in ("source", "target")
    )
    iota = dict(zip(*_pairs(doc.get("iota", []), _token, _token, "iota")))
    tau = doc.get("tau", [])
    keys, values = tau if type(tau) is tuple else _pairs(
        tau, source.nodes.read, target.nodes.read, "tau"
    )
    source, target = source.game, target.game
    tau = _IdMap(keys, values, source.tree._ids.labels, target.tree._ids.labels)
    delta = dict(zip(*_pairs(doc.get("delta", []), _token, _token, "delta")))
    beta_doc = _require(doc, "beta", dict, "morphism document")
    _encodable(list(beta_doc))
    rational = _rational_reader()
    beta = {}
    for player, entries in beta_doc.items():
        keys, values = _pairs(entries, rational, rational, "beta", lambda u: u.as_integer_ratio())
        beta[player] = _IdMap(range(len(keys)), range(len(values)), keys, values)
    return source, target, iota, tau, delta, beta


def _tau_by_text(text: str, at: int, source: _Read, target: _Read):
    """The source's and the target's node ids of the pairs of the ``tau``
    list whose text starts at ``at``, as ``_pairs`` reads them, and the
    index past the list; ``None`` unless, in ``_layout``'s layouts, each
    pair is ``[s, t]`` with ``s`` a spec text of a source node and ``t``
    one of the target's (``_Nodes.spec_ids``), and no source node repeats.
    No spec is decoded: ``_split`` splits the list, and each pair is cut
    at the first text between two specs whose left is a source spec.  A
    list whose tokens hold the text between two pairs (``], [`` on one
    line) is decoded whole, as a row list is."""
    first, lead = _layout(text, at)
    if lead is None:
        return None
    pad = lead and lead + "  "  # each spec of a pair
    found = _split(text, first, lead, "[" + pad, lead + "]")
    if found is None:
        return None
    pairs, end = found
    mark = "}" + ("," if lead else ", ") + pad + "{"
    lefts, rights = source.nodes.spec_ids(pad), target.nodes.spec_ids(pad)
    keys, values = [], []
    for pair in pairs:
        cut = pair.find(mark)
        while cut >= 0 and pair[:cut + 1] not in lefts:
            cut = pair.find(mark, cut + 1)
        m = rights.get(pair[cut + len(mark) - 1:]) if cut >= 0 else None
        if m is None:
            return None
        keys.append(lefts[pair[:cut + 1]])
        values.append(m)
    return ((keys, values), end) if len(set(keys)) == len(keys) else None


def _document_by_text(text: str, base_dir, built: list):
    """The morphism or witness document ``text`` as ``_loads`` decodes
    it, save that each morphism's games and ``tau`` come already read.

    A morphism is the document, or its ``morphism`` or ``inverse``
    member.  Its ``source`` and ``target`` are ``_Read``s: an inline game
    read by ``_game_at`` over its span of the text, or the game its text
    repeats, and a path's game through ``_game_from_ref`` and ``built``.
    Its ``tau``, which must follow both, is the pair of lists of node ids
    that ``_tau_by_text`` reads, or else that ``_pairs`` reads from the
    list decoded whole.  The readers of documents read the rest
    as they read a decoded document, so they give the same verdicts and
    messages; any failure of this route, or text it does not read,
    leaves the text to ``_loads``."""
    games: list = []  # the (start, end, game) of each inline game read

    def game(at: int, doc: dict) -> tuple:
        if "tau" in doc:
            raise ValueError("a game after tau")
        if text[at] != "{":
            ref, at = _scan(text, at)
            return (_game_from_ref(ref, base_dir, built) if type(ref) is str else ref), at
        found = _repeated(text, at, games)
        if found is None:
            found = _game_at(text, at)
            games.append((at, found[1], found[0]))
        return found

    def tau(at: int, doc: dict) -> tuple:
        source, target = doc["source"], doc["target"]
        if type(source) is not _Read or type(target) is not _Read:
            raise ValueError("tau before its games")
        found = _tau_by_text(text, at, source, target)
        if found is not None:
            return found
        pairs, at = _scan(text, at)
        return _pairs(pairs, source.nodes.read, target.nodes.read, "tau"), at

    def morphism(at: int, _doc: dict) -> tuple:
        if text[at] != "{":
            return _scan(text, at)
        return _object(text, at, members=inner)

    inner = {"source": game, "target": game, "tau": tau}
    outer = dict(inner, morphism=morphism, inverse=morphism)
    try:
        doc, end = _object(text, _space(text).end(), members=outer)
        if _space(text, end).end() != len(text):
            raise ValueError("extra data")
        return doc
    except _FAULTS:
        return _loads(text)


def _morphism_from_text(text: str, base_dir, built: list) -> GameMorphism:
    """The validated morphism of the document ``text``; ``built`` is
    ``_game_from_ref``'s."""
    return _validated(_morphism_parts(_document_by_text(text, base_dir, built), base_dir, built))


def _validated(parts: tuple) -> GameMorphism:
    try:
        return validate_game_morphism(*parts)
    except NcgError as exc:
        raise AxiomViolation(exc) from exc


def parse_morphism(text: str, base_dir=".") -> GameMorphism:
    """Read and validate a morphism document.

    Game references given as paths are resolved against ``base_dir``.
    """
    return _morphism_from_text(text, base_dir, [])


def _morphism_pieces(m: GameMorphism, level: int, built: dict):
    """The canonical text of a morphism's document at indent ``level``,
    in pieces; ``built`` is ``_embedded`` of its source and target at
    ``level + 1``, whose node texts are also those of ``tau``.  Its maps
    are read from its id core: ``tau`` by node id and each utility map
    by rank, in the order of the source's ranks."""
    source_nodes, source = built[id(m.source)]
    target_nodes, target = built[id(m.target)]
    order, tau = m.source.tree._ids.order, m._ids.tau
    images = map(target_nodes.__getitem__, map(tau.__getitem__, order))

    def tokens(mapping) -> list:
        return [
            (_encode_str(str(x)), _encode_str(str(mapping[x])))
            for x in sorted(mapping, key=str)
        ]

    beta = []
    for i in sorted(m._ids.beta, key=str):
        range1, range2 = _utility_ranks(m.source, i)[0], _utility_ranks(m.target, m.iota[i])[0]
        pairs = [
            (_encode_str(str(range1[r])), _encode_str(str(range2[s])))
            for r, s in sorted(m._ids.beta[i].items())
        ]
        beta.append((str(i), _pair_items(pairs, level + 2)))
    return _members((
        ("format_version", [_encode_str(FORMAT_VERSION)]),
        ("source", source),
        ("target", target),
        ("iota", _pair_items(tokens(m.iota), level + 1)),
        ("tau", _pair_items(zip(map(source_nodes.__getitem__, order), images), level + 1)),
        ("delta", _pair_items(tokens(m.delta), level + 1)),
        ("beta", _members(beta, level + 1)),
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
    return _witness_from_document(_document_by_text(text, base_dir, []), base_dir)


def _is_inverse(claimed: tuple, m: GameMorphism) -> bool:
    """Whether the maps of ``claimed``, from ``_morphism_parts``, are those
    of ``m``: compared as node ids and utility ranks when ``claimed`` is
    over the games of ``m``, else as the maps by label."""
    source, target, iota, tau, delta, beta = claimed
    if source is not m.source or target is not m.target:
        return claimed == (m.source, m.target, m.iota, m.tau, m.delta, m.beta)
    return (
        iota == m.iota
        and delta == m.delta
        and dict(zip(tau.domain, tau.image)) == dict(enumerate(m._ids.tau))
        and beta.keys() == m._ids.beta.keys()
        and all(
            dict(zip(*_utility_ids(beta[i], source, i, target, m.iota[i]))) == ranks
            for i, ranks in m._ids.beta.items()
        )
    )


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
    if witness and _is_inverse(claimed, witness.inverse):
        return witness
    _validated(claimed)
    if witness is None:
        raise DocumentError("NotAnIsomorphism", "embedded morphism does not biject")
    raise DocumentError(
        "InverseMismatch", "embedded inverse is not the inverse of the morphism"
    )
