"""The document readers against the strict route: every document gives
the same serialized game, morphism or witness, or the same error text,
as ``_game_from_document(json.loads(text))``, or as
``_witness_from_document`` and ``_morphism_parts`` of ``json.loads(text)``.

The readers walk the text.  A game's node list and edges are decoded,
its atoms built from their tokens.  Its rows and a morphism's ``tau``
pairs, written on one line as ``json.dumps`` writes by default or
indented by two as ``ncg`` writes at any depth, are split by one
splitter and accepted without decoding their specs when they spell them
as the node lists do; a list with an item that matches nothing is
decoded whole.  Games embedded in a morphism or witness are read over
their own span of the text, once per distinct text; anything else is
decoded.  So these documents vary how node lists, edges, rows and pairs
are written, what their tokens hold (the texts the splits split at among
them), where a fault or a syntax error sits, and how the copies of a
game in one witness differ.  The rows of games of any size are split
here."""

import json
import random
import time
from pathlib import Path

import pytest

from ncgames import (
    Atom,
    DocumentSyntaxError,
    NcgError,
    find_isomorphism,
    identity_morphism,
    parse_game,
    parse_morphism,
    parse_witness,
    serialize_game,
    serialize_morphism,
    serialize_witness,
)
from ncgames import documents
from ncgames.documents import (
    _game_from_document,
    _morphism_parts,
    _validated,
    _witness_from_document,
)
from ncgames.transforms import canonicalize, relabel_game, to_choice_sequence

from random_games import families, random_game, random_iso_witness

FIXTURES = Path(__file__).parent / "fixtures"

LAYOUTS = {
    "compact": {},
    "tight": {"separators": (",", ":")},
    "indented": {"indent": 2},
    "indented, non-ASCII as is": {"indent": 2, "ensure_ascii": False},
    "tabs": {"indent": "\t"},
}


@pytest.fixture(autouse=True)
def split_the_rows_of_every_game(monkeypatch):
    """The rows of a game of any number of plays are split here, so that
    every edit of a small game meets the row split."""
    monkeypatch.setattr(documents, "_FEW", 0)


def strict(text: str) -> str:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return str(DocumentSyntaxError(exc.msg, line=exc.lineno, column=exc.colno))
    try:
        return serialize_game(_game_from_document(doc)[0].game)
    except NcgError as exc:
        return str(exc)


def read(text: str) -> str:
    try:
        return serialize_game(parse_game(text))
    except NcgError as exc:
        return str(exc)


def assert_reads_as_strict(text: str) -> str:
    expected = strict(text)
    assert read(text) == expected
    return expected


def _relabelled(doc: dict, rename) -> dict:
    """``doc`` with each atom token ``t`` of its nodes renamed ``rename(t)``."""
    def spec(s):
        return {"atom": rename(s["atom"])} if "atom" in s else s

    return dict(
        doc,
        nodes=[spec(s) for s in doc["nodes"]],
        edges=[[spec(t), c, spec(u)] for t, c, u in doc["edges"]],
        utilities=[dict(row, play=[spec(s) for s in row["play"]]) for row in doc["utilities"]],
    )


def _rechosen(doc: dict, rename) -> dict:
    """``doc`` with each choice ``c`` renamed ``rename(c)``."""
    return dict(
        doc,
        edges=[[t, rename(c), u] for t, c, u in doc["edges"]],
        ownership={i: [rename(c) for c in cs] for i, cs in doc["ownership"].items()},
    )


def _games() -> dict:
    classroom = parse_game((FIXTURES / "classroom.game").read_text())
    absentminded = parse_game((FIXTURES / "absentminded.game").read_text())
    # tokens that hold the characters the row walk looks for, and escapes
    odd = ["a]b", "c}d", 'e"f', "g\\h", "über", " ", '], "values": ', '{"play": [']
    # tokens that hold the texts a split of the node list, the edges or
    # the rows would split at, or that do with their closing quote
    splits = ['"}, {"atom": "', "], [", ", ", "}, ", "}], [{", '"}}, {"play": [', '], "values": {']
    return {
        "classroom": json.loads(serialize_game(classroom)),
        "choice sets": json.loads(serialize_game(canonicalize(classroom).game)),
        "choice sequences": json.loads(serialize_game(to_choice_sequence(absentminded)[0])),
        "centipede": families.to_document(families.centipede(random.Random(3), 12)),
        "stage-pooled": families.to_document(families.stage_pooled_binary(random.Random(3), 4, 3)),
        "odd tokens": _relabelled(
            json.loads(serialize_game(classroom)), lambda t: odd[int(t) % len(odd)] + t
        ),
        "split tokens": _relabelled(
            json.loads(serialize_game(classroom)), lambda t: t + splits[int(t) % len(splits)]
        ),
        "split choices": _rechosen(
            json.loads(serialize_game(classroom)), lambda c: c + '", {"atom": ' + c + "}, "
        ),
    }


GAMES = _games()


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("name", GAMES)
def test_layouts_and_tokens(name, layout):
    text = json.dumps(GAMES[name], **LAYOUTS[layout])
    assert assert_reads_as_strict(text).startswith("{")


def _rows(name: str, edit) -> dict:
    doc = json.loads(json.dumps(GAMES[name]))
    edit(doc["utilities"])
    return doc


ROW_EDITS = {
    "reversed": lambda rows: rows.reverse(),
    "shuffled": lambda rows: random.Random(1).shuffle(rows),
    "duplicated": lambda rows: rows.append(dict(rows[0])),
    "duplicated, spelled apart": lambda rows: rows.insert(
        0, dict(rows[-1], play=rows[-1]["play"][::-1])
    ),
    "extra key": lambda rows: rows[1].__setitem__("note", 1),
    "values first": lambda rows: rows.__setitem__(
        1, {"values": rows[1]["values"], "play": rows[1]["play"]}
    ),
    "key between": lambda rows: rows.__setitem__(
        1, {"play": rows[1]["play"], "note": [], "values": rows[1]["values"]}
    ),
    "values missing": lambda rows: rows[0].pop("values"),
    "values a list": lambda rows: rows[0].__setitem__("values", ["1"]),
    "bad value": lambda rows: rows[-1]["values"].__setitem__("P1", "x"),
    "a spec repeated": lambda rows: rows[0]["play"].append(rows[0]["play"][0]),
    "a spec dropped": lambda rows: rows[0]["play"].pop(),
    "empty": lambda rows: rows.clear(),
}


@pytest.mark.parametrize("layout", ["compact", "tight", "indented"])
@pytest.mark.parametrize("edit", ROW_EDITS)
@pytest.mark.parametrize("name", ["classroom", "choice sets", "odd tokens"])
def test_rows(name, edit, layout):
    assert_reads_as_strict(json.dumps(_rows(name, ROW_EDITS[edit]), **LAYOUTS[layout]))


def _respelled_member(doc: dict, key: str, layout: dict, spelling: dict) -> str:
    """``doc`` in ``layout``, save that its ``key`` member is written in
    ``spelling``."""
    marked = json.dumps(dict(doc, **{key: "\0"}), **layout)
    return marked.replace('"\\u0000"', json.dumps(doc[key], **spelling), 1)


def _edited_game(name: str, edit) -> dict:
    doc = json.loads(json.dumps(GAMES[name]))
    edit(doc)
    return doc


NODE_EDITS = {
    "a duplicate node": lambda name, layout: json.dumps(_edited_game(
        name, lambda d: d["nodes"].append(d["nodes"][-1])
    ), **layout),
    "an edge naming an undeclared node": lambda name, layout: json.dumps(_edited_game(
        name, lambda d: d["edges"][-1].__setitem__(2, {"atom": "undeclared"})
    ), **layout),
    "an edge naming a node of another kind": lambda name, layout: json.dumps(_edited_game(
        name, lambda d: d["edges"][0].__setitem__(0, {"seq": ["x"]})
    ), **layout),
    "a choice that is no text": lambda name, layout: json.dumps(_edited_game(
        name, lambda d: d["edges"][-1].__setitem__(1, 7)
    ), **layout),
    "the node list tight": lambda name, layout: _respelled_member(
        GAMES[name], "nodes", layout, LAYOUTS["tight"]
    ),
    "the node list with tabs": lambda name, layout: _respelled_member(
        GAMES[name], "nodes", layout, LAYOUTS["tabs"]
    ),
    "the edges tight": lambda name, layout: _respelled_member(
        GAMES[name], "edges", layout, LAYOUTS["tight"]
    ),
    "the edges before the nodes": lambda name, layout: json.dumps(
        {"edges": GAMES[name]["edges"], **GAMES[name]}, **layout
    ),
    "the node list twice": lambda name, layout: (
        lambda text: text.replace('"edges"', '"nodes": [], "edges"', 1)
    )(json.dumps(GAMES[name], **layout)),
}


@pytest.mark.parametrize("layout", ["compact", "tight", "indented"])
@pytest.mark.parametrize("edit", NODE_EDITS)
@pytest.mark.parametrize("name", ["classroom", "centipede", "choice sets", "split tokens"])
def test_node_and_edge_edits(name, edit, layout):
    assert_reads_as_strict(NODE_EDITS[edit](name, LAYOUTS[layout]))


@pytest.mark.parametrize("layout", ["compact", "indented"])
def test_a_set_spelled_in_another_order_in_an_edge(layout):
    def reorder(doc):
        edge = next(e for e in doc["edges"] if len(e[2].get("set", ())) > 1)
        edge[2]["set"].reverse()

    text = json.dumps(_edited_game("choice sets", reorder), **LAYOUTS[layout])
    assert assert_reads_as_strict(text) == serialize_game(parse_game(json.dumps(GAMES["choice sets"])))


@pytest.mark.parametrize("layout", ["compact", "tight", "indented"])
def test_text_around_the_list(layout):
    doc = GAMES["classroom"]
    text = json.dumps(doc, **LAYOUTS[layout])
    cases = {
        "a member after the list": json.dumps(dict(doc, note=1), **LAYOUTS[layout]),
        "the list twice": text[: text.rindex("}")] + ', "utilities": []}',
        "trailing garbage": text + " x",
        "a second document": text + text,
        "trailing comma": text[: text.rindex("]")].rstrip() + ",]}",
        "truncated last row": text[: text.rindex("]") - 9],
        "the document not closed": text[: text.rindex("}")],
        "whitespace around": "\n " + text + " \n",
    }
    verdicts = {case: assert_reads_as_strict(t) for case, t in cases.items()}
    assert verdicts["whitespace around"] == verdicts["a member after the list"]
    assert verdicts["the list twice"].startswith("AxiomViolation")


def test_a_duplicated_key_inside_a_row():
    # the later ``play`` wins, as in ``json.loads``
    text = json.dumps(GAMES["classroom"])
    first = text.index('{"play": ')
    row_end = text.index("}}", first) + 1
    wrong = '"play": [{"atom": "0"}]'
    before = text[: first + 1] + wrong + ", " + text[first + 1:]
    after = text[:row_end] + ", " + wrong + text[row_end:]
    assert assert_reads_as_strict(before) == strict(text)
    assert "UnknownPlayInTable" in assert_reads_as_strict(after)


def test_a_row_fault_is_reported_before_a_tree_fault():
    doc = json.loads(json.dumps(GAMES["classroom"]))
    doc["nodes"] += [{"atom": "x"}, {"atom": "y"}]
    doc["edges"] += [[{"atom": "x"}, "xy", {"atom": "y"}], [{"atom": "y"}, "yx", {"atom": "x"}]]
    doc["ownership"]["P1"] += ["xy", "yx"]
    assert "Cycle" in assert_reads_as_strict(json.dumps(doc))
    doc["utilities"][1]["values"]["P1"] = "x"
    assert assert_reads_as_strict(json.dumps(doc)) == (
        "SyntaxError: utility 'x' is not rational text"
    )


@pytest.mark.parametrize("fault", ["node", "row"])
def test_a_syntax_error_after_a_structural_error_wins(fault):
    doc = json.loads(json.dumps(GAMES["classroom"]))
    if fault == "node":
        doc["nodes"].append(doc["nodes"][0])
    else:
        doc["utilities"][0]["values"]["P1"] = "1/0"
    text = json.dumps(doc)
    assert not assert_reads_as_strict(text).startswith(("{", "SyntaxError: Expecting"))
    broken = text[: text.rindex("}}")] + "}},]}"  # a trailing comma in the last row's list
    assert assert_reads_as_strict(broken).startswith("SyntaxError: Expecting")


def _best_time(read, text: str) -> float:
    times = []
    for _ in range(3):
        start = time.perf_counter()
        read(text)
        times.append(time.perf_counter() - start)
    return min(times)


@pytest.mark.parametrize("layout", ["compact", "indented"])
def test_a_key_between_play_and_values_in_every_row(layout):
    """No row matches a play's text, and each is searched for the text
    that ends a play no further than the longest play's text reaches.
    Searched to the end of the document, the rows of an 8,000-leaf game
    took 14 times as long to read as the strict route; now 1.1 times."""
    def noted(doc: dict) -> dict:
        rows = [{"play": r["play"], "note": 0, "values": r["values"]} for r in doc["utilities"]]
        return dict(doc, utilities=rows)

    centipede = noted(families.to_document(families.centipede(random.Random(4), 120)))
    assert assert_reads_as_strict(json.dumps(centipede, **LAYOUTS[layout])).startswith("{")
    wide = noted(families.to_document(families.wide_symmetric(random.Random(4), 8000)))
    text = json.dumps(wide, **LAYOUTS[layout])
    assert assert_reads_as_strict(text).startswith("{")
    own = _best_time(parse_game, text)
    assert own < 3 * _best_time(lambda t: _game_from_document(json.loads(t)), text)


@pytest.mark.parametrize("layout", ["compact", "tight", "indented"])
@pytest.mark.parametrize("member", ["utilities", "nodes"])
def test_mutated_texts(layout, member):
    """Characters deleted, repeated or inserted at random in the rows,
    or anywhere from the node list on."""
    rng = random.Random(layout if member == "utilities" else member + layout)
    base = json.dumps(GAMES["odd tokens"], **LAYOUTS[layout])
    start = base.index(f'"{member}"')
    for _ in range(300):
        text = base
        for _ in range(rng.randint(1, 2)):
            k = rng.randrange(start, len(text))
            edit = rng.randrange(3)
            if edit == 0:
                text = text[:k] + text[k + 1:]
            elif edit == 1:
                text = text[:k] + text[k] + text[k:]
            else:
                text = text[:k] + rng.choice('[]{},:" \\1x') + text[k:]
        assert_reads_as_strict(text)


# Rows priced a player's column at a time: when the rows match their
# plays, price each play once, name exactly the declared players and hold
# only text, the game is built from each player's column; any other rows
# are read cell by cell.  Either way the game or the error is the strict
# route's.

COLUMN_FAMILIES = {  # each of 12 plays or more
    "centipede": (families.centipede, (12,)),
    "stage-pooled": (families.stage_pooled_binary, (4, 3)),
    "perfect-info": (families.perfect_info_binary, (4, 2)),
    "wide": (families.wide_symmetric, (12,)),
    "absentminded": (families.absentminded_chain, (12,)),
}

NCG_AND_ONE_LINE = {"ncg": {"indent": 2, "ensure_ascii": False}, "one line": {}}


def _family_document(name: str) -> dict:
    generate, size = COLUMN_FAMILIES[name]
    return families.to_document(generate(random.Random(5), *size))


def _outcome(read, text: str) -> tuple:
    """The error's class, code and message, or the game's values by play
    position, priced positions, ranges and utilities."""
    try:
        g = read(text)
    except NcgError as exc:
        return type(exc), exc.code, str(exc)
    return g._ids.values, g._ids.rows, g.ranges, g.utilities


def _routes(text: str, monkeypatch) -> tuple:
    """The outcomes of ``parse_game`` and of the strict route, and whether
    ``parse_game`` built its game by columns."""
    built = []
    by_column = documents._by_column

    def recorded(*args):
        built.append(by_column(*args))
        return built[-1]

    monkeypatch.setattr(documents, "_by_column", recorded)
    own = _outcome(parse_game, text)
    strict = _outcome(lambda t: _game_from_document(documents._loads(t))[0].game, text)
    return own, strict, any(g is not None for g in built)


@pytest.mark.parametrize("layout", NCG_AND_ONE_LINE)
@pytest.mark.parametrize("name", COLUMN_FAMILIES)
def test_the_families_are_priced_by_column_as_the_strict_route_prices_them(
    name, layout, monkeypatch
):
    doc = _family_document(name)
    assert len(doc["utilities"]) >= 12
    own, strict, by_column = _routes(json.dumps(doc, **NCG_AND_ONE_LINE[layout]), monkeypatch)
    assert by_column and own == strict and len(own) == 4


def _swapped_player(doc: dict) -> None:
    values = doc["utilities"][3]["values"]
    values["Q"] = values.pop(doc["players"][0])


def _longest_play_twice(doc: dict) -> None:
    """The row of a shortest play replaced by a copy of a longest play's,
    so the rows are as many as the plays and their text no shorter."""
    rows = doc["utilities"]
    rows.sort(key=lambda row: len(row["play"]))
    rows[0] = json.loads(json.dumps(rows[-1]))


COLUMN_FALLBACKS = {
    "a row omits a player": lambda doc: doc["utilities"][3]["values"].pop(doc["players"][-1]),
    "an undeclared player": lambda doc: doc["utilities"][3]["values"].update(Q="1"),
    "a player swapped for an undeclared one": _swapped_player,
    "a JSON-number value": lambda doc: doc["utilities"][3]["values"].update(P1=2),
    "a bad text in the last row": lambda doc: doc["utilities"][-1]["values"].update(P2="1/0"),
    "two rows for one play": lambda doc: doc["utilities"].append(
        json.loads(json.dumps(doc["utilities"][0]))
    ),
    "one play priced twice and one not": _longest_play_twice,
    "an unpriced play": lambda doc: doc["utilities"].pop(5),
}


@pytest.mark.parametrize("layout", NCG_AND_ONE_LINE)
@pytest.mark.parametrize("edit", COLUMN_FALLBACKS)
@pytest.mark.parametrize("name", COLUMN_FAMILIES)
def test_rows_the_columns_do_not_price_read_as_the_strict_route_reads_them(
    name, edit, layout, monkeypatch
):
    doc = _family_document(name)
    COLUMN_FALLBACKS[edit](doc)
    own, strict, by_column = _routes(json.dumps(doc, **NCG_AND_ONE_LINE[layout]), monkeypatch)
    assert not by_column and own == strict
    assert len(own) == (4 if edit == "a JSON-number value" else 3), own


# Morphism and witness documents: ``parse_morphism`` and ``parse_witness``
# walk the text, read each embedded game over its span (a repeated copy
# once) and match ``tau`` pairs against the games' spec texts; each must
# give what the strict route gives on ``json.loads(text)``.


def strict_document(kind: str, text: str) -> str:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return str(DocumentSyntaxError(exc.msg, line=exc.lineno, column=exc.colno))
    try:
        if kind == "witness":
            return serialize_witness(_witness_from_document(doc, FIXTURES))
        return serialize_morphism(_validated(_morphism_parts(doc, FIXTURES, [])))
    except NcgError as exc:
        return str(exc)


def read_document(kind: str, text: str) -> str:
    try:
        if kind == "witness":
            return serialize_witness(parse_witness(text, FIXTURES))
        return serialize_morphism(parse_morphism(text, FIXTURES))
    except NcgError as exc:
        return str(exc)


def assert_document_reads_as_strict(kind: str, text: str) -> str:
    expected = strict_document(kind, text)
    assert read_document(kind, text) == expected
    return expected


def _witnesses() -> dict:
    """Witnesses of the conversions and of the iso search on random
    games, and of the classroom game's conversion with tokens that hold
    the texts the pair and row walks look for."""
    out = {}
    for seed in range(4):
        rng = random.Random(seed)
        g = random_game(rng)
        out[f"canonical {seed}"] = canonicalize(g).witness
        out[f"choice sequences {seed}"] = to_choice_sequence(g)[1]
        out[f"found {seed}"] = find_isomorphism(g, random_iso_witness(rng, g).morphism.target)
    odd = ["a]b", "c}, {d", '"}, {"atom": "', "}]", "g\\h", "über", " ", '], "values": ']
    classroom = parse_game((FIXTURES / "classroom.game").read_text())
    for name, tokens in (("odd tokens", odd), ("odd ASCII tokens", odd[:5] + ["x"] + odd[6:])):
        renamed, _ = relabel_game(
            classroom,
            node_map={t: Atom(tokens[int(t.token) % 8] + t.token) for t in classroom.tree.nodes},
            choice_map={c: tokens[k % 8] + c for k, c in enumerate(sorted(classroom.preform.choices))},
        )
        out[name] = canonicalize(renamed).witness
    return out


WITNESSES = {name: json.loads(serialize_witness(w)) for name, w in _witnesses().items()}


def _split_token_witness() -> dict:
    """The classroom game's canonical witness, its atoms' tokens holding
    the texts a ``tau`` list on one line is split at: the text between
    two pairs and the list's end, and the text between a pair's two
    specs, bare and with its quotes.  Its lists on one line are decoded
    whole, so it is kept apart from ``WITNESSES``, whose pairs all match."""
    tokens = ["], [", "]]", "}, {", '"}, {"atom": "']
    classroom = parse_game((FIXTURES / "classroom.game").read_text())
    renamed, _ = relabel_game(
        classroom,
        node_map={t: Atom(tokens[int(t.token) % 4] + t.token) for t in classroom.tree.nodes},
    )
    return json.loads(serialize_witness(canonicalize(renamed).witness))


SPLIT_TOKENS = {"split tokens": _split_token_witness()}


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("name", WITNESSES)
def test_witness_and_morphism_layouts(name, layout):
    doc = WITNESSES[name]
    verdict = assert_document_reads_as_strict("witness", json.dumps(doc, **LAYOUTS[layout]))
    assert verdict.startswith("{")
    for part in ("morphism", "inverse"):
        text = json.dumps(doc[part], **LAYOUTS[layout])
        assert assert_document_reads_as_strict("morphism", text).startswith("{")


@pytest.mark.parametrize("layout", LAYOUTS)
def test_tokens_that_hold_the_pair_splits(layout, monkeypatch):
    """On one line, tight or not, the tokens split the ``tau`` lists
    wrongly, and each list is decoded whole, as a list indented by tabs
    is; indented by two, a text no token holds, each list is matched."""
    found, tau_by_text = [], documents._tau_by_text
    monkeypatch.setattr(
        documents, "_tau_by_text", lambda *args: found.append(tau_by_text(*args)) or found[-1]
    )
    doc = SPLIT_TOKENS["split tokens"]
    text = json.dumps(doc, **LAYOUTS[layout])
    assert assert_document_reads_as_strict("witness", text).startswith("{")
    for part in ("morphism", "inverse"):
        text = json.dumps(doc[part], **LAYOUTS[layout])
        assert assert_document_reads_as_strict("morphism", text).startswith("{")
    matched = {result is not None for result in found}
    assert matched == {layout.startswith("indented")}


def _spec_reads(monkeypatch) -> list:
    """The specs the node readers read from here on; the strict route
    may not run."""
    reads = []
    reader = documents._node_reader

    def counting_reader(labels, by_key):
        read = reader(labels, by_key)
        return lambda spec: reads.append(spec) or read(spec)

    def strict(_text):
        raise AssertionError("the document was read by the strict route")

    monkeypatch.setattr(documents, "_node_reader", counting_reader)
    monkeypatch.setattr(documents, "_loads", strict)
    return reads


@pytest.mark.parametrize("layout", LAYOUTS)
def test_every_layout_is_walked_and_rows_and_pairs_match_in_two(layout, monkeypatch):
    """No layout sends a witness to the strict route.  On one line, or
    indented by two, every row and ``tau`` pair is matched by its text,
    sequence and set specs included, unless a token is escaped where
    ``ncg`` writes it as is (``json.dumps``'s default escapes
    non-ASCII); edges between atoms are looked up by the atoms' tokens,
    so the node readers read the specs of the other games' edges alone,
    both of each.  When every edge was read spec by spec, the readers
    read both specs of each edge of each game."""
    reads = _spec_reads(monkeypatch)
    for name, doc in WITNESSES.items():
        reads.clear()
        text = json.dumps(doc, **LAYOUTS[layout])
        witness = parse_witness(text)
        games = {id(g): g for g in (witness.morphism.source, witness.morphism.target)}
        decoded = sum(
            len(g.tree.nodes) - 1
            for g in games.values()
            if not all(isinstance(t, Atom) for t in g.tree.nodes)
        )
        as_is = json.dumps(doc, **dict(LAYOUTS[layout], ensure_ascii=False)) == text
        if layout in ("compact", "indented", "indented, non-ASCII as is") and as_is:
            assert len(reads) == 2 * decoded, name
        else:
            assert len(reads) > 2 * decoded, name


def _set_pair(doc: dict) -> int:
    """The index of the first ``tau`` pair of the morphism whose image is
    a set of two tokens or more, else 0."""
    sets = (k for k, (_s, t) in enumerate(doc["morphism"]["tau"]) if len(t.get("set", ())) > 1)
    return next(sets, 0)


def _respelled(doc: dict, path: tuple, layout: dict, spelling: dict) -> str:
    """``doc`` in ``layout``, save that the value at ``path`` is written
    in ``spelling``."""
    doc = json.loads(json.dumps(doc))
    *inner, last = path
    container = doc
    for key in inner:
        container = container[key]
    value, container[last] = container[last], "\0"
    return json.dumps(doc, **layout).replace('"\\u0000"', json.dumps(value, **spelling), 1)


def _edited(doc: dict, edit) -> dict:
    doc = json.loads(json.dumps(doc))
    edit(doc)
    return doc


def _in_the_inverse(text: str, part: str) -> int:
    """The index of the first ``"values"`` of the inverse's copy of a
    game in ``text``; ``part`` is its ``source`` or ``target``."""
    return text.index('"values"', text.index(f'"{part}"', text.index('"inverse"')))


def _one_space_longer(text: str) -> str:
    """``text`` with a space before the first row's values of the
    inverse's source, which decodes as ``text`` does."""
    at = _in_the_inverse(text, "source")
    return text[:at] + " " + text[at:]


def _one_digit_apart(text: str) -> str:
    """``text`` with the first digit of a utility of the inverse's
    target changed; the first colon past its ``"values"`` follows the
    first player's key."""
    at = _in_the_inverse(text, "target")
    k = next(k for k in range(text.index(":", at + len('"values":')), len(text)) if text[k].isdigit())
    return text[:k] + "19"[text[k] == "1"] + text[k + 1:]


def _values_error(doc: dict, part: str) -> dict:
    """``doc`` with a value of the first row of the ``part`` game of the
    morphism that is no rational."""
    def edit(d):
        values = d["morphism"][part]["utilities"][0]["values"]
        values[next(iter(values))] = "x"

    return _edited(doc, edit)


DOCUMENT_EDITS = {
    "set tokens reordered in a pair": lambda doc, layout: json.dumps(_edited(
        doc, lambda d: d["morphism"]["tau"][_set_pair(d)][1]["set"].reverse()
    ), **layout),
    "set tokens reordered in a row": lambda doc, layout: json.dumps(_edited(
        doc, lambda d: d["morphism"]["target"]["utilities"][-1]["play"][-1]["set"].reverse()
    ), **layout),
    "set tokens reordered in the node list": lambda doc, layout: json.dumps(_edited(
        doc, lambda d: d["morphism"]["target"]["nodes"][_set_pair(d)]["set"].reverse()
    ), **layout),
    "a pair spelled tight": lambda doc, layout: _respelled(
        doc, ("morphism", "tau", _set_pair(doc)), layout, LAYOUTS["tight"]
    ),
    "a pair spelled indented by four": lambda doc, layout: _respelled(
        doc, ("inverse", "tau", 0), layout, {"indent": 4}
    ),
    "a row spelled tight": lambda doc, layout: _respelled(
        doc, ("morphism", "target", "utilities", 0), layout, LAYOUTS["tight"]
    ),
    "a pair with its specs swapped": lambda doc, layout: json.dumps(_edited(
        doc, lambda d: d["morphism"]["tau"][0].reverse()
    ), **layout),
    "a pair repeated": lambda doc, layout: json.dumps(_edited(
        doc, lambda d: d["inverse"]["tau"].append(d["inverse"]["tau"][0])
    ), **layout),
    "a pair of an undeclared node": lambda doc, layout: json.dumps(_edited(
        doc, lambda d: d["morphism"]["tau"][0].__setitem__(0, {"atom": "undeclared"})
    ), **layout),
    "a fault in a row, then a syntax error": lambda doc, layout: (
        lambda text: text[: text.rindex("}")] + "x}"
    )(json.dumps(_values_error(doc, "source"), **layout)),
    "a fault in a row of the image, then a syntax error": lambda doc, layout: (
        lambda text: text[: text.rindex("]")] + ",]" + text[text.rindex("]") + 1:]
    )(json.dumps(_values_error(doc, "target"), **layout)),
    "a fault in a row": lambda doc, layout: json.dumps(_values_error(doc, "target"), **layout),
    "the inverse's copy one space longer": lambda doc, layout: _one_space_longer(
        json.dumps(doc, **layout)
    ),
    "the inverse's copy one digit apart": lambda doc, layout: _one_digit_apart(
        json.dumps(doc, **layout)
    ),
    "tau before its games": lambda doc, layout: json.dumps(
        {"format_version": doc["format_version"], "inverse": doc["inverse"], "morphism": dict(
            tau=doc["morphism"]["tau"], **{k: v for k, v in doc["morphism"].items() if k != "tau"}
        )}, **layout
    ),
    "a game after tau": lambda doc, layout: json.dumps(_edited(
        doc, lambda d: d["morphism"].__setitem__("source", d["morphism"].pop("source"))
    ), **layout),
    "the game named twice": lambda doc, layout: (
        lambda text: text.replace('"target"', '"target": "absent.game", "target"', 1)
    )(json.dumps(doc, **layout)),
    "games by path": lambda doc, layout: json.dumps({
        "format_version": doc["format_version"],
        **{part: dict(doc[part], source="classroom.game", target="classroom.game")
           for part in ("morphism", "inverse")},
    }, **layout),
    "a game by a missing path": lambda doc, layout: json.dumps(_edited(
        doc, lambda d: d["inverse"].__setitem__("target", "missing.game")
    ), **layout),
}


@pytest.mark.parametrize("layout", ["compact", "tight", "indented"])
@pytest.mark.parametrize("name, edit", [
    (name, edit)
    for name in ("canonical 1", "choice sequences 2", "found 2", "odd tokens")
    for edit in DOCUMENT_EDITS
    # only the choice-set games have set specs
    if name in ("canonical 1", "odd tokens") or not edit.startswith("set tokens")
])
def test_witness_and_morphism_edits(name, edit, layout):
    doc = WITNESSES[name]
    text = DOCUMENT_EDITS[edit](doc, LAYOUTS[layout])
    verdict = assert_document_reads_as_strict("witness", text)
    if edit.endswith("syntax error"):
        assert verdict.startswith("SyntaxError: Expecting"), verdict
    if edit == "a fault in a row":
        assert verdict == "SyntaxError: utility 'x' is not rational text"
    morphism = json.loads(text)["morphism"] if "syntax" not in edit else None
    if morphism is not None:
        assert_document_reads_as_strict("morphism", json.dumps(morphism, **LAYOUTS[layout]))


@pytest.mark.parametrize("layout", ["compact", "tight", "indented"])
@pytest.mark.parametrize("edit", DOCUMENT_EDITS)
def test_edits_of_tokens_that_hold_the_pair_splits(edit, layout):
    text = DOCUMENT_EDITS[edit](SPLIT_TOKENS["split tokens"], LAYOUTS[layout])
    verdict = assert_document_reads_as_strict("witness", text)
    if edit.endswith("syntax error"):
        assert verdict.startswith("SyntaxError: Expecting"), verdict


def test_the_classroom_identity_by_path():
    """A morphism naming both its games by one path reads the file once."""
    text = serialize_morphism(identity_morphism(parse_game((FIXTURES / "classroom.game").read_text())))
    doc = dict(json.loads(text), source="classroom.game", target="./classroom.game")
    for layout in ("compact", "indented"):
        assert assert_document_reads_as_strict("morphism", json.dumps(doc, **LAYOUTS[layout])) == text


@pytest.mark.parametrize("layout", ["compact", "indented"])
def test_mutated_witness_texts(layout):
    """Characters deleted, repeated or inserted at random anywhere in a witness."""
    rng = random.Random(layout)
    base = json.dumps(WITNESSES["odd tokens"], **LAYOUTS[layout])
    for _ in range(150):
        text = base
        for _ in range(rng.randint(1, 2)):
            k = rng.randrange(len(text))
            edit = rng.randrange(3)
            if edit == 0:
                text = text[:k] + text[k + 1:]
            elif edit == 1:
                text = text[:k] + text[k] + text[k:]
            else:
                text = text[:k] + rng.choice('[]{},:" \\1x') + text[k:]
        assert_document_reads_as_strict("witness", text)
