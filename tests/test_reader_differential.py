"""The game reader against the strict route: every document gives the
same serialized game, or the same error text, as
``_game_from_document(json.loads(text))``.

``parse_game`` reads the rows of a document whose last member is
``utilities`` from its text, and accepts a row written on one line as
``json.dumps`` writes by default, or indented by two as ``ncg`` writes,
whose ``play`` spells a play as the node list does, without decoding
its specs; rows in any other layout are decoded.  So these documents
vary how rows are written, what their tokens hold, and where a fault or
a syntax error sits."""

import json
import random
import time
from pathlib import Path

import pytest

from ncgames import DocumentSyntaxError, NcgError, parse_game, serialize_game
from ncgames.documents import _game_from_document
from ncgames.transforms import canonicalize, to_choice_sequence

from random_games import families

FIXTURES = Path(__file__).parent / "fixtures"

LAYOUTS = {
    "compact": {},
    "tight": {"separators": (",", ":")},
    "indented": {"indent": 2},
    "indented, non-ASCII as is": {"indent": 2, "ensure_ascii": False},
    "tabs": {"indent": "\t"},
}


def strict(text: str) -> str:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return str(DocumentSyntaxError(exc.msg, line=exc.lineno, column=exc.colno))
    try:
        return serialize_game(_game_from_document(doc)[0])
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


def _games() -> dict:
    classroom = parse_game((FIXTURES / "classroom.game").read_text())
    absentminded = parse_game((FIXTURES / "absentminded.game").read_text())
    # tokens that hold the characters the row walk looks for, and escapes
    odd = ["a]b", "c}d", 'e"f', "g\\h", "über", " ", '], "values": ', '{"play": [']
    return {
        "classroom": json.loads(serialize_game(classroom)),
        "choice sets": json.loads(serialize_game(canonicalize(classroom).game)),
        "choice sequences": json.loads(serialize_game(to_choice_sequence(absentminded)[0])),
        "centipede": families.to_document(families.centipede(random.Random(3), 12)),
        "stage-pooled": families.to_document(families.stage_pooled_binary(random.Random(3), 4, 3)),
        "odd tokens": _relabelled(
            json.loads(serialize_game(classroom)), lambda t: odd[int(t) % len(odd)] + t
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
def test_mutated_texts(layout):
    """Characters deleted, repeated or inserted at random in the rows."""
    rng = random.Random(layout)
    base = json.dumps(GAMES["odd tokens"], **LAYOUTS[layout])
    start = base.index('"utilities"')
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
