"""Command-line behavior: reports, determinism, exit codes, file outputs."""

import json
import random
import shutil
from pathlib import Path

import pytest

from ncgames import (
    DocumentSyntaxError,
    parse_game,
    parse_morphism,
    parse_witness,
    serialize_game,
    serialize_witness,
)
from ncgames.cli import cli_dispatch

from random_games import centipede_document, stage_pooled_document

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def workdir(tmp_path):
    for name in ("classroom.game", "absentminded.game"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    return tmp_path


def run(capsys, *argv):
    code = cli_dispatch([str(x) for x in argv])
    return code, capsys.readouterr().out


class TestValidate:
    def test_ok_summary(self, workdir, capsys):
        code, out = run(capsys, "validate", workdir / "classroom.game")
        assert code == 0
        assert out == "ok: 3 players, 9 nodes, 6 choices, 5 plays, 8 grand strategies\n"

    def test_invalid_document_exits_1(self, workdir, capsys):
        doc = json.loads((workdir / "classroom.game").read_text())
        doc["ownership"]["P3"] = ["e"]
        bad = workdir / "bad.game"
        bad.write_text(json.dumps(doc))
        code, out = run(capsys, "validate", bad)
        assert code == 1
        assert out.startswith("error: AxiomViolation")
        assert "UnassignedChoice" in out

    def test_missing_file_exits_1(self, workdir, capsys):
        code, out = run(capsys, "validate", workdir / "nope.game")
        assert code == 1
        assert out.startswith("error:")

    def test_directory_exits_1(self, workdir, capsys):
        code, out = run(capsys, "validate", workdir)
        assert code == 1
        assert out.startswith("error:")

    def test_non_utf8_file_exits_1(self, workdir, capsys):
        bad = workdir / "latin1.game"
        bad.write_bytes((workdir / "classroom.game").read_bytes() + b"\xff\xfe")
        code, out = run(capsys, "validate", bad)
        assert code == 1
        assert out.startswith("error:")

    def test_counts_strategies_beyond_the_cap(self, workdir, capsys):
        # perfect-information binary tree of depth 5: 31 singleton
        # information sets with two choices each, 2**31 grand strategies
        edges = [
            [{"atom": str(k)}, f"c{child}", {"atom": str(child)}]
            for k in range(1, 32)
            for child in (2 * k, 2 * k + 1)
        ]
        doc = {
            "format_version": "ncg/1",
            "players": ["P1"],
            "nodes": [{"atom": str(k)} for k in range(1, 64)],
            "edges": edges,
            "ownership": {"P1": [c for _t, c, _n in edges]},
            "utilities": [
                {
                    "play": [{"atom": str(leaf >> s)} for s in range(5, -1, -1)],
                    "values": {"P1": str(leaf % 3)},
                }
                for leaf in range(32, 64)
            ],
        }
        big = workdir / "big.game"
        big.write_text(json.dumps(doc))
        code, out = run(capsys, "validate", big)
        assert code == 0
        assert out == "ok: 1 players, 63 nodes, 62 choices, 32 plays, 2147483648 grand strategies\n"

    def test_usage_error_exits_2(self, workdir):
        with pytest.raises(SystemExit) as err:
            cli_dispatch(["frobnicate"])
        assert err.value.code == 2


class TestNash:
    def test_classroom_equilibria(self, workdir, capsys):
        code, out = run(capsys, "nash", workdir / "classroom.game")
        assert code == 0
        assert out == "{b,d,f}\n{b,g,f}\n"

    def test_byte_stable_across_runs(self, workdir, capsys):
        outputs = {
            run(capsys, "nash", workdir / "classroom.game")[1] for _ in range(3)
        }
        assert len(outputs) == 1


class TestDerive:
    def test_report_contents(self, workdir, capsys):
        code, out = run(capsys, "derive", workdir / "classroom.game")
        assert code == 0
        assert "root: 0" in out
        assert "{3,4}: P3 {e,f}" in out
        assert "{a,d,e} -> {0,1,4,7}" in out
        assert "P3: {e} {f}" in out

    def test_refuses_over_the_cap_before_printing(self, tmp_path, capsys):
        # 2**20 strategies per player, 2**40 grand strategies
        game = tmp_path / "centipede.game"
        game.write_text(json.dumps(centipede_document(random.Random(40), 40)))
        code, out = run(capsys, "--strategy-cap", "4096", "derive", game)
        assert code == 1
        assert out == (
            "error: StrategySpaceTooLarge: 1099511627776 strategies exceed "
            "the cap of 4096; raise the cap to proceed\n"
        )

    def test_derives_at_exactly_the_cap(self, workdir, capsys):
        code, out = run(capsys, "--strategy-cap", "8", "derive", workdir / "classroom.game")
        assert code == 0
        assert out == run(capsys, "derive", workdir / "classroom.game")[1]

    def test_byte_stable_across_runs(self, workdir, capsys):
        outputs = {
            run(capsys, "derive", workdir / "classroom.game")[1] for _ in range(3)
        }
        assert len(outputs) == 1

    def test_byte_stable_across_hash_seeds(self, workdir):
        results = run_under_hash_seeds(workdir, "derive", "classroom.game")
        assert len(results) == 1
        ((code, _out),) = results
        assert code == 0


def run_under_hash_seeds(workdir, *argv) -> set:
    """The distinct (exit code, stdout) pairs of ``ncg *argv`` run in a
    fresh interpreter under several hash seeds."""
    import os
    import subprocess
    import sys

    import ncgames

    # The child imports the same ncgames as this process, whether it
    # is installed or found through PYTHONPATH; nothing else of this
    # environment is passed on.
    package_root = str(Path(ncgames.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = package_root + (os.pathsep + inherited if inherited else "")

    results = set()
    for seed in ("0", "1", "2", "3", "424242"):
        result = subprocess.run(
            [sys.executable, "-m", "ncgames.cli", *argv],
            cwd=workdir,
            env={
                "PYTHONHASHSEED": seed,
                "PYTHONPATH": pythonpath,
                "PATH": "/usr/bin:/bin",
            },
            capture_output=True,
            text=True,
        )
        assert not result.stderr, result.stderr
        results.add((result.returncode, result.stdout))
    return results


def _cut_utilities(doc):
    doc["utilities"] = doc["utilities"][:1]


def _cut_ownership(doc):
    doc["ownership"] = {"P1": doc["ownership"]["P1"]}


def _add_cycle(doc):
    x, y = {"atom": "x"}, {"atom": "y"}
    doc["nodes"] += [y, x]
    doc["edges"] += [[x, "g", y], [y, "h", x]]
    doc["ownership"]["P1"] += ["g", "h"]


class TestRejectionsAcrossHashSeeds:
    """A rejection names the first violator in node, play or token order,
    whatever the hash seed."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                _cut_utilities,
                "AxiomViolation [[G2]]: MissingUtility [[G2]]: player P1 "
                "has no utility for the play ending at 7",
            ),
            (
                _cut_ownership,
                "AxiomViolation: MissingPlayer: player P2 has no choice "
                "assignment; declare vacuous players with an empty set",
            ),
            (
                _add_cycle,
                "AxiomViolation [[P2]]: NodeUnreachable [[P2]]: derived predecessor "
                "structure is not a tree (Cycle [[T2]]: predecessor chain from x "
                "never reaches the root)",
            ),
        ],
        ids=["unpriced-play", "unowned-player", "cycle"],
    )
    def test_validate(self, workdir, edit, message):
        doc = json.loads((workdir / "classroom.game").read_text())
        edit(doc)
        (workdir / "bad.game").write_text(json.dumps(doc))
        assert run_under_hash_seeds(workdir, "validate", "bad.game") == {
            (1, f"error: {message}\n")
        }

    def test_first_player_over_the_strategy_cap(self, workdir):
        # P1 and P2 own three information sets (8 strategies), P3 two (4);
        # P1 is the first player in token order
        doc = stage_pooled_document(random.Random(1), depth=8, player_count=3)
        (workdir / "pooled.game").write_text(json.dumps(doc))
        argv = ("--strategy-cap", "3", "nash", "pooled.game")
        assert run_under_hash_seeds(workdir, *argv) == {
            (
                1,
                "error: StrategySpaceTooLarge: 8 strategies exceed the cap of 3; "
                "raise the cap to proceed\n",
            )
        }

    def test_first_unmapped_node(self, workdir, capsys):
        run(capsys, "convert", "--to", "csq", workdir / "classroom.game")
        witness = json.loads((workdir / "classroom.csq.witness").read_text())
        morphism = witness["morphism"]
        morphism["tau"] = morphism["tau"][3:]
        (workdir / "cut.morphism").write_text(json.dumps(morphism))
        assert run_under_hash_seeds(workdir, "iso-check", "cut.morphism") == {
            (
                1,
                "error: AxiomViolation [[p1]]: NotTotal [[p1]]: "
                "map undefined on source node 0\n",
            )
        }


class TestConvert:
    def test_csq_writes_game_and_witness(self, workdir, capsys):
        out_game = workdir / "out.game"
        out_witness = workdir / "out.witness"
        code, out = run(
            capsys,
            "convert",
            "--to",
            "csq",
            workdir / "classroom.game",
            "-o",
            out_game,
            "-w",
            out_witness,
        )
        assert code == 0
        assert "style: choice-sequence" in out
        converted = parse_game(out_game.read_text())
        assert serialize_game(converted) == out_game.read_text()
        witness = parse_witness(out_witness.read_text())
        assert witness.morphism.target == converted

    def test_canonical_reports_style(self, workdir, capsys):
        code, out = run(
            capsys,
            "convert",
            "--to",
            "canonical",
            workdir / "classroom.game",
            "-o",
            workdir / "c.game",
            "-w",
            workdir / "c.witness",
        )
        assert code == 0
        assert "style: choice-set" in out

    def test_cset_on_absentminded_fails(self, workdir, capsys):
        code, out = run(
            capsys,
            "convert",
            "--to",
            "cset",
            workdir / "absentminded.game",
        )
        assert code == 1
        assert "Absentminded" in out

    def test_absentminded_to_csq_succeeds(self, workdir, capsys):
        code, out = run(
            capsys,
            "convert",
            "--to",
            "canonical",
            workdir / "absentminded.game",
            "-o",
            workdir / "ab.game",
            "-w",
            workdir / "ab.witness",
        )
        assert code == 0
        assert "style: choice-sequence" in out


class TestIso:
    def test_self_isomorphism(self, workdir, capsys):
        witness_path = workdir / "self.witness"
        code, out = run(
            capsys,
            "iso",
            workdir / "classroom.game",
            workdir / "classroom.game",
            "-w",
            witness_path,
        )
        assert code == 0
        assert out.startswith("isomorphic")
        parse_witness(witness_path.read_text())

    def test_non_isomorphic_games(self, workdir, capsys):
        code, out = run(
            capsys,
            "iso",
            workdir / "classroom.game",
            workdir / "absentminded.game",
        )
        assert code == 1
        assert out == "not isomorphic\n"

    def test_iso_check_witness(self, workdir, capsys):
        witness_path = workdir / "self.witness"
        run(
            capsys,
            "iso",
            workdir / "classroom.game",
            workdir / "classroom.game",
            "-w",
            witness_path,
        )
        code, out = run(capsys, "iso-check", witness_path)
        assert code == 0
        assert out == "valid isomorphism witness\n"

    def test_iso_check_rejects_tampered_witness(self, workdir, capsys):
        witness_path = workdir / "self.witness"
        run(
            capsys,
            "iso",
            workdir / "classroom.game",
            workdir / "classroom.game",
            "-w",
            witness_path,
        )
        doc = json.loads(witness_path.read_text())
        doc["morphism"]["beta"]["P1"] = [["-1", "0"], ["0", "0"], ["1", "1"]]
        witness_path.write_text(json.dumps(doc))
        code, out = run(capsys, "iso-check", witness_path)
        assert code == 1
        assert out.startswith("error:")

    def test_iso_check_decodes_the_text_once(self, workdir, capsys, monkeypatch):
        from ncgames import identity_morphism, load_game, serialize_morphism

        witness_path = workdir / "self.witness"
        run(capsys, "iso", workdir / "classroom.game", workdir / "classroom.game",
            "-w", witness_path)
        morphism_path = workdir / "id.morphism"
        morphism_path.write_text(
            serialize_morphism(identity_morphism(load_game(workdir / "classroom.game")))
        )
        decodes = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda *a, **k: decodes.append(1) or loads(*a, **k))
        for path, expected in (
            (witness_path, "valid isomorphism witness\n"),
            (morphism_path, "valid isomorphism\n"),
        ):
            decodes.clear()
            assert run(capsys, "iso-check", path) == (0, expected)
            assert len(decodes) == 1, path

    def test_iso_check_malformed_text(self, workdir, capsys):
        path = workdir / "bad.witness"
        path.write_text('{"morphism": \n  [1,, 2]}')
        assert run(capsys, "iso-check", path) == (
            1,
            "error: SyntaxError: Expecting value (line 2, column 6)\n",
        )

    @pytest.mark.parametrize("text", ["[]", '[{"morphism": {}}]\n'])
    def test_iso_check_top_level_array(self, workdir, capsys, text):
        path = workdir / "array.witness"
        path.write_text(text)
        assert run(capsys, "iso-check", path) == (
            1,
            "error: SyntaxError: morphism document is missing the "
            "'format_version' field\n",
        )

    def test_deep_centipedes(self, tmp_path, capsys):
        # 1,201 nodes: deeper than the interpreter's recursion limit
        for prefix in ("a", "b"):
            doc = centipede_document(random.Random(600), 600, prefix)
            (tmp_path / f"{prefix}.game").write_text(json.dumps(doc))
        witness_path = tmp_path / "ab.witness"
        code, out = run(
            capsys, "iso", tmp_path / "a.game", tmp_path / "b.game", "-w", witness_path
        )
        assert (code, out.splitlines()[0]) == (0, "isomorphic")
        code, out = run(capsys, "iso-check", witness_path)
        assert (code, out) == (0, "valid isomorphism witness\n")


class TestSubgame:
    def test_cut_information_set_fails(self, workdir, capsys):
        code, out = run(
            capsys, "subgame", workdir / "classroom.game", "--at", "3"
        )
        assert code == 1
        assert "InformationSetCut" in out

    def test_root_subgame_written(self, workdir, capsys):
        out_path = workdir / "root.game"
        code, out = run(
            capsys,
            "subgame",
            workdir / "classroom.game",
            "--at",
            "0",
            "-o",
            out_path,
        )
        assert code == 0
        sub = parse_game(out_path.read_text())
        assert sub == parse_game((workdir / "classroom.game").read_text())


class TestCompose:
    def test_compose_identity_with_itself(self, workdir, capsys):
        from ncgames import identity_morphism, load_game, serialize_morphism

        game = load_game(workdir / "classroom.game")
        m = identity_morphism(game)
        m_path = workdir / "id.morphism"
        m_path.write_text(serialize_morphism(m))
        out_path = workdir / "composed.morphism"
        code, out = run(capsys, "compose", m_path, m_path, "-o", out_path)
        assert code == 0
        from ncgames import parse_morphism

        assert parse_morphism(out_path.read_text()) == m

    def test_mismatched_morphisms_fail(self, workdir, capsys):
        from ncgames import identity_morphism, load_game, serialize_morphism
        from ncgames.transforms import apply_utility_transform

        game = load_game(workdir / "classroom.game")
        doubled, witness = apply_utility_transform(
            game, {i: {u: 2 * u for u in game.ranges[i]} for i in game.players}
        )
        d_path = workdir / "double.morphism"
        d_path.write_text(serialize_morphism(witness.morphism))
        code, out = run(capsys, "compose", d_path, d_path)
        assert code == 1
        assert "TargetSourceMismatch" in out

    def test_morphism_naming_a_missing_game(self, workdir, capsys):
        from ncgames import identity_morphism, load_game, serialize_morphism

        game = load_game(workdir / "classroom.game")
        doc = json.loads(serialize_morphism(identity_morphism(game)))
        doc["target"] = "missing.game"
        m_path = workdir / "dangling.morphism"
        m_path.write_text(json.dumps(doc))
        expected = (
            f"error: UnreadableGame: cannot read the game at {workdir / 'missing.game'} "
            "(FileNotFoundError)\n"
        )
        assert run(capsys, "compose", m_path, m_path) == (1, expected)
        assert run(capsys, "iso-check", m_path) == (1, expected)


# Each hostile form replaces the string "HOSTILE" in a document's text:
# 100,000 nested arrays, or a 5,000-digit integer as text or as a number.
HOSTILE = {
    "nesting": "[" * 100_000 + "]" * 100_000,
    "digits as text": '"' + "1" * 5000 + '"',
    "digits as a number": "1" * 5000,
}


def _hostile_text(doc, place, form):
    place(doc)
    return json.dumps(doc).replace('"HOSTILE"', HOSTILE[form])


@pytest.fixture
def hostile_documents(workdir):
    """A function writing a game, a morphism and a witness document, each
    with one utility made hostile, and returning their paths."""
    from ncgames import identity_morphism, load_game, serialize_morphism
    from ncgames.transforms import canonicalize

    game = load_game(workdir / "classroom.game")
    game_doc = json.loads((workdir / "classroom.game").read_text())
    morphism_doc = json.loads(serialize_morphism(identity_morphism(game)))
    witness_doc = json.loads(serialize_witness(canonicalize(game).witness))

    def set_utility(doc):
        doc["utilities"][0]["values"]["P1"] = "HOSTILE"

    def set_beta(doc):
        doc["beta"]["P1"][0][1] = "HOSTILE"

    def set_witness_beta(doc):
        set_beta(doc["morphism"])

    def write(form):
        paths = {}
        for kind, doc, place in (
            ("game", game_doc, set_utility),
            ("morphism", morphism_doc, set_beta),
            ("witness", witness_doc, set_witness_beta),
        ):
            paths[kind] = workdir / f"hostile.{kind}"
            paths[kind].write_text(_hostile_text(json.loads(json.dumps(doc)), place, form))
        return paths

    return write


@pytest.mark.parametrize("form", sorted(HOSTILE))
class TestHostileDocuments:
    """Documents past the JSON decoder's nesting depth or the interpreter's
    integer digit limit are syntax errors: exit 1, never a traceback."""

    def test_game(self, hostile_documents, capsys, form):
        path = hostile_documents(form)["game"]
        with pytest.raises(DocumentSyntaxError):
            parse_game(path.read_text())
        code, out = run(capsys, "validate", path)
        assert code == 1
        assert out.startswith("error: SyntaxError: ")

    def test_morphism(self, hostile_documents, capsys, form):
        path = hostile_documents(form)["morphism"]
        with pytest.raises(DocumentSyntaxError):
            parse_morphism(path.read_text())
        code, out = run(capsys, "compose", path, path)
        assert code == 1
        assert out.startswith("error: SyntaxError: ")

    def test_witness(self, hostile_documents, form):
        path = hostile_documents(form)["witness"]
        with pytest.raises(DocumentSyntaxError):
            parse_witness(path.read_text())

    def test_iso_check(self, hostile_documents, capsys, form):
        paths = hostile_documents(form)
        for kind in ("morphism", "witness"):
            code, out = run(capsys, "iso-check", paths[kind])
            assert code == 1
            assert out.startswith("error: SyntaxError: ")
