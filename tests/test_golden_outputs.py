"""Golden outputs: every subcommand's stdout and written files, byte for
byte, and the reader's verdict on seeded mutants of game documents.

The commands run on both fixtures and on one seeded 40-stage centipede,
from a scratch directory with relative paths, so no output names a
temporary directory.  The sha256 digests below were recorded from the
program before its writer streamed documents to files; any change to
a report or a document shows up here.  To re-record after an intended
change of output, run this file as a script from the repository root:

    PYTHONPATH=src:tests python tests/test_golden_outputs.py
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import random
import shutil
from pathlib import Path

from ncgames import NcgError, parse_game, serialize_game
from ncgames.cli import cli_dispatch
from ncgames.transforms import canonicalize, to_choice_sequence

from random_games import families

FIXTURES = Path(__file__).parent / "fixtures"

# (game stem, a node to cut at, a node whose cut is refused or absent)
GAMES = [
    ("classroom", "0", "3"),
    ("absentminded", '{"seq": []}', '{"seq": ["a"]}'),
    ("centipede", "d20", "nowhere"),
]


def _commands(stem: str, at: str, bad_at: str) -> list:
    game = f"{stem}.game"
    return [
        ["validate", game],
        # the centipede has 2**40 grand strategies: these report the cap
        ["--strategy-cap", "4096", "derive", game],
        ["--strategy-cap", "4096", "nash", game],
        ["convert", "--to", "csq", game],
        ["convert", "--to", "cset", game],
        ["convert", "--to", "cset", f"{stem}.csq.game"],
        ["convert", "--to", "canonical", game],
        ["iso", game, f"{stem}.canonical.game"],
        ["iso", game, game, "-w", f"{stem}.self.witness"],
        ["iso", game, f"{stem}.csq.game", "--search-budget", "2"],
        ["iso-check", f"{stem}.canonical.witness"],
        ["iso-check", f"{stem}__{stem}.canonical.witness"],
        ["iso-check", f"{stem}.self.witness"],
        ["subgame", game, "--at", at],
        ["subgame", game, "--at", bad_at, "-o", f"{stem}.bad.game"],
        ["iso-check", f"{stem}.f.morphism"],
        ["compose", f"{stem}.f.morphism", f"{stem}.g.morphism"],
        ["compose", f"{stem}.g.morphism", f"{stem}.f.morphism", "-o", f"{stem}.gf.morphism"],
        ["compose", f"{stem}.f.morphism", f"{stem}.f.morphism"],
    ]


def _run(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_dispatch(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def outputs(work: Path) -> dict:
    """Run every command in ``work``; the digest of each stdout and file."""
    shutil.copy(FIXTURES / "classroom.game", work / "classroom.game")
    shutil.copy(FIXTURES / "absentminded.game", work / "absentminded.game")
    doc = families.to_document(families.centipede(random.Random(40), 40))
    (work / "centipede.game").write_text(json.dumps(doc))
    digests = {}
    here = os.getcwd()
    os.chdir(work)
    try:
        for stem, at, bad_at in GAMES:
            for argv in _commands(stem, at, bad_at):
                if argv[-1].endswith(".f.morphism") and argv[0] == "iso-check":
                    # the two halves of the canonical witness, as morphism files
                    witness = json.loads(Path(f"{stem}.canonical.witness").read_text())
                    Path(f"{stem}.f.morphism").write_text(json.dumps(witness["morphism"]))
                    Path(f"{stem}.g.morphism").write_text(json.dumps(witness["inverse"]))
                code, digest = _run(argv)
                digests[" ".join(argv)] = f"{code} {digest}"
    finally:
        os.chdir(here)
    for path in sorted(work.iterdir()):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


GOLDEN = {
    "--strategy-cap 4096 derive absentminded.game":
        "0 c74513428ab2161da5dc54f02b434d42a12de3d690bbc32103c7eb767175c256",
    # re-recorded when derive began checking the cap before printing
    "--strategy-cap 4096 derive centipede.game":
        "1 0fad667f01b6d8bac9ec3c922205f3f47ec213cba835aecd1abc0398bd089e52",
    "--strategy-cap 4096 derive classroom.game":
        "0 ee84c138ab763a92cb3c790dbe909e0ee697642ddf19d9566cc1e3796535f874",
    "--strategy-cap 4096 nash absentminded.game":
        "0 2711b48410b73525fd07435b5b21e680638425df2ed3ac3e71a11ac85cd842cb",
    "--strategy-cap 4096 nash centipede.game":
        "1 20b7c88d7b7d1efd18e38bb8d76fe6ddb87785939da92656c1714b836268340c",
    "--strategy-cap 4096 nash classroom.game":
        "0 90f400f971b53a895eea94ab9b347f9ff3b9c87d606c2a9588fc2c9bb4a6b0f0",
    "absentminded.canonical.game":
        "35602c099d99478e237d0df08531f068a2dca07efd855aa3438ec0d0613a7975",
    "absentminded.canonical.witness":
        "0f69c4491b19715edef4ff037e2f298ac1c8d531a0c4a3c005f4ea143563cf6c",
    "absentminded.csq.game":
        "35602c099d99478e237d0df08531f068a2dca07efd855aa3438ec0d0613a7975",
    "absentminded.csq.witness":
        "0f69c4491b19715edef4ff037e2f298ac1c8d531a0c4a3c005f4ea143563cf6c",
    "absentminded.f.morphism":
        "2e9e10b5582f113fc6e7309f16ddf58d76c32fe212a52c88381c3f3a9c8e7b56",
    "absentminded.f__absentminded.f.morphism":
        "813c5ef8420c6d336be3b3b05a6b7a1f5491c51975d6e706265f7fa6009c5809",
    "absentminded.f__absentminded.g.morphism":
        "813c5ef8420c6d336be3b3b05a6b7a1f5491c51975d6e706265f7fa6009c5809",
    "absentminded.g.morphism":
        "2e9e10b5582f113fc6e7309f16ddf58d76c32fe212a52c88381c3f3a9c8e7b56",
    "absentminded.game":
        "35602c099d99478e237d0df08531f068a2dca07efd855aa3438ec0d0613a7975",
    "absentminded.gf.morphism":
        "813c5ef8420c6d336be3b3b05a6b7a1f5491c51975d6e706265f7fa6009c5809",
    "absentminded.self.witness":
        "0f69c4491b19715edef4ff037e2f298ac1c8d531a0c4a3c005f4ea143563cf6c",
    "absentminded.subgame.game":
        "35602c099d99478e237d0df08531f068a2dca07efd855aa3438ec0d0613a7975",
    "absentminded__absentminded.canonical.witness":
        "0f69c4491b19715edef4ff037e2f298ac1c8d531a0c4a3c005f4ea143563cf6c",
    "centipede.canonical.game":
        "78fde8e26b440fb7f0a52c4859825feaf0f16555574cb9955d332a93a1e3dae8",
    "centipede.canonical.witness":
        "abc60cf78c20c985857e1519e7b3976214cb3f7c3c912c675af8eb05b8bc2af4",
    "centipede.csq.cset.game":
        "78fde8e26b440fb7f0a52c4859825feaf0f16555574cb9955d332a93a1e3dae8",
    "centipede.csq.cset.witness":
        "f9551445b4ee1a566e5a1d75d111b88c37b64f1d9ae281bc0386da2cbdf4e1ac",
    "centipede.csq.game":
        "611bfaf0d9db21f2aed85081fa1ae6c840366fe7c3c83e3884c652dda758a9a3",
    "centipede.csq.witness":
        "06608f93f765429f461f81e124fc29a7c45f5db355905c389e7a93a989569f25",
    "centipede.f.morphism":
        "1fd85972414ebbc368bbecf5454d5c60200b88225b70d22c077cc929ab7bc1df",
    "centipede.f__centipede.g.morphism":
        "b263341ef9a5850a94efe42285ca56c88b3ae55164a11ce0fbf99e9e5830a573",
    "centipede.g.morphism":
        "388af153ca1d7074bf8cf31dde11179c6c1e23a878b2ddff2c6b41b1524bb108",
    "centipede.game":
        "62f07fc1fb1ec8e200c4dd95629969146641aed4020870ed94c0eeefba46ccb8",
    "centipede.gf.morphism":
        "59c05ac05870109627d86df63cec40984f68c330177dcfd6f417eab78acb0b1f",
    "centipede.self.witness":
        "04d663f8ba4efd8c7d5fea50642a23e86f221149276e5028c898c2d41cbc5165",
    "centipede.subgame.game":
        "fbe3eb5992124453ce0195b80708ed2fe2b4a6e1e2a9586abf4b45fc8b7edd31",
    "centipede__centipede.canonical.witness":
        "abc60cf78c20c985857e1519e7b3976214cb3f7c3c912c675af8eb05b8bc2af4",
    "classroom.canonical.game":
        "fb3ce469e249906a7fb57d9230dc4f2b5a3d7df1db85ec87d9da8812c25f9c3a",
    "classroom.canonical.witness":
        "20a9b3bc6167c0b1550479852c99fef886dd630b379fb0de7d4802dca5a487aa",
    "classroom.csq.cset.game":
        "fb3ce469e249906a7fb57d9230dc4f2b5a3d7df1db85ec87d9da8812c25f9c3a",
    "classroom.csq.cset.witness":
        "003e8c0faf82f7ead9f4fa2fc138b8bd7cce42fc7d4f4822ce76087e39f2c591",
    "classroom.csq.game":
        "22b8c5d70c6f4e25bfb4989257ed5f0d1f444a3206cb75e92c9a0fee61a5945e",
    "classroom.csq.witness":
        "7076c509de749ad4f8ec12dbed5b64fb550a26ccb45ecc046f908d0857e7efea",
    "classroom.f.morphism":
        "6dcc705514d1afedd6ac844aa5e578ef90b2dcedf1cb24f47616094a07881c7b",
    "classroom.f__classroom.g.morphism":
        "3e164e5ba9f31d3ba586f63e298dc72357d94cf9e450966f78a1acb191264aa2",
    "classroom.g.morphism":
        "a526fc1db25b704b982e4f036e3ab5eb88475fb5d247557f73edddf967cdcd2e",
    "classroom.game":
        "87993a4fc433ed0d8c25a8be532061a63cb6032bcfd800dcd40bc57953573d0e",
    "classroom.gf.morphism":
        "45a0bbe7e43c449ba380e6a1d760ce926bd06828035c913ca87c75666a488726",
    "classroom.self.witness":
        "84b1438bec42bf070d6d3c84d83bf0c05fda163ab920d573119a6e26276cc109",
    "classroom.subgame.game":
        "87993a4fc433ed0d8c25a8be532061a63cb6032bcfd800dcd40bc57953573d0e",
    "classroom__classroom.canonical.witness":
        "20a9b3bc6167c0b1550479852c99fef886dd630b379fb0de7d4802dca5a487aa",
    "compose absentminded.f.morphism absentminded.f.morphism":
        "0 9a79f2b1109e78af1be55b7aff5ff189e697a090546941eaf70637a34d039973",
    "compose absentminded.f.morphism absentminded.g.morphism":
        "0 09d9483a7b90b723f7ba4f5cca34452072d80be963b2ff7373706507a5b616ee",
    "compose absentminded.g.morphism absentminded.f.morphism -o absentminded.gf.morphism":
        "0 40a451c9874d8b889891fbfc313b1d49b526c65fd11309d9f4d2d09a11e52823",
    "compose centipede.f.morphism centipede.f.morphism":
        "1 840a1dc9bedb7e353ebb93f1432d336ba281f91a7ddf39b5194e95b8bd528deb",
    "compose centipede.f.morphism centipede.g.morphism":
        "0 88199882adc90a281292cbfe8dba949cf95935ad17cf538b1237dcb729995404",
    "compose centipede.g.morphism centipede.f.morphism -o centipede.gf.morphism":
        "0 a55f5e2a5700c69a14e84d5cea8617ac072f7a9150664a2c61fadff746743d43",
    "compose classroom.f.morphism classroom.f.morphism":
        "1 840a1dc9bedb7e353ebb93f1432d336ba281f91a7ddf39b5194e95b8bd528deb",
    "compose classroom.f.morphism classroom.g.morphism":
        "0 fe45d82f6ddeb7ba648350f4e95c94f894865dd4a2fba54bf0cd738b27a25f0e",
    "compose classroom.g.morphism classroom.f.morphism -o classroom.gf.morphism":
        "0 5d37597a821b37d941f0ef7b63f01eab9cd8cda4ea9fd2031fccc767c0b26081",
    "convert --to canonical absentminded.game":
        "0 46868f42368c2a586702ed8ebd4d6aeb8b3eb62a460b0b2cee151a22bb552388",
    "convert --to canonical centipede.game":
        "0 18ffb19f6dc2e5ede42c79a47b2a57eeed02ab0573b326c0ed251243ecf42f27",
    "convert --to canonical classroom.game":
        "0 21988a10efcd4e5df94a7062ff820e0c759def60b8ee159ab3da1ff73d7aea63",
    "convert --to cset absentminded.csq.game":
        "1 4659d5251d9a2768269b423e10537e4b9ffe296cdf8999813aee93dbdc1e4ebe",
    "convert --to cset absentminded.game":
        "1 4659d5251d9a2768269b423e10537e4b9ffe296cdf8999813aee93dbdc1e4ebe",
    "convert --to cset centipede.csq.game":
        "0 eb97abe93938675e44320ec7af88e11553f42b4b63ff6b3dd5b8ec5659219743",
    "convert --to cset centipede.game":
        "1 a2d29d16dbdc4c2547db0f4c288adf7cbbca15e06d925ef2280f0f1ba5e6dab7",
    "convert --to cset classroom.csq.game":
        "0 34cb42bbfda0e2f0c4ca12fb01e9df5e02170088e3e82fa90606cf8a531a9ab5",
    "convert --to cset classroom.game":
        "1 a2d29d16dbdc4c2547db0f4c288adf7cbbca15e06d925ef2280f0f1ba5e6dab7",
    "convert --to csq absentminded.game":
        "0 4a8f7f899e1ef1d55fe51a984793fe530cd5ce6a234bd046528ea4162bc5ab29",
    "convert --to csq centipede.game":
        "0 31422aa0842e0636cf4e8e92d0b11aba7c70de019c18ed49e8b9070e38d21abf",
    "convert --to csq classroom.game":
        "0 ed43b37ad6cd58846e05d0adc722cb5e65b67e86316e882b276c461c17fdf2ab",
    "iso absentminded.game absentminded.canonical.game":
        "0 346301ed1df91196210d4bd741b7ce245098a8b277bf1fa70cd49d6dab34c068",
    "iso absentminded.game absentminded.csq.game --search-budget 2":
        "1 fff38733a21333b6dc21d1dcf3e408b33f3af1e38c55bcc1e36c463e572b17d5",
    "iso absentminded.game absentminded.game -w absentminded.self.witness":
        "0 f97493b11ed8946d10d1b5875b0fe7ffe33f587f1c172ce75ad4106af12443bb",
    "iso centipede.game centipede.canonical.game":
        "0 2835ce7a03f51f7cbb98bbbccf64cd23359fbb698128a8709819b85b360fc80d",
    "iso centipede.game centipede.csq.game --search-budget 2":
        "1 fff38733a21333b6dc21d1dcf3e408b33f3af1e38c55bcc1e36c463e572b17d5",
    "iso centipede.game centipede.game -w centipede.self.witness":
        "0 174346810c3dcf7960d70d7e5484d54d38a8bd017a3ef9633af616e70d534d9a",
    "iso classroom.game classroom.canonical.game":
        "0 8fb913f8b00de0402cb06e7c7724d477331601fa38c42f5f9a53e94a758aea0f",
    "iso classroom.game classroom.csq.game --search-budget 2":
        "1 fff38733a21333b6dc21d1dcf3e408b33f3af1e38c55bcc1e36c463e572b17d5",
    "iso classroom.game classroom.game -w classroom.self.witness":
        "0 9ed4f9e7ef2e91d7d333337c04b386e3c9031dc286944de057fd48fedf9ab43a",
    "iso-check absentminded.canonical.witness":
        "0 e4e9cde35831331deeb2404c335a6e0217cdb5415dd425a174ad1d75d0d66fb2",
    "iso-check absentminded.f.morphism":
        "0 4d241e742842cd686d898262b27f087e79a2c03f0b311c047ed38e9b1e55a69b",
    "iso-check absentminded.self.witness":
        "0 e4e9cde35831331deeb2404c335a6e0217cdb5415dd425a174ad1d75d0d66fb2",
    "iso-check absentminded__absentminded.canonical.witness":
        "0 e4e9cde35831331deeb2404c335a6e0217cdb5415dd425a174ad1d75d0d66fb2",
    "iso-check centipede.canonical.witness":
        "0 e4e9cde35831331deeb2404c335a6e0217cdb5415dd425a174ad1d75d0d66fb2",
    "iso-check centipede.f.morphism":
        "0 4d241e742842cd686d898262b27f087e79a2c03f0b311c047ed38e9b1e55a69b",
    "iso-check centipede.self.witness":
        "0 e4e9cde35831331deeb2404c335a6e0217cdb5415dd425a174ad1d75d0d66fb2",
    "iso-check centipede__centipede.canonical.witness":
        "0 e4e9cde35831331deeb2404c335a6e0217cdb5415dd425a174ad1d75d0d66fb2",
    "iso-check classroom.canonical.witness":
        "0 e4e9cde35831331deeb2404c335a6e0217cdb5415dd425a174ad1d75d0d66fb2",
    "iso-check classroom.f.morphism":
        "0 4d241e742842cd686d898262b27f087e79a2c03f0b311c047ed38e9b1e55a69b",
    "iso-check classroom.self.witness":
        "0 e4e9cde35831331deeb2404c335a6e0217cdb5415dd425a174ad1d75d0d66fb2",
    "iso-check classroom__classroom.canonical.witness":
        "0 e4e9cde35831331deeb2404c335a6e0217cdb5415dd425a174ad1d75d0d66fb2",
    "subgame absentminded.game --at {\"seq\": [\"a\"]} -o absentminded.bad.game":
        "1 269fee177878b669ca88ced37db3fcbd417657a9f2863e8fd1a83722d7c31e1f",
    "subgame absentminded.game --at {\"seq\": []}":
        "0 6911298775735eac15e5b5a63c80510937ded8209d1741df3a5924b0768aaf13",
    "subgame centipede.game --at d20":
        "0 b0028ee60695d56d02d03ff85b043bb8a4b00d3595914097a9fb6f3be4d7e29e",
    "subgame centipede.game --at nowhere -o centipede.bad.game":
        "1 1a6f3ff7d56fe1522bb5a1ca57d371a6f58511b504acbe21ea27900499cd6d96",
    "subgame classroom.game --at 0":
        "0 a730bb13e52be84a227c2d47e83c060a76bb997bee7ab1a3c5410404efc1298e",
    "subgame classroom.game --at 3 -o classroom.bad.game":
        "1 dc76305ef1cd09dc50788111ada37de3c8a00b113be8e12e65dbd5418338081e",
    "validate absentminded.game":
        "0 945f3ec6d1cc191a39b6addc40ece96d3802a6ca712650311408edfb75c96ac9",
    "validate centipede.game":
        "0 6c3b4642cbb9b25006ae45136a547a759680c22257ddb7e453ea43ae40cad7db",
    "validate classroom.game":
        "0 f173fa2588ca57c5f6b5c7244b6f1f15039586fb84e4c38635a5d68e33d985d0",
}


def test_outputs_match_the_recorded_digests(tmp_path):
    got = outputs(tmp_path)
    assert sorted(got) == sorted(GOLDEN)
    assert {k: v for k, v in got.items() if GOLDEN[k] != v} == {}


# Row mutants: the reader's verdict on each of MUTANTS mutated game
# documents, hashed in one digest.  Every rejection keeps its code and
# text, and every accepted mutant its canonical document.


def _mutant_bases() -> list:
    """The fixtures and their choice-sequence and canonical documents."""
    bases = []
    for name in ("classroom.game", "absentminded.game"):
        g = parse_game((FIXTURES / name).read_text())
        for h in (g, to_choice_sequence(g)[0], canonicalize(g).game):
            bases.append(json.loads(serialize_game(h)))
    return bases


def _play(rng, doc, at_least=1) -> list:
    """The spec list of a row that an earlier mutation left readable,
    preferring rows of ``at_least`` specs; empty when there is none."""
    plays = [
        e["play"] for e in doc["utilities"]
        if isinstance(e, dict) and isinstance(e.get("play"), list) and e["play"]
    ]
    return rng.choice([p for p in plays if len(p) >= at_least] or plays or [[]])


def _entry(rng, doc) -> dict:
    """A row that still has a ``values`` dict, or a throwaway one."""
    rows = [
        e for e in doc["utilities"]
        if isinstance(e, dict) and isinstance(e.get("values"), dict)
    ]
    return rng.choice(rows or [{"values": {}}])


def _swap_middle(rng, doc):
    play = _play(rng, doc, 3)
    if len(play) >= 3:
        i = rng.randrange(len(play) - 2)
        play[i], play[i + 1] = play[i + 1], play[i]


def _reorder_set(rng, doc):
    spots = [
        (play, i)
        for play in (e.get("play") for e in doc["utilities"] if isinstance(e, dict))
        if isinstance(play, list)
        for i, spec in enumerate(play)
        if isinstance(spec, dict) and len(spec.get("set", ())) > 1
    ]
    if spots:
        play, i = rng.choice(spots)
        play[i] = {"set": play[i]["set"][::-1]}


def _drop_spec(rng, doc):
    play = _play(rng, doc)
    if play:
        del play[rng.randrange(len(play))]


def _duplicate_spec(rng, doc):
    play = _play(rng, doc)
    if play:
        play.insert(rng.randrange(len(play) + 1), copy.deepcopy(rng.choice(play)))


def _end_at_decision(rng, doc):
    play = _play(rng, doc)
    if play:
        play[-1] = copy.deepcopy(rng.choice(doc["edges"])[0])


def _prefix(rng, doc):
    play = _play(rng, doc)
    if play:
        del play[rng.randrange(len(play)):]


def _duplicate_row(rng, doc):
    rows = doc["utilities"]
    rows.insert(rng.randrange(len(rows) + 1), copy.deepcopy(rng.choice(rows)))


def _drop_row(rng, doc):
    rows = doc["utilities"]
    del rows[rng.randrange(len(rows))]
    if not rows:
        rows.append({"play": [], "values": {}})


def _unknown_player(rng, doc):
    _entry(rng, doc)["values"]["Zed"] = "1"


def _non_list_play(rng, doc):
    row = rng.choice(doc["utilities"])
    if isinstance(row, dict):
        spec = (_play(rng, doc) or [None])[-1]
        row["play"] = rng.choice([None, "0", 3, {"atom": "0"}, {"play": []}, spec])


def _foreign_spec(rng, doc):
    play = _play(rng, doc)
    if play:
        bad = [{"atom": ["x"]}, {"seq": "a"}, {"set": [1]}, {"Seq": []}, "a", {},
               {"atom": "zz"}]
        play[rng.randrange(len(play))] = rng.choice(bad)


def _bad_values(rng, doc):
    row = _entry(rng, doc)
    if rng.random() < 0.3:
        row["values"] = rng.choice([None, [], "1"])
    else:
        player = rng.choice(sorted(row["values"]) or ["P1"])
        row["values"][player] = rng.choice(["x", True, "1/0", None, 1.5, "-7/3"])


def _drop_field(rng, doc):
    row = rng.choice(doc["utilities"])
    if isinstance(row, dict):
        row.pop(rng.choice(["play", "values"]), None)


ROW_MUTATIONS = [
    _swap_middle, _reorder_set, _drop_spec, _duplicate_spec, _end_at_decision,
    _prefix, _duplicate_row, _drop_row, _unknown_player, _non_list_play,
    _foreign_spec, _bad_values, _drop_field,
]


def _edge_to_root(rng, doc):
    rng.choice(doc["edges"])[2] = copy.deepcopy(doc["edges"][0][0])


def _cycle(rng, doc):
    # two new nodes, each the other's parent, away from the root
    x, y = {"atom": "x"}, {"atom": "y"}
    doc["nodes"] += [x, y]
    doc["edges"] += [[x, "xy", y], [y, "yx", x]]
    doc["ownership"][doc["players"][0]] += ["xy", "yx"]
    doc["ownership"][doc["players"][0]].append("zz")


def _drop_edge(rng, doc):
    del doc["edges"][rng.randrange(len(doc["edges"]))]


def _drop_node(rng, doc):
    del doc["nodes"][rng.randrange(len(doc["nodes"]))]


def _duplicate_node(rng, doc):
    doc["nodes"].append(copy.deepcopy(rng.choice(doc["nodes"])))


def _isolated_node(rng, doc):
    doc["nodes"].append({"atom": "lonely"})


def _malformed_edge(rng, doc):
    doc["edges"][rng.randrange(len(doc["edges"]))] = rng.choice([None, [], ["a", "b"]])


def _disown_choice(rng, doc):
    player = rng.choice(doc["players"])
    if doc["ownership"][player]:
        doc["ownership"][player].pop()


TREE_MUTATIONS = [
    _edge_to_root, _cycle, _drop_edge, _drop_node, _duplicate_node,
    _isolated_node, _malformed_edge, _disown_choice,
]

MUTANTS = 3000


def mutant_outcomes(seed: int = 12, count: int = MUTANTS):
    """Each mutant's outcome: its canonical document when it parses,
    else the error's code and text."""
    rng = random.Random(seed)
    bases = _mutant_bases()
    for _ in range(count):
        doc = copy.deepcopy(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            rng.choice(ROW_MUTATIONS)(rng, doc)
        if rng.random() < 0.3:
            rng.choice(TREE_MUTATIONS)(rng, doc)
        try:
            yield serialize_game(parse_game(json.dumps(doc)))
        except NcgError as err:
            yield f"{err.code}\n{err}"


def mutant_digest() -> str:
    digest = hashlib.sha256()
    for outcome in mutant_outcomes():
        digest.update(outcome.encode() + b"\0")
    return digest.hexdigest()


# recorded before the reader began taking each play row by its end, then
# re-recorded when error tags lost their doubled brackets: the earlier
# outcomes with each ``[[X]]`` read as ``[X]`` hash to this digest
MUTANT_DIGEST = "940bb045bb84dac7e4bf1b44bc385232abd1a1940557f969b5699eb60118afac"


def test_row_mutants_keep_their_outcomes():
    assert mutant_digest() == MUTANT_DIGEST


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        print(json.dumps(outputs(Path(scratch)), indent=4, sort_keys=True))
    print("MUTANT_DIGEST =", json.dumps(mutant_digest()))
