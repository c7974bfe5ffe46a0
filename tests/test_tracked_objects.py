"""The objects a parse leaves for the cyclic collector: the change in
``len(gc.get_objects())`` across ``parse_game``, after ``gc.collect()``,
in a fresh process.  The count is exact, so it gates the containers a
parsed game keeps alive per node, and it must grow with the nodes.

A parsed game keeps its integer core and builds its label-keyed maps
(``Tree.pred``, ``rank``, ``play_by_end``, ``Preform.op``,
``Game.utilities``) only when read.  When they were built at every
parse, with one ``Play`` and its path of labels per play, the depth-9,
3-player stage-pooled game kept 4,171 tracked objects (4.08 per node)
and the 160-stage centipede 1,884 (5.87 per node); now 2,130 (2.08)
and 1,246 (3.88)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import ncgames

SCRIPT = """
import gc, json, random
from ncgames import parse_game
from random_games import families

def kept(doc):
    text = json.dumps(doc)
    del doc
    gc.collect()
    before = len(gc.get_objects())
    game = parse_game(text)
    gc.collect()
    return len(game.tree.nodes), len(gc.get_objects()) - before

kept(families.to_document(families.centipede(random.Random(1), 3)))  # lazy set-up first
print(json.dumps([
    [kept(families.to_document(families.stage_pooled_binary(random.Random(1), d, 3))) for d in (8, 9)],
    [kept(families.to_document(families.centipede(random.Random(1), n))) for n in (80, 160)],
]))
"""

# tracked objects kept per node, at the measured figure of the larger game
PER_NODE = {"stage-pooled": 2.2, "centipede": 4.05}


def test_parsing_keeps_few_tracked_objects_per_node():
    package_root = str(Path(ncgames.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = os.pathsep.join(
        [package_root, str(Path(__file__).parent)] + ([inherited] if inherited else [])
    )
    result = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT],  # writing no bytecode into the source tree
        env={"PYTHONPATH": pythonpath, "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
    )
    assert not result.stderr, result.stderr
    for family, sizes in zip(PER_NODE, json.loads(result.stdout)):
        (small_nodes, small), (large_nodes, large) = sizes
        assert large_nodes >= 2 * small_nodes - 1, family
        assert 0 < small <= PER_NODE[family] * small_nodes, family
        assert 0 < large <= PER_NODE[family] * large_nodes, family
        assert large <= 2.1 * small, family
