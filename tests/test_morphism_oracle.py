"""The morphism validators check maps over node ids and utility ranks;
``tests/oracles.py`` keeps the label-keyed validators they replaced.
On every candidate map both give the same verdict and, on one they
refuse, the same first error: its class, code, axiom, details and
message (``property_checks.check_validators_agree``).

The candidates are seeded random edits of morphisms between games from
``random_games``, most of them refused, by every rule of every layer:
identities, disguised copies and their inverses, and inclusions of
subgames, which keep no bijection.  The fuzzed morphism and witness
documents of ``test_fuzz_documents`` are checked the same way, read
into maps as ``parse_morphism`` reads them.
"""

import random
from collections import Counter

import pytest

from ncgames import identity_morphism
from ncgames.labels import label_key

import property_checks
from random_games import (
    perturbed_maps,
    random_game,
    random_iso_witness,
    subgame_inclusion,
)

SEEDS = range(40)


def candidates(rng: random.Random):
    """``(source, target, maps)`` of morphisms between random games, each
    by label: ``maps`` is ``(iota, tau, delta, beta)``."""
    g = random_game(rng)
    witness = random_iso_witness(rng, g)
    for m in (identity_morphism(g), witness.morphism, witness.inverse):
        yield m.source, m.target, (m.iota, m.tau, m.delta, m.beta)
    decision = sorted(g.tree.decision_nodes - {g.tree.root}, key=label_key)
    if decision:
        included = subgame_inclusion(g, rng.choice(decision))
        if included is not None:
            sub, maps = included
            yield sub, g, maps


def verdicts(seed: int) -> Counter:
    rng = random.Random(seed)
    seen: Counter = Counter()
    for source, target, maps in candidates(rng):
        seen[property_checks.check_validators_agree(source, target, *maps)] += 1
        for _ in range(6):
            edited = perturbed_maps(rng, source, target, maps, rng.randint(1, 2))
            seen[property_checks.check_validators_agree(source, target, *edited)] += 1
    return seen


@pytest.mark.parametrize("seed", SEEDS)
def test_validators_agree_with_the_label_oracles_on_random_maps(seed):
    assert verdicts(seed)["accepted"] > 0


def test_random_maps_reach_every_rule():
    """The edits reach every axiom the game validator checks, and maps
    it accepts: a verdict missing here would go untested above.  A
    refusal without an axiom is a key that is no element."""
    seen = sum(map(verdicts, SEEDS), Counter())
    axioms = {"[f1]", "[p1]", "[p2]", "[f3]", "[g2]", "[g3]", "[g4]", None, "accepted"}
    assert axioms <= set(seen), seen
