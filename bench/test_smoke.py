"""Smoke test of the benchmark: each workload at a tiny size.

    python3 -m pytest bench/test_smoke.py

Every metric named in ``BENCHMARK.json`` must be printed with its unit,
no answer may be wrong, a traced run must skip the layers its workload
is meant to skip, and its per-layer counts must repeat exactly for the
same seed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# (calls that must be 0, calls that must not be) per workload
LAYERS_RUN = {
    "solve": (["game.validate_game_morphism", "game.find_isomorphism"], ["preform.play_of", "game.nash_equilibria"]),
    "structure": (["preform.play_of", "game.nash_equilibria", "game.find_isomorphism"],
                  ["game.validate_game_morphism", "transforms.canonicalize"]),
    "iso": (["game.nash_equilibria", "preform.play_of"], ["game.find_isomorphism", "game.validate_game_morphism"]),
}


def run(workload, trace, script=HERE / "run.py", seed=7):
    done = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return lines, json.loads(lines[-1])


def printed(lines, name, unit):
    return [line.split()[1] for line in lines if line.split()[:1] == [name] and line.split()[-1] == unit]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_and_answers_right(workload):
    lines, result = run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, unit in units.items():
        assert printed(lines, name, unit)
    fail_rate = [line.split() for line in lines if line.startswith("fail_rate ")]
    assert len(fail_rate) == 1 and fail_rate[0][1:3] == ["0", "ratio"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_layers_skipped(workload):
    lines, first = run(workload, 1)
    _, second = run(workload, 1)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in first["metrics"].items()} == units
    for name, unit in units.items():
        assert printed(lines, name, unit)
    assert first["correct"] and first["failed"] == 0

    def counts(result):
        return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in ("count", "bytes")}

    assert counts(first) == counts(second)
    zero, nonzero = LAYERS_RUN[workload]
    for name in zero:
        assert first["metrics"][f"{name}.calls"]["value"] == 0, name
    for name in nonzero:
        assert first["metrics"][f"{name}.calls"]["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
