"""The ncgames benchmark: ``ncg`` job mixes, timed end to end and per layer.

    python3 bench/run.py --workload {solve,structure,iso} --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout.  The seed fixes every input.  The
inputs are generated and their expected answers computed first, in this
process.  Then a fresh workload process (``worker.py``) imports
``ncgames.cli`` and runs the jobs one after another through
``cli_dispatch``, one client in a closed loop, in whole rounds until S
seconds have passed.  Every answer is then checked.  Times are scaled to
a reference core by a calibration loop timed around every job
(``calibration.py``), because the speed of a shared host's cores drifts.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
the per-layer metrics, from a traced process that runs a fixed list of
jobs (so its counts repeat exactly), next to an untraced process that
runs the same list (their difference is the tracing overhead).  The last
line of stdout is one JSON object; the lines before it repeat the
metrics with units, the run's settings, and any wrong answers.  Spans
and the full per-function table go to ``.bench_out/`` in the checkout.

Workload processes get a fixed ``PYTHONHASHSEED``, because the library
iterates sets and its work depends on their order.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Inputs are generated for this many times the rounds today's program
#: finishes in the run, so a faster program still finds fresh inputs.
HEADROOM = 2
#: Rounds in the fixed job list of a traced run.
TRACE_ROUNDS = 2
#: Import-only processes timed for ``setup_s``, besides the workload process.
SETUP_SAMPLES = 10
#: The library iterates sets, so its work depends on the hash seed; every
#: workload process gets this one.
HASH_SEED = "0"
WORKER_TIMEOUT_S = 150
IMPORT_TIMER = (
    "import sys, time; t = time.perf_counter(); import ncgames.cli; "
    "s = time.perf_counter() - t; sys.path.insert(0, {bench!r}); "
    "from calibration import calibrate; print(s, calibrate())"
).format(bench=str(HERE))

END_TO_END = [
    ("jobs_per_s", "jobs/s"),
    ("job_s.p50", "s"),
    ("job_s.p90", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]

CALLS = [
    "preform.play_of", "preform.grand_strategies", "form.player_strategies",
    "game.nash_equilibria", "game.is_nash",
    "game.validate_game_morphism", "form.validate_form_morphism",
    "preform.validate_preform_morphism", "tree.validate_tree_morphism",
    "game.is_isomorphism", "game.compose", "game.identity_morphism", "tree.image_play",
    "tree.build_tree", "preform.build_preform", "form.build_form", "game.build_game",
    "transforms.canonicalize", "transforms.to_choice_sequence", "transforms.to_choice_set",
    "transforms.style_report", "game.Game.play_with_members", "game.subgame_at",
    "game.find_isomorphism", "documents.parse_game", "documents.parse_morphism",
    "documents.parse_witness", "documents.serialize_game", "documents.serialize_morphism",
    "documents.serialize_witness",
]
# Self times only where every workload spends some, so no time reads 0 on
# every run of a workload; the full per-function table is in .bench_out/.
FUNCTION_SELF = ["tree.build_tree", "preform.build_preform", "form.build_form",
                 "game.build_game", "documents.parse_game"]
MODULE_SELF = ["tree", "preform", "form", "game", "documents", "cli"]

PER_LAYER = (
    [(f"{name}.calls", "count") for name in CALLS]
    + [(f"{name}.calls", "count") for name in tracing.COUNT_ONLY]
    + [(f"{name}.self_s", "s") for name in FUNCTION_SELF]
    + [(f"{module}.self_s", "s") for module in MODULE_SELF]
    + [
        ("preform.play_of.per_strategy", "ratio"),
        ("game.validate_game_morphism.per_job", "ratio"),
        ("game.find_isomorphism.witness_ratio", "ratio"),
        ("documents.bytes_read", "bytes"),
        ("documents.bytes_written", "bytes"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


def _run_worker(plan, seconds: float, env: dict, work: Path, spans: Path = None) -> dict:
    (work / "jobs.json").write_text(json.dumps([job.argv for job in plan.jobs]))
    command = [sys.executable, str(HERE / "worker.py"), "jobs.json", "result.json", str(seconds),
               str(plan.round_size)]
    if spans is not None:
        command.append(str(spans))
    subprocess.run(command, env=env, cwd=work, check=True, timeout=WORKER_TIMEOUT_S)
    lines = (work / "result.json").read_text().splitlines()
    result = json.loads(lines[-1])
    result["records"] = [json.loads(line) for line in lines[:-1]]
    return result


def _import_seconds(env: dict, work: Path) -> tuple:
    """The import time of ``ncgames.cli`` in a fresh process, and the
    calibration time measured in that process right after it."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER], env=env, cwd=work, check=True,
        capture_output=True, text=True, timeout=60,
    )
    seconds, cal = map(float, done.stdout.split())
    return seconds, cal


def _scaled(seconds: float, cals: list) -> float:
    """Seconds on the reference core, from seconds measured among
    calibrations that took ``cals`` (see ``calibration.py``)."""
    return seconds * calibration.REFERENCE_S / statistics.median(cals)


def _failures(plan, records, work: Path) -> list:
    out = []
    for job, record in zip(plan.jobs, records):
        try:
            why = workloads.check(job, record, work)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            why = f"output missing or malformed: {type(exc).__name__}: {exc}"
        if why is not None:
            out.append(f"{job.kind} ({' '.join(job.argv)}): {why}")
    return out


def _end_to_end(plan, env: dict, work: Path, seconds: float):
    _import_seconds(env, work)  # compiles the bytecode of a fresh checkout
    samples = [_import_seconds(env, work) for _ in range(SETUP_SAMPLES)]
    result = _run_worker(plan, seconds, env, work)
    samples.append((result["setup_s"], result["setup_cal"]))
    records = result["records"]
    # every job's time is scaled to the reference core by the median of
    # the six calibrations nearest to it, three before and three after:
    # the host's speed changes within seconds, and one calibration alone
    # can catch a spike
    cals = [r["cal"] for r in records] + [result["cal_end"]]
    durations = [_scaled(r["seconds"], cals[max(0, i - 2):i + 4]) for i, r in enumerate(records)]
    raw = [r["seconds"] for r in records]
    # the rate of each whole round; their median is steady against short
    # slow spells, which a rate over the whole run is not
    size = plan.round_size
    rates = [size / sum(durations[k:k + size]) for k in range(0, len(records), size)]
    raw_rates = [size / sum(raw[k:k + size]) for k in range(0, len(records), size)]

    def p90(values):
        return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]

    metrics = {
        "jobs_per_s": statistics.median(rates),
        "job_s.p50": statistics.median(durations),
        "job_s.p90": p90(durations),
        "setup_s": statistics.median(_scaled(s, [cal]) for s, cal in samples),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    notes = [
        f"ran {len(rates)} rounds of {size} jobs in {result['wall_s']:.3f} s"
        + (" (input pool exhausted)" if len(records) == len(plan.jobs) else ""),
        f"calibration {statistics.median(cals) * 1e3:.3f} ms (median; reference "
        f"{calibration.REFERENCE_S * 1e3:g} ms), {min(cals) * 1e3:.3f} to {max(cals) * 1e3:.3f} ms",
        f"unscaled: jobs_per_s {statistics.median(raw_rates):.6g}, job_s.p50 {statistics.median(raw):.6g}, "
        f"job_s.p90 {p90(raw):.6g}, setup_s {statistics.median(s for s, _cal in samples):.6g}, "
        f"{len(records) / result['wall_s']:.6g} jobs/s over the whole run",
    ]
    return metrics, records, _failures(plan, records, work), notes + _by_class(plan, records)


def _by_class(plan, records) -> list:
    times = {}
    for job, record in zip(plan.jobs, records):
        times.setdefault(job.kind, []).append(record["seconds"])
    return ["unscaled seconds per job class (jobs, median, max):"] + [
        f"  {kind:<44} {len(ts):>4} {statistics.median(ts):>9.4f} {max(ts):>9.4f}"
        for kind, ts in sorted(times.items(), key=lambda kv: statistics.median(kv[1]))
    ]


def _per_layer(plan, env: dict, work: Path, spans: Path):
    plain = _run_worker(plan, 0, env, work)
    plain_failures = _failures(plan, plain["records"], work)
    traced = _run_worker(plan, 0, env, work, spans)
    records = traced["records"]
    failures = plain_failures + _failures(plan, records, work)
    summary = tracing.summarize(tracing.read_spans(spans))
    functions = summary["functions"]
    counts, extras = traced["counts"], traced["extras"]

    def calls(name):
        return counts[name] if name in counts else functions.get(name, {}).get("calls", 0)

    module_self = {}
    for name, row in functions.items():
        module = name.split(".", 1)[0]
        module_self[module] = module_self.get(module, 0.0) + row["self_s"]
    jobs = len(records)
    metrics = {f"{name}.calls": calls(name) for name in CALLS + list(tracing.COUNT_ONLY)}
    metrics.update({f"{name}.self_s": functions.get(name, {}).get("self_s", 0.0) for name in FUNCTION_SELF})
    metrics.update({f"{module}.self_s": module_self.get(module, 0.0) for module in MODULE_SELF})
    enumerated = extras["strategies_enumerated"]
    metrics.update({
        "preform.play_of.per_strategy": calls("preform.play_of") / enumerated if enumerated else 0.0,
        "game.validate_game_morphism.per_job": calls("game.validate_game_morphism") / jobs,
        "game.find_isomorphism.witness_ratio": (
            extras["witnesses_found"] / summary["validations_in_search"]
            if summary["validations_in_search"] else 0.0
        ),
        "documents.bytes_read": extras["bytes_read"],
        "documents.bytes_written": extras["bytes_written"],
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        "trace.overhead_ratio": traced["wall_s"] / plain["wall_s"],
    })
    notes = [
        f"untraced wall {plain['wall_s']:.3f} s, traced wall {traced['wall_s']:.3f} s, {jobs} jobs each",
        "self time and calls per function (traced run):",
    ] + [
        f"  {name:<40} {row['calls']:>9} calls {row['self_s']:>10.4f} s"
        for name, row in sorted(functions.items(), key=lambda kv: -kv[1]["self_s"])
    ] + [f"  {name:<40} {count:>9} calls (counted, no spans)" for name, count in counts.items()]
    (spans.parent / spans.name.replace("spans-", "layers-").replace(".jsonl", ".json")).write_text(
        json.dumps({"functions": functions, "counts": counts, "extras": extras}, indent=1)
    )
    return metrics, plain["records"] + records, failures, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny games, for the benchmark's own smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ncgames" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} is not an ncgames checkout (src/ncgames, tests/oracles.py)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=str(ROOT / "src"))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    try:
        rounds = TRACE_ROUNDS
        if not args.trace:
            rounds = max(rounds, math.ceil(HEADROOM * args.seconds / workloads.ROUND_SECONDS[args.workload]))
        started = time.perf_counter()
        plan = workloads.build(args.workload, args.seed, rounds, work, tiny=args.size == "tiny")
        generated = time.perf_counter()
        workloads.cross_check_nash(plan, ROOT)
        prepared = [f"{len(plan.jobs)} jobs generated in {generated - started:.2f} s, "
                    f"reference equilibria checked against the oracle in {time.perf_counter() - generated:.2f} s"]
        if args.trace:
            spans = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics, records, failures, notes = _per_layer(plan, env, work, spans)
            units = PER_LAYER
        else:
            metrics, records, failures, notes = _end_to_end(plan, env, work, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(
        f"# workload={args.workload} seed={args.seed} trace={args.trace} seconds={args.seconds:g} "
        f"size={args.size} python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
        f"PYTHONHASHSEED={HASH_SEED} rounds={rounds} jobs_per_round={plan.round_size}"
    )
    for note in prepared + notes:
        print(f"# {note}")
    for name, unit in units:
        print(f"{name:<44} {metrics[name]:>14.6g} {unit}")
    # never 0 is required of a benchmark metric, so this one is printed
    # here and its counts are the JSON's "attempted" and "failed"
    print(f"{'fail_rate':<44} {len(failures) / len(records):>14.6g} ratio "
          f"({len(failures)} failed of {len(records)} attempted)")
    for failure in failures:
        print(f"# wrong: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
