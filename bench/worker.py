"""One workload process: import the CLI, then run the jobs as a closed loop.

    python3 worker.py JOBS RESULT SECONDS ROUND [SPANS]

JOBS is a JSON list of ``ncg`` argument lists, run in order from the
current directory, each through ``ncgames.cli.cli_dispatch`` with stdout
captured.  Before each job, and once after the last, the worker times
the calibration loop of ``calibration.py``; that time is not part of any
job's.  The next job starts when the previous one returns.  The jobs
come in rounds of ROUND; with SECONDS > 0 no round starts after that
many seconds, so only whole rounds run; with 0 every job runs.  Given
SPANS, the library is traced and the spans are written there at the
end.  RESULT receives one JSON line per job (exit code, start offset,
seconds, calibration seconds just before it, stdout, error), then one
with the number of jobs run, the import time, the calibration seconds
after the last job and right after the import, the wall time and the
peak resident set size.

The CLI is imported first, before anything else this script needs, so
that its import time is what an ``ncg`` process pays.
"""

import sys
import time

_start = time.perf_counter()
import ncgames.cli  # noqa: E402

SETUP_S = time.perf_counter() - _start

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from calibration import calibrate  # noqa: E402

SETUP_CALIBRATION_S = calibrate()


def run(jobs, seconds, round_size, out, tracer=None):
    """Run the jobs; write one record per job to ``out``; return the count,
    the wall time, and the calibration seconds after the last job."""
    done = 0
    dispatch = ncgames.cli.cli_dispatch
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds if seconds > 0 else None
    end = start
    for index, argv in enumerate(jobs):
        if deadline is not None and index % round_size == 0 and end >= deadline:
            break
        if tracer is not None:
            tracer.job = index
        buf = io.StringIO()
        error = None
        cal = calibrate()
        t0 = clock()
        try:
            with contextlib.redirect_stdout(buf):
                code = dispatch(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed job, not a failed run
            code, error = None, f"{type(exc).__name__}: {exc}"
        end = clock()
        # written as it comes, so the records do not add to the peak RSS
        out.write(json.dumps({"code": code, "start": t0 - start, "seconds": end - t0, "cal": cal, "stdout": buf.getvalue(), "error": error}) + "\n")
        done += 1
    return done, end - start, calibrate()


def main(argv):
    jobs_path, result_path, seconds, round_size = argv[0], argv[1], float(argv[2]), int(argv[3])
    spans_path = argv[4] if len(argv) > 4 else None
    with open(jobs_path) as f:
        jobs = json.load(f)
    tracer = None
    if spans_path:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    with open(result_path, "w") as out:
        done, wall, cal_end = run(jobs, seconds, round_size, out, tracer)
        result = {
            "jobs": done,
            "setup_s": SETUP_S,
            "setup_cal": SETUP_CALIBRATION_S,
            "cal_end": cal_end,
            "wall_s": wall,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if tracer is not None:
            tracer.write(spans_path)
            result.update(tracer.totals())
        out.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
