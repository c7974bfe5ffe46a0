"""A fixed piece of pure-Python work that measures how fast the core runs now.

On a shared host the speed of a core changes from one spell of a few
seconds to the next: the same ``ncg`` job takes 0.10 s in one spell and
0.17 s in the next, and a loop like :func:`calibrate`, timed between the
jobs, changes with it (correlation 0.8 at one-second scale, on a
2-vCPU Xeon VM at 2.1 GHz).  Dividing each job's wall time by the
calibration times measured around it, and multiplying by
:data:`REFERENCE_S`, gives the time the job would take on a core that
runs the loop in :data:`REFERENCE_S`; the host's speed largely cancels.

The loop does what the library does most: builds dicts and frozensets
keyed by short strings and sorts them with a key function.
"""

import gc
import time

#: Time of :func:`calibrate` on the reference core.  A round figure: on a
#: 2-vCPU Xeon VM at 2.1 GHz the loop takes from about 3.5 ms in its fast
#: spells to about 7 ms in its slow ones.
REFERENCE_S = 0.005

_SIZE = 5000


def calibrate() -> float:
    """Seconds taken by the fixed calibration work, now.

    The cyclic garbage collector is off while it runs, so that the time
    does not depend on how many objects the program keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _timed_work()
    finally:
        if enabled:
            gc.enable()


def _timed_work() -> float:
    start = time.perf_counter()
    table = {}
    for i in range(_SIZE):
        table[f"t{i % 97}.{i}"] = (i * 7919) % 1013
    ranked = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    odd = frozenset(k for k, v in ranked if v & 1)
    if len(odd) + len(ranked) < _SIZE:
        raise AssertionError("calibration work went missing")
    return time.perf_counter() - start
