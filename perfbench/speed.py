"""Machine-speed calibration that rescales measured times to a reference speed.

Shared machines drift in speed by tens of percent over seconds, which would
swamp any change to the program. Right before and right after each measured
stretch the benchmark times a fixed pure-Python loop; the mean of the two
says how fast the machine ran around the stretch. Durations are reported in
reference seconds: raw seconds times ``REFERENCE_S`` over the loop time, the
time the stretch would have taken on a machine that runs the loop in
``REFERENCE_S``. The loop is the benchmark's own code and touches no data of
the program, so a change to the program moves the reported times and not
the calibration. Raw wall times are reported alongside.
"""

import statistics
import time

LOOP = 100_000
REPEATS = 5
REFERENCE_S = 7e-3       # about the loop time on a 2 GHz x86-64 core with CPython 3.11


def _loop():
    s = 0
    for i in range(LOOP):
        s += i * i
    return s


def loop_time() -> float:
    """Median time of ``REPEATS`` runs of the calibration loop."""
    times = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def measure(fn):
    """Run ``fn()``; return (its result, raw seconds, reference seconds per raw second)."""
    before = loop_time()
    t = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t
    after = loop_time()
    return result, raw, REFERENCE_S / (0.5 * (before + after))
