"""Machine speed probe.

The shared reference VM (2 vCPUs) runs at speeds up to 1.6 times apart,
for seconds to minutes at a time.  So the benchmark times each op and each
set-up together with this probe, taken just before it, and rescales the
time to a machine on which the probe takes REF_PROBE_NS: about the probe's
time on the reference VM in its fast state.  This module imports nothing
but `time`, so a fresh interpreter can use it before it imports the
library.
"""

import time

REF_PROBE_NS = 130_000

_TOKENS = [str(i) for i in range(151)]


def speed_probe_ns() -> int:
    """Nanoseconds for a fixed piece of pure-Python work of the library's
    kind (frozensets of strings, set insertion, integer arithmetic); the
    best of three tries, about 0.2 ms each."""
    best = None
    for _ in range(3):
        t0 = time.perf_counter_ns()
        s = set()
        for i in range(150):
            s.add(frozenset((_TOKENS[i], _TOKENS[i + 1])))
        x = 0
        for i in range(1500):
            x += i * i
        dt = time.perf_counter_ns() - t0
        if best is None or dt < best:
            best = dt
    return best


def scaled(ns: float, probe_ns: int) -> float:
    """A duration rescaled to the reference speed."""
    return ns * REF_PROBE_NS / probe_ns
