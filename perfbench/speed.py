"""Machine-speed probe: the factor that turns measured op times into times
at a nominal machine speed.

The benchmark's host is shared, and its speed drifts by up to 1.9x over
minutes for every kind of op alike.  So the worker times a fixed reference
computation before an op, once for every REFERENCE_EVERY_S seconds since
the last time: the product table of data/reference.alg, solved by
alg.py with exact Fraction linear algebra like the program's own and with
none of the program's code.  Times are multiplied by
NOMINAL_S / (median reference time of the run).  On the 2-core x86-64 host
of the baseline this cut the change of a run's times between a fast and a
slow phase from about 1.6x to about 1.2x; it over-corrects, since the
reference slows down more than the program does.
"""

from __future__ import annotations

import gc
import statistics
import time
from pathlib import Path

import alg

NOMINAL_S = 0.012  # reference time at the nominal speed
REFERENCE_EVERY_S = 0.25
MAX_CATCH_UP = 8  # samples taken at once after a long op

_REFERENCE = alg.instantiate(
    alg.parse_linear_alg((Path(__file__).resolve().parent / "data" / "reference.alg").read_text()), {}
)


def reference_seconds() -> float:
    """Time of one warm pass of the reference, after a garbage collection."""
    gc.collect()
    alg.lsa_table(_REFERENCE)  # warm the caches the last op may have evicted
    start = time.perf_counter()
    alg.lsa_table(_REFERENCE)
    return time.perf_counter() - start


class Probe:
    def __init__(self):
        self.samples: list = []
        self._last = float("-inf")

    def sample(self) -> None:
        """Time the reference once for every REFERENCE_EVERY_S since the
        last sample (at most MAX_CATCH_UP times), so a run gets samples in
        proportion to its length whatever the length of its ops."""
        due = min((time.perf_counter() - self._last) / REFERENCE_EVERY_S, MAX_CATCH_UP)
        for _ in range(int(due)):
            self.samples.append(reference_seconds())
        if due >= 1:
            self._last = time.perf_counter()

    def scale(self) -> float:
        """Multiply a measured time by this to get the nominal time."""
        return NOMINAL_S / statistics.median(self.samples)
