"""The machine's current speed, from a fixed reference computation.

The shared machine this benchmark was built on changes speed while it runs:
a fixed pure-Python loop takes 15-16 ms in its fast phases and 21-23 ms in
its slow ones, each held from a few seconds to a whole run, so raw wall
times of the same run differ by 20-35% from run to run.  The benchmark
therefore times this reference computation right before every measured
operation and rescales the operation's wall time to a machine on which the
reference takes exactly ``REF_S``.  The reference uses only the standard
library, with the kernel's kind of work (big rationals and small dicts), so
no change to the package can move it.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from fractions import Fraction

REF_S = 0.001  # the nominal reference time that normalized times assume


def reference() -> int:
    """Fixed work of about a millisecond: rational recurrences and dicts."""
    x = Fraction(1, 3)
    acc: dict[int, int] = {}
    for i in range(1, 120):
        x = x * Fraction(2 * i + 1, i + 2) + Fraction(1, i)
        acc[i % 17] = acc.get(i % 17, 0) + x.numerator % 1000
    return sum(acc.values())


class Speed:
    """Rolling median of the last few reference timings."""

    def __init__(self, window: int = 5):
        self.samples: deque[float] = deque(maxlen=window)

    def probe(self) -> None:
        start = time.perf_counter()
        reference()
        self.samples.append(time.perf_counter() - start)

    def scale(self) -> float:
        """The factor that turns a wall time measured now into the time on
        the nominal machine."""
        return REF_S / statistics.median(self.samples)
