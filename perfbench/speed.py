"""Machine-speed reference for the benchmark's timings.

On a shared machine the speed of one core changes by up to twofold for
seconds at a time as other tenants come and go.  Every timed region is
therefore paired with a fixed pure-Python reference computation run next
to it, and the measured seconds are scaled by REFERENCE_S over the
reference's current time: a figure reads as the time the work would take
while the reference takes REFERENCE_S.  The reference does not touch the
library, so a change to the library moves only the measured side.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

# The reference's time on an uncontended core of the Intel Xeon machine
# the committed results were taken on, so that figures there read close
# to wall-clock seconds.
REFERENCE_S = 1.0e-4
WINDOW_S = 0.05  # references younger than this form the current estimate
MIN_SAMPLES = 5  # reference runs the estimate needs at least


def reference_work() -> int:
    """A fixed mix of interpreter work: integer arithmetic, a dict store
    and a list append per step."""
    acc = 0
    table: dict[int, int] = {}
    items: list[int] = []
    for i in range(800):
        acc = (acc * 31 + i) & 0xFFFF
        table[i & 31] = acc
        items.append(acc)
    return acc + len(items)


class SpeedGauge:
    """Tracks the machine's current speed with short reference runs."""

    def __init__(self):
        self._samples: deque[tuple[float, float]] = deque()

    def factor(self) -> float:
        """Run the reference until the last WINDOW_S seconds hold at least
        MIN_SAMPLES runs; return REFERENCE_S over their median time.
        Multiply a time measured right after by this factor."""
        samples = self._samples
        while True:
            start = time.perf_counter()
            reference_work()
            end = time.perf_counter()
            samples.append((end, end - start))
            while samples[0][0] < end - WINDOW_S:
                samples.popleft()
            if len(samples) >= MIN_SAMPLES:
                return REFERENCE_S / statistics.median(t for _, t in samples)
