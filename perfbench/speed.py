"""Host-speed scaling of the benchmark's times.

The benchmark runs on shared virtual machines whose single-thread speed
drifts by up to 2x within minutes, as neighbours load the host.  Raw
wall times of one program version then differ between runs by more
than any useful regression bound.

So every run also times a fixed pure-Python loop, a few times before
each call into the program and at the end, and reports its times
scaled to a reference host speed: ``raw * REFERENCE_S / median(loop
timings)``.  The loop runs only between calls, never beside one, and
shares no code with the program, so a change to the program cannot
move it.  The raw figures are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

LOOP_ITERATIONS = 100_000
SAMPLES_PER_GAP = 10
REFERENCE_S = 0.0065
"""The loop's time on a quiet 2-CPU host at 2.1 GHz."""


def loop_s() -> float:
    """One timing of the fixed loop."""
    t0 = time.perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - t0


class HostSpeed:
    """Loop timings taken between calls, and the scale factor they give."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples += [loop_s() for _ in range(SAMPLES_PER_GAP)]

    @property
    def factor(self) -> float:
        """Multiply a raw time by this to get the reference-speed time."""
        return REFERENCE_S / statistics.median(self.samples)
