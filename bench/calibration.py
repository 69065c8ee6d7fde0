"""Scaling of timings to a reference CPU speed.

On a shared host the speed of one CPU drifts by up to a factor of two
over seconds to minutes, and the drift slows the job and any other
Python code alike; CPU time drifts with wall time.  A run therefore times
a fixed calibration kernel between its set-ups and between its runs of
the job, and scales its timings by REFERENCE_S / (median kernel time).
The kernel does not touch kuhn3p, so a change to the program moves the
scaled timings exactly as it moves the raw ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

# The kernel time that defines a reference second: a scaled timing is the
# time the job would take on a machine where the kernel takes this long.
REFERENCE_S = 0.010

# The same mix of work as the program: tuple-keyed dict lookups, short
# strings, small numpy arrays and Fraction arithmetic.
_TABLE = {(seat, card, h): 7 * seat + len(h)
          for seat in (1, 2, 3) for card in "JQKA" for h in ("", "K", "B", "KK", "KB", "BC")}
_KEYS = tuple(_TABLE)


def _kernel(rounds: int = 6000) -> float:
    total = 0
    history = ""
    values = np.linspace(0.0, 1.0, 24)
    weight = Fraction(1, 24)
    for i in range(rounds):
        total += _TABLE[_KEYS[i % len(_KEYS)]]
        history = (history + "KBCF"[i & 3])[-4:]
        total += history.count("K")
        if i % 16 == 0:
            values = values * 0.5 + 0.25
            weight = (weight * 3 + Fraction(1, 7)) / 4
    return total + float(values.sum()) + float(weight)


class Calibration:
    """Kernel times taken during one phase of a run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def measure(self, times: int = 5) -> None:
        for _ in range(times):
            start = time.perf_counter()
            _kernel()
            self.samples.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Factor from raw seconds in this phase to reference seconds."""
        return REFERENCE_S / statistics.median(self.samples)
