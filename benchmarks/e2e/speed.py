"""Machine-speed calibration of host times.

On a shared machine the same rep on the same inputs can take anywhere
from 1x to 1.8x its best wall time, because neighbours slow the CPU
down for seconds or minutes at a time; process CPU time drifts just the
same.  A fixed pure-Python spin timed *between* the units of a rep
tracks that drift closely: the ratio of a rep's wall time to its spins'
time repeats within about 1% while the wall time itself swings by 20%.

So every host time the benchmark reports is converted to *reference
seconds*: seconds on a machine where one spin takes ``REFERENCE_SPIN_S``
(the fastest spin seen on the 2-vCPU sandbox the benchmark was defined
on).  A change that makes the simulator faster lowers its reference
seconds; a busier machine does not.
"""

from __future__ import annotations

import resource
import statistics
import time
from typing import List, Sequence

SPIN_ITERATIONS = 20_000
REFERENCE_SPIN_S = 1.7e-3
#: A spin runs once this much measured work has passed since the last,
#: keeping the probe near 3% of a rep's time.
SPIN_EVERY_S = 0.06


def spin(iterations: int = SPIN_ITERATIONS) -> float:
    """Run the calibration loop; returns its wall time."""
    start = time.perf_counter()
    acc = 0.0
    slots = {}
    for i in range(iterations):
        acc += i * 0.5
        slots[i & 63] = acc
    return time.perf_counter() - start


class SpeedProbe:
    """Spins interleaved with measured work, and the factor they give."""

    def __init__(self):
        self.spins_s: List[float] = []
        self._since_s = 0.0

    def sample(self) -> None:
        self.spins_s.append(spin())
        self._since_s = 0.0

    def after(self, work_s: float) -> None:
        """Account *work_s* of measured work; spin when one is due."""
        self._since_s += work_s
        if self._since_s >= SPIN_EVERY_S:
            self.sample()

    @property
    def factor(self) -> float:
        return factor_of(self.spins_s)


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB.

    Read from ``VmHWM``, which starts afresh at ``exec``:
    ``ru_maxrss`` keeps the high-water mark of the forked parent image,
    so a lean child of a large harness would report the harness's size.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def factor_of(spins_s: Sequence[float]) -> float:
    """Multiply a time measured alongside *spins_s* by this to get
    reference seconds.

    The mean, not the median: the measured work lives through the slow
    spells too, so the spins must average over them the same way.
    """
    return REFERENCE_SPIN_S / statistics.fmean(spins_s)
