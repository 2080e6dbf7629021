"""A heap-backed calendar of future simulation events.

The fast-forward layer needs one question answered per stepped epoch:
*when is the next time anything can happen?*  Before this module each
:class:`~repro.sim.kernel.WorkloadSource` re-derived that bound by
rescanning its footprint traces (and the fault injector rescanned its
rule list) every epoch.  All of those timestamps are known up front —
footprint flat-run ends and fault-rule window starts are static — so
they can be pushed into a min-heap once and consumed with O(log n) pops
as simulated time advances past them.

The calendar is *value-preserving* by construction: ``next_after(t)``
returns exactly ``min(e for e in events if e > t)`` (or ``inf``), the
same float the rescans produced, so fast-forward window boundaries — and
therefore the bit-for-bit golden contract — are unchanged.

Queries are expected to be time-monotonic within a run.  A query that
moves backwards (the same source object driven through a second run)
rebuilds the heap from the immutable seed events, so reuse is safe, just
not O(log n) for that one call.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable


class EventCalendar:
    """Min-heap of future event timestamps with monotonic consumption."""

    __slots__ = ("_events", "_heap", "_last_query_s")

    def __init__(self, times: Iterable[float] = ()):
        self._events = tuple(sorted(times))
        # A sorted list is already a valid binary heap.
        self._heap = list(self._events)
        self._last_query_s = -math.inf

    def next_after(self, now_s: float) -> float:
        """Earliest event strictly after *now_s* (``inf`` when none).

        Events at or before *now_s* are popped for good — the next query
        is expected at a time >= *now_s* and can never need them again.
        """
        if now_s < self._last_query_s:
            self._heap = list(self._events)
        self._last_query_s = now_s
        heap = self._heap
        while heap and heap[0] <= now_s:
            heapq.heappop(heap)
        return heap[0] if heap else math.inf


def intersect_horizons(now_s: float, *bounds: float) -> float:
    """Merge several horizon bounds under veto semantics.

    Every horizon in this codebase speaks the same protocol: a value
    strictly greater than *now_s* promises nothing happens before it,
    while a value at or below *now_s* is a veto ("activity right now").
    The intersection is the smallest promise — unless any input vetoes,
    in which case the merged horizon vetoes too.  The span planner uses
    this to fold the workload-side stability bound, the fault injector's
    ``quiescent_until``, and the run duration into one span end.
    """
    merged = math.inf
    for bound in bounds:
        if bound <= now_s:
            return now_s
        if bound < merged:
            merged = bound
    return merged
