"""An appendable, infinite-horizon workload source for resident servers.

:class:`StreamSource` is the :class:`~repro.sim.kernel.TraceSource`
that adds :meth:`~StreamSource.push`: instead of replaying a fixed,
fully known event list, it lets a fleet daemon keep *pushing* VM
arrivals and departures into a simulator that never finishes
(``duration_s`` is infinite).  The service drives it in bounded slices
via ``EpochKernel.advance(state, until_s=..., exact=True)``.

Replay, the stability bound (the next queued event, or infinity while
the queue is drained — the ``exact`` cap bounds the window) and snapshot
support are the trace source's own.  Events must be pushed at or after the
paused clock; the service clamps network-delivered timestamps to the
server's current time, mirroring a scheduler that cannot place a VM in
the past.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List

from repro.errors import SimulationError
from repro.sim.kernel import TraceSource
from repro.workloads.azure import VMEvent

if TYPE_CHECKING:
    from repro.sim.server import ServerSimulator


class StreamSource(TraceSource):
    """VM events pushed at runtime, replayed exactly like a trace."""

    def __init__(self, sim: "ServerSimulator",
                 mean_vm_bandwidth_bytes_per_s: float = 0.4e9):
        self.sim = sim
        self.mean_vm_bandwidth_bytes_per_s = mean_vm_bandwidth_bytes_per_s
        self.events: List[VMEvent] = []
        self.cursor = 0
        self.running = 0
        #: Never finishes on its own; the service ticks it in bounded slices.
        self.duration_s = math.inf

    def push(self, event: VMEvent) -> None:
        """Queue *event* behind every queued event at or before its time.

        It must not land behind the replay cursor.
        """
        events = self.events
        if self.cursor and event.time_s < events[self.cursor - 1].time_s:
            raise SimulationError(
                f"event at t={event.time_s} behind the replay cursor "
                f"(t={events[self.cursor - 1].time_s})")
        lo, hi = self.cursor, len(events)
        while lo < hi:
            mid = (lo + hi) // 2
            if event.time_s < events[mid].time_s:
                hi = mid
            else:
                lo = mid + 1
        events.insert(lo, event)

    @property
    def pending(self) -> int:
        """Events queued but not yet applied."""
        return len(self.events) - self.cursor
