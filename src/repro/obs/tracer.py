"""Structured run tracing over a bounded ring buffer.

A :class:`Tracer` collects three kinds of signals:

* **events** — timestamped facts (``daemon.offline``, ``ff.enter``,
  ``power.gate`` …) carrying the *simulated* time where the emitter has
  one, plus arbitrary key/value detail;
* **counters** — cheap monotonically increasing integers for hot paths
  where per-occurrence events would flood the buffer (e.g. rank
  low-power wakeups);
* **spans** — paired ``<kind>.enter``/``<kind>.exit`` events, the exit
  carrying the wall-clock duration of the enclosed work.

Design constraints, in order:

1. **Zero cost when disabled.**  Every entry point checks
   ``self.enabled`` first and returns before touching anything else;
   the instrumented hot paths guard event *construction* behind the
   same flag.  Tracing is disabled by default.
2. **Bounded.**  Events live in a ``deque(maxlen=capacity)``; overflow
   drops the oldest events and counts them in :attr:`Tracer.dropped`
   rather than growing without bound over a fleet-day replay.
3. **Passive.**  The tracer draws no randomness and mutates no
   simulation state, so enabling it cannot perturb the bit-for-bit
   golden contract of :mod:`repro.sim.kernel`.

Like the rest of the job's account, the process-global
:data:`GLOBAL_TRACER` is per process: each pool worker accumulates its
own, and the runner drains it at the process that ran the job
(:func:`repro.obs.residency.drain_account` calls :func:`drain_trace`)
so traces survive the trip back from workers and land in the
``job_end`` JSONL metrics events.
"""

from __future__ import annotations

import collections
import json
import pathlib
import time
from contextlib import contextmanager
from typing import Deque, Dict, Iterator, List, NamedTuple, Optional, Union

PathLike = Union[str, pathlib.Path]

#: Default ring-buffer capacity: generous for a day-scale replay's
#: daemon decisions, small enough to never matter for memory.
DEFAULT_CAPACITY = 65_536


class TraceEvent(NamedTuple):
    """One structured trace record."""

    kind: str
    #: Simulated seconds where the emitter has a clock; ``None`` for
    #: wall-clock-only emitters (e.g. the hot-plug layer).
    t_s: Optional[float]
    data: Dict[str, object]

    def as_dict(self) -> Dict[str, object]:
        """Flat JSONL-friendly rendering (``kind``/``t_s`` + detail)."""
        out: Dict[str, object] = {"kind": self.kind, "t_s": self.t_s}
        out.update(self.data)
        return out


class Tracer:
    """Span + counter + gauge collection over a bounded ring buffer."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 enabled: bool = False):
        self.enabled = enabled
        self.events: Deque[TraceEvent] = collections.deque(maxlen=capacity)
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.dropped = 0

    # --- switches ----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # --- emission ----------------------------------------------------------

    def event(self, kind: str, t_s: Optional[float] = None,
              **data: object) -> None:
        """Record one event (no-op while disabled)."""
        if not self.enabled:
            return
        if len(self.events) == self.events.maxlen:
            self.dropped += 1
        self.events.append(TraceEvent(kind, t_s, data))

    def counter(self, name: str, delta: int = 1) -> None:
        """Bump a named counter (no-op while disabled)."""
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        """Record the latest value of a named gauge (no-op disabled)."""
        if not self.enabled:
            return
        self.gauges[name] = value

    @contextmanager
    def span(self, kind: str, t_s: Optional[float] = None,
             **data: object) -> Iterator[None]:
        """Emit ``<kind>.enter`` / ``<kind>.exit`` around a block.

        The exit event carries the wall-clock duration (``wall_s``) of
        the enclosed work; both events carry the caller's detail.
        """
        if not self.enabled:
            yield
            return
        self.event(kind + ".enter", t_s, **data)
        started = time.perf_counter()
        try:
            yield
        finally:
            self.event(kind + ".exit", t_s,
                       wall_s=time.perf_counter() - started, **data)

    # --- draining ----------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """The collected signals as one JSON-serializable document.

        Returns ``{}`` when nothing was collected, so quiet jobs emit
        nothing into the metrics stream.
        """
        if not self.events and not self.counters and not self.gauges:
            return {}
        out: Dict[str, object] = {
            "events": [event.as_dict() for event in self.events],
        }
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.gauges:
            out["gauges"] = dict(self.gauges)
        if self.dropped:
            out["dropped"] = self.dropped
        return out

    def drain(self) -> Dict[str, object]:
        """Snapshot and clear (one job's worth of trace)."""
        snapshot = self.snapshot()
        self.events.clear()
        self.counters.clear()
        self.gauges.clear()
        self.dropped = 0
        return snapshot

    def dump(self, path: PathLike) -> int:
        """Append the buffered events to *path* as JSONL; returns count."""
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("a") as handle:
            for event in self.events:
                handle.write(json.dumps(event.as_dict(), sort_keys=True)
                             + "\n")
        return len(self.events)


#: The process-wide tracer the instrumented layers emit into.
GLOBAL_TRACER = Tracer()


def drain_trace() -> Dict[str, object]:
    """Snapshot and clear the process tracer (one job's worth)."""
    return GLOBAL_TRACER.drain()


@contextmanager
def trace_scope(enabled: bool = True) -> Iterator[Tracer]:
    """Scope the global tracer's enablement to a ``with`` block."""
    previous = GLOBAL_TRACER.enabled
    GLOBAL_TRACER.enabled = enabled
    try:
        yield GLOBAL_TRACER
    finally:
        GLOBAL_TRACER.enabled = previous


def trace_events(kind_prefix: str = "") -> List[Dict[str, object]]:
    """The buffered events (optionally filtered by kind prefix)."""
    return [event.as_dict() for event in GLOBAL_TRACER.events
            if event.kind.startswith(kind_prefix)]
