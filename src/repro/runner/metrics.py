"""The runner's metrics bus: JSONL events for the BENCH_* trajectory.

Every scheduling decision emits one event — ``job_start``, ``job_end``
(with wall time and cache hit/miss), ``suite_end`` (with aggregate
counters and worker utilization).  Events accumulate in memory and,
when a path is given, append to a JSONL file so external tooling can
tail a long sweep live.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Dict, List, Optional, Union

PathLike = Union[str, pathlib.Path]


class MetricsBus:
    """Collects runner events and mirrors them to an optional JSONL file."""

    def __init__(self, path: Optional[PathLike] = None):
        self.path = pathlib.Path(path) if path else None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self.events: List[Dict[str, object]] = []
        self.cache_hits = 0
        self.cache_misses = 0
        #: Wall-clock ``ts`` is what humans read, but it can step
        #: backwards (NTP, suspend/resume); ``ts_mono`` — monotonic
        #: seconds since bus creation — is what ordering must use.
        self._mono_start = time.monotonic()

    # --- emission ----------------------------------------------------------

    def emit(self, kind: str, **fields: object) -> Dict[str, object]:
        """Record one event; returns it for chaining/inspection."""
        event: Dict[str, object] = {
            "event": kind, "ts": time.time(),
            "ts_mono": time.monotonic() - self._mono_start}
        event.update(fields)
        self.events.append(event)
        if self.path is not None:
            with self.path.open("a") as handle:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        return event

    def job_start(self, experiment: str) -> None:
        self.emit("job_start", experiment=experiment)

    def job_end(self, experiment: str, wall_s: float, cached: bool,
                error: Optional[str] = None,
                account: Optional[Dict[str, Dict]] = None) -> None:
        """Close a job.  *account* is the job's drained process account
        (:func:`repro.obs.residency.drain_account`): the injected-fault
        counts (``faults``, ``op:error -> count``), the perf counters
        (``perf``: power cache hits/misses, epochs fast-forwarded,
        stepped and batched), the per-power-state ``residency`` and the
        tracer snapshot (``trace``), empty parts left out.  It is
        spread into the JSONL event — and drained on the error path
        too, so a failed job's counters never leak into the next job's
        event."""
        if cached:
            self.cache_hits += 1
        else:
            self.cache_misses += 1
        self.emit("job_end", experiment=experiment, wall_s=wall_s,
                  cached=cached, error=error, **(account or {}))

    # --- aggregation -------------------------------------------------------

    def job_wall_s(self) -> float:
        """Total wall time spent actually executing (cache misses)."""
        return sum(float(e.get("wall_s", 0.0)) for e in self.events
                   if e["event"] == "job_end" and not e.get("cached"))

    def utilization(self, workers: int, elapsed_s: float) -> float:
        """Mean busy fraction of the worker pool over the suite.

        Clamped to 1.0 for display: per-job wall times are measured in
        the worker while elapsed time is measured in the parent, so
        clock skew can push the ratio a hair over 1.  Use
        :meth:`utilization_raw` when the *unclamped* ratio matters —
        a raw value well above 1.0 means job wall time is being
        over-accounted (e.g. double-counted overlap), and the clamp
        would silently hide that bug.
        """
        return min(1.0, self.utilization_raw(workers, elapsed_s))

    def utilization_raw(self, workers: int, elapsed_s: float) -> float:
        """The unclamped busy ratio; > 1.0 exposes over-accounting."""
        if workers <= 0 or elapsed_s <= 0:
            return 0.0
        return self.job_wall_s() / (workers * elapsed_s)

    def suite_end(self, workers: int, elapsed_s: float,
                  interrupted: bool = False) -> Dict[str, object]:
        """Emit (and return) the closing summary event.

        *interrupted* marks a suite cut short (Ctrl-C / SIGTERM): the
        counters then cover only the jobs that finished before the
        signal, and downstream tooling must not read the run as
        complete.
        """
        return self.emit(
            "suite_end", workers=workers, elapsed_s=elapsed_s,
            interrupted=interrupted,
            jobs=self.cache_hits + self.cache_misses,
            cache_hits=self.cache_hits, cache_misses=self.cache_misses,
            busy_s=self.job_wall_s(),
            utilization=self.utilization(workers, elapsed_s),
            utilization_raw=self.utilization_raw(workers, elapsed_s))
