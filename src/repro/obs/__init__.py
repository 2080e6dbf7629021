"""Observability for the simulation stack: tracing, residency, reports.

The reproduction can *run* at fleet scale (kernel-driven epoch loops,
parallel runner, fault injection), but a finished run used to be a pile
of aggregate numbers — no structured record of what the daemon decided,
when fast-forward windows opened, or how the DRAM split its time across
power states.  This package is that record:

``tracer``
    A process-local :class:`~repro.obs.tracer.Tracer` (span + counter +
    gauge API over a bounded ring buffer, disabled by default) that the
    kernel epoch loop, the GreenDIMM daemon, the hot-plug layer, and the
    power-control/mode-register path emit structured events into.  The
    runner drains it across pool workers as part of the job's account
    (:func:`~repro.obs.residency.drain_account`).

``residency``
    Always-on, capacity-weighted per-power-state residency accounting
    (time in ACT / PRE / PRE-PD / SREF / sub-array-DPD per run — the
    gem5 power-down-style breakdown), surfaced on run results and in
    ``job_end`` JSONL events.  The process's
    :class:`~repro.obs.residency.RunAccount` adds the runs' perf
    counters; :func:`~repro.obs.residency.drain_account` drains it with
    the fault counts and the trace, once per job.

``report``
    ``repro report``: turn a metrics JSONL (+ optional trace JSONL)
    into one markdown/HTML run report — energy savings, state
    residencies, the daemon decision timeline, the fleet per-server
    table, and the fault summary.

Everything here is strictly passive: tracing draws no randomness and
mutates no simulation state, so enabling it cannot perturb the
bit-for-bit golden contract of :mod:`repro.sim.kernel`.
"""

from repro.obs.residency import ResidencyStats, RunAccount, drain_account
from repro.obs.tracer import GLOBAL_TRACER, Tracer, drain_trace, trace_scope

__all__ = [
    "GLOBAL_TRACER",
    "ResidencyStats",
    "RunAccount",
    "Tracer",
    "drain_account",
    "drain_trace",
    "trace_scope",
]
