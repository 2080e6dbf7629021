"""Quiescence fast-forward support for the epoch-stepped simulator.

The :class:`~repro.sim.server.ServerSimulator` steps the whole
OS/KSM/daemon/power stack once per epoch even when nothing can happen.
The kernel's span planner (:meth:`~repro.sim.kernel.EpochKernel._plan_span`)
recognizes *quiescent windows* — spans of epochs in which no trace
event, footprint change, daemon threshold crossing, or fault-plan window
boundary can occur — and advances through them in a tight loop that
synthesizes the identical :class:`~repro.sim.server.EpochSample` stream.
This module holds the clock and the counters both paths share.

Bit-for-bit equivalence is the contract, which shapes the design:

* energy is still accumulated one ``+= power * epoch_s`` per epoch (a
  closed-form ``power * epoch_s * n`` would re-associate the float sum);
* the simulated clock advances through :class:`SimClock` with the same
  ``now_s += epoch_s`` op sequence in both paths;
* the policy's monitor timer ticks via
  :func:`~repro.soa.monitor_timer_after`, a bit-exact mirror of its
  ``step`` arithmetic;
* pinned churn keeps its RNG stream: quiet epochs consume exactly their
  one arrival draw (the simulator's quiet-run scan), churn runs for
  real at its events, and the window closes the moment churn perturbs
  memory;
* the fast path never opens a window while a fault-plan rule is live
  (:meth:`~repro.faults.injector.FaultInjector.quiescent_until`), and
  after such a veto does not ask again until the live period ends
  (:meth:`~repro.faults.injector.FaultInjector.live_until`) or a hit
  spends a rule, since every plan in between would veto too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class SimClock:
    """The run loop's epoch clock.

    Fast and slow paths share one instance, so the accumulated ``now_s``
    goes through the identical sequence of float additions regardless of
    which path executed each epoch.
    """

    epoch_s: float
    now_s: float = 0.0

    def tick(self) -> None:
        """Advance by one epoch (the only way time moves in a run)."""
        self.now_s += self.epoch_s


@dataclass
class FastForwardStats:
    """Per-run accounting of the fast-forward and span-planner layers."""

    windows: int = 0
    epochs_fast_forwarded: int = 0
    epochs_stepped: int = 0
    #: Stable stepped spans the span planner executed as one batch.
    spans_stable: int = 0
    #: Epochs executed inside stable spans.  These are *also* counted in
    #: ``epochs_stepped`` — a batched epoch is a stepped epoch that was
    #: evaluated in bulk, not a skipped one — which keeps ``as_dict()``
    #: (pinned by the golden kernel recordings) unchanged by batching.
    epochs_batched: int = 0

    @property
    def epochs_total(self) -> int:
        return self.epochs_fast_forwarded + self.epochs_stepped

    @property
    def fast_forward_fraction(self) -> float:
        total = self.epochs_total
        return self.epochs_fast_forwarded / total if total else 0.0

    def as_dict(self) -> Dict[str, int]:
        return {"windows": self.windows,
                "epochs_fast_forwarded": self.epochs_fast_forwarded,
                "epochs_stepped": self.epochs_stepped}
