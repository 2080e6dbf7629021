"""The ``PowerPolicy`` protocol: what the simulator demands of a policy.

:class:`~repro.sim.kernel.EpochKernel` and the span planner were written
against :class:`~repro.core.daemon.GreenDIMMDaemon`'s surface.  This
module names that surface explicitly so any power-management scheme —
rank-level baselines or page-migration policies from the literature —
can plug into the same run loop.  The daemon implements the protocol
itself: it *is* the ``greendimm`` policy.

The obligations, in the order the kernel exercises them:

``step(now_s, dt_s)``
    Advance the policy by one dynamic epoch.  May touch memory, move
    pages, or change the power state; this is the only entry point that
    is allowed side effects on the system.

``monitor_is_noop()``
    True when a :meth:`step` right now would take no action and consume
    no randomness.  The kernel's span planner refuses to open a
    fast-forward window unless this holds.

``monitor_fire_is_noop()``
    True when a monitor fire right now would change nothing, even where
    :meth:`monitor_is_noop` is false — for the daemon, free memory below
    the low-water mark with no offline block to bring back.  The span
    planner asks it when a non-churn span reaches a fire; if it holds,
    the span runs past the fire (and every later one, since free memory
    cannot move inside the span).  A churn span's executor asks it once
    at entry: if it holds, fires replay until churn moves memory.
    ``False`` keeps every fire on the dynamic path.

``monitor_timer`` / ``monitor_period_s``
    The replay surface: every epoch the caller has *proven* to be a
    no-op, batched or single, advances the timer with
    :func:`repro.soa.monitor_timer_after`, which assumes the standard
    ``since += dt; if since >= period: since = 0.0`` chain, and that
    between monitor fires :meth:`step` is pure timer arithmetic.  Every
    policy must follow it.

``dpd_fraction()``
    The policy's whole power-relevant state projected onto one float in
    [0, 1]: the capacity-fraction whose background + refresh power is
    gone.  Keys the memoized power model.

``emergency_online(needed_pages, now_s)``
    Allocation pressure between monitor passes.  Policies that never
    offline memory return 0 (the allocation then spills to swap).

``stats`` / ``reset_stats()``
    A :class:`~repro.core.daemon.DaemonStats` the result layers read.

``extra_power_w()`` / ``runtime_overhead_fraction()``
    Costs the dpd projection cannot express: migration traffic drawn as
    extra DRAM power, and runtime dilation from monitoring/migration
    interference.  Both must return exactly ``0.0`` when unused so the
    kernel can skip the additions bit-exactly.
"""

from __future__ import annotations

import math
import weakref
from typing import TYPE_CHECKING, Dict, Protocol, runtime_checkable

from repro.core.daemon import DaemonStats

if TYPE_CHECKING:
    from repro.core.system import GreenDIMMSystem


@runtime_checkable
class PowerPolicy(Protocol):
    """Structural type for anything the epoch kernel can drive."""

    name: str
    stats: DaemonStats

    def reset_stats(self) -> None: ...

    def step(self, now_s: float, dt_s: float) -> None: ...

    def monitor_is_noop(self) -> bool: ...

    def monitor_fire_is_noop(self) -> bool: ...

    @property
    def monitor_period_s(self) -> float: ...

    @property
    def monitor_timer(self) -> float: ...

    def dpd_fraction(self) -> float: ...

    @property
    def offline_block_count(self) -> int: ...

    def emergency_online(self, needed_pages: int,
                         now_s: float = 0.0) -> int: ...

    def extra_power_w(self) -> float: ...

    def runtime_overhead_fraction(self) -> float: ...

    def policy_metrics(self) -> Dict[str, float]: ...

    def state_dict(self) -> Dict[str, object]: ...

    def load_state_dict(self, state: Dict[str, object]) -> None: ...


class PeriodicPolicy:
    """Base class for policies that recompute state at monitor fires.

    Mirrors the daemon's timer discipline exactly: ``step`` advances
    ``monitor_timer`` by ``dt_s`` and calls :meth:`monitor_once` when the
    period elapses; between fires ``step`` is pure timer arithmetic, so
    the batched replay (:func:`repro.soa.monitor_timer_after`) and the
    span planner's timer cap both stay valid by construction.

    Subclasses implement :meth:`monitor_once` (recompute the power
    posture from live system state) and :meth:`monitor_is_noop` (would a
    recomputation right now change anything?).

    The system holds its policy, so the policy holds the system only
    weakly: a finished simulator is freed without a GC pass.  Read
    ``mm`` and ``config`` through :attr:`system` each time; a fault plan
    re-wraps the one and ``retune`` replaces the other.
    """

    name = "periodic"

    def __init__(self, system: "GreenDIMMSystem"):
        self._system = weakref.ref(system)
        self.stats = DaemonStats()
        self._since_monitor_s = math.inf  # fire on the first step

    @property
    def system(self) -> "GreenDIMMSystem":
        return self._system()

    # --- stats lifecycle --------------------------------------------------

    def reset_stats(self) -> None:
        self.stats = DaemonStats()

    # --- stepping ---------------------------------------------------------

    def step(self, now_s: float, dt_s: float) -> None:
        self._since_monitor_s += dt_s
        if self._since_monitor_s < self.monitor_period_s:
            return
        self._since_monitor_s = 0.0
        self.monitor_once(now_s)

    def monitor_once(self, now_s: float) -> None:
        raise NotImplementedError

    def monitor_is_noop(self) -> bool:
        raise NotImplementedError

    def monitor_fire_is_noop(self) -> bool:
        """No proof that a fire is inert: every fire stays dynamic."""
        return False

    # --- replay surface ---------------------------------------------------

    @property
    def monitor_period_s(self) -> float:
        return self.system.config.monitor_period_s

    @property
    def monitor_timer(self) -> float:
        return self._since_monitor_s

    @monitor_timer.setter
    def monitor_timer(self, value: float) -> None:
        self._since_monitor_s = value

    # --- power / pressure surface ----------------------------------------

    def dpd_fraction(self) -> float:
        return 0.0

    @property
    def offline_block_count(self) -> int:
        return 0

    def emergency_online(self, needed_pages: int, now_s: float = 0.0) -> int:
        """Rank-level schemes keep all memory online: nothing to bring back."""
        return 0

    def extra_power_w(self) -> float:
        return 0.0

    def runtime_overhead_fraction(self) -> float:
        return 0.0

    def policy_metrics(self) -> Dict[str, float]:
        """Policy-specific counters for tournament/report rows."""
        return {}

    # --- checkpoint/restore -----------------------------------------------

    #: Extra mutable attributes a subclass carries between monitor fires;
    #: extended (not replaced) down the class hierarchy.
    _STATE_ATTRS: "tuple[str, ...]" = ()

    def state_dict(self) -> Dict[str, object]:
        state: Dict[str, object] = {"stats": self.stats,
                                    "since_monitor_s": self._since_monitor_s}
        for name in self._STATE_ATTRS:
            state[name] = getattr(self, name)
        return state

    def load_state_dict(self, state: Dict[str, object]) -> None:
        self.stats = state["stats"]
        self._since_monitor_s = state["since_monitor_s"]
        for name in self._STATE_ATTRS:
            setattr(self, name, state[name])
