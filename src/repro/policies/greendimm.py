"""The GreenDIMM daemon behind the :class:`PowerPolicy` surface.

A pure adapter: every obligation delegates to the wrapped
:class:`~repro.core.daemon.GreenDIMMDaemon` without adding, removing, or
reordering a single float operation, so a run through the adapter is
bit-for-bit identical to the pre-refactor kernel (pinned by
``tests/golden/kernel_golden.json``).  ``stats`` is a live view of the
daemon's own counter object — code that reads ``system.daemon.stats``
directly (the golden canonicalizer, examples) keeps seeing the same
object the kernel resets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.core.daemon import DaemonStats, GreenDIMMDaemon

if TYPE_CHECKING:
    from repro.core.system import GreenDIMMSystem


class GreenDIMMPolicy:
    """Adapter wrapping the threshold-offlining daemon."""

    name = "greendimm"

    def __init__(self, system: "GreenDIMMSystem"):
        # The daemon is all the adapter needs; holding the system too
        # would close a system <-> policy reference cycle.
        self.daemon: GreenDIMMDaemon = system.daemon

    # --- stats lifecycle --------------------------------------------------

    @property
    def stats(self) -> DaemonStats:
        return self.daemon.stats

    def reset_stats(self) -> None:
        self.daemon.stats = DaemonStats()

    # --- stepping ---------------------------------------------------------

    def step(self, now_s: float, dt_s: float) -> None:
        self.daemon.step(now_s, dt_s)

    def tick_quiescent(self, dt_s: float) -> None:
        self.daemon.tick_quiescent(dt_s)

    def monitor_is_noop(self) -> bool:
        return self.daemon.monitor_is_noop()

    def monitor_fire_is_noop(self) -> bool:
        return self.daemon.monitor_fire_is_noop()

    # --- replay surface ---------------------------------------------------

    @property
    def monitor_period_s(self) -> float:
        return self.daemon.config.monitor_period_s

    @property
    def monitor_timer(self) -> float:
        return self.daemon._since_monitor_s

    @monitor_timer.setter
    def monitor_timer(self, value: float) -> None:
        self.daemon._since_monitor_s = value

    # --- power / pressure surface ----------------------------------------

    def dpd_fraction(self) -> float:
        return self.daemon.dpd_fraction()

    @property
    def offline_block_count(self) -> int:
        return self.daemon.offline_block_count

    def emergency_online(self, needed_pages: int, now_s: float = 0.0) -> int:
        return self.daemon.emergency_online(needed_pages, now_s)

    def extra_power_w(self) -> float:
        return 0.0

    def runtime_overhead_fraction(self) -> float:
        return 0.0

    def policy_metrics(self) -> Dict[str, float]:
        return {}

    # --- checkpoint/restore ------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Stateless adapter: everything lives in the daemon, which the
        system snapshot captures directly."""
        return {}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        pass
