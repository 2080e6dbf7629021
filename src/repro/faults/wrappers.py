"""Fault-injecting wrappers around the simulated kernel surfaces.

Each wrapper delegates everything to the real component and intercepts
only the operations a :class:`~repro.faults.injector.FaultInjector` can
fail.  Injected failures are indistinguishable from organic ones to the
daemon: they raise the same exception types, carry the same modelled
latencies, and count in the same :class:`~repro.os.hotplug.HotplugStats`
counters, so every downstream experiment sees one coherent failure
stream.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import (
    AllocationError,
    OfflineAgainError,
    OfflineBusyError,
    OnlineError,
    WakeupTimeoutError,
)
from repro.faults.injector import FaultInjector
from repro.os.hotplug import (
    MemoryBlockManager,
    OfflineResult,
)
from repro.os.mm import PhysicalMemoryManager
from repro.os.page import OwnerKind, PageExtent
from repro.units import MICROSECOND

#: Wake-up poll budget charged when a ready-bit timeout is injected and
#: the rule specifies no ``extra_latency_s`` of its own (Section 4.2's
#: poll loop, abandoned).
DEFAULT_WAKEUP_TIMEOUT_S = 100 * MICROSECOND


class _FaultyDelegate:
    """Composition base: forward any unknown attribute to the inner object."""

    def __init__(self, inner, injector: FaultInjector):
        self.inner = inner
        self.injector = injector

    def __getattr__(self, name: str):
        # Only reached for names missing from the wrapper itself.  Dunder
        # probes (copy and pickle look for __setstate__ et al.) and
        # ``inner`` on an instance not yet initialized must fail here:
        # forwarding them would recurse through ``self.inner``.
        if name == "inner" or (name.startswith("__") and name.endswith("__")):
            raise AttributeError(name)
        return getattr(self.inner, name)


class FaultyPhysicalMemoryManager(_FaultyDelegate):
    """Injects allocation-pressure spikes into a PhysicalMemoryManager.

    An ``allocate``/``ENOMEM`` fault makes one allocation fail as if the
    online free memory had vanished between the daemon's monitoring
    passes — exactly the squeeze that forces ``emergency_online``.
    """

    def __init__(self, inner: PhysicalMemoryManager,
                 injector: FaultInjector):
        super().__init__(inner, injector)

    # The daemon and policies poll these two every epoch; bound here,
    # they skip the failed lookup that precedes every __getattr__ forward.
    @property
    def free_pages(self) -> int:
        """The inner manager's free pages."""
        return self.inner.free_pages

    @property
    def online_pages(self) -> int:
        """The inner manager's on-line pages."""
        return self.inner.online_pages

    def allocate(self, owner_id: str, n_pages: int,
                 kind: OwnerKind = OwnerKind.USER,
                 mergeable: bool = False) -> List[PageExtent]:
        rule = self.injector.should_fail("allocate")
        if rule is not None:
            raise AllocationError(
                f"injected pressure spike ({rule.label or 'fault plan'}): "
                f"{n_pages} pages for {owner_id!r} denied")
        return self.inner.allocate(owner_id, n_pages, kind=kind,
                                   mergeable=mergeable)


class FaultyMemoryBlockManager(_FaultyDelegate):
    """Injects EBUSY/EAGAIN storms, migration stalls, and on-line
    failures into a MemoryBlockManager."""

    def __init__(self, inner: MemoryBlockManager, injector: FaultInjector):
        super().__init__(inner, injector)

    # --- off-lining ---------------------------------------------------------

    def offline_block(self, index: int) -> OfflineResult:
        rule = self.injector.should_fail("offline", index)
        if rule is not None:
            latency_model = self.inner.latency
            if rule.error == "EBUSY":
                latency = latency_model.failure_ebusy_s + rule.extra_latency_s
                self.inner.stats.ebusy_failures += 1
                raise OfflineBusyError(
                    f"block {index}: injected EBUSY ({rule.label or 'fault'})",
                    latency_s=latency)
            latency = latency_model.failure_eagain_s + rule.extra_latency_s
            self.inner.stats.eagain_failures += 1
            raise OfflineAgainError(
                f"block {index}: injected EAGAIN ({rule.label or 'fault'})",
                latency_s=latency)
        result = self.inner.offline_block(index)
        stall = self.injector.should_fail("migration", index)
        if stall is not None and stall.extra_latency_s > 0:
            result = result._replace(
                latency_s=result.latency_s + stall.extra_latency_s)
        return result

    def try_offline_block(self, index: int) -> OfflineResult:
        try:
            return self.offline_block(index)
        except (OfflineBusyError, OfflineAgainError) as err:
            return OfflineResult(block=index, success=False,
                                 latency_s=getattr(err, "latency_s", 0.0),
                                 errno_name=err.errno_name)

    # --- on-lining ----------------------------------------------------------

    def online_block(self, index: int) -> float:
        rule = self.injector.should_fail("online", index)
        if rule is not None:
            raise OnlineError(
                f"block {index}: injected on-lining failure "
                f"({rule.label or 'fault'})", latency_s=rule.extra_latency_s)
        return self.inner.online_block(index)

    def try_online_block(self, index: int):
        """Mirror the inner manager's non-raising wrapper through the
        fault layer, so injected EINVALs surface as results too."""
        from repro.os.hotplug import OnlineAttempt

        try:
            return OnlineAttempt(block=index, success=True,
                                 latency_s=self.online_block(index))
        except OnlineError as err:
            return OnlineAttempt(block=index, success=False,
                                 latency_s=getattr(err, "latency_s", 0.0),
                                 errno_name=err.errno_name)


class FaultyPowerControl(_FaultyDelegate):
    """Injects wake-up ready-bit timeouts into GreenDIMMPowerControl."""

    def prepare_online(self, block: int, now_s: float = 0.0) -> float:
        rule = self.injector.should_fail("prepare_online", block)
        if rule is not None:
            wait_s = rule.extra_latency_s or DEFAULT_WAKEUP_TIMEOUT_S
            # The abandoned poll still burned controller wait time; the
            # groups stay gated because nothing was un-gated yet.
            self.inner.wakeup_wait_s += wait_s
            raise WakeupTimeoutError(
                f"block {block}: wake-up ready bit never set "
                f"({rule.label or 'fault'})", wait_s=wait_s)
        return self.inner.prepare_online(block, now_s)


def wrap_system_components(mm: PhysicalMemoryManager,
                           hotplug: MemoryBlockManager,
                           power_control,
                           injector: Optional[FaultInjector]):
    """Wrap the three injectable surfaces (no-op when *injector* is None)."""
    if injector is None:
        return mm, hotplug, power_control
    return (FaultyPhysicalMemoryManager(mm, injector),
            FaultyMemoryBlockManager(hotplug, injector),
            FaultyPowerControl(power_control, injector))
