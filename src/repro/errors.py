"""Exception hierarchy for the GreenDIMM reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can distinguish simulation-model errors from programming errors.
The OS hot-plug substrate additionally mirrors the Linux errno style
(``EBUSY`` / ``EAGAIN``) that the paper's Section 5.2 analyses, via
:class:`OfflineBusyError` and :class:`OfflineAgainError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A component was constructed with inconsistent or invalid parameters."""


class AddressError(ReproError):
    """A physical address is out of range or cannot be decoded."""


class AllocationError(ReproError):
    """The OS substrate could not satisfy a memory allocation."""


class HotplugError(ReproError):
    """Base class for memory on/off-lining failures.

    The raiser passes the modelled time the failed attempt cost as
    ``latency_s``.  Raise a new error directly, never through a local
    name: a frame that holds its own in-flight exception forms a cycle
    (exception, traceback, frame) that keeps every calling frame, and
    with them the whole simulator, alive until a full garbage-collection
    pass.
    """

    #: errno-style short name, mirroring the Linux return codes the paper
    #: observes (Section 5.2).
    errno_name: str = "EIO"

    def __init__(self, message: str = "", latency_s: float = 0.0):
        super().__init__(message)
        self.latency_s = latency_s


class OfflineBusyError(HotplugError):
    """Off-lining failed because the block holds unmovable pages (EBUSY).

    The paper measures this failure mode at ~6 us: the kernel refuses to
    isolate the block before attempting any migration.
    """

    errno_name = "EBUSY"


class OfflineAgainError(HotplugError):
    """Off-lining failed transiently (EAGAIN).

    All pages in the block were movable but migration could not complete —
    e.g. no destination frames were available.  The paper measures this at
    ~4.37 ms, roughly 3x the cost of a successful off-lining, because the
    kernel retries migration three times before giving up.
    """

    errno_name = "EAGAIN"


class OnlineError(HotplugError):
    """On-lining failed (block missing or already online)."""

    errno_name = "EINVAL"


class WakeupTimeoutError(HotplugError):
    """The sub-array wake-up ready bit never set within the poll budget.

    Raised by the fault-injection layer wrapping
    ``GreenDIMMPowerControl.prepare_online`` (Section 4.2's poll loop):
    the daemon must treat the block as not-yet-onlineable and move on,
    charging the abandoned poll (``wait_s``) to wake-up wait — never to
    daemon CPU time.
    """

    errno_name = "ETIMEDOUT"

    def __init__(self, message: str = "", wait_s: float = 0.0):
        super().__init__(message)
        #: Controller wait burned by the abandoned poll.
        self.wait_s = wait_s


class PowerStateError(ReproError):
    """An illegal DRAM power-state transition was requested."""


class SimulationError(ReproError):
    """The simulation engine was driven into an invalid state."""


class SnapshotError(ReproError):
    """A checkpoint could not be captured, decoded, or restored."""
