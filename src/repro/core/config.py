"""GreenDIMM daemon configuration."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import DEFAULT_MEMORY_BLOCK_SIZE


class SelectionPolicy(enum.Enum):
    """How ``block_selector()`` picks off-lining candidates (Section 5.2)."""

    #: Pick any online block at random — the baseline of Figure 8, which
    #: suffers EBUSY (unmovable pages) and EAGAIN (failed migration).
    RANDOM = "random"
    #: Prefer blocks whose sysfs ``removable`` flag is set, free blocks
    #: first — the paper's optimization, cutting failures roughly in half.
    REMOVABLE_FIRST = "removable_first"


@dataclass(frozen=True)
class GreenDIMMConfig:
    """Thresholds and knobs of the power-management daemon (Section 4.2).

    ``off_thr_fraction`` is the free-memory reserve (fraction of installed
    capacity) that must remain on-lined: the paper uses 10% + a margin and
    observes thrashing below 10%.  ``on_thr_fraction`` is the low-water
    mark that triggers on-lining.  ``monitor_period_s`` is how often
    ``memory_usage_monitor()`` samples ``/proc/meminfo`` (1 s; faster
    periods only add overhead).
    """

    off_thr_fraction: float = 0.12
    on_thr_fraction: float = 0.105
    monitor_period_s: float = 1.0
    block_bytes: int = DEFAULT_MEMORY_BLOCK_SIZE
    selection: SelectionPolicy = SelectionPolicy.REMOVABLE_FIRST
    #: React to a completed KSM pass immediately (Section 5.3).
    react_to_ksm: bool = True
    #: Maximum off-lining attempts per monitoring period (bounds the time
    #: the daemon can spend fighting failures in one period).
    max_attempts_per_period: int = 64
    #: Gate a sub-array group only when its sense-amp partner group is
    #: also offline (Section 6.1's consecutive-sub-array assumption).
    pair_gating: bool = True
    #: First retry delay after a failed off-lining of a block; doubles per
    #: consecutive failure (bounded retry with exponential backoff).
    retry_backoff_base_s: float = 2.0
    #: Ceiling on the per-block exponential backoff.
    retry_backoff_max_s: float = 60.0
    #: Consecutive failures before a block is quarantined: skipped for a
    #: cooldown instead of retried forever.
    quarantine_failures: int = 3
    #: How long a quarantined block stays out of the candidate pool.
    quarantine_cooldown_s: float = 120.0

    def __post_init__(self) -> None:
        if not isinstance(self.selection, SelectionPolicy):
            # The enum's value string (a JSON retune) names it too.
            try:
                selection = SelectionPolicy(self.selection)
            except (ValueError, TypeError):
                known = ", ".join(p.value for p in SelectionPolicy)
                raise ConfigurationError(
                    f"unknown selection {self.selection!r} "
                    f"(known: {known})") from None
            object.__setattr__(self, "selection", selection)
        if not 0.0 < self.on_thr_fraction < self.off_thr_fraction < 1.0:
            raise ConfigurationError(
                "need 0 < on_thr < off_thr < 1 for hysteresis")
        if self.monitor_period_s <= 0:
            raise ConfigurationError("monitor period must be positive")
        if self.block_bytes <= 0:
            raise ConfigurationError("block size must be positive")
        if self.max_attempts_per_period <= 0:
            raise ConfigurationError("max attempts must be positive")
        if self.retry_backoff_base_s <= 0 or self.retry_backoff_max_s <= 0:
            raise ConfigurationError("backoff delays must be positive")
        if self.retry_backoff_max_s < self.retry_backoff_base_s:
            raise ConfigurationError(
                "backoff ceiling cannot undercut the base delay")
        if self.quarantine_failures <= 0:
            raise ConfigurationError("quarantine threshold must be positive")
        if self.quarantine_cooldown_s <= 0:
            raise ConfigurationError("quarantine cooldown must be positive")
