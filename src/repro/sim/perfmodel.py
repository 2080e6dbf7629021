"""Analytic CPU-memory performance model.

Execution time is modelled with the standard decomposition

    CPI = CPI_compute + (MPKI / 1000) x stall-per-miss,
    stall-per-miss = latency_ns x freq / MLP_effective,

where the memory-system operating point sets the average miss latency
and the effective memory-level parallelism.  Interleaving is exactly an
MLP/latency knob (Section 3.3): spreading a contiguous footprint over
every channel, rank, and bank multiplies MLP and keeps queueing low,
which is how the paper's lbm speeds up ~3.8x; without interleaving the
footprint concentrates in a few ranks, MLP collapses and queueing grows.

The GreenDIMM overhead model converts daemon activity (on/off-lining
rates) into an execution-time factor, calibrated to the paper's
observations: worst cases just under 3% (gcc), shrinking with larger
blocks (Figure 7), near zero for footprint-stable services (Figure 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from repro.dram.organization import MemoryOrganization
from repro.dram.timing import DDR4Timing, DDR4_2133
from repro.errors import ConfigurationError
from repro.workloads.profiles import WorkloadProfile

#: Nominal core frequency of the evaluation platform's Xeon.
CPU_FREQ_GHZ = 2.4

#: Calibration constants of the GreenDIMM interference model: a
#: saturating (Michaelis-Menten) curve in sensitivity-weighted event
#: rate, anchored to the paper's mcf 2.9%@128MB point and <3% worst case.
_OVERHEAD_CAP = 0.035
_OVERHEAD_HALF_RATE = 0.013
_SENSITIVITY_EXP = 0.5
_MPKI_NORM = 65.0  # mcf-class memory intensity


@dataclass(frozen=True)
class MemorySystemPoint:
    """One memory-system operating point seen by the cores."""

    name: str
    latency_ns: float
    effective_mlp: float
    bandwidth_cap_bytes_per_s: float
    #: Expected extra latency per access from low-power wake-ups.
    wake_penalty_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_ns <= 0 or self.effective_mlp <= 0:
            raise ConfigurationError("latency and MLP must be positive")


def interleaved_point(organization: MemoryOrganization,
                      timing: DDR4Timing = DDR4_2133,
                      wake_penalty_ns: float = 0.0) -> MemorySystemPoint:
    """Channel/rank/bank interleaving on: high MLP, all channels usable."""
    mlp = min(16.0, organization.channels * 4.0)
    latency = timing.random_access_latency_ns + 25.0  # queue/controller margin
    bandwidth = (organization.channels
                 * timing.channel_peak_bandwidth_bytes_per_s * 0.75)
    return MemorySystemPoint(name="interleaved", latency_ns=latency,
                             effective_mlp=mlp,
                             bandwidth_cap_bytes_per_s=bandwidth,
                             wake_penalty_ns=wake_penalty_ns)


def non_interleaved_point(organization: MemoryOrganization,
                          timing: DDR4Timing = DDR4_2133,
                          resident_ranks: int = 1,
                          wake_penalty_ns: float = 0.0,
                          contention_ns: float = 60.0) -> MemorySystemPoint:
    """Interleaving off: a footprint concentrates in *resident_ranks*.

    MLP is limited to the bank parallelism of those ranks that one core
    can realistically exploit, latency grows with bank-conflict queueing
    (*contention_ns*; pass 0 for a single lightly-loaded copy), and
    bandwidth caps at the channels those ranks live on.
    """
    resident_ranks = max(1, min(resident_ranks, organization.total_ranks))
    channels_used = max(1, min(organization.channels,
                               resident_ranks // organization.ranks_per_channel + 1))
    mlp = min(4.0, 1.0 + resident_ranks)
    latency = timing.random_access_latency_ns + 25.0 + contention_ns
    bandwidth = (channels_used
                 * timing.channel_peak_bandwidth_bytes_per_s * 0.6)
    return MemorySystemPoint(name="non-interleaved", latency_ns=latency,
                             effective_mlp=mlp,
                             bandwidth_cap_bytes_per_s=bandwidth,
                             wake_penalty_ns=wake_penalty_ns)


@lru_cache(maxsize=1)
def _default_reference_point() -> MemorySystemPoint:
    """The paper platform's interleaved operating point.

    ``runtime_s`` falls back to this on every call; building the spec
    server organization each time dominated hot run loops, and the point
    is a frozen value, so one shared instance is safe to reuse.
    """
    from repro.dram.organization import spec_server_memory
    return interleaved_point(spec_server_memory())


class PerformanceModel:
    """Runtime and slowdown estimates for workload profiles."""

    def __init__(self, freq_ghz: float = CPU_FREQ_GHZ):
        if freq_ghz <= 0:
            raise ConfigurationError("frequency must be positive")
        self.freq_ghz = freq_ghz

    # --- CPI / runtime -------------------------------------------------------

    def cpi(self, profile: WorkloadProfile, point: MemorySystemPoint,
            n_copies: int = 1) -> float:
        """Cycles per instruction of *profile* at *point*.

        A bandwidth term inflates CPI when *n_copies* of the workload
        oversubscribe the point's bandwidth cap.
        """
        miss_latency = point.latency_ns + point.wake_penalty_ns
        stall = miss_latency * self.freq_ghz / point.effective_mlp
        cpi_latency = 1.0 / profile.base_ipc + profile.mpki / 1000.0 * stall
        # Roofline: when n_copies' miss traffic exceeds the point's
        # bandwidth, execution is bandwidth-limited instead.
        bytes_per_instr = profile.mpki / 1000.0 * 64.0
        seconds_per_instr = (bytes_per_instr * n_copies
                             / point.bandwidth_cap_bytes_per_s)
        cpi_bandwidth = seconds_per_instr * self.freq_ghz * 1e9
        return max(cpi_latency, cpi_bandwidth)

    def runtime_s(self, profile: WorkloadProfile, point: MemorySystemPoint,
                  reference: Optional[MemorySystemPoint] = None,
                  n_copies: int = 1) -> float:
        """Wall time of one run at *point*.

        ``profile.duration_s`` is defined at the interleaved operating
        point of the paper's platform (*reference*); other points scale it
        by the CPI ratio.
        """
        if reference is None:
            reference = _default_reference_point()
        ratio = self.cpi(profile, point, n_copies) / self.cpi(
            profile, reference, n_copies)
        return profile.duration_s * ratio

    def speedup_from_interleaving(self, profile: WorkloadProfile,
                                  organization: MemoryOrganization,
                                  resident_ranks: int = 1,
                                  n_copies: int = 1) -> float:
        """Figure 3a: runtime(w/o intlv) / runtime(w/ intlv)."""
        on = interleaved_point(organization)
        off = non_interleaved_point(organization, resident_ranks=resident_ranks)
        return self.cpi(profile, off, n_copies) / self.cpi(profile, on, n_copies)

    # --- GreenDIMM interference -----------------------------------------------

    def greendimm_overhead_fraction(self, profile: WorkloadProfile,
                                    offline_events: int, online_events: int,
                                    elapsed_s: float) -> float:
        """Execution-time increase caused by daemon activity.

        Captures the diffuse costs of on/off-lining (zone-lock contention,
        TLB shootdowns, allocation-path retries) as a calibrated function
        of event rate and the workload's memory sensitivity.
        """
        if elapsed_s <= 0:
            return 0.0
        rate = (offline_events + online_events) / elapsed_s
        if rate <= 0:
            return 0.0
        sensitivity = min(1.0, profile.mpki / _MPKI_NORM)
        weighted = sensitivity ** _SENSITIVITY_EXP * rate
        return _OVERHEAD_CAP * weighted / (weighted + _OVERHEAD_HALF_RATE)
