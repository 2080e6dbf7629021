"""A cycle-approximate DDR4 memory controller.

Per-channel FR-FCFS scheduling over a small reorder window, per-bank
open-page row-buffer timing, channel data-bus contention, and
rank-granularity low-power management with wake-up penalties.  Fidelity
is deliberately at the level the motivation experiments need: it shows
*when ranks get to sleep* and *what wake-ups cost*, not exact command-bus
behaviour.

Outputs plug straight into the power model: :meth:`ControllerStats.rank_profiles`
produces the per-rank state residencies and bandwidths that
:class:`repro.power.DRAMPowerModel` consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dram.address import AddressMapping
from repro.dram.organization import MemoryOrganization
from repro.dram.timing import DDR4Timing
from repro.errors import ConfigurationError
from repro.memctrl.bankstate import BankState
from repro.memctrl.lowpower import LowPowerConfig, RankLowPowerPolicy, RankResidency
from repro.memctrl.request import MemoryRequest
from repro.power.model import RankPowerProfile
from repro.power.states import PowerState


@dataclass
class ControllerStats:
    """Aggregate results of one controller run."""

    total_time_ns: float
    requests: int
    reads: int
    writes: int
    row_hits: int
    row_misses: int
    wakeups: int
    bytes_transferred: int
    latencies_ns: np.ndarray
    refresh_stalls: int = 0
    residencies: List[RankResidency] = field(default_factory=list)
    rank_bytes: List[int] = field(default_factory=list)

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0

    @property
    def mean_latency_ns(self) -> float:
        return float(self.latencies_ns.mean()) if self.latencies_ns.size else 0.0

    def percentile_latency_ns(self, pct: float) -> float:
        if not self.latencies_ns.size:
            return 0.0
        return float(np.percentile(self.latencies_ns, pct))

    @property
    def bandwidth_bytes_per_s(self) -> float:
        if self.total_time_ns <= 0:
            return 0.0
        return self.bytes_transferred / (self.total_time_ns * 1e-9)

    def selfrefresh_fraction(self) -> float:
        """Average self-refresh residency over all ranks (Figure 3b)."""
        if not self.residencies:
            return 0.0
        return sum(r.fraction(PowerState.SELF_REFRESH)
                   for r in self.residencies) / len(self.residencies)

    def rank_profiles(self, row_miss_rate: Optional[float] = None
                      ) -> List[RankPowerProfile]:
        """Per-rank :class:`RankPowerProfile` list for the power model."""
        if row_miss_rate is None:
            row_miss_rate = 1.0 - self.row_hit_rate
        seconds = max(self.total_time_ns * 1e-9, 1e-12)
        profiles = []
        for residency, nbytes in zip(self.residencies, self.rank_bytes):
            profiles.append(RankPowerProfile(
                state_residency=residency.residency_map(),
                bandwidth_bytes_per_s=nbytes / seconds,
                row_miss_rate=row_miss_rate))
        return profiles


class MemoryController:
    """Schedules a request trace onto the DRAM topology.

    Parameters
    ----------
    organization / mapping:
        Topology and address mapping (interleaved or not — the comparison
        at the heart of Figure 3).
    timing:
        Speed grade; defaults to the mapping-appropriate DDR4-2133 set.
    lowpower:
        Rank demotion policy (timeouts for power-down / self-refresh).
    window:
        FR-FCFS reorder window per channel.
    """

    LINE_BYTES = 64

    def __init__(self, organization: MemoryOrganization,
                 mapping: Optional[AddressMapping] = None,
                 timing: Optional[DDR4Timing] = None,
                 lowpower: Optional[LowPowerConfig] = None,
                 window: int = 16):
        from repro.dram.timing import DDR4_2133, DDR4_2133_8GB

        if window <= 0:
            raise ConfigurationError("window must be positive")
        self.organization = organization
        self.mapping = mapping or AddressMapping(organization)
        if self.mapping.organization is not organization:
            raise ConfigurationError("mapping built for a different topology")
        density_gb = organization.device.density_bits / (1 << 30)
        self.timing = timing or (DDR4_2133 if density_gb <= 4 else DDR4_2133_8GB)
        self.lowpower = lowpower or LowPowerConfig()
        self.window = window
        self._local_row_bits = organization.device.local_row_bits

    # --- helpers ---------------------------------------------------------

    def _rank_index(self, channel: int, rank: int) -> int:
        return channel * self.organization.ranks_per_channel + rank

    # --- simulation ---------------------------------------------------------

    def run(self, requests: Sequence[MemoryRequest]) -> ControllerStats:
        """Simulate *requests* (must be sorted by arrival time)."""
        org = self.organization
        timing = self.timing
        n_ranks = org.total_ranks
        banks: Dict[Tuple[int, int, int], BankState] = {}
        policies = [RankLowPowerPolicy(self.lowpower) for _ in range(n_ranks)]
        bus_free_ns = [0.0] * org.channels
        rank_bytes = [0] * n_ranks
        # Auto-refresh bookkeeping: each rank takes a REF every tREFI and
        # is unavailable for tRFC (self-refreshing ranks refresh
        # internally and are exempt until they wake).
        next_ref_ns = [timing.trefi_ns] * n_ranks
        refresh_stalls = 0

        # Split by channel; each channel schedules independently.
        per_channel: List[List[Tuple[MemoryRequest, int, int, int]]] = [
            [] for _ in range(org.channels)]
        for req in requests:
            d = self.mapping.decode(req.address)
            row = d.row(self._local_row_bits)
            per_channel[d.channel].append((req, d.rank, d.bank, row))

        latencies: List[float] = []
        reads = writes = row_hits = row_misses = wakeups = 0
        end_ns = 0.0

        for channel, queue in enumerate(per_channel):
            position = 0
            now = 0.0
            while position < len(queue):
                # Candidate window: requests that have arrived, up to `window`.
                limit = min(position + self.window, len(queue))
                chosen = None
                for i in range(position, limit):
                    req, rank, bank, row = queue[i]
                    if req.arrival_ns > now and i > position:
                        break
                    bank_state = banks.get((channel, rank, bank))
                    if bank_state is not None and bank_state.open_row == row:
                        chosen = i
                        break
                if chosen is None:
                    chosen = position
                queue[position], queue[chosen] = queue[chosen], queue[position]
                req, rank, bank, row = queue[position]
                position += 1

                key = (channel, rank, bank)
                bank_state = banks.setdefault(key, BankState())
                rank_id = self._rank_index(channel, rank)
                policy = policies[rank_id]

                start = max(req.arrival_ns, bus_free_ns[channel])
                # Catch up this rank's refresh schedule; a request landing
                # inside a REF window waits out the remaining tRFC.
                while next_ref_ns[rank_id] + timing.trfc_ns < start:
                    next_ref_ns[rank_id] += timing.trefi_ns
                if (next_ref_ns[rank_id] <= start
                        and policy.state_at(start) is not PowerState.SELF_REFRESH):
                    blocked_until = next_ref_ns[rank_id] + timing.trfc_ns
                    if blocked_until > start:
                        start = blocked_until
                        refresh_stalls += 1
                    next_ref_ns[rank_id] += timing.trefi_ns
                penalty = policy.wake_penalty_ns(start)
                if penalty:
                    wakeups += 1
                    # Waking from a low-power state finds all banks closed.
                    for (ch, rk, _b), state in banks.items():
                        if ch == channel and rk == rank:
                            state.precharge()
                            state.ready_ns = max(state.ready_ns, start + penalty)
                hits_before = bank_state.row_hits
                finish = bank_state.access(row, start + penalty, timing)
                if bank_state.row_hits > hits_before:
                    row_hits += 1
                else:
                    row_misses += 1
                bus_free_ns[channel] = finish
                policy.note_activity(finish, busy_from_ns=start + penalty)
                req.finish_ns = finish
                latencies.append(finish - req.arrival_ns)
                rank_bytes[rank_id] += self.LINE_BYTES
                if req.is_write:
                    writes += 1
                else:
                    reads += 1
                # The next pick happens once this burst holds the bus:
                # everything that has arrived by then is a candidate.
                now = max(now, bus_free_ns[channel])
                end_ns = max(end_ns, finish)

        for policy in policies:
            policy.account_until(end_ns)

        return ControllerStats(
            total_time_ns=end_ns,
            requests=len(requests),
            reads=reads,
            writes=writes,
            row_hits=row_hits,
            row_misses=row_misses,
            wakeups=wakeups,
            bytes_transferred=len(requests) * self.LINE_BYTES,
            refresh_stalls=refresh_stalls,
            latencies_ns=np.array(latencies, dtype=float),
            residencies=[p.residency for p in policies],
            rank_bytes=rank_bytes,
        )
