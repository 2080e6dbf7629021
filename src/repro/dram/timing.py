"""DDR4 timing parameters.

Only the parameters the reproduction's performance and low-power models
consume are included.  The two numbers the paper leans on repeatedly are
the low-power exit latencies (Section 2.2): 18 ns to leave power-down and
768 ns to leave self-refresh (dominated by DLL re-lock).  GreenDIMM's deep
power-down keeps the DLL on, so its exit latency is bounded by the
power-down exit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import NANOSECOND


@dataclass(frozen=True)
class DDR4Timing:
    """Timing of one speed grade, in nanoseconds unless noted.

    Attributes
    ----------
    tck_ns: clock period (DDR: two transfers per cycle).
    cl_ns: CAS latency.
    trcd_ns: ACT-to-READ/WRITE delay.
    trp_ns: precharge time.
    tras_ns: ACT-to-PRE minimum.
    trfc_ns: refresh cycle time for one REF command.
    trefi_ns: average refresh interval (7.8 us at normal temperature).
    txp_ns: power-down exit to first command (the 18 ns of Section 2.2).
    txs_ns: self-refresh exit to first command (the 768 ns of Section 2.2).
    tcke_ns: minimum CKE low/high pulse width.
    burst_length: transfers per column access (8 for DDR4).
    """

    name: str
    tck_ns: float
    cl_ns: float
    trcd_ns: float
    trp_ns: float
    tras_ns: float
    trfc_ns: float
    trefi_ns: float = 7800.0
    txp_ns: float = 18.0
    txs_ns: float = 768.0
    tcke_ns: float = 5.0
    burst_length: int = 8

    def __post_init__(self) -> None:
        if self.tck_ns <= 0:
            raise ConfigurationError("tck must be positive")
        if self.txs_ns < self.txp_ns:
            raise ConfigurationError("self-refresh exit cannot be faster than power-down exit")

    @property
    def data_rate_mtps(self) -> float:
        """Data rate in mega-transfers per second."""
        return 2000.0 / self.tck_ns

    @property
    def channel_peak_bandwidth_bytes_per_s(self) -> float:
        """Peak bandwidth of one 64-bit channel in bytes/second."""
        return self.data_rate_mtps * 1e6 * 8

    @property
    def burst_duration_ns(self) -> float:
        """Time the data bus is occupied by one burst (BL/2 clocks)."""
        return self.burst_length / 2 * self.tck_ns

    @property
    def random_access_latency_ns(self) -> float:
        """Idle-bank closed-row access latency: tRCD + CL + burst."""
        return self.trcd_ns + self.cl_ns + self.burst_duration_ns

    @property
    def refresh_duty_cycle(self) -> float:
        """Fraction of time a rank is busy refreshing (tRFC / tREFI)."""
        return self.trfc_ns / self.trefi_ns

    def ns(self, value_ns: float) -> float:
        """Convert a nanosecond figure to seconds (readability helper)."""
        return value_ns * NANOSECOND


#: DDR4-2133 (the paper's DIMM speed grade), 4Gb-device tRFC.
DDR4_2133 = DDR4Timing(
    name="DDR4-2133",
    tck_ns=0.9375,
    cl_ns=14.06,
    trcd_ns=14.06,
    trp_ns=14.06,
    tras_ns=33.0,
    trfc_ns=260.0,
)

#: DDR4-2133 timing with the 8Gb-device refresh cycle (tRFC=350ns).
DDR4_2133_8GB = DDR4Timing(
    name="DDR4-2133-8Gb",
    tck_ns=0.9375,
    cl_ns=14.06,
    trcd_ns=14.06,
    trp_ns=14.06,
    tras_ns=33.0,
    trfc_ns=350.0,
)
