"""Size, time, and power units used throughout the reproduction.

All byte quantities in this library are plain ``int`` bytes, all times are
``float`` seconds, and all powers are ``float`` watts unless a name says
otherwise.  These helpers exist so that configuration code reads like the
paper ("128MB memory blocks", "18ns exit latency") instead of raw powers of
two and exponents.
"""

from __future__ import annotations

# --- sizes (binary powers, as DRAM capacities are) -------------------------

KIB: int = 1 << 10
MIB: int = 1 << 20
GIB: int = 1 << 30

#: Size of an OS page in bytes (x86-64 base page).
PAGE_SIZE: int = 4 * KIB

#: Default Linux memory-block size for on/off-lining on x86-64.
DEFAULT_MEMORY_BLOCK_SIZE: int = 128 * MIB

# --- bandwidth ---------------------------------------------------------------

#: Aggregate DRAM bandwidth at which the simulator treats the memory
#: system as fully active (active residency 1.0).  Roughly the sustained
#: throughput of the evaluation platform's loaded channels; the server
#: simulator maps achieved bandwidth / this peak onto the power model's
#: ACTIVE_STANDBY residency.
PEAK_DRAM_BANDWIDTH_BYTES_PER_S: float = 20e9

# --- times ------------------------------------------------------------------

NANOSECOND: float = 1e-9
MICROSECOND: float = 1e-6
MILLISECOND: float = 1e-3


def is_power_of_two(n: int) -> bool:
    """Return True when *n* is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def log2_int(n: int) -> int:
    """Return log2 of a power-of-two integer, raising otherwise."""
    if not is_power_of_two(n):
        raise ValueError(f"{n} is not a power of two")
    return n.bit_length() - 1
