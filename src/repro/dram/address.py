"""Physical-address mapping with channel/rank/bank interleaving.

Reproduces the mapping of Figure 5: with interleaving, the low-order bits
of a physical address (above the 64-byte line offset) select the channel,
bank, and rank, so that a contiguous address stream fans out across the
whole memory system; the *most significant* bits select the row, and the
top ``M`` bits of the row select the sub-array.  Consequently the top bits
of the physical address identify a **sub-array group** — the same
sub-array index in every channel, rank, and bank — and a contiguous block
of physical addresses maps onto exactly one group.  That is the property
GreenDIMM's power-management unit exploits.

The non-interleaved mapping places channel and rank in the *top* bits
(whole-rank contiguity), which is what the paper's "w/o interleaving"
baseline experiments configure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.dram.organization import MemoryOrganization
from repro.errors import AddressError, ConfigurationError
from repro.units import is_power_of_two, log2_int

#: Cache-line (bus burst) size in bytes: 8 bytes x burst length 8.
LINE_SIZE = 64
LINE_BITS = 6


@dataclass(frozen=True)
class DecodedAddress:
    """A physical address decoded into DRAM coordinates.

    ``rank`` is the rank index within the channel (DIMM-slot ranks are
    flattened).  ``row`` is the full row address whose top bits are the
    sub-array index (global decoder) and low bits the local row.
    """

    channel: int
    rank: int
    bank: int
    subarray: int
    local_row: int
    column: int
    offset: int

    def row(self, local_row_bits: int) -> int:
        """Full row address given the device's local-row bit width."""
        return (self.subarray << local_row_bits) | self.local_row

    def coordinates(self) -> Tuple[int, int, int]:
        """(channel, rank, bank) triple, the controller's scheduling unit."""
        return (self.channel, self.rank, self.bank)


class AddressMapping:
    """Bidirectional physical-address <-> DRAM-coordinate mapping.

    Parameters
    ----------
    organization:
        The memory topology to map.
    interleaved:
        When True (default, matching commodity servers), channel, bank and
        rank bits sit just above the line offset; when False they sit at
        the top of the address, giving whole-rank contiguity.
    """

    def __init__(self, organization: MemoryOrganization,
                 interleaved: bool = True, xor_bank_hash: bool = False):
        self.organization = organization
        self.interleaved = interleaved
        #: Commodity controllers XOR low row bits into the bank index so
        #: row-conflicting strides spread over banks.  The hash is an
        #: involution on the bank field, so decode/encode stay bijective
        #: — and, crucially for GreenDIMM, it only permutes *which* bank
        #: serves an address: the top-of-address sub-array bits are
        #: untouched, so sub-array groups stay contiguous.
        self.xor_bank_hash = xor_bank_hash
        device = organization.device

        line_bytes_per_rank_row = (device.row_size_bits // 8) * organization.devices_per_rank
        if line_bytes_per_rank_row % LINE_SIZE:
            raise ConfigurationError("rank row is not line aligned")
        column_lines = line_bytes_per_rank_row // LINE_SIZE
        if not is_power_of_two(column_lines):
            raise ConfigurationError("column count must be a power of two")

        bits = {
            "offset": LINE_BITS,
            "channel": log2_int(organization.channels),
            "bank": device.bank_bits_count,
            "rank": log2_int(organization.ranks_per_channel),
            "column": log2_int(column_lines),
            "local_row": device.local_row_bits,
            "subarray": device.subarray_bits,
        }
        if interleaved:
            # Column bits sit below bank/rank so a sequential sweep stays
            # in the open row of each channel (page-open friendly), while
            # channel bits right above the line offset give line-granular
            # channel interleaving; the sub-array index stays on top.
            order = ["offset", "channel", "column", "bank", "rank",
                     "local_row", "subarray"]
        else:
            order = ["offset", "column", "bank", "local_row", "subarray",
                     "rank", "channel"]
        self._layout: List[Tuple[str, int, int]] = []  # (field, shift, width)
        shift = 0
        for name in order:
            self._layout.append((name, shift, bits[name]))
            shift += bits[name]
        self.address_bits = shift
        if (1 << shift) != organization.total_capacity_bytes:
            raise ConfigurationError(
                f"address bits ({shift}) do not cover capacity "
                f"({organization.total_capacity_bytes})")
        self._bits = bits
        self._shifts: Dict[str, Tuple[int, int]] = {
            name: (fshift, width) for name, fshift, width in self._layout
        }

    # --- decode / encode --------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return self.organization.total_capacity_bytes

    def field(self, address: int, name: str) -> int:
        """Extract one named field from *address*."""
        shift, width = self._shifts[name]
        return (address >> shift) & ((1 << width) - 1)

    def _bank_hash(self, bank: int, local_row: int) -> int:
        """XOR the low row bits into the bank index (an involution)."""
        if not self.xor_bank_hash:
            return bank
        _shift, width = self._shifts["bank"]
        return bank ^ (local_row & ((1 << width) - 1))

    def decode(self, address: int) -> DecodedAddress:
        """Decode a physical byte address into DRAM coordinates."""
        if not 0 <= address < self.capacity_bytes:
            raise AddressError(f"address {address:#x} out of range")
        local_row = self.field(address, "local_row")
        return DecodedAddress(
            channel=self.field(address, "channel"),
            rank=self.field(address, "rank"),
            bank=self._bank_hash(self.field(address, "bank"), local_row),
            subarray=self.field(address, "subarray"),
            local_row=local_row,
            column=self.field(address, "column"),
            offset=self.field(address, "offset"),
        )

    def encode(self, decoded: DecodedAddress) -> int:
        """Inverse of :meth:`decode` (the bank hash is self-inverse)."""
        address = 0
        for name, shift, width in self._layout:
            value = getattr(decoded, name)
            if name == "bank":
                value = self._bank_hash(value, decoded.local_row)
            if not 0 <= value < (1 << width):
                raise AddressError(f"{name}={value} exceeds {width} bits")
            address |= value << shift
        return address

    # --- GreenDIMM-specific views ------------------------------------------

    @property
    def subarray_group_count(self) -> int:
        """Independently power-gateable sub-array groups (always 64 here)."""
        return self.organization.device.subarrays_per_bank

    @property
    def subarray_group_bytes(self) -> int:
        """Capacity of one sub-array group."""
        return self.capacity_bytes // self.subarray_group_count

    def group_is_contiguous(self) -> bool:
        """True when each sub-array group is one contiguous address range.

        This is the interleaving-agnosticism property of Section 4.1: it
        holds exactly when the sub-array bits are the top address bits.
        """
        top_field, _, _ = self._layout[-1]
        return top_field == "subarray"

    def group_address_range(self, group: int) -> Tuple[int, int]:
        """[start, end) physical range of *group* (interleaved mapping only)."""
        if not self.group_is_contiguous():
            raise AddressError(
                "sub-array groups are not contiguous without interleaving")
        if not 0 <= group < self.subarray_group_count:
            raise AddressError(f"group {group} out of range")
        size = self.subarray_group_bytes
        return group * size, (group + 1) * size

    def groups_of_range(self, start: int, length: int) -> Sequence[int]:
        """Sub-array groups overlapped by the range [start, start+length)."""
        if length <= 0:
            raise AddressError("length must be positive")
        if start < 0 or start + length > self.capacity_bytes:
            raise AddressError("range out of bounds")
        if not self.group_is_contiguous():
            return tuple(range(self.subarray_group_count))
        size = self.subarray_group_bytes
        first = start // size
        last = (start + length - 1) // size
        return tuple(range(first, last + 1))
