"""Memory-block <-> sub-array-group mapping (Section 4.1).

With interleaving, the top physical-address bits select the sub-array
group, so each contiguous memory block maps onto whole groups (when the
block is at least one group) or onto a slice of one group (when the
Linux block size is configured below the group capacity, as in the
Section 5.1 block-size study).  Either way the map answers the two
questions GreenDIMM asks:

* which groups does block *b* touch?
* is group *g* fully covered by off-lined blocks (and therefore safe to
  gate, since no physical address mapping to it remains on-line)?
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.dram.address import AddressMapping
from repro.errors import AddressError, ConfigurationError


class PowerBlockMap:
    """Relates OS memory blocks to gateable sub-array groups."""

    def __init__(self, mapping: AddressMapping, block_bytes: int):
        if not mapping.group_is_contiguous():
            raise ConfigurationError(
                "GreenDIMM requires the interleaved mapping: sub-array "
                "groups must be contiguous in physical address space")
        capacity = mapping.capacity_bytes
        if capacity % block_bytes:
            raise ConfigurationError("block size must divide capacity")
        group_bytes = mapping.subarray_group_bytes
        if block_bytes % group_bytes and group_bytes % block_bytes:
            raise ConfigurationError(
                "block size must be a multiple or divisor of the group size")
        self.mapping = mapping
        self.block_bytes = block_bytes
        self.group_bytes = group_bytes
        self.num_blocks = capacity // block_bytes
        self.num_groups = mapping.subarray_group_count
        if block_bytes >= group_bytes:
            self.groups_per_block = block_bytes // group_bytes
            self.blocks_per_group = 1
        else:
            self.groups_per_block = 1
            self.blocks_per_group = group_bytes // block_bytes
        # The topology is static, so both directions of the map are
        # precomputed once; per-event queries (every offline/online used
        # to re-derive group ranges through the address-mapping property
        # chain) become table lookups.
        # Contiguity was validated above, so both tables reduce to range
        # arithmetic (identical to mapping.groups_of_range /
        # group_address_range, without the per-call property chains).
        #: Per block, its groups (ascending) and the same as a group mask.
        self.block_groups: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(range(b * block_bytes // group_bytes,
                        ((b + 1) * block_bytes - 1) // group_bytes + 1))
            for b in range(self.num_blocks))
        self.block_masks: Tuple[int, ...] = tuple(
            ((1 << len(groups)) - 1) << groups[0]
            for groups in self.block_groups)
        self._group_blocks: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(range(g * group_bytes // block_bytes,
                        ((g + 1) * group_bytes - 1) // block_bytes + 1))
            for g in range(self.num_groups))

    # --- forward map ------------------------------------------------------

    def blocks_of_group(self, group: int) -> Tuple[int, ...]:
        """Memory blocks that together cover group *group*."""
        if not 0 <= group < self.num_groups:
            raise AddressError(f"group {group} out of range")
        return self._group_blocks[group]

    # --- gating eligibility -----------------------------------------------

    def fully_offline_groups(self, offline_blocks: Set[int]) -> List[int]:
        """Groups every one of whose covering blocks is off-lined.

        Only these may be gated: a partially-covered group still backs
        on-lined physical addresses that can receive requests.
        """
        result = []
        for group in range(self.num_groups):
            if all(b in offline_blocks for b in self.blocks_of_group(group)):
                result.append(group)
        return result

    def gateable_groups(self, offline_blocks: Set[int],
                        pair_constraint: bool = True) -> List[int]:
        """Fully-offline groups, optionally restricted to sense-amp pairs.

        With *pair_constraint* (Section 6.1), adjacent groups share sense
        amplifiers, so a group may be gated only when its partner
        (``group ^ 1``) is also fully off-lined.
        """
        offline_groups = set(self.fully_offline_groups(offline_blocks))
        if not pair_constraint:
            return sorted(offline_groups)
        return sorted(g for g in offline_groups if (g ^ 1) in offline_groups)

    def describe(self) -> str:
        return (f"{self.num_blocks} blocks x {self.block_bytes} B <-> "
                f"{self.num_groups} groups x {self.group_bytes} B "
                f"({self.groups_per_block} groups/block, "
                f"{self.blocks_per_group} blocks/group)")
