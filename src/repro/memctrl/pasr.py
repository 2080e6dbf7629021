"""Partial Array Self-Refresh (PASR) mask registers.

The comparison baseline of Sections 4.3 and 6.2: a controller supporting
PASR keeps a refresh-enable bit per *bank* per rank — 16 bits per rank,
so 128 bits for the paper's 4-channel x 2-rank setup — and idle banks can
stop refreshing.  GreenDIMM contrasts this with its single 64-bit
register: one bit per sub-array *group*, independent of channel and rank
counts.
"""

from __future__ import annotations

from typing import List

from repro.dram.organization import MemoryOrganization
from repro.errors import ConfigurationError


class PASRBitVector:
    """Per-rank, per-bank refresh-enable mask (1 = refreshing)."""

    def __init__(self, organization: MemoryOrganization):
        self.organization = organization
        self.banks_per_rank = organization.device.banks
        self._masks: List[int] = [
            (1 << self.banks_per_rank) - 1 for _ in range(organization.total_ranks)]

    @property
    def register_bits(self) -> int:
        """Total control-register bits this scheme needs (paper: 128 for
        4 channels x 2 ranks of 16-bank devices)."""
        return self.organization.total_ranks * self.banks_per_rank

    def _check(self, rank: int, bank: int) -> None:
        if not 0 <= rank < self.organization.total_ranks:
            raise ConfigurationError(f"rank {rank} out of range")
        if not 0 <= bank < self.banks_per_rank:
            raise ConfigurationError(f"bank {bank} out of range")

    def disable_refresh(self, rank: int, bank: int) -> None:
        self._check(rank, bank)
        self._masks[rank] &= ~(1 << bank)

    def refreshing_fraction(self) -> float:
        """Fraction of all banks still being refreshed."""
        total = self.register_bits
        on = sum(bin(mask).count("1") for mask in self._masks)
        return on / total if total else 1.0
