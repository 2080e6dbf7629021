"""DRAM mode registers: how the gating commands actually reach devices.

Section 4.3: "the memory controller sets the DRAM mode register such
that the peripheral and I/O circuits of sub-arrays are turned off ...
after the DRAM mode register of every DRAM device in a rank is
concurrently updated, each DRAM device turns off the power gates".

This module models that command path.  The GreenDIMM field of the mode
registers is the 64-bit sub-array-group mask, programmed with MRS
commands.  An MRS command carries 16 payload bits (one MR write), so
refreshing the full mask costs four MRS commands per rank, each taking
tMRD.  Every device of every rank latches the same MRS broadcast, so
the controller keeps one copy of the mask for all of them, not one per
device or per rank.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ConfigurationError

#: MRS-to-MRS command spacing, nanoseconds (DDR4 tMRD = 8 tCK).
TMRD_NS = 7.5

#: Payload bits one MRS write can update.
MRS_PAYLOAD_BITS = 16

_PAYLOAD_MASK = (1 << MRS_PAYLOAD_BITS) - 1


class ModeRegisterFile:
    """Controller-side shadow of the mode registers every rank holds.

    ``mask`` is the sub-array-gate mask (bit i = group i gated) that all
    ranks latched with the last broadcast; ``commands`` counts the MRS
    writes issued so far, summed over the ranks.
    """

    def __init__(self, total_ranks: int, mask_bits: int = 64):
        if total_ranks <= 0:
            raise ConfigurationError("need at least one rank")
        if mask_bits % MRS_PAYLOAD_BITS:
            raise ConfigurationError(
                "mask width must be a multiple of the MRS payload")
        self.total_ranks = total_ranks
        self.mask_bits = mask_bits
        self.mask = 0
        self.commands = 0

    def broadcast_gate_mask(self, mask: int) -> float:
        """Program every rank with *mask*; returns the MRS latency (ns).

        Only the changed 16-bit slices are written, one MRS command per
        slice per rank.  Ranks on different channels program in
        parallel, so the latency is one rank's slice count times tMRD.
        """
        if mask >> self.mask_bits:
            raise ConfigurationError("mask wider than the register")
        diff = self.mask ^ mask
        slices = 0
        while diff:
            if diff & _PAYLOAD_MASK:
                slices += 1
            diff >>= MRS_PAYLOAD_BITS
        self.mask = mask
        self.commands += self.total_ranks * slices
        return slices * TMRD_NS

    # --- checkpoint/restore -----------------------------------------------------

    def state_dict(self) -> Dict[str, int]:
        return {"mask": self.mask, "commands": self.commands}

    def load_state_dict(self, state: Dict[str, int]) -> None:
        self.mask = state["mask"]
        self.commands = state["commands"]
