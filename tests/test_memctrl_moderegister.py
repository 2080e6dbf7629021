"""Mode-register file: the MRS path behind gating updates."""

import pytest

from repro.core.mapping import PowerBlockMap
from repro.core.power_control import GreenDIMMPowerControl
from repro.dram.address import AddressMapping
from repro.dram.organization import spec_server_memory
from repro.errors import ConfigurationError
from repro.memctrl.moderegister import (
    MRS_PAYLOAD_BITS,
    ModeRegisterFile,
    TMRD_NS,
)
from repro.units import GIB


class TestModeRegisterFile:
    def test_initial_state(self):
        mrf = ModeRegisterFile(total_ranks=4)
        assert mrf.mask == 0
        assert mrf.commands == 0

    def test_single_slice_update_costs_one_mrs(self):
        mrf = ModeRegisterFile(total_ranks=1)
        latency = mrf.broadcast_gate_mask(1)
        assert latency == pytest.approx(TMRD_NS)
        assert mrf.commands == 1

    def test_multi_slice_update(self):
        mrf = ModeRegisterFile(total_ranks=1)
        # Bits in slices 0 and 3 -> two MRS writes.
        mask = 1 | (1 << (3 * MRS_PAYLOAD_BITS))
        latency = mrf.broadcast_gate_mask(mask)
        assert latency == pytest.approx(2 * TMRD_NS)

    def test_unchanged_mask_is_free(self):
        mrf = ModeRegisterFile(total_ranks=1)
        mrf.broadcast_gate_mask(0xFF)
        assert mrf.broadcast_gate_mask(0xFF) == 0.0
        assert mrf.commands == 1

    def test_incremental_update_touches_changed_slice_only(self):
        mrf = ModeRegisterFile(total_ranks=1)
        mrf.broadcast_gate_mask(0x1)
        latency = mrf.broadcast_gate_mask(0x3)  # same slice
        assert latency == pytest.approx(TMRD_NS)

    def test_broadcast_keeps_ranks_lockstep(self):
        # Every rank latches the broadcast: each changed slice costs one
        # MRS command per rank, while the latency counts it once.
        mrf = ModeRegisterFile(total_ranks=16)
        assert mrf.broadcast_gate_mask((1 << 40) | 1) == 2 * TMRD_NS
        assert mrf.mask == (1 << 40) | 1
        assert mrf.commands == 16 * 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ModeRegisterFile(total_ranks=0)
        with pytest.raises(ConfigurationError):
            ModeRegisterFile(total_ranks=1, mask_bits=30)
        mrf = ModeRegisterFile(total_ranks=1)
        with pytest.raises(ConfigurationError):
            mrf.broadcast_gate_mask(1 << 64)
        assert mrf.mask == 0 and mrf.commands == 0


class TestPowerControlIntegration:
    def test_gating_programs_every_rank(self):
        org = spec_server_memory()
        control = GreenDIMMPowerControl(
            PowerBlockMap(AddressMapping(org), GIB), pair_gating=False)
        control.block_offlined(7)
        registers = control.mode_registers
        assert registers.mask == control.register.raw_value() == 1 << 7
        assert registers.commands == org.total_ranks
        assert control.mrs_time_ns == TMRD_NS

    def test_ungating_syncs_too(self):
        org = spec_server_memory()
        control = GreenDIMMPowerControl(
            PowerBlockMap(AddressMapping(org), GIB), pair_gating=False)
        control.block_offlined(7)
        control.prepare_online(7)
        assert control.mode_registers.mask == 0
        assert control.mode_registers.commands == 2 * org.total_ranks
        assert control.mrs_time_ns == 2 * TMRD_NS
