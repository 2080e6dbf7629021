"""Analytic performance model: interleaving speedups and daemon overhead."""

import pytest

from repro.dram.organization import spec_server_memory
from repro.errors import ConfigurationError
from repro.sim.perfmodel import (
    MemorySystemPoint,
    PerformanceModel,
    interleaved_point,
    non_interleaved_point,
)
from repro.workloads import profile_by_name

ORG = spec_server_memory()
PERF = PerformanceModel()


class TestOperatingPoints:
    def test_interleaved_has_more_mlp(self):
        on = interleaved_point(ORG)
        off = non_interleaved_point(ORG)
        assert on.effective_mlp > off.effective_mlp
        assert on.latency_ns < off.latency_ns
        assert on.bandwidth_cap_bytes_per_s > off.bandwidth_cap_bytes_per_s

    def test_point_validation(self):
        with pytest.raises(ConfigurationError):
            MemorySystemPoint(name="bad", latency_ns=0.0, effective_mlp=1.0,
                              bandwidth_cap_bytes_per_s=1e9)


class TestSpeedups:
    def test_memory_intensive_speedup_near_paper(self):
        """Figure 3a: interleaving speeds lbm-class workloads up ~3.8x."""
        lbm = profile_by_name("470.lbm")
        speedup = PERF.speedup_from_interleaving(lbm, ORG, n_copies=16)
        assert 2.5 <= speedup <= 5.5

    def test_cpu_bound_barely_affected(self):
        povray = profile_by_name("453.povray")
        speedup = PERF.speedup_from_interleaving(povray, ORG, n_copies=16)
        assert speedup < 1.3

    def test_speedup_ordering_follows_mpki(self):
        ordered = [PERF.speedup_from_interleaving(profile_by_name(n), ORG)
                   for n in ("453.povray", "403.gcc", "470.lbm")]
        assert ordered[0] < ordered[1] < ordered[2]

    def test_runtime_scales_with_point(self):
        mcf = profile_by_name("429.mcf")
        on = interleaved_point(ORG)
        off = non_interleaved_point(ORG)
        assert PERF.runtime_s(mcf, on) == pytest.approx(mcf.duration_s)
        assert PERF.runtime_s(mcf, off) > mcf.duration_s

    def test_wake_penalty_slows_down(self):
        mcf = profile_by_name("429.mcf")
        clean = interleaved_point(ORG)
        woken = interleaved_point(ORG, wake_penalty_ns=500.0)
        assert PERF.cpi(mcf, woken) > PERF.cpi(mcf, clean)

    def test_bandwidth_saturation_inflates_cpi(self):
        lbm = profile_by_name("470.lbm")
        on = interleaved_point(ORG)
        assert PERF.cpi(lbm, on, n_copies=32) > PERF.cpi(lbm, on, n_copies=1)


class TestGreenDIMMOverhead:
    def test_overhead_bounded_at_paper_cap(self):
        for name in ("429.mcf", "403.gcc", "470.lbm", "453.povray"):
            profile = profile_by_name(name)
            overhead = PERF.greendimm_overhead_fraction(
                profile, offline_events=500, online_events=500,
                elapsed_s=600.0)
            assert overhead <= 0.035

    def test_no_events_no_overhead(self):
        mcf = profile_by_name("429.mcf")
        assert PERF.greendimm_overhead_fraction(mcf, 0, 0, 600.0) == 0.0

    def test_overhead_grows_with_event_rate(self):
        gcc = profile_by_name("403.gcc")
        low = PERF.greendimm_overhead_fraction(gcc, 10, 10, 600.0)
        high = PERF.greendimm_overhead_fraction(gcc, 50, 50, 600.0)
        assert high > low

    def test_memory_sensitivity_matters(self):
        sensitive = PERF.greendimm_overhead_fraction(
            profile_by_name("429.mcf"), 20, 20, 600.0)
        insensitive = PERF.greendimm_overhead_fraction(
            profile_by_name("453.povray"), 20, 20, 600.0)
        assert sensitive > insensitive

    def test_mcf_block_size_shape(self):
        """Figure 7's direction: more events (smaller blocks) cost more."""
        mcf = profile_by_name("429.mcf")
        small_blocks = PERF.greendimm_overhead_fraction(mcf, 6, 13, 600.0)
        large_blocks = PERF.greendimm_overhead_fraction(mcf, 1, 4, 600.0)
        assert small_blocks > large_blocks
        assert small_blocks < 0.035
