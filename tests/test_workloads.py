"""Workload traces, profiles, and the Azure generator."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.units import GIB, MIB
from repro.workloads import (
    AccessTraceGenerator,
    AzureTraceGenerator,
    AzureVMCatalog,
    EVALUATION_SET,
    FootprintTrace,
    all_profiles,
    oscillating_trace,
    profile_by_name,
)
from repro.workloads.profiles import Suite
from repro.workloads.spec import BLOCKSIZE_STUDY_SET, SPEC_PROFILES, high_mpki_spec2006


class TestFootprintTrace:
    def test_interpolation(self):
        trace = FootprintTrace.of([(0, 0), (10, 1000)])
        assert trace.at(5) == 500
        assert trace.at(-1) == 0
        assert trace.at(99) == 1000

    def test_peak(self):
        trace = FootprintTrace.of([(0, 5), (1, 50), (2, 10)])
        assert trace.peak_bytes == 50

    def test_requires_sorted(self):
        with pytest.raises(ConfigurationError):
            FootprintTrace.of([(5, 0), (1, 0)])

    def test_scaled(self):
        trace = FootprintTrace.of([(0, 100)]).scaled(2.5)
        assert trace.at(0) == 250

    @given(st.floats(min_value=0.0, max_value=600.0))
    @settings(max_examples=50, deadline=None)
    def test_oscillation_within_bounds(self, t):
        trace = oscillating_trace(600.0, 100 * MIB, 500 * MIB, cycles=7)
        assert 100 * MIB <= trace.at(t) <= 500 * MIB

    def test_oscillation_reaches_extremes(self):
        trace = oscillating_trace(600.0, 100, 500, cycles=4)
        values = [trace.at(t / 2) for t in range(1200)]
        assert min(values) == 100
        assert max(values) == 500

    def test_oscillation_validation(self):
        with pytest.raises(ConfigurationError):
            oscillating_trace(600.0, 500, 100, cycles=4)


class TestAccessGenerator:
    def test_generates_count(self):
        gen = AccessTraceGenerator(64 * MIB, rate_per_s=1e6)
        reqs = gen.generate(500)
        assert len(reqs) == 500
        assert all(r.arrival_ns >= 0 for r in reqs)

    def test_addresses_within_footprint(self):
        gen = AccessTraceGenerator(MIB, rate_per_s=1e6,
                                   region_offset=4 * MIB)
        for req in gen.generate(300):
            assert 4 * MIB <= req.address < 5 * MIB

    def test_arrival_rate_matches(self):
        gen = AccessTraceGenerator(64 * MIB, rate_per_s=1e6,
                                   rng=random.Random(1))
        reqs = gen.generate(5000)
        span_s = reqs[-1].arrival_ns * 1e-9
        assert 5000 / span_s == pytest.approx(1e6, rel=0.1)

    def test_write_fraction(self):
        gen = AccessTraceGenerator(64 * MIB, rate_per_s=1e6,
                                   write_fraction=0.5,
                                   rng=random.Random(2))
        writes = sum(r.is_write for r in gen.generate(2000))
        assert writes == pytest.approx(1000, rel=0.15)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AccessTraceGenerator(16, rate_per_s=1e6)
        with pytest.raises(ConfigurationError):
            AccessTraceGenerator(MIB, rate_per_s=0)
        with pytest.raises(ConfigurationError):
            AccessTraceGenerator(MIB, rate_per_s=1e6, locality=2.0)


class TestProfileCatalog:
    def test_all_profiles_nonempty(self):
        profiles = all_profiles()
        assert len(profiles) >= 15

    def test_lookup_by_name(self):
        assert profile_by_name("429.mcf").suite is Suite.SPEC2006
        assert profile_by_name("ml_linear").suite is Suite.HIBENCH

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            profile_by_name("999.nothing")

    def test_evaluation_set_resolvable(self):
        for name in EVALUATION_SET:
            profile_by_name(name)

    def test_blocksize_study_set_resolvable(self):
        for name in BLOCKSIZE_STUDY_SET:
            assert name in SPEC_PROFILES

    def test_high_mpki_set_is_memory_intensive(self):
        for profile in high_mpki_spec2006():
            assert profile.memory_intensive

    def test_povray_is_cpu_bound(self):
        assert not profile_by_name("453.povray").memory_intensive

    def test_libquantum_floor_footprint_64mb(self):
        # The paper calls out libquantum's 64MB footprint explicitly.
        trace = profile_by_name("462.libquantum").footprint
        assert min(b for _t, b in trace.points) == 64 * MIB

    def test_mcf_peak_footprint(self):
        assert profile_by_name("429.mcf").peak_footprint_bytes == pytest.approx(
            1.7 * GIB, rel=0.01)

    def test_latency_critical_services_marked(self):
        for name in ("data-caching", "data-serving", "web-serving"):
            assert profile_by_name(name).latency_critical

    def test_profiles_have_positive_durations(self):
        for profile in all_profiles().values():
            assert profile.duration_s > 0
            assert profile.peak_footprint_bytes > 0


class TestAzureGenerator:
    def test_catalog_has_100_types(self):
        assert len(AzureVMCatalog().types) == 100

    def test_figure1_calibration(self):
        trace = AzureTraceGenerator(seed=7).generate()
        assert trace.mean_utilization == pytest.approx(0.48, abs=0.06)
        fractions = [s.used_bytes / trace.capacity_bytes
                     for s in trace.samples]
        assert min(fractions) < 0.15
        assert max(fractions) > 0.70

    def test_respects_capacity(self):
        trace = AzureTraceGenerator(seed=11).generate()
        assert all(s.used_bytes <= trace.capacity_bytes for s in trace.samples)

    def test_respects_consolidation_ratio(self):
        gen = AzureTraceGenerator(seed=13, physical_cores=16)
        trace = gen.generate()
        assert all(s.vcpus_used <= 32 for s in trace.samples)

    def test_events_balanced(self):
        trace = AzureTraceGenerator(seed=17).generate()
        arrivals = sum(1 for e in trace.events if e.kind == "arrive")
        departures = sum(1 for e in trace.events if e.kind == "depart")
        assert arrivals >= departures
        assert arrivals > 50

    def test_deterministic_for_seed(self):
        a = AzureTraceGenerator(seed=19).generate()
        b = AzureTraceGenerator(seed=19).generate()
        assert [s.used_bytes for s in a.samples] == [
            s.used_bytes for s in b.samples]

    def test_lifetimes_bounded(self):
        catalog = AzureVMCatalog()
        rng = random.Random(0)
        for vm_type in catalog.types[:20]:
            for _ in range(5):
                assert 0 < vm_type.sample_lifetime_s(rng) <= 7 * 24 * 3600
