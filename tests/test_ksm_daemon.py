"""ksmd: scanning, merging, CoW, and registration."""

import pytest

from repro.errors import ConfigurationError
from repro.ksm.content import RegionContent, chunk_fingerprint
from repro.ksm.daemon import KSMConfig, KSMDaemon
from repro.ksm.madvise import MADV_UNMERGEABLE, MadviseRegistry
from repro.os.mm import PhysicalMemoryManager
from repro.units import GIB, PAGE_SIZE


def make_setup(total=8 * GIB):
    mm = PhysicalMemoryManager(total_bytes=total)
    return mm, KSMDaemon(mm)


def add_vm(mm, ksm, name, image_id, gib=1, zero=0.15, image=0.35):
    pages = gib * GIB // PAGE_SIZE
    mm.allocate(name, pages)
    ksm.register(RegionContent(owner_id=name, total_pages=pages,
                               image_id=image_id, zero_fraction=zero,
                               image_fraction=image))
    return pages


class TestConfig:
    def test_paper_parameters(self):
        # Section 5.3: 1000 pages per scan, 50ms period, ~10% of a core.
        config = KSMConfig()
        assert config.pages_to_scan == 1000
        assert config.scan_period_s == 0.050
        assert config.cpu_utilization == pytest.approx(0.10)

    def test_rejects_bad_knobs(self):
        with pytest.raises(ConfigurationError):
            KSMConfig(pages_to_scan=0)


class TestFingerprints:
    def test_chunk_fingerprints_shared_across_vms(self):
        assert chunk_fingerprint(3, 7) == chunk_fingerprint(3, 7)
        assert chunk_fingerprint(3, 7) != chunk_fingerprint(4, 7)

    def test_fingerprints_never_zero(self):
        assert chunk_fingerprint(0, 0) != 0


class TestContentRegion:
    def test_composition_sums(self):
        region = RegionContent(owner_id="v", total_pages=10000, image_id=1)
        stats = region.stats()
        assert stats.total_pages == 10000

    def test_scan_progress(self):
        region = RegionContent(owner_id="v", total_pages=1000, image_id=1)
        zero, chunks = region.advance_scan(500)
        assert zero == pytest.approx(75, abs=1)
        assert region.scanned_pages == 500
        assert not region.pass_complete
        region.advance_scan(500)
        assert region.pass_complete

    def test_scan_caps_at_region_end(self):
        region = RegionContent(owner_id="v", total_pages=100, image_id=1)
        region.advance_scan(1000)
        zero, chunks = region.advance_scan(10)
        assert zero == 0 and chunks == ()

    def test_reset_pass(self):
        region = RegionContent(owner_id="v", total_pages=100, image_id=1)
        region.advance_scan(100)
        region.reset_pass()
        assert region.scanned_pages == 0


class TestMerging:
    def test_zero_pages_merge_within_one_vm(self):
        mm, ksm = make_setup()
        add_vm(mm, ksm, "vm0", image_id=0, zero=0.3, image=0.0)
        before = mm.used_pages
        for _ in range(60):
            ksm.step(1.0)
        saved = before - mm.used_pages
        # ~30% of the region is zero pages; nearly all should merge.
        assert saved > 0.25 * before

    def test_same_image_vms_share_chunks(self):
        mm, ksm = make_setup()
        add_vm(mm, ksm, "vm0", image_id=1, zero=0.0, image=0.5)
        add_vm(mm, ksm, "vm1", image_id=1, zero=0.0, image=0.5)
        for _ in range(120):
            ksm.step(1.0)
        # One VM's worth of image pages should be deduplicated.
        assert ksm.stats.pages_merged > 0.2 * (GIB // PAGE_SIZE)

    def test_different_images_do_not_merge(self):
        mm, ksm = make_setup()
        add_vm(mm, ksm, "vm0", image_id=1, zero=0.0, image=0.5)
        add_vm(mm, ksm, "vm1", image_id=2, zero=0.0, image=0.5)
        for _ in range(120):
            ksm.step(1.0)
        assert ksm.stats.pages_merged == 0

    def test_unique_pages_never_merge(self):
        mm, ksm = make_setup()
        add_vm(mm, ksm, "vm0", image_id=1, zero=0.0, image=0.0)
        add_vm(mm, ksm, "vm1", image_id=1, zero=0.0, image=0.0)
        for _ in range(60):
            ksm.step(1.0)
        assert ksm.stats.pages_merged == 0

    def test_pass_completion_flag(self):
        mm, ksm = make_setup()
        add_vm(mm, ksm, "vm0", image_id=1)
        completed = False
        for _ in range(120):
            ksm.step(1.0)
            completed = completed or ksm.pass_just_completed
        assert completed
        assert ksm.stats.passes_completed >= 1

    def test_saved_pages_accounting(self):
        mm, ksm = make_setup()
        add_vm(mm, ksm, "vm0", image_id=1, zero=0.3)
        for _ in range(60):
            ksm.step(1.0)
        assert ksm.total_saved_pages > 0


class TestUnregister:
    def test_exit_releases_shares(self):
        mm, ksm = make_setup()
        add_vm(mm, ksm, "vm0", image_id=1)
        add_vm(mm, ksm, "vm1", image_id=1)
        for _ in range(120):
            ksm.step(1.0)
        both = ksm.total_saved_pages
        share = ksm._shares["vm1"].merged_pages
        assert share > 0
        ksm.unregister("vm1")
        mm.free_all("vm1")
        assert "vm1" not in ksm.registry
        assert "vm1" not in ksm._shares
        # vm0's shares survive; only vm1's leave the accounting.
        assert ksm.total_saved_pages == both - share

    def test_unregister_unknown_is_noop(self):
        _mm, ksm = make_setup()
        ksm.unregister("ghost")

    def test_step_with_no_regions(self):
        _mm, ksm = make_setup()
        assert ksm.step(1.0) == 0


class TestMadvise:
    def test_registry_rejects_duplicates(self):
        registry = MadviseRegistry()
        region = RegionContent(owner_id="a", total_pages=10, image_id=0)
        registry.madvise(region)
        with pytest.raises(ConfigurationError):
            registry.madvise(region)

    def test_unmergeable_removes(self):
        registry = MadviseRegistry()
        region = RegionContent(owner_id="a", total_pages=10, image_id=0)
        registry.madvise(region)
        registry.madvise(region, advice=MADV_UNMERGEABLE)
        assert "a" not in registry

    def test_total_pages(self):
        registry = MadviseRegistry()
        registry.madvise(RegionContent(owner_id="a", total_pages=10, image_id=0))
        registry.madvise(RegionContent(owner_id="b", total_pages=32, image_id=0))
        assert registry.total_pages == 42


class TestChecksumStability:
    """ksmd only trusts pages whose checksum held across passes."""

    def test_volatile_content_never_merges(self):
        mm, ksm = make_setup()
        pages = GIB // PAGE_SIZE
        for name in ("vm0", "vm1"):
            mm.allocate(name, pages)
            ksm.register(RegionContent(owner_id=name, total_pages=pages,
                                       image_id=1, zero_fraction=0.0,
                                       image_fraction=0.5,
                                       volatile_fraction=1.0))
        for _ in range(120):
            ksm.step(1.0)
        assert ksm.stats.pages_merged == 0

    def test_partial_volatility_reduces_merging(self):
        def merged_with(volatile):
            mm, ksm = make_setup()
            pages = GIB // PAGE_SIZE
            for name in ("vm0", "vm1"):
                mm.allocate(name, pages)
                ksm.register(RegionContent(
                    owner_id=name, total_pages=pages, image_id=1,
                    zero_fraction=0.2, image_fraction=0.4,
                    volatile_fraction=volatile))
            for _ in range(120):
                ksm.step(1.0)
            return ksm.stats.pages_merged

        quiet = merged_with(0.0)
        hot = merged_with(0.5)
        assert 0 < hot < quiet

    def test_volatility_is_content_deterministic(self):
        a = RegionContent(owner_id="a", total_pages=1000, image_id=3,
                          volatile_fraction=0.4)
        b = RegionContent(owner_id="b", total_pages=9999, image_id=3,
                          volatile_fraction=0.4)
        for chunk in range(64):
            assert a.chunk_is_volatile(chunk) == b.chunk_is_volatile(chunk)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RegionContent(owner_id="a", total_pages=10, image_id=0,
                          volatile_fraction=1.5)
