"""DDR4 timing parameters."""

import pytest

from repro.dram.timing import DDR4Timing, DDR4_2133, DDR4_2133_8GB
from repro.errors import ConfigurationError


class TestPaperLatencies:
    """The two wake-up figures Section 2.2 quotes."""

    def test_powerdown_exit_is_18ns(self):
        assert DDR4_2133.txp_ns == 18.0

    def test_selfrefresh_exit_is_768ns(self):
        assert DDR4_2133.txs_ns == 768.0


class TestDerived:
    def test_data_rate(self):
        assert DDR4_2133.data_rate_mtps == pytest.approx(2133.33, rel=1e-3)

    def test_channel_bandwidth_about_17gb(self):
        bw = DDR4_2133.channel_peak_bandwidth_bytes_per_s
        assert 16e9 < bw < 18e9

    def test_burst_duration_four_clocks(self):
        assert DDR4_2133.burst_duration_ns == pytest.approx(4 * 0.9375)

    def test_random_access_latency_reasonable(self):
        lat = DDR4_2133.random_access_latency_ns
        assert 25 < lat < 50

    def test_refresh_duty_cycle(self):
        assert DDR4_2133.refresh_duty_cycle == pytest.approx(260 / 7800)
        assert DDR4_2133_8GB.refresh_duty_cycle == pytest.approx(350 / 7800)

    def test_ns_conversion(self):
        assert DDR4_2133.ns(18.0) == pytest.approx(18e-9)


class TestValidation:
    def test_rejects_zero_clock(self):
        with pytest.raises(ConfigurationError):
            DDR4Timing(name="bad", tck_ns=0.0, cl_ns=14, trcd_ns=14,
                       trp_ns=14, tras_ns=33, trfc_ns=260)

    def test_rejects_selfrefresh_faster_than_powerdown(self):
        with pytest.raises(ConfigurationError):
            DDR4Timing(name="bad", tck_ns=0.9375, cl_ns=14, trcd_ns=14,
                       trp_ns=14, tras_ns=33, trfc_ns=260,
                       txp_ns=100.0, txs_ns=50.0)
