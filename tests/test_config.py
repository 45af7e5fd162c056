"""Tests for machine and cache configuration."""

import pytest

from repro.config import (
    CacheConfig,
    MachineConfig,
    amd_phenom_ii,
    get_machine,
    intel_i7_2600k,
)
from repro.errors import ConfigError


class TestCacheConfig:
    def test_geometry_derivation(self):
        c = CacheConfig("L1", 64 * 1024, ways=2, line_bytes=64)
        assert c.num_lines == 1024
        assert c.num_sets == 512

    def test_fully_associative(self):
        c = CacheConfig("T", 4096, ways=64, line_bytes=64)
        assert c.num_sets == 1

    def test_rejects_nonpow2_line(self):
        with pytest.raises(ConfigError):
            CacheConfig("T", 4096, ways=2, line_bytes=48)

    def test_rejects_indivisible_size(self):
        with pytest.raises(ConfigError):
            CacheConfig("T", 4096 + 64, ways=2, line_bytes=64)

    def test_rejects_zero_size(self):
        with pytest.raises(ConfigError):
            CacheConfig("T", 0, ways=2)

    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigError):
            CacheConfig("T", 4096, ways=2, hit_latency=-1)


class TestMachineConfig:
    def test_paper_table2_amd(self):
        m = amd_phenom_ii()
        assert m.l1.size_bytes == 64 * 1024
        assert m.l2.size_bytes == 512 * 1024
        assert m.llc.size_bytes == 6 * 1024 * 1024
        assert m.freq_ghz == pytest.approx(2.8)

    def test_paper_table2_intel(self):
        m = intel_i7_2600k()
        assert m.l1.size_bytes == 32 * 1024
        assert m.l2.size_bytes == 256 * 1024
        assert m.llc.size_bytes == 8 * 1024 * 1024
        assert m.freq_ghz == pytest.approx(3.4)
        # paper §VII-E: STREAM measures 15.6 GB/s
        assert m.peak_bandwidth_gbs == pytest.approx(15.6)

    def test_levels_ordering(self, amd):
        assert amd.l1.size_bytes < amd.l2.size_bytes < amd.llc.size_bytes

    def test_bytes_per_cycle(self, intel):
        bpc = intel.bytes_per_cycle()
        assert bpc == pytest.approx(15.6 / 3.4, rel=1e-6)

    def test_avg_memory_latency_positive(self, amd, intel):
        assert amd.avg_memory_latency > amd.l2.hit_latency
        assert intel.avg_memory_latency < intel.dram_latency

    def test_rejects_shrinking_hierarchy(self):
        with pytest.raises(ConfigError):
            MachineConfig(
                name="bad",
                l1=CacheConfig("L1", 64 * 1024, ways=2),
                l2=CacheConfig("L2", 32 * 1024, ways=2),
                llc=CacheConfig("LLC", 1024 * 1024, ways=16),
            )

    def test_rejects_mixed_line_sizes(self):
        with pytest.raises(ConfigError):
            MachineConfig(
                name="bad",
                l1=CacheConfig("L1", 32 * 1024, ways=2, line_bytes=32),
                l2=CacheConfig("L2", 64 * 1024, ways=2, line_bytes=64),
                llc=CacheConfig("LLC", 1024 * 1024, ways=16, line_bytes=64),
            )


class TestRegistry:
    def test_get_machine(self):
        assert get_machine("amd-phenom-ii").name == "amd-phenom-ii"
        assert get_machine("intel-i7-2600k").name == "intel-i7-2600k"

    def test_unknown_machine(self):
        with pytest.raises(ConfigError, match="unknown machine"):
            get_machine("sparc")
