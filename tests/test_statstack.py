"""Tests for the StatStack cache model."""

import numpy as np
import pytest

from repro.cachesim import FunctionalCacheSim
from repro.config import CacheConfig
from repro.errors import ModelError
from repro.sampling import RuntimeSampler, ReuseSampleSet, collect_reuse_samples
from repro.statstack import StatStackModel
from repro.trace import MemoryTrace
from repro.trace.synthesis import chase_pattern, strided_pattern


def full_samples(trace, line_bytes=64):
    """Sample every reference (exact reuse distribution)."""
    n = trace.n_demand
    return collect_reuse_samples(trace, np.arange(n), line_bytes)


class TestStackDistanceMath:
    def test_stream_never_reuses(self):
        # pure cold stream: every sample dangles -> mr == 1 at any size
        t = MemoryTrace.loads(np.zeros(1000, np.int64), np.arange(1000) * 64)
        m = StatStackModel(full_samples(t))
        assert m.miss_ratio(64 * 1024) == pytest.approx(1.0)

    def test_tight_reuse_always_hits(self):
        # same line over and over -> rd 0 -> hits in any cache >= 1 line
        t = MemoryTrace.loads(np.zeros(1000, np.int64), np.zeros(1000, np.int64))
        m = StatStackModel(full_samples(t))
        assert m.miss_ratio(64) < 0.01

    def test_expected_stack_distance_monotone(self):
        t = MemoryTrace.loads(
            np.zeros(5000, np.int64), strided_pattern(0, 5000, 64, wrap_bytes=1 << 16)
        )
        m = StatStackModel(full_samples(t))
        d = np.array([1, 10, 100, 1000])
        sd = m._tail.stack_distance(d)
        assert np.all(np.diff(sd) >= 0)
        assert sd[0] <= 1.0 + 1e-9

    def test_loop_knee_location(self):
        # loop over exactly 128 lines: stack distance of every reuse is
        # 127 -> misses iff cache < 128 lines (8 kB)
        t = MemoryTrace.loads(
            np.zeros(6400, np.int64), strided_pattern(0, 6400, 64, wrap_bytes=128 * 64)
        )
        m = StatStackModel(full_samples(t))
        assert m.miss_ratio(64 * 64) > 0.9  # 64-line cache: misses
        assert m.miss_ratio(256 * 64) < 0.1  # 256-line cache: hits

    def test_rejects_empty(self):
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(ModelError):
            StatStackModel(ReuseSampleSet(empty, empty.copy(), empty.copy(), 0))

    def test_rejects_bad_line_size(self):
        t = MemoryTrace.loads([0, 0], [0, 0])
        with pytest.raises(ModelError):
            StatStackModel(full_samples(t), line_bytes=100)

    def test_miss_ratio_monotone_in_size(self):
        t = MemoryTrace.loads(
            np.zeros(8000, np.int64), strided_pattern(0, 8000, 64, wrap_bytes=1 << 19)
        )
        m = StatStackModel(full_samples(t))
        sizes = [4 * 1024, 64 * 1024, 512 * 1024, 4 << 20]
        ratios = [m.miss_ratio(s) for s in sizes]
        assert all(a >= b - 1e-9 for a, b in zip(ratios, ratios[1:]))


class TestPerPC:
    def test_pc_attribution(self):
        # pc 0 streams (never reuses), pc 1 hammers one line
        n = 2000
        pc = np.tile([0, 1], n // 2)
        addr = np.empty(n, np.int64)
        addr[0::2] = np.arange(n // 2) * 64
        addr[1::2] = 1 << 30
        t = MemoryTrace.loads(pc, addr)
        m = StatStackModel(full_samples(t))
        assert m.pc_miss_ratio(0, 64 * 1024) > 0.9
        assert m.pc_miss_ratio(1, 64 * 1024) < 0.1

    def test_unknown_pc_is_zero(self):
        t = MemoryTrace.loads([0, 0], [0, 0])
        m = StatStackModel(full_samples(t))
        assert m.pc_miss_ratio(99, 1024) == 0.0

    def test_sample_weight_sums_to_one(self):
        t = MemoryTrace.loads([0, 1, 0, 1] * 100, list(range(400)))
        m = StatStackModel(full_samples(t))
        total = sum(m.pc_sample_weight(pc) for pc in m.modelled_pcs())
        assert total == pytest.approx(1.0)


class TestAgainstFunctionalSim:
    """StatStack vs exact simulation — the paper's §IV validation."""

    @pytest.mark.parametrize("size_kb", [8, 64, 512])
    def test_strided_resweep(self, size_kb):
        t = MemoryTrace.loads(
            np.zeros(120_000, np.int64),
            strided_pattern(0, 120_000, 16, wrap_bytes=256 * 1024),
        )
        sampling = RuntimeSampler(rate=5e-3, seed=2).sample(t)
        model = StatStackModel(sampling.reuse)
        sim = FunctionalCacheSim(
            CacheConfig("T", size_kb * 1024, ways=min(16, size_kb * 16))
        )
        sim.run(t)
        assert model.miss_ratio(size_kb * 1024) == pytest.approx(
            sim.miss_ratio(), abs=0.05
        )

    def test_chase_working_set(self, rng):
        addr = chase_pattern(rng, 0, 3000, 90_000, node_bytes=64)
        t = MemoryTrace.loads(np.zeros(len(addr), np.int64), addr)
        sampling = RuntimeSampler(rate=5e-3, seed=4).sample(t)
        model = StatStackModel(sampling.reuse)
        # 3000 nodes ~ 192 kB: small cache misses, big cache hits
        sim_small = FunctionalCacheSim(CacheConfig("S", 32 * 1024, ways=8))
        sim_small.run(t)
        sim_big = FunctionalCacheSim(CacheConfig("B", 512 * 1024, ways=8))
        sim_big.run(t)
        assert model.miss_ratio(32 * 1024) == pytest.approx(
            sim_small.miss_ratio(), abs=0.08
        )
        assert model.miss_ratio(512 * 1024) == pytest.approx(
            sim_big.miss_ratio(), abs=0.08
        )
