"""Tests for the timed cache hierarchy."""

import pytest

from repro.cachesim import BandwidthModel, CacheHierarchy
from repro.errors import SimulationError
from repro.hwpref import PCStridePrefetcher
from repro.trace import MemOp, MemoryTrace


def loads(addrs, pc=0):
    return MemoryTrace.loads([pc] * len(addrs), addrs)


class TestDemandPath:
    def test_cold_misses_fill_all_levels(self, tiny_machine):
        h = CacheHierarchy(tiny_machine)
        t = loads([0, 64, 128])
        s = h.run(t)
        assert s.l1.misses == 3
        assert s.llc.misses == 3
        assert s.dram_fills == 3
        assert h.l1.contains(0) and h.l2.contains(0) and h.llc.contains(0)

    def test_l1_hit_on_reuse(self, tiny_machine):
        h = CacheHierarchy(tiny_machine)
        s = h.run(loads([0, 0, 0]))
        assert s.l1.misses == 1
        assert s.l1.accesses == 3

    def test_l2_service_after_l1_eviction(self, tiny_machine):
        h = CacheHierarchy(tiny_machine)
        # L1 = 16 lines 2-way (8 sets); lines 0,8,16 map to set 0
        s = h.run(loads([0, 8 * 64, 16 * 64, 0]))
        # final access to 0: evicted from L1 (3 lines in set 0), hits L2
        assert s.l2.accesses >= 1
        assert s.dram_fills == 3

    def test_cycles_monotonic_with_misses(self, tiny_machine):
        h1 = CacheHierarchy(tiny_machine)
        hits = h1.run(loads([0] * 100))
        h2 = CacheHierarchy(tiny_machine)
        misses = h2.run(loads([i * 64 for i in range(100)]))
        assert misses.cycles > hits.cycles

    def test_store_marks_dirty_and_drains(self, tiny_machine):
        h = CacheHierarchy(tiny_machine)
        t = MemoryTrace([0], [0], [MemOp.STORE])
        s = h.run(t)
        assert s.dram_writebacks == 0
        h.drain_writebacks(s)
        assert s.dram_writebacks == 1

    def test_drain_counts_each_dirty_line_once(self, tiny_machine):
        h = CacheHierarchy(tiny_machine)
        t = MemoryTrace([0, 0], [0, 0], [MemOp.STORE, MemOp.STORE])
        s = h.run(t)
        h.drain_writebacks(s)
        assert s.dram_writebacks == 1

    def test_mlp_reduces_stalls(self, tiny_machine):
        t = loads([i * 64 for i in range(200)])
        slow = CacheHierarchy(tiny_machine).run(t, mlp=1.0)
        fast = CacheHierarchy(tiny_machine).run(t, mlp=8.0)
        assert fast.cycles < slow.cycles

    def test_bad_mlp_rejected(self, tiny_machine):
        with pytest.raises(SimulationError):
            CacheHierarchy(tiny_machine).run(loads([0]), mlp=0.5)

    def test_bad_work_rejected(self, tiny_machine):
        with pytest.raises(SimulationError):
            CacheHierarchy(tiny_machine).run(loads([0]), work_per_memop=-1)

    def test_per_pc_stats(self, tiny_machine):
        h = CacheHierarchy(tiny_machine)
        t = MemoryTrace([0, 1, 0], [0, 64, 0], [0, 0, 0])
        s = h.run(t)
        assert s.pc_l1.accesses == {0: 2, 1: 1}
        assert s.pc_l1.misses == {0: 1, 1: 1}


class TestSoftwarePrefetch:
    def _trace_with_prefetch(self, distance=192, nta=False, n=200):
        """Stride-64 loads, each preceded by a prefetch `distance` ahead."""
        pcs, addrs, ops = [], [], []
        op = MemOp.PREFETCH_NTA if nta else MemOp.PREFETCH
        for i in range(n):
            pcs += [0, 0]
            addrs += [i * 64 + distance, i * 64]
            ops += [op, MemOp.LOAD]
        return MemoryTrace(pcs, addrs, ops)

    def test_timely_prefetch_removes_misses(self, tiny_machine):
        t = self._trace_with_prefetch()
        s = CacheHierarchy(tiny_machine).run(t, work_per_memop=20.0)
        # after the warmup window, demand accesses hit
        assert s.l1.misses < 25
        assert s.sw_useful > 150

    def test_prefetch_speeds_up(self, tiny_machine):
        base = CacheHierarchy(tiny_machine).run(
            loads([i * 64 for i in range(200)]), work_per_memop=20.0
        )
        pf = CacheHierarchy(tiny_machine).run(
            self._trace_with_prefetch(), work_per_memop=20.0
        )
        assert pf.cycles < base.cycles

    def test_late_prefetch_counted(self, tiny_machine):
        # distance 64 = 1 line ahead -> prefetch completes after demand
        t = self._trace_with_prefetch(distance=64)
        s = CacheHierarchy(tiny_machine).run(t, work_per_memop=0.0)
        assert s.sw_late > 0

    def test_nta_bypasses_outer_levels(self, tiny_machine):
        t = self._trace_with_prefetch(nta=True)
        h = CacheHierarchy(tiny_machine)
        s = h.run(t, work_per_memop=20.0)
        # NTA-prefetched lines must never be installed in L2/LLC by the
        # prefetch itself; L2 contents stem only from demand misses.
        assert s.l1.misses < 25
        demand_missed_lines = s.l1.misses
        assert len(h.l2) <= demand_missed_lines

    def test_useless_prefetch_counted(self, tiny_machine):
        # prefetch lines that are never demanded, far apart
        pcs, addrs, ops = [], [], []
        for i in range(64):
            pcs += [0, 0]
            addrs += [1 << 20 | (i * 64 * 16), i * 64]
            ops += [MemOp.PREFETCH, MemOp.LOAD]
        s = CacheHierarchy(tiny_machine).run(MemoryTrace(pcs, addrs, ops))
        assert s.sw_useless > 0

    def test_prefetch_instruction_cost_charged(self, tiny_machine):
        t_pf = MemoryTrace([0, 0], [64, 0], [MemOp.PREFETCH, MemOp.LOAD])
        t_plain = MemoryTrace([0], [0], [MemOp.LOAD])
        c_pf = CacheHierarchy(tiny_machine).run(t_pf)
        c_plain = CacheHierarchy(tiny_machine).run(t_plain)
        assert c_pf.cycles > c_plain.cycles


class TestHardwarePrefetch:
    def test_stride_prefetcher_reduces_misses(self, tiny_machine):
        pf = PCStridePrefetcher(degree=2, distance_lines=2)
        t = loads([i * 64 for i in range(300)])
        base = CacheHierarchy(tiny_machine).run(t, work_per_memop=20.0)
        hw = CacheHierarchy(tiny_machine, prefetcher=pf).run(t, work_per_memop=20.0)
        assert hw.hw_prefetches > 0
        assert hw.cycles < base.cycles

    def test_hw_prefetch_traffic_counted(self, tiny_machine):
        pf = PCStridePrefetcher(degree=4, distance_lines=4)
        # short bursts: overshoot wastes fetches
        addrs = []
        for b in range(40):
            addrs += [b * 1 << 16 | (k * 64) for k in range(4)]
        t = loads(addrs)
        base = CacheHierarchy(tiny_machine).run(t)
        hw = CacheHierarchy(tiny_machine, prefetcher=pf).run(t)
        assert hw.dram_fills > base.dram_fills
        assert hw.hw_useless > 0


class TestSharedState:
    def test_shared_bandwidth_model(self, tiny_machine):
        bw = BandwidthModel(tiny_machine.bytes_per_cycle())
        h1 = CacheHierarchy(tiny_machine, bandwidth=bw)
        h2 = CacheHierarchy(tiny_machine, bandwidth=bw)
        h1.run(loads([i * 64 for i in range(10)]))
        h2.run(loads([(1 << 20) + i * 64 for i in range(10)]))
        assert bw.total_bytes == 20 * 64
