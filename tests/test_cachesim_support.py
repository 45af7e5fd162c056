"""Tests for the functional simulator and the bandwidth model."""

import numpy as np
import pytest

from repro.cachesim import BandwidthModel, FunctionalCacheSim
from repro.cachesim.fastlru import FastLRUCache
from repro.cachesim.lru import LRUCache
from repro.config import CacheConfig
from repro.errors import ConfigError
from repro.trace import MemOp, MemoryTrace
from repro.trace.synthesis import strided_pattern


class TestFunctionalSim:
    def test_loop_hits_after_first_sweep(self):
        t = MemoryTrace.loads(
            np.zeros(4096, np.int64), strided_pattern(0, 4096, 64, wrap_bytes=16 * 64)
        )
        stats = FunctionalCacheSim(CacheConfig("T", 64 * 64, ways=4)).run(t)
        assert stats.overall_miss_ratio() < 0.01
        assert stats.miss_ratio(0) == stats.overall_miss_ratio()

    def test_cold_stream_always_misses(self):
        t = MemoryTrace.loads(np.zeros(1000, np.int64), strided_pattern(0, 1000, 64))
        stats = FunctionalCacheSim(CacheConfig("T", 64 * 64, ways=4)).run(t)
        assert stats.overall_miss_ratio() == 1.0

    def test_prefetches_ignored_by_default(self):
        t = MemoryTrace(
            [0, 0], [0, 0], [MemOp.PREFETCH, MemOp.LOAD]
        )
        sim = FunctionalCacheSim(CacheConfig("T", 1024, ways=2))
        stats = sim.run(t)
        assert stats.total_misses() == 1  # prefetch did not warm the cache

    def test_prefetches_honoured_when_requested(self):
        t = MemoryTrace([0, 0], [0, 0], [MemOp.PREFETCH, MemOp.LOAD])
        sim = FunctionalCacheSim(CacheConfig("T", 1024, ways=2))
        stats = sim.run(t, honor_prefetches=True)
        assert stats.total_misses() == 0

    def test_per_pc_attribution(self):
        t = MemoryTrace.loads([7, 8, 7], [0, 64, 0])
        sim = FunctionalCacheSim(CacheConfig("T", 1024, ways=2))
        stats = sim.run(t)
        assert stats.accesses == {7: 2, 8: 1}
        assert stats.misses == {7: 1, 8: 1}

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_prefetch_hit_refreshes_recency(self, backend):
        """Regression: a prefetch to a resident line must promote it.

        Real hardware refreshes the LRU position of a line a prefetch
        hits; the old code probed with ``contains`` and left the line in
        LRU position, so coverage runs under-counted the misses a
        prefetch plan removes.  One full 2-way set, lines A B C:

            load A, load B, prefetch A, load C, load A

        The prefetch promotes A, so C must evict B and the final load
        of A must hit — 3 demand misses, not 4.
        """
        a, b, c = 0, 64, 128
        t = MemoryTrace(
            [0] * 5,
            [a, b, a, c, a],
            [MemOp.LOAD, MemOp.LOAD, MemOp.PREFETCH, MemOp.LOAD, MemOp.LOAD],
        )
        sim = FunctionalCacheSim(CacheConfig("T", 128, ways=2), backend=backend)
        stats = sim.run(t, honor_prefetches=True)
        assert stats.total_misses() == 3
        assert not sim.last_miss[-1]  # the re-load of A hit


class TestAccessBatchFlags:
    """``FastLRUCache.access_batch`` installs with flags 0 and keeps each
    surviving line's own flags, as ``LRUCache`` does, on all three of its
    paths: the dict tail (64 sets), wavefront rounds (256 sets) and the
    2-way kernel."""

    @pytest.mark.parametrize("sets,ways", [(64, 8), (256, 8), (512, 2)])
    def test_flags_follow_lines_after_flagged_ops(self, rng, sets, ways):
        config = CacheConfig("T", sets * ways * 64, ways=ways, line_bytes=64)
        fast, ref = FastLRUCache(config), LRUCache(config)

        def state(cache):
            """Each set's ``(line, flags)`` pairs in LRU -> MRU order."""
            return [list(s.items()) for s in cache._sets]

        for _ in range(3):  # state carries across batches
            n = 4000
            lines = rng.integers(0, sets * ways * 2, n)
            ops = (lines, rng.integers(0, 7, n).astype(np.uint8), rng.integers(1, 32, n))
            fast.ops_batch(*ops)
            ref.ops_batch(*ops)
            lines = rng.integers(0, sets * ways * 3 // 2, n)
            miss, victims = fast.access_batch(lines, collect_victims=True)
            hit, _, _, vic_line, _ = ref.ops_batch(
                lines, np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.int64)
            )
            assert np.array_equal(miss, ~hit)
            assert np.array_equal(victims, vic_line)
            assert any(f for s in state(ref) for _, f in s)  # flags survive to compare
            assert state(fast.to_lru()) == state(ref)
            fast.check_invariants()


class TestBandwidthModel:
    def test_uncontended_transfer_starts_immediately(self):
        bw = BandwidthModel(peak_bytes_per_cycle=2.0)
        start, duration = bw.transfer(100.0, 64)
        assert start == 100.0
        assert duration == pytest.approx(32.0)

    def test_queueing_behind_earlier_transfer(self):
        bw = BandwidthModel(peak_bytes_per_cycle=2.0)
        bw.transfer(0.0, 64)  # occupies [0, 32)
        start, _ = bw.transfer(10.0, 64)
        assert start == pytest.approx(32.0)

    def test_throughput_hard_capped(self):
        bw = BandwidthModel(peak_bytes_per_cycle=1.0)
        finish = 0.0
        for i in range(100):
            start, duration = bw.transfer(0.0, 64)
            finish = start + duration
        # 100 lines at 1 B/cycle cannot finish before 6400 cycles
        assert finish >= 100 * 64

    def test_utilisation_rises_and_decays(self):
        bw = BandwidthModel(peak_bytes_per_cycle=2.0, window_cycles=100.0)
        for i in range(20):
            bw.transfer(float(i), 64)
        busy = bw.utilisation()
        assert busy > 0.5
        bw.transfer(10_000.0, 0)
        assert bw.utilisation() < busy

    def test_total_accounting(self):
        bw = BandwidthModel(peak_bytes_per_cycle=2.0)
        bw.transfer(0.0, 64)
        bw.transfer(0.0, 64)
        assert bw.total_bytes == 128
        assert bw.total_transfers == 2

    def test_rejects_bad_peak(self):
        with pytest.raises(ConfigError):
            BandwidthModel(peak_bytes_per_cycle=0.0)

    @pytest.mark.parametrize("count", [0, 1, 2, 7, 1000])
    @pytest.mark.parametrize("now", ["below-last", "below-free", "idle"])
    def test_charge_batch_matches_repeated_transfers(self, count, now):
        # 64 / 2.7 and 64 / 3000 are inexact in binary, so a product
        # in place of repeated additions would show in the floats.
        def warm():
            bw = BandwidthModel(peak_bytes_per_cycle=2.7, window_cycles=3000.0)
            for t in (0.0, 5.0, 7.5, 400.0, 400.0, 401.25):
                bw.transfer(t, 64)
            return bw

        probe = warm()
        assert probe._last_time > 100.0 and probe._free_time > probe._last_time
        at = {
            "below-last": 100.0,  # an earlier instant than the last transfer
            "below-free": probe._last_time + 1.0,  # queued behind the busy slot
            "idle": probe._free_time + 500.0,  # the EWMA decays first
        }[now]
        batched, looped = warm(), warm()
        assert batched.charge_batch(at, 64, count) is None
        for _ in range(count):
            looped.transfer(at, 64)
        for name in ("_free_time", "_ewma_bpc", "_last_time", "total_bytes", "total_transfers"):
            assert getattr(batched, name) == getattr(looped, name), name

    def test_transfer_matches_two_step_ewma(self, rng):
        # transfer() against the EWMA update written in two steps: clamp
        # ``now`` to the last transfer with max(), then decay by
        # 1 - min(dt / window, 1) when time has passed.
        def two_step(state, now, n_bytes, peak, window):
            free, ewma, last, total_bytes, total_transfers = state
            start = now if now > free else free
            duration = n_bytes / peak
            now = max(now, last)
            dt = now - last
            if dt > 0:
                ewma *= 1.0 - min(dt / window, 1.0)
                last = now
            ewma += n_bytes / window
            state = (start + duration, ewma, last, total_bytes + n_bytes, total_transfers + 1)
            return state, (start, duration)

        gaps = ("below", "equal", "short", "window", "long")
        seen = set()
        for _ in range(10):
            peak = float(rng.uniform(0.5, 8.0))
            window = float(rng.uniform(50.0, 30_000.0))
            bw = BandwidthModel(peak, window)
            state = (0.0, 0.0, 0.0, 0, 0)
            for _ in range(400):
                last = bw._last_time
                gap = gaps[rng.integers(len(gaps))]
                seen.add(gap)
                now = {
                    "below": last - float(rng.uniform(0.0, 2.0 * window)),
                    "equal": last,
                    "short": last + float(rng.uniform(0.0, window)),
                    "window": last + window,
                    "long": last + window * float(rng.uniform(1.0, 4.0)),
                }[gap]
                n_bytes = int(rng.choice([0, 64, 128, 4096]))
                state, want = two_step(state, now, n_bytes, peak, window)
                assert bw.transfer(now, n_bytes) == want
                names = ("_free_time", "_ewma_bpc", "_last_time", "total_bytes", "total_transfers")
                assert tuple(getattr(bw, name) for name in names) == state
        assert seen == set(gaps)

    def test_charge_batch_rejects_negative_count(self):
        with pytest.raises(ConfigError):
            BandwidthModel(peak_bytes_per_cycle=2.0).charge_batch(0.0, 64, -1)
