"""Tests for the reuse/stride sampling framework."""

import numpy as np
import pytest

from repro import obs
from repro.errors import SamplingError
from repro.sampling import (
    RuntimeSampler,
    collect_reuse_samples,
    collect_stride_samples,
    next_same_value_index,
)
from repro.trace import MemOp, MemoryTrace


class TestNextSameValue:
    def test_basic(self):
        values = np.array([5, 7, 5, 7, 9])
        nxt = next_same_value_index(values)
        assert nxt.tolist() == [2, 3, -1, -1, -1]

    def test_empty(self):
        assert len(next_same_value_index(np.array([], dtype=np.int64))) == 0

    def test_all_unique(self):
        assert next_same_value_index(np.arange(5)).tolist() == [-1] * 5

    def test_matches_naive(self, rng):
        values = rng.integers(0, 20, size=200)
        nxt = next_same_value_index(values)
        for i in range(200):
            expected = -1
            for j in range(i + 1, 200):
                if values[j] == values[i]:
                    expected = j
                    break
            assert nxt[i] == expected


class TestReuseSampling:
    def test_reuse_distance_semantics(self):
        # line 0 accessed at refs 0 and 3 -> two intervening refs
        t = MemoryTrace.loads([0, 1, 2, 3], [0, 64, 128, 0])
        samples = collect_reuse_samples(t, np.array([0]), 64)
        assert samples.distance.tolist() == [2]
        assert samples.end_pc.tolist() == [3]
        assert samples.start_pc.tolist() == [0]

    def test_dangling_sample(self):
        t = MemoryTrace.loads([0, 1], [0, 64])
        samples = collect_reuse_samples(t, np.array([0, 1]), 64)
        assert samples.n_dangling == 2
        assert np.all(samples.distance == -1)

    def test_same_line_different_addr(self):
        # 0 and 32 share a 64-byte line
        t = MemoryTrace.loads([0, 1], [0, 32])
        samples = collect_reuse_samples(t, np.array([0]), 64)
        assert samples.distance.tolist() == [0]

    def test_prefetches_invisible_to_sampler(self):
        t = MemoryTrace(
            [0, 0, 1], [0, 64, 0], [MemOp.LOAD, MemOp.PREFETCH, MemOp.LOAD]
        )
        samples = collect_reuse_samples(t, np.array([0]), 64)
        # prefetch is not a memory reference: distance 0, end pc 1
        assert samples.distance.tolist() == [0]
        assert samples.end_pc.tolist() == [1]

    def test_out_of_range_rejected(self):
        t = MemoryTrace.loads([0], [0])
        with pytest.raises(SamplingError):
            collect_reuse_samples(t, np.array([5]), 64)

    def test_merged_with(self):
        t = MemoryTrace.loads([0, 0], [0, 0])
        a = collect_reuse_samples(t, np.array([0]), 64)
        b = collect_reuse_samples(t, np.array([1]), 64)
        m = a.merged_with(b)
        assert len(m) == 2
        assert m.n_refs == 4


class TestStrideSampling:
    def test_stride_and_recurrence(self):
        # pc 0 executes at refs 0 and 2 with addresses 0 and 16
        t = MemoryTrace.loads([0, 1, 0], [0, 500, 16])
        samples = collect_stride_samples(t, np.array([0]))
        assert samples.stride.tolist() == [16]
        assert samples.recurrence.tolist() == [1]

    def test_no_reexecution_no_sample(self):
        t = MemoryTrace.loads([0, 1], [0, 64])
        samples = collect_stride_samples(t, np.array([0]))
        assert len(samples) == 0

    def test_negative_stride(self):
        t = MemoryTrace.loads([0, 0], [100, 36])
        samples = collect_stride_samples(t, np.array([0]))
        assert samples.stride.tolist() == [-64]

    def test_for_pc(self):
        t = MemoryTrace.loads([0, 1, 0, 1], [0, 0, 8, 32])
        samples = collect_stride_samples(t, np.array([0, 1]))
        strides, recurrences = samples.for_pc(1)
        assert strides.tolist() == [32]


class TestRuntimeSampler:
    def test_deterministic(self):
        t = MemoryTrace.loads(np.zeros(5000, np.int64), np.arange(5000) * 8)
        r1 = RuntimeSampler(rate=0.01, seed=3).sample(t)
        r2 = RuntimeSampler(rate=0.01, seed=3).sample(t)
        assert np.array_equal(r1.reuse.distance, r2.reuse.distance)
        assert np.array_equal(r1.strides.stride, r2.strides.stride)

    def test_min_samples_fallback(self):
        t = MemoryTrace.loads(np.zeros(1000, np.int64), np.arange(1000) * 8)
        r = RuntimeSampler(rate=1e-9, seed=0, min_samples=32).sample(t)
        assert len(r.reuse) == 32

    def test_stride_detected_on_stream(self):
        t = MemoryTrace.loads(np.zeros(10_000, np.int64), np.arange(10_000) * 16)
        r = RuntimeSampler(rate=0.02, seed=1).sample(t)
        assert np.all(r.strides.stride == 16)

    def test_overhead_estimate_reasonable_at_paper_rate(self):
        t = MemoryTrace.loads(np.zeros(200_000, np.int64), np.arange(200_000) * 8)
        sampler = RuntimeSampler(rate=1e-5, seed=0, min_samples=0)
        r = sampler.sample(t)
        # paper: reuse+stride sampling stays under 30 % overhead
        assert r.overhead_estimate < 0.30

    def test_invalid_rate(self):
        with pytest.raises(SamplingError):
            RuntimeSampler(rate=0.0)
        with pytest.raises(SamplingError):
            RuntimeSampler(rate=1.5)

    def test_describe(self):
        t = MemoryTrace.loads(np.zeros(100, np.int64), np.arange(100) * 8)
        r = RuntimeSampler(rate=0.5, seed=0).sample(t)
        assert "reuse samples" in r.describe()

    def test_pass_says_how_its_queries_were_answered(self):
        # Every line is touched once, so no line query resolves; each PC
        # recurs four references later, so only sample points in the
        # last four positions miss the window.  This seed draws one.
        n = 4096
        t = MemoryTrace.loads(np.arange(n) % 4, np.arange(n) * 64)
        sampler = RuntimeSampler(rate=1e-9, seed=1, min_samples=48)
        idx = sampler.select_sample_points(n)
        assert np.any(idx >= n - 4)
        obs.enable()
        try:
            sampler.sample(t)
            (span,) = [e for e in obs.drain_spans() if e["name"] == "sampling.pass"]
            counted = obs.metrics().counter("sampling.window_resolved").value
        finally:
            obs.disable()
            obs.metrics().reset()
        assert span["attrs"]["window_resolved"] == np.count_nonzero(idx < n - 4) == counted
        assert span["attrs"]["sorts"] == 2
        # The missed PC's 1,024 positions and the 48 missed lines' are
        # all sorted; full sorts of both would be 2·n keys.
        assert 1024 + 48 <= span["attrs"]["sorted_keys"] < n // 2

    def test_window_counter_recorded_only_while_tracing(self):
        obs.metrics().reset()
        t = MemoryTrace.loads(np.zeros(1000, np.int64), np.arange(1000) * 8)
        RuntimeSampler(rate=1e-9, seed=0, min_samples=16).sample(t)
        assert "sampling.window_resolved" not in obs.metrics()
