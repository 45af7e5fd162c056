"""Tests for the online optimiser and phase-aware sampling."""

import numpy as np
import pytest

from repro.cachesim import CacheHierarchy
from repro.core import OnlineOptimizer
from repro.errors import AnalysisError, SamplingError
from repro.sampling import (
    PhaseDetector,
    phase_aware_sample,
    window_signatures,
)
from repro.trace import MemoryTrace
from repro.trace.synthesis import chase_pattern, strided_pattern


def two_phase_trace(n_each=150_000, seed=0):
    """Phase A: pc0 streams; phase B: pc1 streams elsewhere."""
    a = MemoryTrace.loads(
        np.zeros(n_each, np.int64), strided_pattern(0, n_each, 16)
    )
    b = MemoryTrace.loads(
        np.ones(n_each, np.int64), strided_pattern(1 << 31, n_each, 16)
    )
    return MemoryTrace.concat([a, b])


class TestOnlineOptimizer:
    def test_adapts_to_phase_change(self, amd):
        trace = two_phase_trace()
        online = OnlineOptimizer(amd, window_refs=50_000, history_windows=1)
        result = online.run(trace, work_per_memop=8.0, mlp=8.0)
        assert result.n_windows == 6
        # the plan eventually covers pc0 in phase A and pc1 in phase B
        early = result.plans[1].prefetched_pcs
        late = result.plans[-1].prefetched_pcs
        assert 0 in early
        assert 1 in late and 0 not in late
        assert result.plan_changes() >= 1

    def test_online_beats_no_prefetching(self, amd):
        trace = two_phase_trace()
        online = OnlineOptimizer(amd, window_refs=50_000, history_windows=1)
        result = online.run(trace, work_per_memop=8.0, mlp=8.0)
        base = CacheHierarchy(amd).run(trace, work_per_memop=8.0, mlp=8.0)
        assert result.stats.cycles < base.cycles

    def test_bad_params(self, amd):
        with pytest.raises(AnalysisError):
            OnlineOptimizer(amd, window_refs=0)
        with pytest.raises(AnalysisError):
            OnlineOptimizer(amd, history_windows=0)


class TestWindowSignatures:
    def test_similar_windows_similar_signatures(self):
        trace = MemoryTrace.loads(
            np.zeros(40_000, np.int64),
            strided_pattern(0, 40_000, 64, wrap_bytes=64 * 1024),
        )
        sigs = window_signatures(trace, 10_000)
        assert sigs.shape[0] == 4
        # re-sweeping the same region: consecutive windows nearly identical
        assert sigs[0] @ sigs[1] > 0.95

    def test_different_regions_dissimilar(self):
        a = strided_pattern(0, 10_000, 64)
        b = strided_pattern(1 << 31, 10_000, 64)
        trace = MemoryTrace.loads(np.zeros(20_000, np.int64), np.concatenate([a, b]))
        sigs = window_signatures(trace, 10_000)
        assert sigs[0] @ sigs[1] < 0.8

    def test_empty_trace(self):
        assert window_signatures(MemoryTrace.empty(), 100).shape[0] == 0

    def test_bad_window(self):
        with pytest.raises(SamplingError):
            window_signatures(MemoryTrace.empty(), 0)


class TestPhaseDetector:
    def test_repeating_phases_reuse_ids(self):
        det = PhaseDetector()
        sig_a = np.zeros(16)
        sig_a[0] = 1.0
        sig_b = np.zeros(16)
        sig_b[8] = 1.0
        ids = [det.classify(s) for s in (sig_a, sig_b, sig_a, sig_b)]
        assert ids == [0, 1, 0, 1]
        assert det.n_phases == 2

    def test_threshold_validation(self):
        with pytest.raises(SamplingError):
            PhaseDetector(similarity_threshold=0.0)


class TestPhaseAwareSampling:
    def test_abab_sampled_twice(self, rng):
        n = 30_000
        a = strided_pattern(0, n, 64, wrap_bytes=1 << 20)
        b = chase_pattern(rng, 1 << 31, 4096, n)
        trace = MemoryTrace.loads(
            np.repeat([0, 1, 0, 1], n).astype(np.int64),
            np.concatenate([a, b, a, b]),
        )
        profile = phase_aware_sample(trace, window_refs=n, rate=5e-3)
        assert profile.n_phases == 2
        # only the first A and first B windows were sampled
        assert set(profile.sampled_windows.values()) == {0, 1}
        assert len(profile.sampling.reuse) > 0

    def test_phase_samples_drive_analysis(self, amd):
        from repro.core import PrefetchOptimizer

        n = 40_000
        stream = strided_pattern(0, n, 16)
        trace = MemoryTrace.loads(np.zeros(2 * n, np.int64),
                                  np.concatenate([stream, stream + (n * 16)]))
        profile = phase_aware_sample(trace, window_refs=n, rate=5e-3)
        plan = PrefetchOptimizer(amd).analyze(profile.sampling)
        assert 0 in plan.prefetched_pcs
