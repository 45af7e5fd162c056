"""Tests for the analysis passes: MDDLI, stride, distance, bypass."""

import numpy as np
import pytest

from repro.core.bypass import data_reusing_loads, should_bypass
from repro.core.distance import compute_prefetch_distance
from repro.core.mddli import (
    cost_benefit_threshold,
    estimate_miss_latency,
    identify_delinquent_loads,
)
from repro.core.report import StrideInfo
from repro.core.strideanalysis import analyze_stride
from repro.errors import AnalysisError
from repro.sampling import RuntimeSampler, StrideSampleSet
from repro.statstack import PerPCMissRatios, StatStackModel
from repro.trace import MemoryTrace
from repro.trace.synthesis import strided_pattern


def make_ratios(trace, machine, rate=5e-3, seed=0):
    sampling = RuntimeSampler(rate=rate, seed=seed).sample(trace)
    model = StatStackModel(sampling.reuse, machine.line_bytes)
    return sampling, PerPCMissRatios(model, machine)


class TestCostBenefit:
    def test_threshold_formula(self, amd):
        # MR > alpha / latency (paper §V)
        assert cost_benefit_threshold(amd, latency=100.0) == pytest.approx(
            amd.prefetch_cost / 100.0
        )

    def test_bad_latency(self, amd):
        with pytest.raises(AnalysisError):
            cost_benefit_threshold(amd, latency=0.0)

    def test_missing_load_selected_hitting_load_rejected(self, amd):
        n = 60_000
        pc = np.tile([0, 1], n // 2)
        addr = np.empty(n, np.int64)
        addr[0::2] = strided_pattern(0, n // 2, 64)  # always misses
        addr[1::2] = 1 << 30  # always hits
        sampling, ratios = make_ratios(MemoryTrace.loads(pc, addr), amd)
        selected, skipped = identify_delinquent_loads(ratios)
        assert [d.pc for d in selected] == [0]
        assert skipped.get(1) == "cost-benefit"

    def test_min_samples_guard(self, amd):
        n = 40_000
        # pc 1 executes twice only
        pc = np.zeros(n, np.int64)
        pc[100] = 1
        pc[200] = 1
        addr = strided_pattern(0, n, 64)
        sampling, ratios = make_ratios(MemoryTrace.loads(pc, addr), amd)
        selected, skipped = identify_delinquent_loads(ratios, min_samples=8)
        assert all(d.pc != 1 for d in selected)

    def test_ranked_by_impact(self, amd):
        n = 90_000
        # pc 0: hot streaming (2/3 of refs); pc 1: rarer streaming
        pc = np.tile([0, 0, 1], n // 3)
        addr = np.empty(n, np.int64)
        addr[pc == 0] = strided_pattern(0, (2 * n) // 3, 64)
        addr[pc == 1] = strided_pattern(1 << 31, n // 3, 64)
        sampling, ratios = make_ratios(MemoryTrace.loads(pc, addr), amd)
        selected, _ = identify_delinquent_loads(ratios)
        assert selected[0].pc == 0


class TestEstimateLatency:
    def test_dram_bound_app(self, amd):
        # cold stream: everything misses to DRAM
        t = MemoryTrace.loads(np.zeros(50_000, np.int64), strided_pattern(0, 50_000, 64))
        sampling = RuntimeSampler(rate=5e-3, seed=1).sample(t)
        model = StatStackModel(sampling.reuse, amd.line_bytes)
        lat = estimate_miss_latency(model, amd)
        assert lat > amd.dram_latency  # includes transfer time

    def test_l2_bound_app(self, amd):
        # working set between L1 and L2: misses served by L2
        t = MemoryTrace.loads(
            np.zeros(80_000, np.int64),
            strided_pattern(0, 80_000, 64, wrap_bytes=256 * 1024),
        )
        sampling = RuntimeSampler(rate=5e-3, seed=1).sample(t)
        model = StatStackModel(sampling.reuse, amd.line_bytes)
        lat = estimate_miss_latency(model, amd)
        assert lat < amd.llc.hit_latency * 1.5


class TestStrideAnalysis:
    def _samples(self, strides, recurrences=None, pc=0):
        n = len(strides)
        rec = recurrences if recurrences is not None else [3] * n
        return StrideSampleSet(
            np.full(n, pc, np.int64),
            np.asarray(strides, np.int64),
            np.asarray(rec, np.int64),
        )

    def test_pure_stride(self):
        info = analyze_stride(self._samples([16] * 20), 0)
        assert info is not None
        assert info.dominant_stride == 16
        assert info.dominance == 1.0
        assert info.estimated_run_length == float("inf")

    def test_dominance_70_percent_rule(self):
        # 65% in one group: below the paper's threshold
        strides = [16] * 13 + [4096, -4096, 8192, 12288, -8192, 20480, 17000]
        assert analyze_stride(self._samples(strides), 0) is None
        # 75%: above
        strides = [16] * 15 + [4096, 8192, -4096, 12288, 20480]
        info = analyze_stride(self._samples(strides), 0)
        assert info is not None and info.dominant_stride == 16

    def test_zero_stride_not_candidate(self):
        assert analyze_stride(self._samples([0] * 20), 0) is None

    def test_grouping_by_cache_line(self):
        # 8 and 56 fall in the same line-sized group
        strides = [8, 56, 8, 56, 8, 56, 8, 8]
        info = analyze_stride(self._samples(strides), 0)
        assert info is not None
        assert info.dominant_stride == 8  # most frequent in group

    def test_negative_strides(self):
        info = analyze_stride(self._samples([-16] * 10), 0)
        assert info is not None and info.dominant_stride == -16

    def test_run_length_estimate(self):
        # 5 regular : 1 jump -> runs of ~5
        strides = ([32] * 5 + [99999]) * 10
        info = analyze_stride(self._samples(strides), 0)
        assert info is not None
        assert info.estimated_run_length == pytest.approx(5.0, rel=0.3)

    def test_min_samples(self):
        assert analyze_stride(self._samples([16] * 3), 0, min_samples=4) is None

    def test_analyze_all(self):
        # Each PC's verdict reads only its own samples of a merged set.
        s1 = self._samples([16] * 10, pc=0)
        s2 = self._samples([1, 999, -55, 7000, 13, 900, -3, 62000, 17, 40000], pc=1)
        merged = s1.merged_with(s2)
        assert analyze_stride(merged, 0) is not None
        assert analyze_stride(merged, 1) is None

    def test_bad_threshold(self):
        with pytest.raises(AnalysisError):
            analyze_stride(self._samples([16] * 10), 0, dominance_threshold=0.0)


class TestPrefetchDistance:
    def _info(self, stride, recurrence=3, dominance=1.0):
        return StrideInfo(
            pc=0,
            dominant_stride=stride,
            dominance=dominance,
            median_recurrence=recurrence,
            n_samples=50,
        )

    def test_large_stride_formula(self, amd):
        # P = ceil(l/d) * stride (paper §VI-A)
        info = self._info(stride=128, recurrence=4)
        d = (4 + 1) * amd.cycles_per_memop
        import math

        expected = math.ceil(200.0 / d) * 128
        assert compute_prefetch_distance(info, amd, latency=200.0) == expected

    def test_short_stride_line_granularity(self, amd):
        # stride < C: P = ceil(l/(d*i)) * C -> multiple of the line size
        info = self._info(stride=16, recurrence=4)
        p = compute_prefetch_distance(info, amd, latency=200.0)
        assert p % amd.line_bytes == 0
        assert p > 0

    def test_negative_stride_gives_negative_distance(self, amd):
        info = self._info(stride=-64, recurrence=4)
        assert compute_prefetch_distance(info, amd, latency=200.0) < 0

    def test_r_over_2_clamp_via_refs(self, amd):
        info = self._info(stride=64, recurrence=0)
        unclamped = compute_prefetch_distance(info, amd, latency=10_000.0)
        clamped = compute_prefetch_distance(
            info, amd, latency=10_000.0, refs_in_loop=10
        )
        assert clamped <= unclamped
        assert clamped <= max(amd.line_bytes, 5 * 64)

    def test_run_length_clamp(self, amd):
        # bursty load: dominance 0.857 -> runs of ~6 -> P <= 3 strides
        info = self._info(stride=64, recurrence=0, dominance=6 / 7)
        p = compute_prefetch_distance(info, amd, latency=10_000.0)
        assert p <= max(amd.line_bytes, 3 * 64)

    def test_longer_latency_longer_distance(self, amd):
        info = self._info(stride=64, recurrence=2)
        p1 = compute_prefetch_distance(info, amd, latency=50.0)
        p2 = compute_prefetch_distance(info, amd, latency=400.0)
        assert p2 > p1

    def test_zero_stride_rejected(self, amd):
        with pytest.raises(AnalysisError):
            compute_prefetch_distance(self._info(stride=0), amd)


class TestBypass:
    def _trace_stream_and_reuser(self, reuse_region):
        """pc0 streams; pc1 re-reads pc0's lines at a given distance."""
        n = 140_000
        pc = np.tile([0, 1], n // 2)
        addr = np.empty(n, np.int64)
        stream = strided_pattern(0, n // 2, 64)
        addr[0::2] = stream
        # pc1 touches the line pc0 touched `reuse_region` lines ago
        lag = reuse_region
        reuse = np.roll(stream, lag)
        reuse[:lag] = stream[:lag]
        addr[1::2] = reuse
        return MemoryTrace.loads(pc, addr)

    def test_data_reusing_loads_found(self, amd):
        t = self._trace_stream_and_reuser(1)
        sampling, ratios = make_ratios(t, amd)
        reusers = data_reusing_loads(sampling.reuse, 0)
        assert 1 in reusers

    def test_no_reuse_is_bypassable(self, amd):
        # cold stream, nothing re-touches the lines
        t = MemoryTrace.loads(
            np.zeros(50_000, np.int64), strided_pattern(0, 50_000, 64)
        )
        sampling, ratios = make_ratios(t, amd)
        assert should_bypass(0, sampling.reuse, ratios)

    def test_immediate_reuse_is_bypassable(self, amd):
        # reuser hits in L1 (lag 1 line): flat curve between L1 and LLC
        t = self._trace_stream_and_reuser(1)
        sampling, ratios = make_ratios(t, amd)
        assert should_bypass(0, sampling.reuse, ratios)

    def test_llc_distance_reuse_blocks_bypass(self, amd):
        # reuser touches lines 16k lines later (stack distance ~2 MB):
        # served by the LLC, so the reuser's curve drops between L1 and
        # LLC -> no bypass
        t = self._trace_stream_and_reuser(16 * 1024)
        sampling, ratios = make_ratios(t, amd)
        assert not should_bypass(0, sampling.reuse, ratios)
