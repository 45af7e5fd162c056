"""Tests for the hardware prefetcher models."""

import pytest

from repro.hwpref import (
    AdjacentLinePrefetcher,
    GHBPrefetcher,
    NullPrefetcher,
    PCStridePrefetcher,
    PrefetchTuning,
    StreamerPrefetcher,
    amd_hw_prefetcher,
    cross_core_prefetcher_for,
    intel_hw_prefetcher,
)
from repro.workloads import build_program


def feed_stream(pf, pc=0, start_line=0, n=10, stride_bytes=64, l1_hit=False):
    """Drive a prefetcher with a constant-stride access stream."""
    all_requests = []
    for i in range(n):
        addr = start_line * 64 + i * stride_bytes
        reqs = pf.observe(pc, addr, addr // 64, l1_hit)
        all_requests.extend(r[0] for r in reqs)
    return all_requests


class TestNull:
    def test_never_fires(self):
        pf = NullPrefetcher()
        assert feed_stream(pf, n=50) == []


class TestPCStride:
    def test_trains_and_runs_ahead(self):
        pf = PCStridePrefetcher(train_threshold=2)
        lines = feed_stream(pf, n=12, stride_bytes=64)
        assert lines  # fired after training
        assert all(line > 0 for line in lines)

    def test_requires_consistent_stride(self):
        pf = PCStridePrefetcher(train_threshold=2)
        addrs = [0, 64, 4096, 128, 9000, 64 * 7]
        fired = []
        for a in addrs:
            fired += pf.observe(0, a, a // 64, False)
        assert fired == []

    def test_tracks_pcs_independently(self):
        pf = PCStridePrefetcher(train_threshold=2)
        for i in range(8):
            pf.observe(0, i * 64, i, False)
            pf.observe(1, 1 << 20, (1 << 20) // 64, False)
        # pc0 trained; pc1 stationary (stride 0) never fires
        assert pf.observe(0, 8 * 64, 8, False)
        assert not pf.observe(1, 1 << 20, (1 << 20) // 64, False)

    def test_sub_line_strides_predict_next_lines(self):
        pf = PCStridePrefetcher(train_threshold=2)
        lines = feed_stream(pf, n=20, stride_bytes=16)
        assert lines
        # predictions advance one line at a time for small strides
        assert max(lines) < 64

    def test_negative_stride_direction(self):
        pf = PCStridePrefetcher(train_threshold=2)
        fired = []
        for i in range(10):
            a = (1 << 20) - i * 128
            fired += [r[0] for r in pf.observe(0, a, a // 64, False)]
        assert fired and all(line < (1 << 20) // 64 for line in fired)

    def test_confidence_ramps_distance(self):
        pf = PCStridePrefetcher(train_threshold=2, distance_lines=2, max_ramp=4)
        early = None
        for i in range(30):
            a = i * 64
            reqs = pf.observe(0, a, i, False)
            if reqs and early is None:
                early = reqs[0][0] - i
            late = reqs[0][0] - i if reqs else None
        assert early is not None and late is not None
        assert late > early

    def test_table_eviction(self):
        pf = PCStridePrefetcher(table_size=4)
        for pc in range(10):
            pf.observe(pc, 0, 0, False)
        assert len(pf._table) <= 4

    def test_bad_params(self):
        with pytest.raises(ValueError):
            PCStridePrefetcher(degree=0)
        with pytest.raises(ValueError):
            PCStridePrefetcher(max_ramp=0)


class TestStreamer:
    def test_detects_ascending_stream(self):
        pf = StreamerPrefetcher()
        lines = feed_stream(pf, n=10)
        assert lines
        assert min(lines) > 0

    def test_detects_descending_stream(self):
        pf = StreamerPrefetcher()
        fired = []
        base = 1 << 14
        for i in range(10):
            line = base - i
            fired += [r[0] for r in pf.observe(0, line * 64, line, False)]
        assert fired and all(line < base for line in fired)

    def test_streams_are_page_local(self):
        pf = StreamerPrefetcher(cross_page=False)
        # accesses near a page end: prefetches never cross the boundary
        lines_per_page = 4096 // 64
        fired = []
        for i in range(10):
            line = lines_per_page - 10 + i
            fired += [r[0] for r in pf.observe(0, line * 64, line, False)]
        assert all(line < lines_per_page for line in fired)

    def test_direction_flip_resets(self):
        pf = StreamerPrefetcher()
        feed_stream(pf, n=6)
        # reverse direction: first observation must not fire
        assert pf.observe(0, 0, 0, False) == []

    def test_stream_table_bounded(self):
        pf = StreamerPrefetcher(max_streams=8)
        for page in range(32):
            line = page * 64
            pf.observe(0, line * 64, line, False)
        assert len(pf._streams) <= 8


class TestAdjacentLine:
    def test_buddy_line(self):
        pf = AdjacentLinePrefetcher()
        assert [r[0] for r in pf.observe(0, 0, 10, False)] == [11]
        assert [r[0] for r in pf.observe(0, 0, 11, False)] == [10]

    def test_miss_only_by_default(self):
        pf = AdjacentLinePrefetcher()
        assert pf.observe(0, 0, 10, True) == []


class TestThrottling:
    def test_backs_off_under_contention(self):
        rho = {"value": 0.0}
        pf = StreamerPrefetcher(utilisation=lambda: rho["value"])
        calm = len(feed_stream(pf, n=20))
        pf = StreamerPrefetcher(utilisation=lambda: rho["value"])
        rho["value"] = 1.0
        stressed = len(feed_stream(pf, n=20))
        assert stressed < calm

    def test_disabled_tuning_silences_confident_stream(self):
        # factor == 0 must gate issue even after confidence is built up.
        pf = StreamerPrefetcher()
        assert feed_stream(pf, n=10)
        pf.apply_tuning(PrefetchTuning(degree_scale=0.0))
        assert feed_stream(pf, start_line=1 << 14, n=10) == []

    def test_degree_scale_narrows_window(self):
        full = StreamerPrefetcher(max_degree=8)
        scaled = StreamerPrefetcher(max_degree=8)
        scaled.apply_tuning(PrefetchTuning(degree_scale=0.25))
        n_full = len(feed_stream(full, n=20))
        n_scaled = len(feed_stream(scaled, n=20))
        assert 0 < n_scaled < n_full

    def test_low_utilisation_untouched(self):
        # rho below the 0.70 knee must not throttle at all.
        calm = StreamerPrefetcher(utilisation=lambda: 0.5)
        plain = StreamerPrefetcher()
        assert feed_stream(calm, n=20) == feed_stream(plain, n=20)

    def test_composite_reports_throttled_components(self):
        # intel_hw_prefetcher wraps two throttled components in a
        # composite that takes no callback of its own.
        def util():
            return 0.0

        pf = intel_hw_prefetcher(utilisation=util)
        assert pf.throttled
        assert pf.throttled_only_by(util)
        assert not pf.throttled_only_by(lambda: 0.0)
        assert not intel_hw_prefetcher().throttled
        assert pf.batch_safe
        pf.apply_tuning(PrefetchTuning(degree_scale=0.5))
        assert not pf.batch_safe

    def test_descending_stream_stops_at_line_zero(self):
        # the negative-target break: a downward stream near address 0
        # never requests a negative line.
        pf = StreamerPrefetcher()
        fired = []
        for line in (8, 7, 6, 5, 4, 3, 2, 1, 0):
            fired += [r[0] for r in pf.observe(0, line * 64, line, False)]
        assert fired and all(line >= 0 for line in fired)


class TestFactories:
    def test_amd_is_stride_only(self):
        pf = amd_hw_prefetcher()
        # a single isolated miss never triggers AMD's prefetcher
        assert pf.observe(0, 4096, 64, False) == []

    def test_intel_fires_adjacent_on_any_miss(self):
        pf = intel_hw_prefetcher()
        reqs = pf.observe(0, 4096, 64, False)
        assert 65 in [r[0] for r in reqs]

    def test_intel_deduplicates(self):
        pf = intel_hw_prefetcher()
        for i in range(8):
            reqs = pf.observe(0, i * 64, i, False)
            lines = [r[0] for r in reqs]
            assert len(lines) == len(set(lines))


class TestAdjacentLineDutyCycle:
    """The throttle back-off is duty-cycled, not a hard cliff at 0.5."""

    @staticmethod
    def _issues(factor, n=100):
        from repro.hwpref.base import PrefetchTuning

        pf = AdjacentLinePrefetcher()
        pf.apply_tuning(PrefetchTuning(degree_scale=factor))
        issued = 0
        for i in range(n):
            issued += len(pf.observe(0, i * 128, i * 2, False))
        return issued

    def test_full_factor_always_fires(self):
        assert self._issues(1.0) == 100

    def test_band_is_proportional_not_cliff(self):
        # Pre-fix the prefetcher issued nothing below 0.5 and
        # everything at/above it; duty-cycling tracks the factor.
        for factor in (0.4, 0.45, 0.5, 0.55, 0.6):
            issued = self._issues(factor)
            assert abs(issued - 100 * factor) <= 1, (factor, issued)

    def test_documented_floor_still_issues(self):
        assert self._issues(0.25) == 25

    def test_zero_factor_disables(self):
        from repro.hwpref.base import PrefetchTuning

        pf = AdjacentLinePrefetcher()
        pf.apply_tuning(PrefetchTuning(degree_scale=0.0))
        assert pf.observe(0, 0, 10, False) == []

    def test_partial_duty_cycle_is_not_batch_safe(self):
        # At factor 1.0 an accumulator at 0.0 returns to exactly 0.0, so
        # a batch may skip it; a partial cycle left by a lower factor
        # drifts in its low bits under observe(), so it stays unbatched.
        from repro.hwpref.base import PrefetchTuning

        pf = AdjacentLinePrefetcher(utilisation=lambda: 0.0)
        assert pf.batch_safe
        pf.apply_tuning(PrefetchTuning(degree_scale=0.6))
        pf.observe(0, 0, 10, False)
        pf.apply_tuning(PrefetchTuning())
        assert pf._duty != 0.0
        assert not pf.batch_safe


def _xcore_on_pagerank():
    """The helper prefetcher of a graph program, and its index walk's PC and base."""
    pf = cross_core_prefetcher_for(build_program("pagerank", scale=0.02))
    (region,) = pf.regions.values()
    return pf, region.index_pc, region.index_base


#: Each model as ``(prefetcher, pc, base address)`` of the stream it observes.
_REQUEST_MODELS = {
    "stride": lambda: (amd_hw_prefetcher(), 0, 0),
    "streamer": lambda: (StreamerPrefetcher(cross_page=True), 0, 0),
    "streamer-page": lambda: (StreamerPrefetcher(cross_page=False), 0, 0),
    "adjacent": lambda: (AdjacentLinePrefetcher(), 0, 0),
    "ghb": lambda: (GHBPrefetcher(), 0, 0),
    "intel": lambda: (intel_hw_prefetcher(), 0, 0),
    "xcore": _xcore_on_pagerank,
}


class TestRequestFormat:
    """Every model's ``observe`` returns plain ``(line, fill_l2, llc_bypass)`` tuples."""

    @pytest.mark.parametrize(
        "tuning",
        [None, PrefetchTuning(degree_scale=0.5, nta_bypass=True)],
        ids=["untuned", "half-nta"],
    )
    @pytest.mark.parametrize("model", list(_REQUEST_MODELS))
    def test_requests_are_plain_triples(self, model, tuning):
        pf, pc, base = _REQUEST_MODELS[model]()
        if tuning is not None:
            pf.apply_tuning(tuning)
        requests = []
        # A downward stream that ends at line 0 of its region: targets
        # run ahead of it, below the first line.
        for k in range(64, -1, -1):
            addr = base + k * 64
            requests += pf.observe(pc, addr, addr // 64, False)
        assert requests
        for req in requests:
            assert type(req) is tuple and len(req) == 3
            line, fill_l2, llc_bypass = req
            assert type(line) is int and line >= 0
            assert type(fill_l2) is bool and type(llc_bypass) is bool
            assert llc_bypass is (tuning is not None)
            assert fill_l2 is (model != "xcore")
