"""Tests for synthetic address-pattern generators."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.synthesis import (
    _expand_runs,
    burst_strided_pattern,
    chase_pattern,
    gather_pattern,
    random_pattern,
    stream_pattern,
    strided_pattern,
    sweep_pattern,
)


class TestStream:
    def test_sequence(self):
        assert stream_pattern(100, 4, 8).tolist() == [100, 108, 116, 124]

    def test_empty(self):
        assert len(stream_pattern(0, 0)) == 0

    def test_bad_elem(self):
        with pytest.raises(TraceError):
            stream_pattern(0, 4, 0)

    def test_negative_count(self):
        with pytest.raises(TraceError):
            stream_pattern(0, -1)


class TestStrided:
    def test_wrap(self):
        a = strided_pattern(0, 6, 16, wrap_bytes=48)
        assert a.tolist() == [0, 16, 32, 0, 16, 32]

    def test_negative_stride(self):
        a = strided_pattern(1000, 3, -8)
        assert a.tolist() == [1000, 992, 984]

    def test_zero_stride_rejected(self):
        with pytest.raises(TraceError):
            strided_pattern(0, 4, 0)

    def test_bad_wrap(self):
        with pytest.raises(TraceError):
            strided_pattern(0, 4, 8, wrap_bytes=0)


class TestChase:
    def test_visits_all_nodes_before_repeat(self, rng):
        a = chase_pattern(rng, 0, 10, 10, node_bytes=64)
        assert len(set(a.tolist())) == 10

    def test_wraps_deterministically(self, rng):
        a = chase_pattern(rng, 0, 5, 10, node_bytes=64)
        assert a[:5].tolist() == a[5:].tolist()

    def test_alignment(self, rng):
        a = chase_pattern(rng, 128, 16, 50, node_bytes=64)
        assert np.all((a - 128) % 64 == 0)

    def test_no_dominant_stride(self, rng):
        a = chase_pattern(rng, 0, 4096, 4000, node_bytes=64)
        strides = np.diff(a)
        _, counts = np.unique(strides // 64, return_counts=True)
        assert counts.max() / len(strides) < 0.2

    def test_bad_nodes(self, rng):
        with pytest.raises(TraceError):
            chase_pattern(rng, 0, 0, 5)


class TestRandom:
    def test_bounds_and_alignment(self, rng):
        a = random_pattern(rng, 1000, 4096, 500, align=8)
        assert a.min() >= 1000
        assert a.max() < 1000 + 4096
        assert np.all((a - 1000) % 8 == 0)

    def test_bad_region(self, rng):
        with pytest.raises(TraceError):
            random_pattern(rng, 0, 0, 5)


class TestGather:
    def test_bounds(self, rng):
        a = gather_pattern(rng, 0, 8192, 1000, locality=0.5)
        assert a.min() >= 0 and a.max() < 8192

    def test_zero_length(self, rng):
        assert len(gather_pattern(rng, 0, 8192, 0)) == 0

    def test_locality_raises_line_reuse(self, rng):
        lo = gather_pattern(rng, 0, 1 << 20, 4000, locality=0.0)
        hi = gather_pattern(rng, 0, 1 << 20, 4000, locality=0.9)
        # high locality -> consecutive accesses land on the same line far
        # more often
        same_lo = np.mean(np.diff(lo // 64) == 0)
        same_hi = np.mean(np.diff(hi // 64) == 0)
        assert same_hi > same_lo + 0.2

    def test_bad_locality(self, rng):
        with pytest.raises(TraceError):
            gather_pattern(rng, 0, 4096, 10, locality=1.0)


class TestBurst:
    def test_intra_burst_stride(self, rng):
        a = burst_strided_pattern(rng, 0, 1 << 20, 64, burst_len=8, stride_bytes=32)
        d = np.diff(a)
        # within bursts the stride is exact
        within = d.reshape(-1)[: 7]
        assert np.all(within[:7] == 32)

    def test_dominance_matches_burst_len(self, rng):
        a = burst_strided_pattern(rng, 0, 8 << 20, 6000, burst_len=6, stride_bytes=32)
        d = np.diff(a)
        dominance = np.mean(d == 32)
        assert 0.7 < dominance < 0.9  # 5 of 6 strides are regular

    def test_bounds(self, rng):
        a = burst_strided_pattern(rng, 500, 1 << 16, 1000, burst_len=4, stride_bytes=16)
        assert a.min() >= 500
        assert a.max() < 500 + (1 << 16)

    def test_region_too_small(self, rng):
        with pytest.raises(TraceError):
            burst_strided_pattern(rng, 0, 100, 10, burst_len=10, stride_bytes=32)


class TestSweep:
    def test_pass_cycling(self):
        a = sweep_pattern(0, 6, (128, 256), stride_bytes=64)
        # pass 1: 2 lines; pass 2: 4 lines
        assert a.tolist() == [0, 64, 0, 64, 128, 192]

    def test_nested_reuse(self):
        a = sweep_pattern(0, 12, (128, 256), stride_bytes=64)
        # the short pass's lines are re-touched every cycle
        assert a.tolist().count(0) == 4

    def test_empty_passes_rejected(self):
        with pytest.raises(TraceError):
            sweep_pattern(0, 5, ())

    def test_pass_smaller_than_stride_rejected(self):
        with pytest.raises(TraceError):
            sweep_pattern(0, 5, (32,), stride_bytes=64)

    def test_deterministic(self):
        a = sweep_pattern(0, 100, (256, 512), 64)
        b = sweep_pattern(0, 100, (256, 512), 64)
        assert np.array_equal(a, b)


def expand_runs_loop(starts, lengths, n):
    """Every run's positions, runs concatenated and cycled, the first ``n`` kept."""
    out = []
    while len(out) < n:
        for start, length in zip(starts.tolist(), lengths.tolist()):
            out.extend(range(start, start + length))
    return out[:n]


class TestExpandRuns:
    """``_expand_runs`` expands only the runs its first ``n`` positions
    reach; its answer is the whole expansion's first ``n``."""

    @pytest.fixture
    def runs(self):
        rng = np.random.default_rng(2014)
        starts = rng.integers(0, 1 << 20, 40, dtype=np.int64)
        lengths = rng.geometric(0.25, 40).astype(np.int64)
        lengths[0] = 5
        lengths[4] = 0  # an empty run right after the boundary ends[3]
        return starts, lengths

    def test_matches_whole_expansion(self, runs):
        starts, lengths = runs
        ends = np.cumsum(lengths)
        total = int(ends[-1])
        cases = {
            "zero": 0,
            "inside the first run": 3,
            "on a run boundary": int(ends[3]),
            "one past a boundary": int(ends[3]) + 1,
            "total": total,
            "tiled": 2 * total + 3,
        }
        for case, n in cases.items():
            got = _expand_runs(starts, lengths, n)
            assert got.dtype == np.int64, case
            assert got.tolist() == expand_runs_loop(starts, lengths, n), case

    def test_no_elements_rejected(self):
        with pytest.raises(TraceError):
            _expand_runs(np.array([3]), np.array([0]), 4)
