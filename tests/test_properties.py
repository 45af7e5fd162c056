"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim.lru import LRUCache
from repro.cachesim.stats import PCStats
from repro.config import CacheConfig
from repro.core.report import PrefetchDecision
from repro.core.insertion import apply_prefetch_plan
from repro.sampling.reuse import collect_reuse_samples, next_same_value_index
from repro.statstack.model import StatStackModel
from repro.trace.events import MemoryTrace
from repro.trace.synthesis import strided_pattern, sweep_pattern
from repro.trace.util import WINDOW, next_same_value_query

lines = st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=400)


class TestLRUProperties:
    @given(lines, st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=60, deadline=None)
    def test_invariants_under_any_access_sequence(self, accesses, ways):
        cache = LRUCache(CacheConfig("T", 16 * 64 * ways // ways * ways, ways=ways))
        for line in accesses:
            if not cache.lookup(line):
                cache.install(line)
        cache.check_invariants()
        assert len(cache) <= cache.config.num_lines

    @given(lines)
    @settings(max_examples=60, deadline=None)
    def test_inclusion_monotonicity(self, accesses):
        """A bigger fully-associative LRU cache never misses more.

        Classic stack property of LRU — the basis of stack-distance
        analysis and therefore of StatStack itself.
        """
        small = LRUCache(CacheConfig("S", 8 * 64, ways=8))
        large = LRUCache(CacheConfig("L", 32 * 64, ways=32))
        misses_small = misses_large = 0
        for line in accesses:
            if not small.lookup(line):
                misses_small += 1
                small.install(line)
            if not large.lookup(line):
                misses_large += 1
                large.install(line)
        assert misses_large <= misses_small

    @given(lines)
    @settings(max_examples=40, deadline=None)
    def test_resident_set_is_most_recent(self, accesses):
        cache = LRUCache(CacheConfig("T", 8 * 64, ways=8))  # fully assoc
        for line in accesses:
            if not cache.lookup(line):
                cache.install(line)
        # the residents are exactly the most recently used distinct lines
        distinct_recent: list[int] = []
        for line in reversed(accesses):
            if line not in distinct_recent:
                distinct_recent.append(line)
            if len(distinct_recent) == 8:
                break
        assert set(cache.resident_lines()) == set(distinct_recent)


def naive_next(values, positions) -> list[int]:
    """Per position, the next index holding the same value (-1: none), by scanning."""
    out = []
    for i in positions:
        expected = -1
        for j in range(i + 1, len(values)):
            if values[j] == values[i]:
                expected = j
                break
        out.append(expected)
    return out


@st.composite
def values_and_queries(draw):
    """Values drawn from a small pool, so they recur, and positions to query.

    Pool members are small (negative included) or span up to ±2^62, where
    the composite key ``(value − min)·n + position`` would overflow int64.
    Pools of up to 64 members over up to 600 values give recurrences
    longer than the window; few queries on long values take the window,
    many queries on short values read the full map.  Queries come in any
    order, may repeat, and are biased towards the last ``WINDOW``
    positions, where the window runs off the end.
    """
    member = st.integers(-50, 50) | st.integers(-(2**62), 2**62)
    pool = draw(st.lists(member, min_size=1, max_size=64, unique=True))
    n = draw(st.integers(0, 600))
    values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    if n == 0:
        return values, []
    position = st.integers(0, n - 1) | st.integers(max(0, n - WINDOW), n - 1)
    dense = draw(st.booleans())
    return values, draw(st.lists(position, max_size=24 if dense else max(1, n // WINDOW)))


class TestNextSameValueProperties:
    @given(st.lists(st.integers(min_value=0, max_value=20), max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_scan(self, values):
        arr = np.asarray(values, dtype=np.int64)
        nxt = next_same_value_index(arr)
        assert nxt.tolist() == naive_next(values, range(len(values)))

    @given(values_and_queries())
    @settings(max_examples=150, deadline=None)
    def test_queries_match_naive_scan(self, case):
        values, at = case
        arr = np.asarray(values, dtype=np.int64)
        expected = naive_next(values, at)
        assert next_same_value_index(arr, at=np.asarray(at, dtype=np.int64)).tolist() == expected
        assert next_same_value_index(arr)[at].tolist() == expected

    def test_empty_values_and_queries(self):
        empty = np.empty(0, dtype=np.int64)
        assert next_same_value_index(empty).tolist() == []
        assert next_same_value_index(empty, at=empty).tolist() == []
        assert next_same_value_index(np.array([4, 4]), at=empty).tolist() == []
        assert next_same_value_query(empty, at=empty).sorts == 0

    def test_sparse_queries_scan_the_window_then_sort(self):
        n = 64 * WINDOW
        values = np.arange(n) % (4 * WINDOW)  # every value recurs 4·WINDOW later
        values[10 + WINDOW] = values[10]  # recurs at the window's last step
        values[20 + WINDOW + 1] = values[20]  # recurs one step past it
        values[n - 1] = values[n - 3]  # recurs inside the last WINDOW positions
        at = np.array([n - 3, 10, 20, n - 1, 10, 0])  # unsorted, repeated
        answer = next_same_value_query(values, at=at)
        assert answer.index.tolist() == naive_next(values.tolist(), at.tolist())
        assert answer.window_resolved == 3
        assert answer.sorts == 1

    def test_sort_runs_only_when_the_window_misses(self):
        values = np.arange(4096) % 8
        answer = next_same_value_query(values, at=np.array([0, 100, 4095]))
        assert answer.index.tolist() == [8, 108, -1]
        # The last position has no successor, and no window step past the
        # end can answer it, so only it needs the sorted keys.
        assert answer.window_resolved == 2
        assert answer.sorts == 1
        assert next_same_value_query(values, at=np.array([0, 100])).sorts == 0

    def test_out_of_range_query_rejected(self):
        with pytest.raises(IndexError):
            next_same_value_index(np.array([1, 2]), at=np.array([2]))
        with pytest.raises(IndexError):
            next_same_value_index(np.array([1, 2]), at=np.array([-1]))


class TestCandidateFallback:
    """The window's misses are answered from the candidate positions,
    those whose value hashes into a bucket a missed query marked, so
    the key sort sees only part of the trace."""

    @staticmethod
    def check(values, at):
        answer = next_same_value_query(np.asarray(values), at=np.asarray(at, dtype=np.int64))
        assert answer.index.tolist() == naive_next(list(values), list(at))
        return answer

    def test_values_colliding_in_low_bits(self):
        # Distinct multiples of 2^20, each recurring 4·WINDOW later: a
        # low-bits bucket would put every position in the one bucket.
        n = 1 << 15
        values = (np.arange(n, dtype=np.int64) % (n // 4)) << 20
        at = np.arange(0, n, n // 64)
        answer = self.check(values, at)
        assert answer.window_resolved == 0
        assert answer.sorted_keys < n // 8

    def test_one_value_everywhere(self):
        values = np.full(4 * WINDOW, 7)
        at = [len(values) - 1, 0, len(values) - 2]  # only the last position misses
        answer = self.check(values, at)
        assert answer.window_resolved == 2
        assert answer.sorted_keys == len(values)

    def test_negative_values_and_wide_spans(self):
        # -2^62 recurs one step past the window and 2^62 three windows
        # later, so both miss it: the candidates' keys overflow int64
        # unless their values are ranked first.
        rng = np.random.default_rng(30)
        pool = np.array([-(2**40), -5, -1, 0, 3, 2**61], dtype=np.int64)
        values = pool[rng.integers(0, len(pool), 64 * WINDOW)]
        values[:: WINDOW + 1] = -(2**62)
        values[WINDOW // 2 :: 3 * WINDOW] = 2**62
        at = [0, WINDOW // 2, 7 * (WINDOW + 1), len(values) - 1, 5, 9]
        answer = self.check(values, at)
        assert answer.window_resolved <= 2  # at most the two pool values

    def test_repeated_unsorted_and_last_position_queries(self):
        rng = np.random.default_rng(31)
        n = 64 * WINDOW
        values = rng.integers(0, 300, n)  # most recurrences exceed the window
        at = [n - 1, 40, n - 1, 17, 40, n - 2, 0, n - WINDOW]
        answer = self.check(values, at)
        assert answer.sorts == 1

    def test_all_queries_in_the_window(self):
        values = np.arange(64 * WINDOW) % 8
        answer = self.check(values, [0, 9, 100, 7])
        assert (answer.window_resolved, answer.sorts, answer.sorted_keys) == (4, 0, 0)

    def test_no_query_in_the_window(self):
        values = np.arange(64 * WINDOW) % (4 * WINDOW)
        at = [3, 700, 5, 64 * WINDOW - 1, 3]
        answer = self.check(values, at)
        assert (answer.window_resolved, answer.sorts) == (0, 1)

    def test_sparse_query_sorts_far_fewer_than_n_keys(self):
        # Mostly distinct values with a few long recurrences: the
        # fallback sorts the candidates, not the trace.
        n = 1 << 16
        values = np.arange(n, dtype=np.int64)
        at = np.arange(0, n, n // 64)
        values[n // 2 : n // 2 + 16] = values[at[:16]]
        answer = self.check(values, at)
        assert answer.sorts == 1
        assert 0 < answer.sorted_keys <= n // 16


class TestStatStackProperties:
    @given(
        st.integers(min_value=2, max_value=64),
        st.integers(min_value=500, max_value=4000),
    )
    @settings(max_examples=25, deadline=None)
    def test_miss_ratio_monotone_and_bounded(self, wrap_lines, n):
        addr = strided_pattern(0, n, 64, wrap_bytes=wrap_lines * 64)
        t = MemoryTrace.loads(np.zeros(n, np.int64), addr)
        samples = collect_reuse_samples(t, np.arange(n), 64)
        model = StatStackModel(samples)
        sizes = [64, 512, 4096, 65536, 1 << 20]
        ratios = [model.miss_ratio(s) for s in sizes]
        assert all(0.0 <= r <= 1.0 for r in ratios)
        assert all(a >= b - 1e-9 for a, b in zip(ratios, ratios[1:]))

    @given(st.integers(min_value=1, max_value=500))
    @settings(max_examples=25, deadline=None)
    def test_stack_distance_never_exceeds_reuse_distance(self, d):
        n = 2000
        addr = strided_pattern(0, n, 64, wrap_bytes=1 << 16)
        t = MemoryTrace.loads(np.zeros(n, np.int64), addr)
        samples = collect_reuse_samples(t, np.arange(n), 64)
        model = StatStackModel(samples)
        sd = model._tail.stack_distance(np.array([d]))[0]
        assert 0.0 <= sd <= d + 1e-9


class TestInsertionProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=1 << 20),
            ),
            min_size=1,
            max_size=200,
        ),
        st.integers(min_value=-512, max_value=512).filter(lambda d: d != 0),
    )
    @settings(max_examples=60, deadline=None)
    def test_demand_stream_preserved(self, events, distance):
        pcs = [e[0] for e in events]
        addrs = [e[1] for e in events]
        trace = MemoryTrace.loads(pcs, addrs)
        plan = [PrefetchDecision(pc=0, stride=8, distance_bytes=distance, nta=False)]
        out = apply_prefetch_plan(trace, plan)
        assert out.demand_only() == trace
        # every prefetch's address is its predecessor's plus the distance
        pf_positions = np.flatnonzero(out.prefetch_mask)
        for pos in pf_positions.tolist():
            assert out.addr[pos] == out.addr[pos - 1] + distance
            assert out.pc[pos] == out.pc[pos - 1] == 0

    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=100)
    )
    @settings(max_examples=40, deadline=None)
    def test_prefetch_count_matches_target_executions(self, pcs):
        trace = MemoryTrace.loads(pcs, [64 * (i + 8) for i in range(len(pcs))])
        plan = [PrefetchDecision(pc=1, stride=8, distance_bytes=64, nta=True)]
        out = apply_prefetch_plan(trace, plan)
        assert out.n_prefetch == pcs.count(1)


class TestPCStatsProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.booleans()), min_size=1, max_size=300
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_bulk_equals_sequential(self, records):
        seq = PCStats()
        for pc, miss in records:
            seq.record(pc, miss)
        bulk = PCStats()
        bulk.record_bulk(
            np.array([r[0] for r in records]),
            np.array([r[1] for r in records]),
        )
        assert seq.accesses == bulk.accesses
        assert seq.misses == bulk.misses
        assert 0.0 <= bulk.overall_miss_ratio() <= 1.0


class TestSweepProperties:
    @given(
        st.lists(st.integers(min_value=1, max_value=32), min_size=1, max_size=4),
        st.integers(min_value=1, max_value=600),
    )
    @settings(max_examples=50, deadline=None)
    def test_sweep_addresses_within_largest_pass(self, pass_lines, n):
        passes = tuple(p * 64 for p in pass_lines)
        addr = sweep_pattern(0, n, passes, 64)
        assert len(addr) == n
        assert addr.min() >= 0
        assert addr.max() < max(passes)
        assert np.all(addr % 64 == 0)
