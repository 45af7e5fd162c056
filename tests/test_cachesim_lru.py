"""Tests for the set-associative LRU cache."""

import numpy as np

from repro.cachesim.lru import (
    FLAG_DIRTY,
    FLAG_NTA,
    FLAG_REFERENCED,
    FLAG_SW_PREFETCH,
    OP_TOUCH,
    LRUCache,
)
from repro.config import CacheConfig


def make_cache(lines=8, ways=2):
    return LRUCache(CacheConfig("T", lines * 64, ways=ways, line_bytes=64))


def _ops(lines, kind, flags):
    """An ``ops_batch`` stream of one op kind and flag set."""
    n = len(lines)
    return (
        np.array(lines, dtype=np.int64),
        np.full(n, kind, dtype=np.uint8),
        np.full(n, flags, dtype=np.int64),
    )


class TestBasics:
    def test_miss_then_hit(self):
        c = make_cache()
        assert not c.lookup(5)
        c.install(5)
        assert c.lookup(5)

    def test_capacity(self):
        c = make_cache(lines=8, ways=2)
        for line in range(8):
            c.install(line)
        assert len(c) == 8

    def test_eviction_is_lru(self):
        c = make_cache(lines=4, ways=4)  # one set, 4 ways? 4 lines/4 ways=1 set
        for line in range(4):
            c.install(line * 1)  # same set when num_sets==1
        c.lookup(0)  # refresh 0
        victim = c.install(100)
        assert victim is not None
        assert victim[0] == 1  # line 1 is now LRU

    def test_install_refreshes_existing(self):
        c = make_cache(lines=4, ways=4)
        for line in range(4):
            c.install(line)
        c.install(0, FLAG_DIRTY)  # re-install merges flags, refreshes
        victim = c.install(50)
        assert victim[0] == 1
        assert c.peek_flags(0) & FLAG_DIRTY

    def test_set_isolation(self):
        c = make_cache(lines=8, ways=2)  # 4 sets
        # lines 0,4,8,12 all map to set 0; line 1 to set 1
        c.install(0)
        c.install(4)
        victim = c.install(8)
        assert victim[0] == 0
        assert c.contains(1) is False
        c.install(1)
        assert c.contains(4) and c.contains(8) and c.contains(1)


class TestFlags:
    def test_lookup_merges_flags(self):
        c = make_cache()
        c.install(3, FLAG_SW_PREFETCH)
        c.lookup(3, FLAG_REFERENCED)
        assert c.peek_flags(3) == FLAG_SW_PREFETCH | FLAG_REFERENCED

    def test_touch_flags_does_not_refresh(self):
        c = make_cache(lines=4, ways=4)
        for line in range(4):
            c.install(line)
        hit, _, _, _, _ = c.ops_batch(*_ops([0], OP_TOUCH, FLAG_DIRTY))
        assert hit.tolist() == [True]
        victim = c.install(50)
        assert victim[0] == 0  # still LRU despite touch
        assert victim[1] & FLAG_DIRTY

    def test_touch_flags_missing_line(self):
        c = make_cache()
        hit, _, vic_idx, _, _ = c.ops_batch(*_ops([9], OP_TOUCH, FLAG_DIRTY))
        assert hit.tolist() == [False]
        assert len(vic_idx) == 0 and len(c) == 0

    def test_nta_flag_roundtrip(self):
        c = make_cache()
        c.install(7, FLAG_NTA)
        assert c.peek_flags(7) & FLAG_NTA

    def test_invalidate(self):
        c = make_cache()
        c.install(2, FLAG_DIRTY)
        assert c.invalidate(2) == FLAG_DIRTY
        assert not c.contains(2)
        assert c.invalidate(2) is None


class TestMaintenance:
    def test_resident_lines(self):
        c = make_cache()
        for line in (1, 2, 3):
            c.install(line)
        assert sorted(c.resident_lines()) == [1, 2, 3]

    def test_invariants_hold_under_churn(self, rng):
        c = make_cache(lines=16, ways=4)
        for line in rng.integers(0, 100, size=2000).tolist():
            if not c.lookup(line):
                c.install(line)
        c.check_invariants()
        assert len(c) <= 16
