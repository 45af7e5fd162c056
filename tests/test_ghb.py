"""Tests for the GHB delta-correlation prefetcher."""

import numpy as np
import pytest

from repro.cachesim import CacheHierarchy
from repro.hwpref import GHBPrefetcher
from repro.trace import MemoryTrace


def drive(pf, deltas, n, pc=0, start=0):
    addr = start
    fired = []
    for i in range(n):
        addr += deltas[i % len(deltas)]
        fired += [r[0] for r in pf.observe(pc, addr, addr // 64, False)]
    return fired


class TestDeltaCorrelation:
    def test_constant_stride_still_covered(self):
        fired = drive(GHBPrefetcher(), [64], 30)
        assert fired
        assert all(line > 0 for line in fired)

    def test_repeating_delta_sequence(self):
        # +8,+8,+48 struct walk: no dominant single stride, clear delta
        # pattern — the GHB's home turf
        fired = drive(GHBPrefetcher(), [8, 8, 48], 60)
        assert len(fired) > 20

    def test_ghb_beats_rpt_on_patterned_deltas(self):
        """End-to-end: delta-patterned misses covered better by GHB."""
        deltas = [8, 8, 240]  # advances a line per period, irregularly
        addr = 0
        addrs = []
        for i in range(30_000):
            addr += deltas[i % 3]
            addrs.append(addr)
        trace = MemoryTrace.loads(np.zeros(len(addrs), np.int64), addrs)

        from repro.config import amd_phenom_ii

        machine = amd_phenom_ii()
        base = CacheHierarchy(machine).run(trace, work_per_memop=8.0, mlp=4.0)
        ghb = CacheHierarchy(machine, prefetcher=GHBPrefetcher()).run(
            trace, work_per_memop=8.0, mlp=4.0
        )
        assert ghb.cycles < base.cycles
        assert ghb.hw_useful > 0

    def test_random_pattern_stays_quiet(self, rng):
        deltas = rng.integers(-4096, 4096, size=97).tolist()
        fired = drive(GHBPrefetcher(), deltas, 90)
        # no repeating pair: (almost) nothing should fire
        assert len(fired) < 10

    def test_per_pc_isolation(self):
        pf = GHBPrefetcher()
        drive(pf, [64], 20, pc=0)
        # a fresh PC has no history: needs warm-up before firing
        assert pf.observe(1, 0, 0, False) == []

    def test_table_bounded(self):
        pf = GHBPrefetcher(table_size=8)
        for pc in range(32):
            pf.observe(pc, 0, 0, False)
        assert len(pf._table) <= 8

    def test_reset(self):
        pf = GHBPrefetcher()
        drive(pf, [64], 20)
        pf.reset()
        assert drive(pf, [64], 3) == []

    def test_param_validation(self):
        with pytest.raises(ValueError):
            GHBPrefetcher(history=2)
        with pytest.raises(ValueError):
            GHBPrefetcher(degree=0)

    def test_constant_stride_detected_at_fourth_access(self):
        """Regression: the pair search must include the overlapping pair.

        With four addresses the history holds three deltas; for a
        constant stride the newest candidate pair — overlapping the key
        by one delta — is the *only* match.  The old search started one
        position too low, skipped it, and detected every stream exactly
        one observation late.
        """
        pf = GHBPrefetcher()
        fired = []
        for i in range(4):
            fired = pf.observe(0, i * 64, i, False)
        assert [r[0] for r in fired] == [4]  # 4 * 64 = the next line

    def test_period_two_delta_pattern_exact_replay(self):
        # +64,+192 alternation: the key pair first re-occurs at the 5th
        # access, and replaying the delta after the match must predict
        # the next address of the pattern, not a constant stride.
        pf = GHBPrefetcher(degree=1)
        addrs = [0, 64, 256, 320, 512]
        fired = []
        for i, addr in enumerate(addrs):
            fired = pf.observe(0, addr, addr // 64, False)
            if i == 3:
                assert fired == []  # pattern not seen twice yet
        assert [r[0] for r in fired] == [(512 + 64) // 64]
