"""Tests for the evaluation metrics (paper §VII-C/D formulas)."""

import pytest

from repro.errors import ExperimentError
from repro.metrics import (
    fair_speedup,
    per_app_speedups,
    qos_degradation,
    sorted_distribution,
    traffic_increase,
    traffic_reduction_vs,
    weighted_speedup,
)
from repro.cachesim.stats import RunStats


class TestThroughputMetrics:
    def test_per_app_speedups(self):
        assert per_app_speedups([100, 200], [50, 200]) == [2.0, 1.0]

    def test_weighted_speedup_is_mean(self):
        assert weighted_speedup([100, 100], [50, 100]) == pytest.approx(1.5)

    def test_fair_speedup_harmonic(self):
        # paper formula: N / sum(T_pref / T_base)
        base = [100.0, 100.0]
        opt = [50.0, 200.0]
        expected = 2 / (50 / 100 + 200 / 100)
        assert fair_speedup(base, opt) == pytest.approx(expected)

    def test_fair_below_weighted_for_imbalance(self):
        # FS <= weighted speedup, with equality only for balanced mixes
        base, opt = [100, 100], [40, 120]
        assert fair_speedup(base, opt) < weighted_speedup(base, opt)
        assert fair_speedup([100, 100], [80, 80]) == pytest.approx(
            weighted_speedup([100, 100], [80, 80])
        )

    def test_qos_zero_when_nothing_slows(self):
        assert qos_degradation([100, 100], [90, 100]) == 0.0

    def test_qos_counts_only_slowdowns(self):
        # one app 2x faster, one 20% slower: QoS only sees the slowdown
        q = qos_degradation([100, 100], [50, 125])
        assert q == pytest.approx(100 / 125 - 1.0)

    def test_rejects_empty(self):
        with pytest.raises(ExperimentError):
            weighted_speedup([], [])

    def test_rejects_nonpositive(self):
        with pytest.raises(ExperimentError):
            weighted_speedup([100], [0])


class TestTrafficMetrics:
    def _stats(self, fills, wbs=0):
        s = RunStats(line_bytes=64)
        s.dram_fills = fills
        s.dram_writebacks = wbs
        s.cycles = 1000.0
        return s

    def test_traffic_increase(self):
        assert traffic_increase(self._stats(100), self._stats(150)) == pytest.approx(0.5)
        assert traffic_increase(self._stats(100), self._stats(80)) == pytest.approx(-0.2)

    def test_writebacks_counted(self):
        assert traffic_increase(self._stats(100), self._stats(100, wbs=50)) == pytest.approx(0.5)

    def test_reduction_vs(self):
        # "44% less traffic than hardware prefetching"
        assert traffic_reduction_vs(self._stats(200), self._stats(112)) == pytest.approx(0.44)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ExperimentError):
            traffic_increase(self._stats(0), self._stats(1))


class TestDistributions:
    def test_sorted_descending(self):
        d = sorted_distribution([1.0, 3.0, 2.0])
        assert d.tolist() == [3.0, 2.0, 1.0]

    def test_sorted_ascending(self):
        d = sorted_distribution([1.0, 3.0, 2.0], descending=False)
        assert d.tolist() == [1.0, 2.0, 3.0]

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            sorted_distribution([])
