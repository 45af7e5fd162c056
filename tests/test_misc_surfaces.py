"""Small-surface tests: formatting helpers, throttle base, stats containers."""

import numpy as np
import pytest

from repro.cachesim.stats import LevelStats, PCStats, RunStats
from repro.experiments.tables import pct, render_series, render_table
from repro.hwpref.base import NullPrefetcher
from repro.trace.util import next_same_value_index


class TestFormatting:
    def test_pct(self):
        assert pct(0.163) == "+16.3%"
        assert pct(-0.04, digits=0) == "-4%"

    def test_render_table_title_optional(self):
        text = render_table(("h",), [("v",)])
        assert text.splitlines()[0] == "h"

    def test_render_series_single_point(self):
        text = render_series({"a": [0.5]}, points=2, fmt="{:.1f}")
        assert text.count("0.5") == 2  # same value at both percentiles


class TestThrottleBase:
    def test_no_callback_means_no_throttle(self):
        pf = NullPrefetcher()
        assert pf._throttle_factor() == 1.0

    def test_callback_floor(self):
        pf = NullPrefetcher(utilisation=lambda: 1.0)
        assert pf._throttle_factor() == pytest.approx(0.25)

    def test_callback_midpoint(self):
        pf = NullPrefetcher(utilisation=lambda: 0.85)
        assert 0.25 < pf._throttle_factor() < 1.0


class TestStatsContainers:
    def test_level_stats_miss_ratio(self):
        s = LevelStats(accesses=10, misses=3)
        assert s.miss_ratio == pytest.approx(0.3)
        assert LevelStats().miss_ratio == 0.0

    def test_run_stats_bandwidth_zero_cycles(self):
        assert RunStats().bandwidth_gbs(3.0) == 0.0

    def test_llc_insertions_excludes_nta(self):
        s = RunStats(dram_fills=100, nta_fills=30)
        assert s.llc_insertions == 70

    def test_pc_stats_miss_ratio_unknown(self):
        assert PCStats().miss_ratio(7) == 0.0


class TestNextSameValueUtil:
    def test_duplicated_runs(self):
        assert next_same_value_index(np.array([1, 1, 1])).tolist() == [1, 2, -1]

    def test_interleaved(self):
        assert next_same_value_index(np.array([3, 4, 3, 4])).tolist() == [2, 3, -1, -1]
