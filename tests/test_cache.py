"""Tests for the persistent result cache and its serialisation codecs."""

import json

import numpy as np
import pytest

from repro.api import ExperimentSpec
from repro.cache import ResultCache
from repro.cachesim.stats import LevelStats, PCStats, RunStats
from repro.core.serialization import (
    sampling_from_dict,
    sampling_to_dict,
    stats_from_dict,
    stats_to_dict,
)
from repro.errors import AnalysisError
from repro.experiments.runner import compute_run, profile_for

SCALE = 0.05
SPEC = ExperimentSpec("libquantum", "amd-phenom-ii", "baseline", scale=SCALE)


def _stats_equal(a: RunStats, b: RunStats) -> bool:
    return (
        a.cycles == b.cycles
        and a.instructions == b.instructions
        and a.l1.accesses == b.l1.accesses
        and a.l1.misses == b.l1.misses
        and a.llc.misses == b.llc.misses
        and a.pc_l1.accesses == b.pc_l1.accesses
        and a.pc_l1.misses == b.pc_l1.misses
        and a.sw_prefetches == b.sw_prefetches
        and a.dram_fills == b.dram_fills
        and a.nta_fills == b.nta_fills
        and a.dram_writebacks == b.dram_writebacks
        and a.line_bytes == b.line_bytes
    )


class TestStatsCodec:
    def test_round_trip_real_run(self):
        stats = compute_run(SPEC)
        data = json.loads(json.dumps(stats_to_dict(stats)))
        assert _stats_equal(stats, stats_from_dict(data))

    def test_round_trip_synthetic(self):
        pc = PCStats()
        pc.record(3, True)
        pc.record(3, False)
        stats = RunStats(
            cycles=12.5,
            instructions=40,
            l1=LevelStats(10, 2),
            l2=LevelStats(2, 1),
            llc=LevelStats(1, 1),
            pc_l1=pc,
            sw_prefetches=5,
            sw_useful=3,
            sw_useless=1,
            sw_late=1,
            hw_prefetches=2,
            hw_useful=1,
            hw_useless=1,
            dram_fills=7,
            nta_fills=2,
            dram_writebacks=3,
            nt_store_writes=1,
            line_bytes=64,
        )
        rebuilt = stats_from_dict(stats_to_dict(stats))
        assert _stats_equal(stats, rebuilt)
        assert rebuilt.dram_bytes == stats.dram_bytes

    def test_unknown_format_rejected(self):
        with pytest.raises(AnalysisError):
            stats_from_dict({"format": "repro-stats-v999"})


class TestSamplingCodec:
    def test_round_trip_real_profile(self):
        sampling = profile_for("mcf", "ref", SCALE).sampling
        data = json.loads(json.dumps(sampling_to_dict(sampling)))
        rebuilt = sampling_from_dict(data)
        assert rebuilt.sample_rate == sampling.sample_rate
        assert rebuilt.n_refs == sampling.n_refs
        assert rebuilt.overhead_estimate == sampling.overhead_estimate
        np.testing.assert_array_equal(rebuilt.reuse.distance, sampling.reuse.distance)
        np.testing.assert_array_equal(rebuilt.reuse.start_pc, sampling.reuse.start_pc)
        np.testing.assert_array_equal(rebuilt.strides.stride, sampling.strides.stride)
        np.testing.assert_array_equal(
            rebuilt.strides.recurrence, sampling.strides.recurrence
        )

    def test_unknown_format_rejected(self):
        with pytest.raises(AnalysisError):
            sampling_from_dict({"format": "nope"})


class TestResultCache:
    def test_stats_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        stats = compute_run(SPEC)
        assert cache.get_stats(SPEC) is None
        cache.put_stats(SPEC, stats)
        loaded = cache.get_stats(SPEC)
        assert loaded is not None and _stats_equal(stats, loaded)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_key_depends_on_every_spec_field(self, tmp_path):
        cache = ResultCache(tmp_path)
        base = cache.stats_key(SPEC)
        assert cache.stats_key(SPEC.with_config("hw")) != base
        other_workload = ExperimentSpec("mcf", "amd-phenom-ii", "baseline", scale=SCALE)
        other_machine = ExperimentSpec("libquantum", "intel-i7-2600k", "baseline", scale=SCALE)
        assert cache.stats_key(other_workload) != base
        assert cache.stats_key(other_machine) != base

    def test_keys_are_pinned(self, tmp_path):
        """The content addresses existing on-disk entries live under: a
        change that moves one makes every existing cache miss."""
        cache = ResultCache(tmp_path)
        assert cache.stats_key(SPEC) == (
            "351943f4f874bd209f0557ae1f57388f1efc523352418516023c252bbcd2e2a2"
        )
        assert cache.stats_key(ExperimentSpec("mcf", "intel-i7-2600k", "swnt")) == (
            "a63a3b2f90977b2e69db02ba49d965defbadfaf6c9351d1373e257e1750118ee"
        )

    def test_key_invalidated_by_settings_change(self, tmp_path, monkeypatch):
        """Changing a code-relevant setting (profiling rate, machine
        geometry) must address a different cache entry."""
        from repro import cache as cache_module

        cache = ResultCache(tmp_path)
        base = cache.stats_key(SPEC)
        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "PROFILE_RATE", cache_module.PROFILE_RATE * 2)
            assert cache.stats_key(SPEC) != base
        assert cache.stats_key(SPEC) == base

        import dataclasses

        from repro import config

        bigger_llc = dataclasses.replace(
            config.amd_phenom_ii(),
            llc=dataclasses.replace(config.amd_phenom_ii().llc, size_bytes=12 << 20),
        )
        monkeypatch.setitem(config.MACHINES, "amd-phenom-ii", lambda: bigger_llc)
        assert cache.stats_key(SPEC) != base

    def test_corrupted_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_stats(SPEC, compute_run(SPEC))
        path = cache._path("stats", cache.stats_key(SPEC))
        path.write_text("{not json")
        assert cache.get_stats(SPEC) is None
        assert not path.exists()

    def test_wrong_format_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.stats_key(SPEC)
        path = cache._path("stats", key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"format": "repro-stats-v999"}))
        assert cache.get_stats(SPEC) is None

    def test_zero_length_entry_is_absent(self, tmp_path):
        """A torn write must not satisfy has_stats — otherwise a
        memo-only cell is never re-persisted and can never be read."""
        cache = ResultCache(tmp_path)
        cache.put_stats(SPEC, compute_run(SPEC))
        assert cache.has_stats(SPEC)
        path = cache._path("stats", cache.stats_key(SPEC))
        path.write_text("")
        assert not cache.has_stats(SPEC)
        assert cache.get_stats(SPEC) is None
        assert not path.exists()  # dropped like any corrupt entry

    def test_missing_entry_not_present(self, tmp_path):
        assert not ResultCache(tmp_path).has_stats(SPEC)

    def test_sweep_stale_tmp_reclaims_orphans(self, tmp_path):
        import os
        import time

        cache = ResultCache(tmp_path)
        cache.put_stats(SPEC, compute_run(SPEC))
        bucket = cache._path("stats", cache.stats_key(SPEC)).parent
        stale = bucket / ".deadbeef-orphan.tmp"
        fresh = bucket / ".cafebabe-live.tmp"
        stale.write_text("{")
        fresh.write_text("{")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        assert cache.sweep_stale_tmp(older_than=600) == 1
        assert not stale.exists()
        assert fresh.exists()  # possibly a live concurrent writer
        assert cache.get_stats(SPEC) is not None  # untouched

    def test_sweep_on_missing_root_is_noop(self, tmp_path):
        assert ResultCache(tmp_path / "nope").sweep_stale_tmp() == 0

    def test_counters_summary(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.get_stats(SPEC)
        assert (cache.stats.hits, cache.stats.misses, cache.stats.stores) == (0, 1, 0)
        assert "stats 0 hit/1 miss/0 stored" in cache.describe()


class TestEntryIntegrity:
    """The self-healing layer: footers, quarantine, verify, quota, ENOSPC."""

    @pytest.fixture(autouse=True)
    def _disarm_after(self):
        from repro import faults

        faults.disarm()
        yield
        faults.disarm()

    def _seeded(self, tmp_path, **kwargs):
        cache = ResultCache(tmp_path, **kwargs)
        cache.put_stats(SPEC, compute_run(SPEC))
        path = cache._path("stats", cache.stats_key(SPEC))
        return cache, path

    def test_entries_carry_integrity_footer(self, tmp_path):
        from repro.cache import ENTRY_FORMAT

        _, path = self._seeded(tmp_path)
        raw = path.read_bytes()
        assert ENTRY_FORMAT.encode() in raw
        assert raw.endswith(b"\n")

    def test_single_bit_flip_is_caught_and_quarantined(self, tmp_path):
        cache, path = self._seeded(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[10] ^= 0x01
        path.write_bytes(bytes(raw))
        assert cache.get_stats(SPEC) is None
        assert not path.exists()
        assert cache.integrity.corrupt == 1
        assert cache.integrity.quarantined == 1
        assert len(list(cache.quarantine_dir.iterdir())) == 1

    def test_truncated_entry_is_caught(self, tmp_path):
        cache, path = self._seeded(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        assert cache.get_stats(SPEC) is None
        assert cache.integrity.corrupt == 1

    def test_torn_write_fault_never_served(self, tmp_path):
        from repro import faults

        faults.arm("cache.torn_write", kind="corrupt", times=1)
        cache, path = self._seeded(tmp_path)
        assert path.exists()  # the torn entry was published...
        assert cache.get_stats(SPEC) is None  # ...but not trusted
        assert cache.integrity.quarantined == 1

    def test_verify_audits_and_quarantines(self, tmp_path):
        cache, path = self._seeded(tmp_path)
        report = cache.verify()
        assert (report.checked, report.ok, report.corrupt) == (1, 1, 0)
        path.write_bytes(b"garbage")
        report = cache.verify()
        assert report.corrupt == 1
        assert report.quarantined  # names the entry
        assert "corrupt" in report.render()
        assert cache.verify().corrupt == 0  # healed: corpse is gone

    def test_quota_evicts_least_recently_used(self, tmp_path):
        import os
        import time

        cache = ResultCache(tmp_path)
        specs = [
            ExperimentSpec("libquantum", "amd-phenom-ii", c, scale=SCALE)
            for c in ("baseline", "swnt", "hw")
        ]
        for i, spec in enumerate(specs):
            cache.put_stats(spec, compute_run(spec))
            path = cache._path("stats", cache.stats_key(spec))
            mtime = time.time() - 1000 + i  # oldest first
            os.utime(path, (mtime, mtime))
        total = cache.entry_stats()["total_bytes"]
        one_entry = total // len(specs)
        evicted = cache.enforce_quota(total - one_entry // 2)
        assert evicted == 1
        assert cache.integrity.evicted == 1
        # the *oldest* entry went; the youngest survives
        assert cache.get_stats(specs[0]) is None
        assert cache.get_stats(specs[-1]) is not None

    def test_read_hit_refreshes_recency(self, tmp_path):
        import os
        import time

        cache, path = self._seeded(tmp_path)
        old = time.time() - 5000
        os.utime(path, (old, old))
        cache.get_stats(SPEC)
        assert path.stat().st_mtime > old + 1000

    def test_enospc_store_downgrades_to_read_only(self, tmp_path):
        from repro import faults

        cache, path = self._seeded(tmp_path)  # one good entry on disk
        faults.arm("disk.enospc", kind="enospc", times=1)
        other = ExperimentSpec("libquantum", "amd-phenom-ii", "swnt", scale=SCALE)
        cache.put_stats(other, compute_run(other))  # must not raise
        assert cache.read_only
        assert cache.integrity.write_errors == 1
        assert "[read-only]" in cache.describe()
        # reads keep working; later stores are skipped and counted
        assert cache.get_stats(SPEC) is not None
        cache.put_stats(other, compute_run(other))
        assert cache.integrity.write_errors == 2
        assert cache.stats.stores == 1  # only the pre-failure store counted

    def test_gc_reclaims_quarantine_and_reports(self, tmp_path):
        cache, path = self._seeded(tmp_path)
        path.write_bytes(b"junk")
        cache.get_stats(SPEC)  # quarantines
        assert len(list(cache.quarantine_dir.iterdir())) == 1
        summary = cache.gc(older_than=0.0)
        assert summary["quarantine_removed"] == 1
        assert not list(cache.quarantine_dir.iterdir())

    def test_sweep_counts_journal_temps_per_class(self, tmp_path):
        import os
        import time

        cache = ResultCache(tmp_path / "cache")
        runs = tmp_path / "runs"
        (runs / "some-run").mkdir(parents=True)
        orphan = runs / "some-run" / ".journal-xyz.tmp"
        orphan.write_text("{")
        old = time.time() - 7200
        os.utime(orphan, (old, old))
        assert cache.sweep_stale_tmp(older_than=600, runs_dir=runs) == 1
        assert cache.swept["journal"] == 1
        assert not orphan.exists()
        assert "swept" in cache.describe()

    def test_entry_stats_accounting(self, tmp_path):
        cache, path = self._seeded(tmp_path)
        stats = cache.entry_stats()
        assert stats["kinds"]["stats"]["entries"] == 1
        assert stats["kinds"]["stats"]["bytes"] == path.stat().st_size
        assert stats["total_bytes"] >= path.stat().st_size
        assert stats["quarantined"] == 0
