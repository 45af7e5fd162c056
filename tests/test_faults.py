"""Fault-injection tests for the engine's fault-tolerance layer.

Covers the deterministic fault registry itself, per-cell retries,
poison-cell bisection, the ``BrokenProcessPool`` → serial fallback,
hung-group deadlines, cache-IO degradation, and the acceptance scenario:
a ≥24-cell grid with a ~10 % injected worker-failure rate must yield
bit-identical results for every healthy cell plus a failure report
naming exactly the poisoned specs.
"""

import time

import pytest

from repro import faults
from repro.api import ExperimentSpec
from repro.cache import ResultCache
from repro.core.serialization import stats_to_dict
from repro.errors import CellFailure, EngineError
from repro.experiments import runner
from repro.experiments.engine import ExperimentEngine, FailureReport
from repro.faults import InjectedFault, match_fraction
from repro.retry import RetryPolicy

SCALE = 0.05
GRID = ExperimentSpec.grid(
    ("libquantum", "mcf", "lbm"), ("amd-phenom-ii",), ("baseline", "hw"),
    scales=(SCALE,),
)

#: No sleeping between attempts — faults are deterministic anyway.
FAST = RetryPolicy(max_attempts=2, base_delay=0.0)
ONE_SHOT = RetryPolicy(max_attempts=1, base_delay=0.0)


@pytest.fixture(autouse=True)
def _disarm_after():
    faults.disarm()
    yield
    faults.disarm()


def _is(spec):
    return lambda subject: subject == spec


def _dicts(results):
    return {spec: stats_to_dict(stats) for spec, stats in results.items()}


class TestRegistry:
    def test_inactive_by_default(self):
        assert not faults.ACTIVE
        faults.check("worker.compute", None)  # no-op when nothing armed

    def test_arm_disarm_toggle_active(self):
        faults.arm("worker.compute")
        assert faults.ACTIVE
        assert faults.armed_sites() == ("worker.compute",)
        faults.disarm("worker.compute")
        assert not faults.ACTIVE

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            faults.arm("worker.compute", kind="explode")

    def test_raise_fires_and_times_limits(self):
        faults.arm("worker.compute", "raise", times=1)
        with pytest.raises(InjectedFault):
            faults.check("worker.compute", "x")
        faults.check("worker.compute", "x")  # exhausted: no-op

    def test_match_limits_victims(self):
        faults.arm("worker.compute", "raise", match=lambda s: s == "bad")
        faults.check("worker.compute", "good")
        with pytest.raises(InjectedFault):
            faults.check("worker.compute", "bad")

    def test_kill_never_fires_outside_workers(self):
        assert not faults.in_worker()
        faults.arm("worker.compute", "kill")
        faults.check("worker.compute", "x")  # survives: we are the parent

    def test_corrupt_only_polled_via_should_corrupt(self):
        faults.arm("cache.write", "corrupt", times=1)
        faults.check("cache.write", "k")  # raise/hang path skips corrupt
        assert faults.should_corrupt("cache.write", "k")
        assert not faults.should_corrupt("cache.write", "k")  # exhausted

    def test_match_fraction_deterministic_and_bounded(self):
        pred = match_fraction(0.10, seed=0)
        elected = [s for s in GRID if pred(s)]
        assert elected == [s for s in GRID if match_fraction(0.10, 0)(s)]
        assert match_fraction(0.0)(GRID[0]) is False
        assert match_fraction(1.0)(GRID[0]) is True
        with pytest.raises(ValueError):
            match_fraction(1.5)


class TestSerialFaultTolerance:
    def test_transient_fault_retried_to_success(self):
        runner.clear_memo()
        faults.arm("worker.compute", "raise", times=1)
        engine = ExperimentEngine(jobs=1, retry=FAST)
        results = engine.run(GRID)
        assert set(results) == set(GRID)
        assert engine.stats.retries >= 1
        assert not engine.last_failures

    def test_best_effort_isolates_poison_cell(self):
        runner.clear_memo()
        poison = GRID[1]
        faults.arm("worker.compute", "raise", match=_is(poison))
        engine = ExperimentEngine(jobs=1, strict=False, retry=FAST)
        results = engine.run(GRID)
        assert set(results) == set(GRID) - {poison}
        report = engine.last_failures
        assert report.specs() == [poison]
        failure = report.failures[0]
        assert isinstance(failure, CellFailure)
        assert failure.attempts == FAST.max_attempts
        assert isinstance(failure.cause, InjectedFault)
        assert poison.label() in report.format_table()

    def test_strict_raises_engine_error_with_report(self):
        runner.clear_memo()
        poison = GRID[0]
        faults.arm("worker.compute", "raise", match=_is(poison))
        engine = ExperimentEngine(jobs=1, strict=True, retry=FAST)
        with pytest.raises(EngineError) as excinfo:
            engine.run(GRID)
        assert excinfo.value.report.specs() == [poison]
        assert engine.last_failures is excinfo.value.report

    def test_partial_batch_accounted_despite_strict_raise(self):
        """merge_batch must run in a finally: a raising run() still shows
        its completed cells in summary()."""
        runner.clear_memo()
        poison = GRID[-1]
        faults.arm("worker.compute", "raise", match=_is(poison))
        engine = ExperimentEngine(jobs=1, strict=True, retry=ONE_SHOT)
        with pytest.raises(EngineError):
            engine.run(GRID)
        assert engine.stats.batches == 1
        assert engine.stats.cells == len(GRID)
        assert engine.stats.computed == len(GRID) - 1
        assert engine.stats.failed == 1
        assert f"{len(GRID)} cells" in engine.summary()

    def test_untolerated_exception_still_accounts_batch(self):
        """Even an exception the fault layer does not own (here: a
        raising progress callback) must leave the partial batch in
        summary() — merge_batch runs in a finally."""
        runner.clear_memo()

        def explode_on_third(done, total, spec, source):
            if done == 3:
                raise KeyboardInterrupt

        engine = ExperimentEngine(jobs=1, progress=explode_on_third)
        with pytest.raises(KeyboardInterrupt):
            engine.run(GRID)
        assert engine.stats.batches == 1
        assert engine.stats.cells == 3
        assert engine.stats.computed == 3

    def test_progress_reports_failed_source(self):
        runner.clear_memo()
        poison = GRID[2]
        faults.arm("worker.compute", "raise", match=_is(poison))
        seen = []
        engine = ExperimentEngine(
            jobs=1, strict=False, retry=ONE_SHOT,
            progress=lambda done, total, spec, source: seen.append((spec, source)),
        )
        engine.run(GRID)
        assert (poison, "failed") in seen
        assert len(seen) == len(GRID)


class TestParallelFaultTolerance:
    def test_bisection_isolates_poison_cell(self):
        runner.clear_memo()
        healthy = _dicts(ExperimentEngine(jobs=1).run(GRID))
        runner.clear_memo()
        poison = GRID[3]
        faults.arm("worker.compute", "raise", match=_is(poison))
        engine = ExperimentEngine(jobs=2, strict=False, retry=FAST)
        results = engine.run(GRID)
        assert set(results) == set(GRID) - {poison}
        assert engine.last_failures.specs() == [poison]
        # Bisection re-dispatches: splitting the 2-cell group plus the
        # single-cell retries all count.
        assert engine.stats.retries >= 2
        assert _dicts(results) == {s: healthy[s] for s in results}

    def test_broken_pool_falls_back_to_serial(self):
        runner.clear_memo()
        healthy = _dicts(ExperimentEngine(jobs=1).run(GRID))
        runner.clear_memo()
        victim = GRID[2]
        faults.arm("worker.compute", "kill", match=_is(victim))
        engine = ExperimentEngine(jobs=2, strict=False)
        results = engine.run(GRID)  # must not raise BrokenProcessPool
        # Kill faults fire only inside pool workers, so the serial
        # fallback completes every cell, the victim included.
        assert set(results) == set(GRID)
        assert _dicts(results) == healthy
        assert engine.last_failures.fallbacks >= 1
        assert not engine.last_failures

    def test_hung_group_times_out_and_is_isolated(self):
        runner.clear_memo()
        hung = GRID[2]
        faults.arm(
            "worker.compute", "hang", match=_is(hung), hang_seconds=30.0
        )
        policy = RetryPolicy(max_attempts=1, base_delay=0.0, timeout=2.0)
        engine = ExperimentEngine(jobs=2, strict=False, retry=policy)
        start = time.perf_counter()
        results = engine.run(GRID)
        wall = time.perf_counter() - start
        assert wall < 20.0, "deadline must beat the 30s hang"
        assert set(results) == set(GRID) - {hung}
        report = engine.last_failures
        assert report.specs() == [hung]
        assert report.failures[0].cause is None  # timeout, not an exception
        assert report.fallbacks >= 1
        assert "Timeout" in report.format_table()

    def test_acceptance_ten_percent_failures_on_24_cell_grid(self):
        """Acceptance criterion: ~10 % injected worker-failure rate on a
        ≥24-cell grid; best-effort returns bit-identical RunStats for
        every healthy cell and a report naming exactly the poisoned
        specs; strict raises EngineError carrying the same report."""
        grid = ExperimentSpec.grid(
            ("libquantum", "mcf", "lbm", "soplex", "gcc", "omnetpp"),
            ("amd-phenom-ii", "intel-i7-2600k"),
            ("baseline", "hw"),
            scales=(0.04,),
        )
        assert len(grid) >= 24
        poison_match = match_fraction(0.10, seed=0)
        poisoned = {s for s in grid if poison_match(s)}
        assert 0 < len(poisoned) <= len(grid) // 4

        runner.clear_memo()
        healthy = _dicts(ExperimentEngine(jobs=1).run(grid))

        runner.clear_memo()
        faults.arm("worker.compute", "raise", match=poison_match)
        engine = ExperimentEngine(jobs=2, strict=False, retry=FAST)
        results = engine.run(grid)  # never raises BrokenProcessPool
        assert set(results) == set(grid) - poisoned
        assert set(engine.last_failures.specs()) == poisoned
        assert _dicts(results) == {s: healthy[s] for s in results}

        runner.clear_memo()
        strict_engine = ExperimentEngine(jobs=2, strict=True, retry=FAST)
        with pytest.raises(EngineError) as excinfo:
            strict_engine.run(grid)
        assert set(excinfo.value.report.specs()) == poisoned


class TestCacheFaultDegradation:
    def test_read_fault_degrades_to_recompute(self, tmp_path):
        runner.clear_memo()
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path, use_cache=True)
        first = engine.run(GRID[:2])
        runner.clear_memo()
        faults.arm("cache.read", "raise")
        warm = ExperimentEngine(jobs=1, cache_dir=tmp_path, use_cache=True)
        second = warm.run(GRID[:2])
        assert warm.stats.computed == len(GRID[:2])  # every read failed
        assert not warm.last_failures
        assert _dicts(first) == _dicts(second)

    def test_write_fault_skips_store_but_run_succeeds(self, tmp_path):
        runner.clear_memo()
        faults.arm("cache.write", "raise")
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path, use_cache=True)
        results = engine.run(GRID[:2])
        assert set(results) == set(GRID[:2])
        assert not engine.last_failures

    def test_decode_fault_degrades_to_recompute(self, tmp_path):
        runner.clear_memo()
        ExperimentEngine(jobs=1, cache_dir=tmp_path, use_cache=True).run(GRID[:1])
        runner.clear_memo()
        faults.arm("serialization.decode", "raise")
        warm = ExperimentEngine(jobs=1, cache_dir=tmp_path, use_cache=True)
        results = warm.run(GRID[:1])
        assert set(results) == set(GRID[:1])
        assert warm.stats.computed == 1

    def test_corrupted_write_is_re_persisted_later(self, tmp_path):
        """A torn write (zero-length entry) must not satisfy has_stats,
        so the memo-only cell is re-persisted and readable afterwards."""
        runner.clear_memo()
        spec = GRID[0]
        faults.arm("cache.write", "corrupt", times=1)
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path, use_cache=True)
        engine.run([spec])
        cache = ResultCache(tmp_path)
        faults.disarm()
        # The cell's stats entry is the run's only store, so the one-shot
        # fault tore it: the zero-length file is published but absent.
        path = cache._path("stats", cache.stats_key(spec))
        assert path.exists() and path.stat().st_size == 0
        assert not cache.has_stats(spec)
        assert cache.get_stats(spec) is None
        # Second engine pass over the memo-resident cell re-persists it.
        repaired = ExperimentEngine(jobs=1, cache_dir=tmp_path, use_cache=True)
        repaired.run([spec])
        assert cache.has_stats(spec)
        assert cache.get_stats(spec) is not None


class TestFailureReport:
    def test_empty_report_is_falsy(self):
        report = FailureReport()
        assert not report
        assert len(report) == 0
        assert report.specs() == []

    def test_report_table_lists_each_cell(self):
        report = FailureReport()
        report.add(
            CellFailure(
                "boom", spec=GRID[0], attempts=3, elapsed=1.5,
                cause=ValueError("bad"),
            )
        )
        table = report.format_table()
        assert GRID[0].label() in table
        assert "ValueError" in table
        assert "1.50s" in table


class TestEnospcAndKillSites:
    def test_enospc_kind_raises_real_oserror(self):
        import errno

        faults.arm("disk.enospc", kind="enospc", times=1)
        with pytest.raises(OSError) as excinfo:
            faults.check("disk.enospc", "journal")
        assert excinfo.value.errno == errno.ENOSPC
        faults.check("disk.enospc", "journal")  # times=1: second is a no-op

    def test_enospc_in_kinds_tuple(self):
        assert "enospc" in faults.FAULT_KINDS
        assert "kill" in faults.FAULT_KINDS

    def test_sigkill_site_inert_in_parent_process(self):
        # "kill" faults only fire in marked pool workers; the site in
        # compute_run must be survivable from the parent/serial path.
        faults.arm("worker.sigkill", kind="kill")
        runner.compute_run(GRID[0])  # would os._exit if it fired

    def test_sigkill_site_kills_pool_worker_and_engine_recovers(self):
        # A worker that dies with the group poisons the future; the
        # engine falls back and resolves every healthy cell anyway.
        victim = GRID[0]
        faults.arm("worker.sigkill", kind="kill", match=_is(victim), times=1)
        engine = ExperimentEngine(jobs=2, retry=FAST, strict=False)
        results = engine.run(GRID)
        runner.clear_memo()
        assert set(results) == set(GRID)  # retry succeeded after times=1
