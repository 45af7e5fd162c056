"""Tests for the parallel experiment engine."""

import pytest

from repro.api import (
    ExperimentSpec,
    configure,
    current_engine,
    reset_default_engine,
    run_many,
)
from repro.experiments import runner
from repro.experiments.engine import ExperimentEngine

SCALE = 0.05
GRID = ExperimentSpec.grid(
    ("libquantum", "mcf"), ("amd-phenom-ii",), ("baseline", "swnt"), scales=(SCALE,)
)


def _cycles(results):
    return {spec: stats.cycles for spec, stats in results.items()}


@pytest.fixture(autouse=True)
def _fresh_default_engine():
    reset_default_engine()
    yield
    reset_default_engine()


class TestSerialEngine:
    def test_covers_every_spec(self):
        engine = ExperimentEngine(jobs=1)
        results = engine.run(GRID)
        assert set(results) == set(GRID)
        assert all(stats.cycles > 0 for stats in results.values())

    def test_memo_hits_counted_on_rerun(self):
        engine = ExperimentEngine(jobs=1)
        engine.run(GRID)
        engine.run(GRID)
        assert engine.stats.cells == 2 * len(GRID)
        assert engine.stats.memo_hits >= len(GRID)

    def test_duplicate_specs_deduplicated(self):
        engine = ExperimentEngine(jobs=1)
        spec = GRID[0]
        results = engine.run([spec, spec, spec])
        assert list(results) == [spec]

    def test_run_grid_matches_explicit_specs(self):
        engine = ExperimentEngine(jobs=1)
        a = engine.run_grid(
            ("libquantum",), ("amd-phenom-ii",), ("baseline",), scales=(SCALE,)
        )
        b = engine.run([ExperimentSpec("libquantum", "amd-phenom-ii", "baseline", "ref", SCALE)])
        assert _cycles(a) == _cycles(b)


class TestParallelEngine:
    def test_parallel_identical_to_serial(self):
        serial = ExperimentEngine(jobs=1).run(GRID)
        runner.clear_memo()
        parallel_engine = ExperimentEngine(jobs=2)
        parallel = parallel_engine.run(GRID)
        assert parallel_engine.stats.computed == len(GRID)
        assert _cycles(serial) == _cycles(parallel)
        for spec in GRID:
            assert serial[spec].pc_l1.accesses == parallel[spec].pc_l1.accesses
            assert serial[spec].dram_fills == parallel[spec].dram_fills

    def test_parallel_seeds_shared_memo(self):
        runner.clear_memo()
        results = ExperimentEngine(jobs=2).run(GRID)
        for spec in GRID:
            assert runner.run_spec(spec) is results[spec]

    def test_single_profile_group_stays_in_process(self):
        runner.clear_memo()
        engine = ExperimentEngine(jobs=4)
        specs = [
            ExperimentSpec("libquantum", "amd-phenom-ii", c, "ref", SCALE)
            for c in ("baseline", "hw")
        ]
        results = engine.run(specs)
        assert engine.stats.computed <= 2
        assert set(results) == set(specs)


class TestDiskCache:
    def test_warm_run_computes_nothing(self, tmp_path):
        cold = ExperimentEngine(jobs=1, cache_dir=tmp_path, use_cache=True)
        first = cold.run(GRID)
        runner.clear_memo()
        warm = ExperimentEngine(jobs=1, cache_dir=tmp_path, use_cache=True)
        second = warm.run(GRID)
        assert warm.stats.computed == 0
        assert warm.stats.disk_hits == len(GRID)
        assert _cycles(first) == _cycles(second)

    def test_parallel_workers_persist_results(self, tmp_path):
        runner.clear_memo()
        cold = ExperimentEngine(jobs=2, cache_dir=tmp_path, use_cache=True)
        cold.run(GRID)
        runner.clear_memo()
        warm = ExperimentEngine(jobs=2, cache_dir=tmp_path, use_cache=True)
        warm.run(GRID)
        assert warm.stats.computed == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cold_run_stores_one_stats_entry_per_cell(self, tmp_path, jobs):
        """The engine is the cache's only writer and stores cells only:
        profiles are sampled in-process, serially and in workers alike."""
        runner.clear_memo()
        ExperimentEngine(jobs=jobs, cache_dir=tmp_path, use_cache=True).run(GRID)
        files = [p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file()]
        assert len(files) == len(GRID)
        assert {path.parts[0] for path in files} == {"stats"}

    def test_cache_disabled_never_touches_disk(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path, use_cache=False)
        engine.run(GRID[:1])
        assert engine.cache is None
        assert list(tmp_path.iterdir()) == []


class TestProgressAndSummary:
    def test_progress_callback_sees_every_cell(self):
        seen = []
        engine = ExperimentEngine(
            jobs=1, progress=lambda done, total, spec, source: seen.append(
                (done, total, spec, source)
            )
        )
        engine.run(GRID)
        assert len(seen) == len(GRID)
        assert seen[-1][0] == len(GRID)
        assert {s[3] for s in seen} <= {"memo", "disk", "computed"}

    def test_progress_true_prints_to_stderr(self, capsys):
        engine = ExperimentEngine(jobs=1, progress=True)
        engine.run(GRID[:1])
        err = capsys.readouterr().err
        assert "[engine] 1/1" in err

    def test_summary_mentions_counts(self):
        engine = ExperimentEngine(jobs=1)
        engine.run(GRID)
        text = engine.summary()
        assert f"{len(GRID)} cells" in text
        assert "1 job" in text


class TestDefaultEngine:
    def test_configure_installs_default(self):
        engine = configure(jobs=1)
        assert current_engine() is engine

    def test_current_engine_creates_serial_cacheless(self):
        engine = current_engine()
        assert engine.jobs >= 1
        assert engine.cache is None

    def test_run_many_uses_default(self):
        engine = configure(jobs=1)
        results = run_many(GRID[:1])
        assert engine.stats.cells == 1
        assert set(results) == {GRID[0]}


class TestDriverIntegration:
    def test_fig4_via_engine_matches_legacy_path(self):
        from repro.experiments.fig4_speedup import run_fig4

        engine = ExperimentEngine(jobs=1)
        rows = run_fig4(
            "amd-phenom-ii", benchmarks=("libquantum",), scale=SCALE, engine=engine
        )
        assert engine.stats.cells == 5  # baseline + 4 policies
        spec = ExperimentSpec("libquantum", "amd-phenom-ii", "baseline", "ref", SCALE)
        base = runner.run_spec(spec)
        swnt = runner.run_spec(spec.with_config("swnt"))
        assert rows[0].speedups["swnt"] == pytest.approx(
            base.cycles / swnt.cycles - 1.0
        )

    def test_evaluate_mixes_prewarms_cells(self):
        from repro.experiments.mixes_common import evaluate_mixes
        from repro.workloads.mixes import Mix

        engine = ExperimentEngine(jobs=1)
        mix = Mix(0, ("mcf", "gcc"), ("ref", "ref"))
        outcomes = evaluate_mixes(
            [mix], "amd-phenom-ii", configs=("baseline", "hw"), scale=SCALE,
            engine=engine,
        )
        # 2 members x (baseline, hw); baseline doubles as hw's throttle ref
        assert engine.stats.cells == 4
        assert set(outcomes) == {"baseline", "hw"}
