"""Tests for the observability layer: tracer, metrics, exporters.

Covers the ISSUE's acceptance points: spans nest across process-pool
workers (worker pids appear in the merged trace), the disabled tracer
allocates zero span objects, metrics survive a fault-injected
retry/bisection episode, and the Chrome-trace export round-trips
``json.loads``.
"""

import json

import pytest

from repro import faults, obs
from repro.api import ExperimentSpec, reset_default_engine
from repro.experiments import runner
from repro.experiments.engine import ExperimentEngine
from repro.retry import RetryPolicy

SCALE = 0.05

#: One libquantum profile group spanning four configs — dispatched as a
#: single task, so the engine's serial path handles it.
GROUP = ExperimentSpec.grid(
    ("libquantum",), ("amd-phenom-ii",), ("baseline", "hw", "sw", "swnt"),
    scales=(SCALE,),
)

#: Two profile groups (two workloads) of three cells each: the engine
#: only spins up the process pool for >1 group, so the worker-span and
#: bisection tests use this grid.
GRID = ExperimentSpec.grid(
    ("libquantum", "mcf"), ("amd-phenom-ii",), ("baseline", "hw", "swnt"),
    scales=(SCALE,),
)

FAST = RetryPolicy(max_attempts=2, base_delay=0.0)
ONE_SHOT = RetryPolicy(max_attempts=1, base_delay=0.0)


@pytest.fixture(autouse=True)
def _obs_clean():
    """Every test starts and ends with tracing off and metrics empty."""
    obs.disable()
    obs.reset_metrics()
    faults.disarm()
    yield
    obs.disable()
    obs.reset_metrics()
    faults.disarm()
    reset_default_engine()


class TestSpanMechanics:
    def test_nesting_depth_and_category(self):
        tracer = obs.enable()
        with obs.span("alpha.outer"):
            with obs.span("alpha.inner"):
                with obs.span("beta.leaf"):
                    pass
        by_name = {e["name"]: e for e in tracer.finished}
        assert by_name["alpha.outer"]["depth"] == 0
        assert by_name["alpha.inner"]["depth"] == 1
        assert by_name["beta.leaf"]["depth"] == 2
        # cat_root: no enclosing span of the same category
        assert by_name["alpha.outer"]["cat_root"]
        assert not by_name["alpha.inner"]["cat_root"]
        assert by_name["beta.leaf"]["cat_root"]

    def test_attributes_and_set(self):
        tracer = obs.enable()
        with obs.span("x.y", a=1) as s:
            s.set(b="two")
        (event,) = tracer.finished
        assert event["attrs"] == {"a": 1, "b": "two"}

    def test_exception_recorded_and_propagated(self):
        tracer = obs.enable()
        with pytest.raises(ValueError):
            with obs.span("x.fail"):
                raise ValueError("boom")
        (event,) = tracer.finished
        assert event["attrs"]["error"] == "ValueError"

    def test_phase_totals_no_double_count_within_category(self):
        tracer = obs.enable(deterministic=True)
        with obs.span("alpha.outer"):
            with obs.span("alpha.inner"):
                pass
        totals = tracer.phase_totals()
        # only the category-root span contributes to "alpha"
        outer = next(e for e in tracer.finished if e["name"] == "alpha.outer")
        assert totals["alpha"] == pytest.approx(outer["dur"] / 1e6)

    def test_deterministic_tracer_reproducible(self):
        def record():
            tracer = obs.enable(deterministic=True)
            tracer.clear()
            with obs.span("a.one", k=1):
                with obs.span("b.two"):
                    pass
            events = list(tracer.finished)
            obs.disable()
            return events

        assert record() == record()

    def test_drain_filters_foreign_pids(self):
        tracer = obs.enable()
        with obs.span("x.mine"):
            pass
        tracer.ingest([{"name": "x.foreign", "ts": 0.0, "dur": 1.0,
                        "pid": -1, "tid": 0, "depth": 0, "cat_root": True,
                        "attrs": {}}])
        drained = tracer.drain()
        assert [e["name"] for e in drained] == ["x.mine"]
        assert tracer.finished == []


class TestDisabledOverhead:
    def test_disabled_span_is_shared_noop(self):
        assert obs.span("anything", k=1) is obs.NOOP_SPAN
        assert obs.span("other") is obs.NOOP_SPAN

    def test_disabled_allocates_no_span_objects(self):
        before = obs.Span.allocated
        for _ in range(200):
            with obs.span("hot.path", attr=42) as s:
                s.set(more=True)
        assert obs.Span.allocated == before

    def test_disabled_pipeline_allocates_no_span_objects(self):
        runner.clear_memo()
        before = obs.Span.allocated
        engine = ExperimentEngine(jobs=1, use_cache=False)
        engine.run(GROUP[:2])
        assert obs.Span.allocated == before

    def test_enable_disable_toggle(self):
        assert not obs.enabled()
        obs.enable()
        assert obs.enabled()
        assert obs.ENABLED
        obs.disable()
        assert not obs.enabled()
        assert not obs.ENABLED


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = obs.MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2)
        reg.gauge("g").set(7)
        reg.histogram("h").observe(1.0)
        reg.histogram("h").observe(3.0)
        d = reg.as_dict()
        assert d["c"]["value"] == 3
        assert d["g"]["value"] == 7
        assert d["h"] == {
            "kind": "histogram", "count": 2, "sum": 4.0,
            "min": 1.0, "max": 3.0, "mean": 2.0,
        }

    def test_kind_collision_rejected(self):
        reg = obs.MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_merge_snapshot(self):
        a, b = obs.MetricsRegistry(), obs.MetricsRegistry()
        a.counter("n").inc(2)
        a.histogram("h").observe(5.0)
        b.counter("n").inc(3)
        b.histogram("h").observe(1.0)
        b.gauge("g").set(9)
        a.merge(b.snapshot())
        d = a.as_dict()
        assert d["n"]["value"] == 5
        assert d["h"]["count"] == 2 and d["h"]["min"] == 1.0 and d["h"]["max"] == 5.0
        assert d["g"]["value"] == 9


class TestWorkerSpans:
    def test_spans_ship_back_from_pool_workers(self):
        runner.clear_memo()
        obs.enable()
        tracer = obs.get_tracer()
        tracer.clear()
        engine = ExperimentEngine(jobs=2, use_cache=False)
        engine.run(GRID)
        events = list(tracer.finished)
        pids = {e["pid"] for e in events}
        import os

        assert os.getpid() in pids
        worker_pids = pids - {os.getpid()}
        assert worker_pids, "no worker spans were shipped back"
        # worker spans nest (cell.compute encloses cachesim.run etc.)
        worker_events = [e for e in events if e["pid"] in worker_pids]
        assert any(e["depth"] > 0 for e in worker_events)
        categories = {e["name"].split(".", 1)[0] for e in events}
        assert {"engine", "cell", "profile", "cachesim"} <= categories
        assert len(categories) >= 5

    def test_worker_metrics_merge_into_parent(self):
        runner.clear_memo()
        obs.enable()
        obs.get_tracer().clear()
        engine = ExperimentEngine(jobs=2, use_cache=False)
        engine.run(GRID)
        d = obs.metrics().as_dict()
        assert d["engine.cells"]["value"] == len(GRID)
        assert d["sim.cells"]["value"] >= len(GRID)  # computed in workers
        assert "engine.cache.memo_hits" in d
        assert "engine.cache.disk_hits" in d


class TestMetricsSurviveFaults:
    def test_retry_episode_counted(self):
        runner.clear_memo()
        obs.enable()
        obs.get_tracer().clear()
        spec = GROUP[0]
        faults.arm(
            "worker.compute", "raise", times=1,
            match=lambda s: s == spec,
        )
        engine = ExperimentEngine(jobs=1, use_cache=False, retry=FAST)
        results = engine.run(GROUP[:2])
        assert len(results) == 2
        d = obs.metrics().as_dict()
        assert d["engine.retries"]["value"] >= 1
        assert d["engine.cells"]["value"] == 2
        assert d["engine.cells.failed"]["value"] == 0

    def test_bisection_episode_counted(self):
        runner.clear_memo()
        obs.enable()
        obs.get_tracer().clear()
        poison = GRID[1]
        faults.arm(
            "worker.compute", "raise", times=99,
            match=lambda s: s == poison,
        )
        engine = ExperimentEngine(
            jobs=2, use_cache=False, retry=ONE_SHOT, strict=False
        )
        results = engine.run(GRID)
        assert poison not in results
        assert len(results) == len(GRID) - 1
        d = obs.metrics().as_dict()
        assert d["engine.bisections"]["value"] >= 1
        assert d["engine.cells.failed"]["value"] == 1
        # the healthy cells' spans and metrics survived the episode
        assert d["sim.cells"]["value"] >= len(GRID) - 1
        events = obs.get_tracer().finished
        assert any(e["name"] == "engine.bisect" for e in events)


class TestExporters:
    def test_chrome_trace_round_trips_json(self, tmp_path):
        runner.clear_memo()
        obs.enable()
        obs.get_tracer().clear()
        engine = ExperimentEngine(jobs=1, use_cache=False)
        engine.run(GROUP[:2])
        path = obs.write_chrome_trace(tmp_path / "trace.json")
        data = json.loads(path.read_text())
        assert isinstance(data["traceEvents"], list)
        x_events = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert x_events
        for event in x_events:
            assert {"name", "cat", "ts", "dur", "pid", "tid", "args"} <= set(event)
        meta = [e for e in data["traceEvents"] if e["ph"] == "M"]
        assert any(e["args"]["name"] == "repro" for e in meta)
        categories = {e["cat"] for e in x_events}
        assert len(categories) >= 5

    def test_empty_trace_is_valid(self, tmp_path):
        path = obs.write_chrome_trace(tmp_path / "empty.json")
        data = json.loads(path.read_text())
        assert data["traceEvents"] == []

    def test_metrics_dump_round_trips_json(self, tmp_path):
        obs.metrics().counter("a.b").inc(4)
        obs.metrics().histogram("c.d").observe(2.5)
        path = obs.write_metrics(tmp_path / "metrics.json")
        data = json.loads(path.read_text())
        assert data["format"] == "repro-metrics-v1"
        assert data["metrics"]["a.b"]["value"] == 4

    def test_engine_summary_includes_phase_breakdown(self):
        runner.clear_memo()
        obs.enable()
        obs.get_tracer().clear()
        engine = ExperimentEngine(jobs=1, use_cache=False)
        engine.run(GROUP[:1])
        text = engine.summary()
        assert "phases:" in text
        assert "cachesim" in text


class TestConfigureAndCli:
    def test_api_configure_trace_enables_obs(self):
        from repro.api import configure

        assert not obs.enabled()
        configure(jobs=1, use_cache=False, trace=True)
        assert obs.enabled()

    def test_api_configure_deterministic_trace(self):
        from repro.api import configure

        configure(jobs=1, use_cache=False, deterministic_trace=True)
        assert obs.enabled()
        assert obs.get_tracer().deterministic

    def test_cli_trace_and_metrics_out(self, tmp_path, capsys):
        from repro.cli import main

        runner.clear_memo()
        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.json"
        rc = main([
            "mrc", "libquantum", "--scale", str(SCALE),
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
        ])
        assert rc == 0
        data = json.loads(trace_path.read_text())
        names = {e["name"] for e in data["traceEvents"] if e["ph"] == "X"}
        assert any(n.startswith("sampling.") for n in names)
        assert any(n.startswith("statstack.") for n in names)
        json.loads(metrics_path.read_text())
        err = capsys.readouterr().err
        assert "[obs] trace written" in err
