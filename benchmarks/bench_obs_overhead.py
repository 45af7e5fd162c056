"""Observability overhead: tracing disabled vs enabled, end to end.

Times one 12-cell slice of the evaluation grid (4 workloads x 3
configs) through the full pipeline under two regimes:

* **disabled** — the default: ``obs.span(...)`` returns the shared
  no-op object, so the instrumented hot paths pay one module-flag test
  and nothing else.  The run doubles as a static proof: it asserts
  that **zero** ``Span`` objects were allocated.
* **enabled** — every instrumented site records a real span and the
  metric sites update the registry; this is the tax a ``--trace-out``
  run pays.

Each regime is timed ``REPEATS`` times interleaved and scored by its
best run (wall noise is one-sided), after one untimed warmup.  The
artefact records both walls, the span/metric volume of the enabled
run, and the ratio, which the test bounds at 2 % (plus a small
absolute slack for sub-second grids).
"""

from __future__ import annotations

import time

from conftest import save_artifact

from repro import obs
from repro.api import ExperimentEngine, ExperimentSpec
from repro.experiments import runner
from repro.experiments.tables import render_table

WORKLOADS = ("libquantum", "mcf", "lbm", "soplex")
MACHINE = "amd-phenom-ii"
GRID_CONFIGS = ("baseline", "hw", "swnt")
REPEATS = 3
MAX_ENABLED_RATIO = 1.02


def _timed_run(grid) -> float:
    runner.clear_memo()
    engine = ExperimentEngine(jobs=1, use_cache=False)
    start = time.perf_counter()
    engine.run(grid)
    elapsed = time.perf_counter() - start
    assert engine.stats.computed == len(grid)
    return elapsed


def test_obs_overhead(bench_scale, results_dir):
    grid = ExperimentSpec.grid(
        WORKLOADS, (MACHINE,), GRID_CONFIGS, scales=(bench_scale,)
    )

    obs.disable()
    _timed_run(grid)  # warmup: imports, numpy caches, workload builds

    t_off, t_on = [], []
    spans = n_metrics = 0
    for _ in range(REPEATS):
        obs.disable()
        allocated_before = obs.Span.allocated
        t_off.append(_timed_run(grid))
        # the disabled regime is statically free: not one span object
        assert obs.Span.allocated == allocated_before

        tracer = obs.enable()
        tracer.clear()
        obs.metrics().reset()
        t_on.append(_timed_run(grid))
        spans = len(tracer.finished)
        n_metrics = len(obs.metrics().as_dict())
    obs.disable()
    obs.metrics().reset()

    best_off, best_on = min(t_off), min(t_on)
    ratio = best_on / max(best_off, 1e-9)
    assert spans > 0 and n_metrics > 0
    assert best_on <= best_off * MAX_ENABLED_RATIO + 0.05, (
        f"enabled tracing cost {ratio:.3f}x (> {MAX_ENABLED_RATIO}x bound)"
    )

    rows = [
        ("tracing disabled", f"{best_off:.2f}", f"{best_off / len(grid):.3f}",
         "0 spans allocated"),
        ("tracing enabled", f"{best_on:.2f}", f"{best_on / len(grid):.3f}",
         f"{spans} spans, {n_metrics} metrics"),
        ("overhead (enabled/disabled)", f"{ratio:.3f}x", "", ""),
    ]
    text = render_table(
        ("regime", "wall (s)", "s/cell", "volume"),
        rows,
        title=(
            f"Observability overhead — {len(grid)}-cell grid "
            f"({len(WORKLOADS)} workloads x {len(GRID_CONFIGS)} configs, "
            f"{MACHINE}, scale {bench_scale:g}, jobs=1, "
            f"best of {REPEATS})"
        ),
    )
    save_artifact(results_dir, "obs_overhead.txt", text)
