"""Cell-level backend parity: real paper cells, not synthetic traces.

Every workload runs under every single-core prefetching config family
on both machines at a tiny scale through ``runner.compute_run`` on both
simulation backends.  The serialized statistics must be byte-identical,
and every cell must take its expected simulator path: rewritten cells
(software prefetches and NT stores in the trace) and the unthrottled
``baseline`` / ``hwx`` cells run the batched hierarchy as one batch, and
so do the bandwidth-throttled hardware prefetchers of ``hw`` and
``hwsw`` while controller utilisation stays at or below the 70 % knee.
Five ``hwsw`` cells cross the knee at this scale; they roll back to the
crossing span and replay on the scalar loop (``knee-crossed``), which
drives software prefetches and NT stores through the scalar handlers on
the fast backend.  Real cells have shapes the random differential
traces rarely produce — a prefetch after every delinquent load,
one-event demand runs — so this grid is the safety net under both
paths.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.api import ExperimentSpec
from repro.cachesim.options import SimOptions, set_default_options
from repro.core.serialization import stats_to_dict
from repro.experiments import runner
from repro.workloads.base import list_workloads

SCALE = 0.02
MACHINES = ("amd-phenom-ii", "intel-i7-2600k")
REWRITTEN = ("sw", "swnt", "stride", "swi")
#: Configs whose hardware prefetcher is throttled by bandwidth utilisation.
THROTTLED = ("hw", "hwsw")
CONFIGS = REWRITTEN + ("baseline", "hwx") + THROTTLED

#: ``(workload, machine)`` pairs whose ``hwsw`` cell crosses the knee at
#: ``SCALE``: utilisation above 0.70 within the first span.
KNEE_CROSSED = {
    ("lbm", "amd-phenom-ii"),
    ("lbm", "intel-i7-2600k"),
    ("leslie3d", "intel-i7-2600k"),
    ("libquantum", "amd-phenom-ii"),
    ("libquantum", "intel-i7-2600k"),
}


def expected_path(workload: str, machine: str, config: str) -> tuple[str, str | None]:
    """``(path, reason)`` of a cell's single ``cachesim.run`` on ``fast``."""
    if config == "hwsw" and (workload, machine) in KNEE_CROSSED:
        return "scalar", "knee-crossed"
    return "batch", None


@pytest.fixture(scope="module", autouse=True)
def _fresh_memo():
    """Leave no tiny-scale profiles behind for later tests."""
    yield
    runner.clear_memo()


def _run(spec: ExperimentSpec, backend: str) -> tuple[str, list[dict]]:
    """Serialized stats of one cell and the span attributes of each run."""
    previous = set_default_options(SimOptions(backend=backend))
    obs.disable()
    obs.enable()
    try:
        stats = runner.compute_run(spec)
        runs = [s["attrs"] for s in obs.drain_spans() if s["name"] == "cachesim.run"]
    finally:
        obs.disable()
        obs.metrics().reset()
        set_default_options(previous)
    return json.dumps(stats_to_dict(stats), sort_keys=True), runs


@pytest.mark.parametrize("workload", list_workloads())
def test_fast_backend_matches_reference_on_every_config(workload):
    for machine in MACHINES:
        for config in CONFIGS:
            spec = ExperimentSpec(workload, machine, config, "ref", SCALE)
            ref_doc, _ = _run(spec, "reference")
            fast_doc, runs = _run(spec, "fast")
            assert fast_doc == ref_doc, spec.label()
            assert [(a["path"], a.get("reason")) for a in runs] == [
                expected_path(workload, machine, config)
            ], spec.label()


@pytest.mark.slow
@pytest.mark.parametrize(
    ("workload", "config", "batch_share"),
    # lbm/hwsw crosses within its first span; libquantum/hw about
    # halfway through the trace.
    [("lbm", "hwsw", (0.0, 0.02)), ("libquantum", "hw", (0.3, 0.7))],
)
def test_paper_scale_cells_replay_from_the_crossing_span(workload, config, batch_share):
    spec = ExperimentSpec(workload, "amd-phenom-ii", config, "ref", 1.0)
    try:
        ref_doc, _ = _run(spec, "reference")
        fast_doc, runs = _run(spec, "fast")
    finally:
        runner.clear_memo()
    assert fast_doc == ref_doc
    (attrs,) = runs
    assert (attrs["path"], attrs["reason"]) == ("scalar", "knee-crossed")
    lo, hi = batch_share
    assert lo <= attrs["batch_events"] / attrs["events"] < hi
