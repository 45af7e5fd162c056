"""Cell-level backend parity: real paper cells, not synthetic traces.

Every workload runs under every single-core prefetching config family
on both machines at a tiny scale through ``runner.compute_run`` on both
simulation backends.  The serialized statistics must be byte-identical,
and every cell must take its expected simulator path: rewritten cells
(software prefetches and NT stores in the trace) and the unthrottled
``baseline`` / ``hwx`` cells run the batched hierarchy as one batch,
while the bandwidth-throttled hardware prefetcher of ``hw`` and ``hwsw``
sends the run through the scalar loop.  ``hwsw`` is the one config that
drives software prefetches and NT stores through the scalar loop on the
fast backend.  Real cells have shapes the random differential traces
rarely produce — a prefetch after every delinquent load, one-event
demand runs — so this grid is the safety net under both paths.
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

#: ``(path, reason)`` of each config's single ``cachesim.run`` on ``fast``.
EXPECTED_PATH = {
    config: ("scalar", "prefetcher-not-batch-safe") if config in THROTTLED else ("batch", None)
    for config in CONFIGS
}


@pytest.fixture(scope="module", autouse=True)
def _fresh_memo():
    """Leave no tiny-scale profiles behind for later tests."""
    yield
    runner.clear_memo()


def _run(spec: ExperimentSpec, backend: str) -> tuple[str, list[tuple[str, str | None]]]:
    """Serialized stats of one cell and the ``(path, reason)`` of each run."""
    previous = set_default_options(SimOptions(backend=backend))
    obs.disable()
    obs.enable()
    try:
        stats = runner.compute_run(spec)
        paths = [
            (s["attrs"]["path"], s["attrs"].get("reason"))
            for s in obs.drain_spans()
            if s["name"] == "cachesim.run"
        ]
    finally:
        obs.disable()
        obs.reset_metrics()
        set_default_options(previous)
    return json.dumps(stats_to_dict(stats), sort_keys=True), paths


@pytest.mark.parametrize("workload", list_workloads())
def test_fast_backend_matches_reference_on_every_config(workload):
    for machine in MACHINES:
        for config in CONFIGS:
            spec = ExperimentSpec(workload, machine, config, "ref", SCALE)
            ref_doc, _ = _run(spec, "reference")
            fast_doc, paths = _run(spec, "fast")
            assert fast_doc == ref_doc, spec.label()
            assert paths == [EXPECTED_PATH[config]], spec.label()
