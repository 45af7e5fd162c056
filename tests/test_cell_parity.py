"""Cell-level backend parity: real paper cells, not synthetic traces.

Every workload runs under every single-core prefetching config family
at a tiny scale through ``runner.compute_run`` on both simulation
backends.  The serialized statistics must be byte-identical, and every
rewritten cell (software prefetches and NT stores in the trace) must run
the batched hierarchy as one batch.  Real cells have shapes the random
differential traces rarely produce — a prefetch after every delinquent
load, one-event demand runs — so this grid is the safety net under the
batch path.
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
MACHINE = "amd-phenom-ii"
REWRITTEN = ("sw", "swnt", "stride", "swi")
CONFIGS = REWRITTEN + ("baseline", "hwx")


@pytest.fixture(scope="module", autouse=True)
def _fresh_memo():
    """Leave no tiny-scale profiles behind for later tests."""
    yield
    runner.clear_memo()


def _run(spec: ExperimentSpec, backend: str) -> tuple[str, list[str]]:
    """Serialized stats of one cell and the simulator paths it took."""
    previous = set_default_options(SimOptions(backend=backend))
    obs.disable()
    obs.enable()
    try:
        stats = runner.compute_run(spec)
        paths = [
            s["attrs"]["path"] for s in obs.drain_spans() if s["name"] == "cachesim.run"
        ]
    finally:
        obs.disable()
        obs.reset_metrics()
        set_default_options(previous)
    return json.dumps(stats_to_dict(stats), sort_keys=True), paths


@pytest.mark.parametrize("workload", list_workloads())
def test_fast_backend_matches_reference_on_every_config(workload):
    for config in CONFIGS:
        spec = ExperimentSpec(workload, MACHINE, config, "ref", SCALE)
        ref_doc, _ = _run(spec, "reference")
        fast_doc, paths = _run(spec, "fast")
        assert fast_doc == ref_doc, spec.label()
        if config in REWRITTEN:
            assert paths == ["batch"], spec.label()
