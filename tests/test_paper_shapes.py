"""The paper's qualitative claims, held on the cells each one names.

Each claim runs only its own cells, at the smallest scale where it
holds, with the figure benchmark's bound unchanged, and records the
margin every cell measured.  A change that wears a margin down fails
here by name before it flips the claim.  The cells run on the ``fast``
backend, which is bit-identical to ``reference``.

These are the ``slow`` tier: CI runs them in their own step with
``pytest tests/test_paper_shapes.py -m slow``.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.cachesim.options import SimOptions, set_default_options
from repro.experiments import runner
from repro.metrics.traffic import traffic_increase

pytestmark = pytest.mark.slow

MACHINES = ("amd-phenom-ii", "intel-i7-2600k")

#: Fig. 5 (§VII): Soft.Pref.+NT moves less off-chip data than the
#: no-prefetch baseline on at least two of the three streaming codes, on
#: both machines (``benchmarks/bench_fig5_traffic.py`` asserts the same
#: bound over the whole suite).  It holds from scale 1: at 0.1, 0.25 and
#: 0.5 no streaming code goes below baseline, because the NTA saving
#: appears only once the streams outgrow the LLC.
FIG5_SCALE = 1.0
FIG5_STREAMING = ("libquantum", "lbm", "leslie3d")

#: Each cell's traffic change under ``swnt``, as ``run_fig5`` computes it.
FIG5_MARGINS = {
    ("amd-phenom-ii", "libquantum"): -0.1609,
    ("amd-phenom-ii", "lbm"): -0.1057,
    ("amd-phenom-ii", "leslie3d"): -0.1157,
    ("intel-i7-2600k", "libquantum"): -0.0849,
    ("intel-i7-2600k", "lbm"): -0.1069,
    ("intel-i7-2600k", "leslie3d"): -0.0254,
}


@pytest.fixture(scope="module", autouse=True)
def _fast_backend():
    """Pin ``fast`` for these cells; restore the process default and drop
    the scale-1 profiles and results afterwards."""
    previous = set_default_options(SimOptions(backend="fast"))
    try:
        yield
    finally:
        set_default_options(previous)
        runner.clear_memo()


def _fig5_change(machine: str, workload: str) -> float:
    base = api.ExperimentSpec(workload, machine, "baseline", "ref", FIG5_SCALE)
    return traffic_increase(api.run(base), api.run(base.with_config("swnt")))


@pytest.mark.parametrize("machine", MACHINES)
def test_fig5_swnt_below_baseline_on_streaming_codes(machine):
    changes = {w: _fig5_change(machine, w) for w in FIG5_STREAMING}
    below = [w for w, change in changes.items() if change < 0.0]
    assert len(below) >= 2, changes
    for workload, change in changes.items():
        assert change == pytest.approx(FIG5_MARGINS[machine, workload], abs=5e-4), (
            f"{workload} on {machine}: traffic change {change:+.4f}, "
            f"recorded {FIG5_MARGINS[machine, workload]:+.4f}"
        )
