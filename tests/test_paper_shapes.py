"""The paper's qualitative claims, held on the cells each one names.

Each claim runs only its own cells, at the smallest scale where it
holds, with the figure benchmark's bound unchanged, and records the
margin every cell measured.  A change that wears a margin down fails
here by name before it flips the claim.  The cells run on the ``fast``
backend, which is bit-identical to ``reference``.

Claims that hold only at scale 1 are the ``slow`` tier: CI runs them in
their own step with ``pytest tests/test_paper_shapes.py -m slow``.
Table I's claims hold at scale 0.05 and run in tier 1.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.cachesim.options import SimOptions, set_default_options
from repro.experiments import runner
from repro.experiments.table1_coverage import coverage_for
from repro.metrics.traffic import traffic_increase
from repro.workloads.spec2006 import ALL_SINGLE_CORE

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


@pytest.mark.slow
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


#: Table I (§IV): MDDLI covers the streaming codes' L1 misses and not
#: the pointer chasers', and its average coverage is at most 0.02 below
#: stride-centric's (``benchmarks/bench_table1_coverage.py`` asserts the
#: same five bounds).  All five hold from scale 0.05.  There MDDLI's
#: average (0.4261) still trails stride-centric's (0.4403); it beats it
#: only from scale 0.25 (0.4686 vs 0.4532).
TABLE1_SCALE = 0.05

#: How far each claim clears its bound at ``TABLE1_SCALE``: coverage
#: minus 0.60 for the streaming codes, 0.20 minus coverage for the
#: chasers, and average MDDLI minus (average stride-centric - 0.02).
TABLE1_MARGINS = {
    "libquantum": 0.2487,
    "lbm": 0.2675,
    "omnetpp": 0.1080,
    "xalan": 0.1124,
    "average": 0.0057,
}


def test_table1_coverage_claims():
    mddli = {w: coverage_for(w, "swnt", TABLE1_SCALE)[0] for w in ALL_SINGLE_CORE}
    stride = {w: coverage_for(w, "stride", TABLE1_SCALE)[0] for w in ALL_SINGLE_CORE}
    average = sum(mddli.values()) / len(mddli)
    margins = {
        "libquantum": mddli["libquantum"] - 0.60,
        "lbm": mddli["lbm"] - 0.60,
        "omnetpp": 0.20 - mddli["omnetpp"],
        "xalan": 0.20 - mddli["xalan"],
        "average": average - (sum(stride.values()) / len(stride) - 0.02),
    }
    assert all(m > 0.0 for m in margins.values()), margins
    for claim, margin in margins.items():
        assert margin == pytest.approx(TABLE1_MARGINS[claim], abs=5e-4), (
            f"Table I {claim}: margin {margin:+.4f}, recorded {TABLE1_MARGINS[claim]:+.4f}"
        )
