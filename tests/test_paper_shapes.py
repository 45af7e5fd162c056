"""The paper's qualitative claims, held on the cells each one names.

Each claim runs only its own cells, at the smallest scale where it
holds, with the figure benchmark's bound unchanged, and records the
margin every cell measured.  A change that wears a margin down fails
here by name before it flips the claim.  The cells run on the ``fast``
backend, which is bit-identical to ``reference``.

Claims that hold only at scale 1 are the ``slow`` tier: CI runs them in
their own step with ``pytest tests/test_paper_shapes.py -m slow``.
Table I's, Fig. 4's and Fig. 7's claims hold at scale 0.05 and run in
tier 1.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.cachesim.options import SimOptions, set_default_options
from repro.experiments import runner
from repro.experiments.fig7_mixes import fig7_summary, run_fig7
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


#: Fig. 4 (§VII): software prefetching speeds libquantum up by more
#: than 25%, the pointer chasers omnetpp and xalan by less than 15% and
#: 10%, and cigar at all, while AMD's hardware prefetcher slows cigar
#: down; stride-centric never beats MDDLI's average by more than 0.01
#: (``benchmarks/bench_fig4_speedup.py`` asserts the same six bounds).
#: All hold from scale 0.05.  Fig. 4 reads cycles, so these margins
#: guard the timing pass.
FIG4_SCALE = 0.05

#: How far each claim clears its bound at ``FIG4_SCALE``: libquantum's
#: speedup minus 0.25, 0.15 and 0.10 minus omnetpp's and xalan's,
#: cigar's speedup, minus cigar's ``hw`` speedup (AMD only), and the
#: average ``swnt`` speedup minus (average ``stride`` speedup - 0.01).
FIG4_MARGINS = {
    "amd-phenom-ii": {
        "libquantum": 0.3926,
        "omnetpp": 0.0861,
        "xalan": 0.0554,
        "cigar": 0.1166,
        "cigar_hw": 0.0930,
        "average": 0.0110,
    },
    "intel-i7-2600k": {
        "libquantum": 0.4408,
        "omnetpp": 0.0848,
        "xalan": 0.0561,
        "cigar": 0.1107,
        "average": 0.0136,
    },
}


def _fig4_speedup(machine: str, workload: str, config: str) -> float:
    """Speedup over the baseline, as ``run_fig4`` computes it."""
    base = api.ExperimentSpec(workload, machine, "baseline", "ref", FIG4_SCALE)
    return api.run(base).cycles / api.run(base.with_config(config)).cycles - 1.0


@pytest.mark.parametrize("machine", MACHINES)
def test_fig4_speedup_claims(machine):
    swnt = {w: _fig4_speedup(machine, w, "swnt") for w in ALL_SINGLE_CORE}
    stride = {w: _fig4_speedup(machine, w, "stride") for w in ALL_SINGLE_CORE}
    margins = {
        "libquantum": swnt["libquantum"] - 0.25,
        "omnetpp": 0.15 - swnt["omnetpp"],
        "xalan": 0.10 - swnt["xalan"],
        "cigar": swnt["cigar"],
        "average": sum(swnt.values()) / len(swnt) - (sum(stride.values()) / len(stride) - 0.01),
    }
    if machine == "amd-phenom-ii":
        margins["cigar_hw"] = -_fig4_speedup(machine, "cigar", "hw")
    assert all(m > 0.0 for m in margins.values()), margins
    assert margins.keys() == FIG4_MARGINS[machine].keys()
    for claim, margin in margins.items():
        recorded = FIG4_MARGINS[machine][claim]
        assert margin == pytest.approx(recorded, abs=5e-4), (
            f"Fig. 4 {claim} on {machine}: margin {margin:+.4f}, recorded {recorded:+.4f}"
        )


#: Fig. 7 (§VII-C): across the 180 four-application mixes, Soft.Pref.+NT
#: moves less off-chip data than hardware prefetching in more than 90%
#: of them, on both machines (``benchmarks/bench_fig7_mixes.py`` asserts
#: the same bound).  It holds from scale 0.05; at 0.02 amd reads 0.8333,
#: and 20 mixes at scale 0.1 read exactly 0.90.
FIG7_SCALE = 0.05
FIG7_MIXES = 180

#: ``sw_traffic_always_better`` minus 0.90 at ``FIG7_SCALE``: amd's
#: software scheme wins 175 of the 180 mixes, intel's all 180.
FIG7_MARGINS = {"amd-phenom-ii": 0.0722, "intel-i7-2600k": 0.1000}


@pytest.mark.parametrize("machine", MACHINES)
def test_fig7_traffic_claim(machine):
    summary = fig7_summary(run_fig7(machine, n_mixes=FIG7_MIXES, scale=FIG7_SCALE))
    margin = summary["sw_traffic_always_better"] - 0.90
    assert margin > 0.0, summary
    assert margin == pytest.approx(FIG7_MARGINS[machine], abs=5e-4), (
        f"Fig. 7 on {machine}: margin {margin:+.4f}, recorded {FIG7_MARGINS[machine]:+.4f}"
    )
