"""Experiment drivers: one module per paper table/figure.

==================  ===========================================
Module              Paper artefact
==================  ===========================================
table1_coverage     Table I (coverage & prefetch overhead)
statstack_validation §IV model-vs-simulation coverage
fig3_mrc            Fig. 3 (miss ratio curves, mcf)
fig4_speedup        Fig. 4 (single-thread speedups)
fig5_traffic        Fig. 5 (off-chip traffic increase)
fig6_bandwidth      Fig. 6 (average bandwidth, GB/s)
fig7_mixes          Fig. 7 (180 mixes: speedup & traffic CDFs)
fig8_mix_detail     Fig. 8 (cigar/gcc/lbm/libquantum, direct sim)
fig9_varying_inputs Fig. 9 (mixes on alternate inputs)
fig10_fair_speedup  Fig. 10 (Fair-Speedup bars)
fig11_qos           Fig. 11 (QoS degradation bars)
fig12_parallel      Fig. 12 (multi-threaded suites)
==================  ===========================================

The default engine (``configure``, ``current_engine``,
``reset_default_engine``) lives only on :mod:`repro.api`; import it from
there.  The historical stringly-typed helpers (``profile_workload`` and
friends) are long gone — the tombstones that used to point at their
replacements finished their deprecation cycle, so the old names now
raise plain ``AttributeError``.
"""

from repro.api import ExperimentSpec
from repro.experiments.runner import CONFIGS, WorkloadProfile, run_spec

__all__ = [
    "CONFIGS",
    "ExperimentSpec",
    "WorkloadProfile",
    "run_spec",
]

def __getattr__(name: str):
    # Lazy re-export: the engine pulls in multiprocessing machinery that
    # most importers of this package never need.
    if name == "ExperimentEngine":
        from repro.experiments.engine import ExperimentEngine

        return ExperimentEngine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
