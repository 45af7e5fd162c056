"""Table I — prefetch coverage and minimisation.

For every benchmark, the fraction of ground-truth L1 misses *removed*
by each software prefetching method (MDDLI-filtered vs stride-centric),
and the overhead OH = prefetch instructions executed per removed miss.
Ground truth comes from the functional cache simulator configured as the
AMD Phenom II L1 (64 kB, 2-way, 64 B lines), exactly as in paper §IV.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.cachesim.functional import FunctionalCacheSim
from repro.config import get_machine
from repro.api import ExperimentSpec
from repro.experiments.runner import plan_for_spec, profile_for
from repro.experiments.tables import render_table
from repro.isa import insert_prefetches, splice_execution
from repro.workloads.spec2006 import ALL_SINGLE_CORE

__all__ = ["CoverageRow", "coverage_for", "run_table1", "render_table1"]

_MACHINE = "amd-phenom-ii"


@dataclass(frozen=True)
class CoverageRow:
    """One benchmark's Table I entry."""

    benchmark: str
    mddli_coverage: float
    mddli_oh: float
    stride_coverage: float
    stride_oh: float


@lru_cache(maxsize=64)
def _baseline_misses(name: str, scale: float) -> int:
    """L1 misses of the original program: the ground truth of both methods.

    Memoised, so the two methods of one benchmark simulate its
    baseline L1 once.
    """
    trace = profile_for(name, "ref", scale).execution.trace
    return FunctionalCacheSim(get_machine(_MACHINE).l1).run(trace).total_misses()


def coverage_for(
    name: str, kind: str, scale: float = 1.0
) -> tuple[float, float, int]:
    """(coverage, OH, prefetches executed) of one method on one benchmark."""
    machine = get_machine(_MACHINE)
    profile = profile_for(name, "ref", scale)
    total_misses = _baseline_misses(name, float(scale))

    plan = plan_for_spec(ExperimentSpec(name, _MACHINE, kind, scale=scale))
    rewritten = insert_prefetches(profile.program, plan)
    optimised_trace = splice_execution(rewritten, profile.program, profile.execution).trace
    optimised_sim = FunctionalCacheSim(machine.l1)
    optimised = optimised_sim.run(optimised_trace, honor_prefetches=True)
    removed = total_misses - optimised.total_misses()

    coverage = removed / total_misses if total_misses else 0.0
    n_prefetches = optimised_trace.n_prefetch
    oh = n_prefetches / removed if removed > 0 else float("inf")
    return coverage, oh, n_prefetches


def run_table1(scale: float = 1.0) -> list[CoverageRow]:
    """Compute Table I for all 12 benchmarks."""
    rows = []
    for name in ALL_SINGLE_CORE:
        m_cov, m_oh, _ = coverage_for(name, "swnt", scale)
        s_cov, s_oh, _ = coverage_for(name, "stride", scale)
        rows.append(CoverageRow(name, m_cov, m_oh, s_cov, s_oh))
    return rows


def render_table1(rows: list[CoverageRow]) -> str:
    """ASCII rendering in the paper's layout, with an average row."""
    def _fin(values):
        vals = [v for v in values if v != float("inf")]
        return sum(vals) / len(vals) if vals else float("inf")

    table_rows = [
        (
            r.benchmark,
            f"{r.mddli_coverage * 100:.1f}%",
            f"{r.mddli_oh:.1f}" if r.mddli_oh != float("inf") else "inf",
            f"{r.stride_coverage * 100:.1f}%",
            f"{r.stride_oh:.1f}" if r.stride_oh != float("inf") else "inf",
        )
        for r in rows
    ]
    table_rows.append(
        (
            "Average",
            f"{sum(r.mddli_coverage for r in rows) / len(rows) * 100:.1f}%",
            f"{_fin(r.mddli_oh for r in rows):.1f}",
            f"{sum(r.stride_coverage for r in rows) / len(rows) * 100:.1f}%",
            f"{_fin(r.stride_oh for r in rows):.1f}",
        )
    )
    return render_table(
        ("Benchmark", "MDDLI Cov.", "MDDLI OH", "Stride Cov.", "Stride OH"),
        table_rows,
        title="Table I: Prefetch Coverage & Minimisation (vs functional sim, AMD L1)",
    )
