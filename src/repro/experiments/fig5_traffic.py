"""Figure 5 — increase in data volume fetched from DRAM.

Per benchmark and machine, the change in off-chip bytes relative to the
no-prefetch baseline for each prefetching policy.  The paper's headline:
Soft.Pref.+NT cuts traffic 44 % (AMD) / 64 % (Intel) relative to
hardware prefetching, and goes *below* the baseline on streaming codes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import PREFETCH_CONFIGS, ExperimentEngine, ExperimentSpec, current_engine
from repro.experiments.fig4_speedup import POLICIES
from repro.experiments.tables import render_table
from repro.metrics.traffic import traffic_increase, traffic_reduction_vs
from repro.workloads.spec2006 import ALL_SINGLE_CORE

__all__ = ["TrafficRow", "run_fig5", "render_fig5", "swnt_vs_hw_reduction"]


@dataclass(frozen=True)
class TrafficRow:
    """One benchmark's traffic changes on one machine."""

    benchmark: str
    machine: str
    increases: dict[str, float]  # policy -> fractional traffic change


def run_fig5(
    machine_name: str,
    benchmarks: tuple[str, ...] = ALL_SINGLE_CORE,
    scale: float = 1.0,
    engine: ExperimentEngine | None = None,
) -> list[TrafficRow]:
    """Traffic changes of all policies on one machine."""
    engine = engine or current_engine()
    results = engine.run_grid(
        benchmarks, (machine_name,), ("baseline", *POLICIES), scales=(scale,)
    )
    rows = []
    for name in benchmarks:
        cell = ExperimentSpec(name, machine_name, "baseline", "ref", scale)
        base = results[cell]
        increases = {
            p: traffic_increase(base, results[cell.with_config(p)])
            for p in POLICIES
        }
        rows.append(TrafficRow(name, machine_name, increases))
    return rows


def swnt_vs_hw_reduction(
    machine_name: str,
    benchmarks: tuple[str, ...] = ALL_SINGLE_CORE,
    scale: float = 1.0,
    engine: ExperimentEngine | None = None,
) -> float:
    """Average traffic reduction of Soft.Pref.+NT relative to HW pref.

    The paper reports 44 % on AMD and 64 % on Intel.
    """
    engine = engine or current_engine()
    results = engine.run_grid(
        benchmarks, (machine_name,), ("hw", "swnt"), scales=(scale,)
    )
    reductions = []
    for name in benchmarks:
        cell = ExperimentSpec(name, machine_name, "hw", "ref", scale)
        reductions.append(
            traffic_reduction_vs(results[cell], results[cell.with_config("swnt")])
        )
    return sum(reductions) / len(reductions)


def render_fig5(rows: list[TrafficRow]) -> str:
    machine = rows[0].machine if rows else "?"
    table_rows = [
        (r.benchmark, *(f"{r.increases[p] * 100:+.0f}%" for p in POLICIES))
        for r in rows
    ]
    avg = {
        p: sum(r.increases[p] for r in rows) / len(rows) for p in POLICIES
    }
    table_rows.append(("average", *(f"{avg[p] * 100:+.0f}%" for p in POLICIES)))
    return render_table(
        ("Benchmark", *(PREFETCH_CONFIGS[p].label for p in POLICIES)),
        table_rows,
        title=f"Fig 5: Off-chip traffic increase over baseline — {machine}",
    )
