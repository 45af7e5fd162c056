"""Figure 4 — single-thread speedup per benchmark and prefetch policy.

For both machines and every benchmark, the speedup over the baseline
(original program, hardware prefetching off) of: Hardware Pref.,
Software Pref., Soft.Pref.+NT, and Stride-centric.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import PREFETCH_CONFIGS, ExperimentEngine, ExperimentSpec, current_engine
from repro.experiments.tables import render_table
from repro.workloads.spec2006 import ALL_SINGLE_CORE

__all__ = ["SpeedupRow", "run_fig4", "render_fig4", "POLICIES"]

POLICIES = ("hw", "sw", "swnt", "stride")


@dataclass(frozen=True)
class SpeedupRow:
    """One benchmark's speedups on one machine."""

    benchmark: str
    machine: str
    speedups: dict[str, float]  # policy -> speedup - 1 (fractional gain)


def run_fig4(
    machine_name: str,
    benchmarks: tuple[str, ...] = ALL_SINGLE_CORE,
    scale: float = 1.0,
    engine: ExperimentEngine | None = None,
) -> list[SpeedupRow]:
    """Speedups of all policies on one machine."""
    engine = engine or current_engine()
    results = engine.run_grid(
        benchmarks, (machine_name,), ("baseline", *POLICIES), scales=(scale,)
    )
    rows = []
    for name in benchmarks:
        cell = ExperimentSpec(name, machine_name, "baseline", "ref", scale)
        base = results[cell].cycles
        speedups = {
            p: base / results[cell.with_config(p)].cycles - 1.0 for p in POLICIES
        }
        rows.append(SpeedupRow(name, machine_name, speedups))
    return rows


def average_row(rows: list[SpeedupRow]) -> dict[str, float]:
    """Per-policy arithmetic mean across benchmarks."""
    return {
        p: sum(r.speedups[p] for r in rows) / len(rows) for p in POLICIES
    }


def render_fig4(rows: list[SpeedupRow]) -> str:
    machine = rows[0].machine if rows else "?"
    table_rows = [
        (r.benchmark, *(f"{r.speedups[p] * 100:+.1f}%" for p in POLICIES))
        for r in rows
    ]
    avg = average_row(rows)
    table_rows.append(("average", *(f"{avg[p] * 100:+.1f}%" for p in POLICIES)))
    return render_table(
        ("Benchmark", *(PREFETCH_CONFIGS[p].label for p in POLICIES)),
        table_rows,
        title=f"Fig 4: Speedup over no-prefetch baseline — {machine}",
    )
