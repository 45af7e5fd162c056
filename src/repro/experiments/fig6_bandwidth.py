"""Figure 6 — average off-chip bandwidth (GB/s) per benchmark.

The paper plots Baseline, Hardware Pref., Soft.Pref.+NT and
Stride-centric (plain software prefetching tracks the NT variant and is
omitted, as in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import get_machine
from repro.api import PREFETCH_CONFIGS, ExperimentEngine, ExperimentSpec, current_engine
from repro.experiments.tables import render_table
from repro.workloads.spec2006 import ALL_SINGLE_CORE

__all__ = ["BandwidthRow", "run_fig6", "render_fig6", "FIG6_CONFIGS"]

FIG6_CONFIGS = ("baseline", "hw", "swnt", "stride")


@dataclass(frozen=True)
class BandwidthRow:
    """One benchmark's average bandwidth per configuration (GB/s)."""

    benchmark: str
    machine: str
    bandwidth: dict[str, float]


def run_fig6(
    machine_name: str,
    benchmarks: tuple[str, ...] = ALL_SINGLE_CORE,
    scale: float = 1.0,
    engine: ExperimentEngine | None = None,
) -> list[BandwidthRow]:
    """Average bandwidth of each configuration on one machine."""
    machine = get_machine(machine_name)
    engine = engine or current_engine()
    results = engine.run_grid(
        benchmarks, (machine_name,), FIG6_CONFIGS, scales=(scale,)
    )
    rows = []
    for name in benchmarks:
        cell = ExperimentSpec(name, machine_name, "baseline", "ref", scale)
        bw = {
            c: results[cell.with_config(c)].bandwidth_gbs(machine.freq_ghz)
            for c in FIG6_CONFIGS
        }
        rows.append(BandwidthRow(name, machine_name, bw))
    return rows


def swnt_vs_hw_bandwidth_reduction(rows: list[BandwidthRow]) -> float:
    """Average bandwidth saving of Soft.Pref.+NT vs hardware prefetching.

    Paper: 19 % on AMD, 38 % on Intel.
    """
    savings = [1.0 - r.bandwidth["swnt"] / r.bandwidth["hw"] for r in rows]
    return sum(savings) / len(savings)


def render_fig6(rows: list[BandwidthRow]) -> str:
    machine = rows[0].machine if rows else "?"
    table_rows = [
        (r.benchmark, *(f"{r.bandwidth[c]:.2f}" for c in FIG6_CONFIGS))
        for r in rows
    ]
    avg = {
        c: sum(r.bandwidth[c] for r in rows) / len(rows) for c in FIG6_CONFIGS
    }
    table_rows.append(("average", *(f"{avg[c]:.2f}" for c in FIG6_CONFIGS)))
    return render_table(
        ("Benchmark", *(PREFETCH_CONFIGS[c].label for c in FIG6_CONFIGS)),
        table_rows,
        title=f"Fig 6: Average off-chip bandwidth (GB/s) — {machine}",
    )
