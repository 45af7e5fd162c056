"""Figure 10 — Fair-Speedup across the mixed workloads.

Harmonic-mean per-application speedup (normalised to the baseline mix),
averaged over the 180 mixes, for both machines and both input regimes
(original and different inputs).  The paper's bars show the software
scheme well above hardware prefetching in all four columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api import PREFETCH_CONFIGS
from repro.experiments.fig7_mixes import Fig7Result
from repro.experiments.tables import render_table

__all__ = ["FairSpeedupCell", "fair_speedup_from", "render_fig10"]


@dataclass(frozen=True)
class FairSpeedupCell:
    """One bar group of Fig. 10: every config the sweep ran.

    Configs beyond the paper's two (e.g. the coordinated ``hwcoord`` /
    ``hwrl``) render as extra bars, the repo's extension of the figure.
    """

    machine: str
    inputs: str  # "orig" or "diff-in"
    fair_speedup: dict[str, float]  # config -> mean Fair-Speedup


def fair_speedup_from(result: Fig7Result, inputs_label: str) -> FairSpeedupCell:
    """Average Fair-Speedup of one mix sweep."""
    base = result.raw["baseline"]
    return FairSpeedupCell(
        machine=result.machine,
        inputs=inputs_label,
        fair_speedup={
            config: float(np.mean([o.fair_speedup_vs(b) for o, b in zip(outcomes, base)]))
            for config, outcomes in result.raw.items()
            if config != "baseline"
        },
    )


def render_fig10(cells: list[FairSpeedupCell]) -> str:
    configs = list(dict.fromkeys(c for cell in cells for c in cell.fair_speedup))

    def fmt(value: float | None) -> str:
        return "-" if value is None else f"{value:.3f}"

    return render_table(
        ("machine/inputs", *(PREFETCH_CONFIGS[c].label for c in configs)),
        [
            (f"{c.machine}/{c.inputs}", *(fmt(c.fair_speedup.get(k)) for k in configs))
            for c in cells
        ],
        title="Fig 10: Fair-Speedup (normalised to baseline), average of mixes",
    )
