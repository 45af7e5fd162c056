"""Figure 11 — QoS degradation across the mixed workloads.

Cumulative per-mix application slowdown (0 = no application ever slowed
down), averaged over the mixes, for both machines and input regimes.
The paper highlights that the software scheme degrades QoS far less than
hardware prefetching, and that its QoS *improves* under different inputs
(less-optimal prefetching perturbs resource sharing less).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api import PREFETCH_CONFIGS
from repro.experiments.fig7_mixes import Fig7Result
from repro.experiments.tables import render_table

__all__ = ["QosCell", "qos_from", "render_fig11"]


@dataclass(frozen=True)
class QosCell:
    """One bar group of Fig. 11: every config the sweep ran.

    Configs beyond the paper's two (e.g. the coordinated ``hwcoord`` /
    ``hwrl``) render as extra bars, the repo's extension of the figure.
    """

    machine: str
    inputs: str
    qos: dict[str, float]  # config -> mean QoS degradation


def qos_from(result: Fig7Result, inputs_label: str) -> QosCell:
    """Average QoS degradation of one mix sweep."""
    base = result.raw["baseline"]
    return QosCell(
        machine=result.machine,
        inputs=inputs_label,
        qos={
            config: float(np.mean([o.qos_vs(b) for o, b in zip(outcomes, base)]))
            for config, outcomes in result.raw.items()
            if config != "baseline"
        },
    )


def render_fig11(cells: list[QosCell]) -> str:
    configs = list(dict.fromkeys(c for cell in cells for c in cell.qos))

    def fmt(value: float | None) -> str:
        return "-" if value is None else f"{value * 100:+.1f}%"

    return render_table(
        ("machine/inputs", *(PREFETCH_CONFIGS[c].label for c in configs)),
        [(f"{c.machine}/{c.inputs}", *(fmt(c.qos.get(k)) for k in configs)) for c in cells],
        title="Fig 11: QoS degradation (closer to zero is better), average of mixes",
    )
