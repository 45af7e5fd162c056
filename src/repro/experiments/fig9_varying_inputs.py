"""Figure 9 — mixed workloads with inputs different from the profiled ones.

Sensitivity study (paper §VII-D): the prefetch plans were derived from
the *reference* inputs, but the mixes now run alternate inputs.  The
paper finds the software method remains stable (+6 % over HW on AMD,
+4 % on Intel) while hardware prefetching's benefit varies widely and
degrades ~10 % of the mixes.
"""

from __future__ import annotations

from repro.api import PREFETCH_CONFIGS
from repro.experiments.fig7_mixes import Fig7Result, fig7_summary, run_fig7
from repro.experiments.tables import render_series, render_table

__all__ = ["run_fig9", "render_fig9"]


def run_fig9(
    machine_name: str,
    n_mixes: int = 180,
    scale: float = 1.0,
) -> Fig7Result:
    """Fig. 7's sweep with randomly selected alternate inputs per member."""
    return run_fig7(machine_name, n_mixes=n_mixes, scale=scale, vary_inputs=True)


def render_fig9(result: Fig7Result) -> str:
    parts = [
        render_series(
            {PREFETCH_CONFIGS[c].label: v.tolist() for c, v in result.speedup.items()},
            title=f"Fig 9: Speedup distribution with different inputs — "
            f"{result.machine} ({result.n_mixes} mixes)",
        )
    ]
    summary = fig7_summary(result)
    rows = [(k, f"{v * 100:+.1f}%") for k, v in summary.items()]
    parts += ["", render_table(("statistic", "value"), rows, title="Summary")]
    return "\n".join(parts)
