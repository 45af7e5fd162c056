"""Figure 8 — the mix with the largest software-over-hardware benefit.

The paper dissects the mix {cigar, gcc, lbm, libquantum} on the Intel
machine: with hardware prefetching each application wants far more
bandwidth than the chip can deliver (25.3 GB/s demanded, 13.6 GB/s
achieved), while the software scheme requests 12.8 GB/s, achieves 10,
and ends up ~20 % faster overall.  This experiment runs the mix on the
**direct** four-core simulator (shared LLC + shared controller), not the
analytic model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import get_machine
from repro.api import PREFETCH_CONFIGS, ExperimentSpec
from repro.experiments.mixes_common import coordinator_for
from repro.experiments.runner import execution_for, prefetcher_for, profile_for_spec
from repro.experiments.tables import render_table
from repro.multicore.simulator import CoreSpec, MulticoreSimulator
from repro.workloads.mixes import Mix, fig8_mix

__all__ = ["Fig8Result", "run_fig8", "render_fig8"]


@dataclass(frozen=True)
class Fig8Result:
    """Per-application speedups and achieved bandwidth for one mix."""

    machine: str
    members: tuple[str, ...]
    speedups: dict[str, list[float]]  # config -> per-app speedup-1
    bandwidth: dict[str, float]  # config -> achieved GB/s


def _core_specs(mix: Mix, machine_name: str, config: str, scale: float) -> list[CoreSpec]:
    machine = get_machine(machine_name)
    specs = []
    for name, input_set in zip(mix.members, mix.inputs):
        cell = ExperimentSpec(name, machine_name, config, input_set, scale)
        execution = execution_for(cell)
        specs.append(
            CoreSpec(
                trace=execution.trace,
                work_per_memop=execution.work_per_memop,
                mlp=execution.mlp,
                prefetcher=prefetcher_for(config, machine, profile_for_spec(cell).program),
                name=name,
            )
        )
    return specs


def run_fig8(
    machine_name: str = "intel-i7-2600k",
    mix: Mix | None = None,
    scale: float = 0.5,
    configs: tuple[str, ...] = ("swnt", "hw"),
) -> Fig8Result:
    """Directly simulate the Fig. 8 mix under each configuration."""
    machine = get_machine(machine_name)
    the_mix = mix if mix is not None else fig8_mix()

    results = {}
    for config in ("baseline", *configs):
        sim = MulticoreSimulator(
            machine,
            _core_specs(the_mix, machine_name, config, scale),
            coordinator=coordinator_for(config),
        )
        results[config] = sim.run(drain=False)

    base = results["baseline"]
    speedups = {}
    bandwidth = {}
    for config in configs:
        res = results[config]
        speedups[config] = [
            b.cycles / c.cycles - 1.0 for b, c in zip(base.per_core, res.per_core)
        ]
        bandwidth[config] = res.achieved_bandwidth_gbs(machine.freq_ghz)
    return Fig8Result(
        machine=machine_name,
        members=the_mix.members,
        speedups=speedups,
        bandwidth=bandwidth,
    )


def render_fig8(result: Fig8Result) -> str:
    configs = list(result.speedups)
    rows = []
    for i, name in enumerate(result.members):
        rows.append(
            (name, *(f"{result.speedups[c][i] * 100:+.1f}%" for c in configs))
        )
    rows.append(
        (
            "average",
            *(
                f"{sum(result.speedups[c]) / len(result.speedups[c]) * 100:+.1f}%"
                for c in configs
            ),
        )
    )
    rows.append(
        ("achieved BW", *(f"{result.bandwidth[c]:.1f} GB/s" for c in configs))
    )
    return render_table(
        ("App", *(PREFETCH_CONFIGS[c].label for c in configs)),
        rows,
        title=f"Fig 8: Mix detail {result.members} — {result.machine} (direct 4-core sim)",
    )
