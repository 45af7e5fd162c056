"""Shared machinery for the mixed-workload experiments (Figs. 7–11).

Builds per-application solo profiles (cached), solves each mix's
contention with :func:`repro.multicore.contention.solve_mix`, and
derives the paper's per-mix metrics.  All mixed-workload figures compare
each configuration's *mix* against the **baseline mix** (original
programs, hardware prefetching off), matching paper §VII-C.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.config import get_machine
from repro.api import PREFETCH_CONFIGS, ExperimentEngine, ExperimentSpec, current_engine
from repro.experiments.runner import profile_for, run_spec
from repro.metrics.throughput import fair_speedup, qos_degradation, weighted_speedup
from repro.multicore.contention import AppProfile, solve_mix
from repro.multicore.coordinator import Coordinator, HeuristicCoordinator, RLCoordinator
from repro.statstack.model import StatStackModel
from repro.statstack.mrc import PerPCMissRatios, default_size_grid
from repro.workloads.mixes import Mix

__all__ = [
    "MixOutcome",
    "app_profile",
    "coordinator_for",
    "evaluate_mix",
    "evaluate_mixes",
]

#: Configurations whose solo cells carry a hardware prefetcher whose
#: speculative stream a coordinator (or the static curve) can retire.
#: Rewritten programs stay out: for them the traffic above the baseline
#: also holds software prefetches, which no hardware throttle retires.
HW_CONFIGS = tuple(
    name
    for name, row in PREFETCH_CONFIGS.items()
    if row.hw == "machine" and row.plan is None
)

_COORDINATORS = {"heuristic": HeuristicCoordinator, "rl": RLCoordinator.default}


@dataclass(frozen=True)
class MixOutcome:
    """One mix under one prefetching configuration."""

    mix_id: int
    config: str
    app_names: tuple[str, ...]
    cycles: tuple[float, ...]
    dram_lines: float

    def weighted_speedup_vs(self, baseline: "MixOutcome") -> float:
        return weighted_speedup(baseline.cycles, self.cycles)

    def fair_speedup_vs(self, baseline: "MixOutcome") -> float:
        return fair_speedup(baseline.cycles, self.cycles)

    def qos_vs(self, baseline: "MixOutcome") -> float:
        return qos_degradation(baseline.cycles, self.cycles)

    def traffic_increase_vs(self, baseline: "MixOutcome") -> float:
        if baseline.dram_lines <= 0:
            return 0.0
        return self.dram_lines / baseline.dram_lines - 1.0


@lru_cache(maxsize=1024)
def app_profile(
    name: str,
    machine_name: str,
    config: str,
    input_set: str = "ref",
    scale: float = 1.0,
) -> AppProfile:
    """Solo profile of one app under one config (cached)."""
    machine = get_machine(machine_name)
    cell = ExperimentSpec(name, machine_name, config, input_set, scale)
    stats = run_spec(cell)
    profile = profile_for(name, input_set, scale)
    throttleable = 0.0
    throttle_cost = 0.0
    if config in HW_CONFIGS:
        base = run_spec(cell.with_config("baseline"))
        base_lines = base.dram_fills + base.dram_writebacks
        hw_lines = stats.dram_fills + stats.dram_writebacks
        throttleable = max(0.0, hw_lines - base_lines)
        # Retiring the speculative stream gives back roughly half the
        # prefetcher's solo benefit (the easy streams stay covered).
        throttle_cost = 0.5 * max(0.0, base.cycles - stats.cycles)
    model = StatStackModel(profile.sampling.reuse, machine.line_bytes)
    grid = default_size_grid(min_bytes=64 * 1024, max_bytes=16 << 20, points_per_octave=2)
    mrc = PerPCMissRatios(model, machine, size_grid=grid).application_curve()
    transfers = stats.dram_fills + stats.dram_writebacks
    return AppProfile(
        name=name,
        cycles_alone=stats.cycles,
        dram_lines=transfers,
        llc_insert_lines=stats.llc_insertions,
        mlp=profile.execution.mlp,
        mrc=mrc,
        mr_full_llc=model.miss_ratio(machine.llc.size_bytes),
        # demand misses the core waited on, as a share of all transfers
        exposure=min(1.0, stats.llc.misses / max(1, transfers)),
        throttleable_lines=throttleable,
        throttle_cycle_cost=throttle_cost,
    )


def coordinator_for(config: str) -> Coordinator | None:
    """The coordination policy a mix-level configuration implies."""
    policy = PREFETCH_CONFIGS[config].coordinator
    return None if policy is None else _COORDINATORS[policy]()


def evaluate_mix(
    mix: Mix,
    machine_name: str,
    config: str,
    scale: float = 1.0,
) -> MixOutcome:
    """Solve one mix under one configuration."""
    machine = get_machine(machine_name)
    profiles = [
        app_profile(name, machine_name, config, input_set, scale)
        for name, input_set in zip(mix.members, mix.inputs)
    ]
    contended = solve_mix(machine, profiles, coordinator=coordinator_for(config))
    return MixOutcome(
        mix_id=mix.mix_id,
        config=config,
        app_names=mix.members,
        cycles=tuple(c.cycles for c in contended),
        dram_lines=sum(c.dram_lines for c in contended),
    )


def evaluate_mixes(
    mixes: list[Mix],
    machine_name: str,
    configs: tuple[str, ...] = ("baseline", "hw", "swnt"),
    scale: float = 1.0,
    engine: ExperimentEngine | None = None,
) -> dict[str, list[MixOutcome]]:
    """Solve every mix under every configuration.

    The solo runs behind every mix member are resolved up front through
    the experiment engine (parallel + persistent cache); the per-mix
    contention solve then reads them from the shared memo.
    """
    engine = engine or current_engine()
    members = sorted(
        {
            (name, input_set)
            for mix in mixes
            for name, input_set in zip(mix.members, mix.inputs)
        }
    )
    # Hardware-prefetch app profiles additionally need the baseline
    # solo run to size the throttleable stream (see :func:`app_profile`).
    needs_baseline = any(c in HW_CONFIGS for c in configs)
    cell_configs = tuple(dict.fromkeys(
        (*configs, *(("baseline",) if needs_baseline else ()))
    ))
    engine.run(
        ExperimentSpec(name, machine_name, config, input_set, scale)
        for name, input_set in members
        for config in cell_configs
    )
    return {
        config: [evaluate_mix(mix, machine_name, config, scale) for mix in mixes]
        for config in configs
    }
