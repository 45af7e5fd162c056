"""Online (windowed) prefetch optimisation.

The paper positions its analysis as enabling *dynamic binary rewriting*
(§I): because sampling is cheap and the model is fast, the whole
pipeline can run **while the program executes**, updating the inserted
prefetches as behaviour changes.  This module implements that loop on
the trace level:

1. execute a window of the program under the current prefetch plan;
2. sample the window (reuse + strides) and fold the samples into a
   sliding profile;
3. re-run the analysis to produce the plan for the *next* window.

Cache and memory-controller state persist across windows (one
continuous execution), so plan changes pay realistic transition costs.
The regression test drives a two-phase program and checks that the plan
tracks the phase change — the scenario static insertion cannot handle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cachesim.hierarchy import CacheHierarchy
from repro.cachesim.stats import RunStats
from repro.config import MachineConfig
from repro.core.insertion import apply_prefetch_plan
from repro.core.pipeline import PrefetchOptimizer
from repro.core.report import OptimizationReport
from repro.errors import AnalysisError
from repro.sampling.sampler import RuntimeSampler, SamplingResult
from repro.trace.events import MemoryTrace

__all__ = ["OnlineOptimizer", "OnlineResult"]

#: Sampling rate within each window: denser than offline profiling
#: (``repro.cache.PROFILE_RATE``) because each window is short.
_WINDOW_RATE = 5e-3


@dataclass
class OnlineResult:
    """Outcome of one online-optimised execution."""

    stats: RunStats
    plans: list[OptimizationReport] = field(default_factory=list)

    @property
    def n_windows(self) -> int:
        return len(self.plans)

    def plan_changes(self) -> int:
        """Number of windows whose prefetched-PC set differs from the previous."""
        changes = 0
        previous: set[int] | None = None
        for plan in self.plans:
            current = plan.prefetched_pcs
            if previous is not None and current != previous:
                changes += 1
            previous = current
        return changes


class OnlineOptimizer:
    """Windowed sample → analyse → rewrite loop over one execution.

    Parameters
    ----------
    machine:
        Target machine model.
    window_refs:
        Demand references per adaptation window.
    history_windows:
        Sliding profile length: samples from this many recent windows
        feed the analysis.  Short histories adapt fast; long ones are
        stable.

    Each window is sampled at ``_WINDOW_RATE`` and analysed with the
    paper's default thresholds.
    """

    def __init__(
        self,
        machine: MachineConfig,
        window_refs: int = 50_000,
        history_windows: int = 2,
    ) -> None:
        if window_refs <= 0:
            raise AnalysisError("window_refs must be positive")
        if history_windows <= 0:
            raise AnalysisError("history_windows must be positive")
        self.machine = machine
        self.window_refs = window_refs
        self.history_windows = history_windows
        self.optimizer = PrefetchOptimizer(machine)

    def run(
        self,
        trace: MemoryTrace,
        work_per_memop: float = 2.0,
        mlp: float = 2.0,
        seed: int = 0,
    ) -> OnlineResult:
        """Execute ``trace`` with per-window re-optimisation."""
        hierarchy = CacheHierarchy(self.machine)
        stats = RunStats(line_bytes=self.machine.line_bytes)
        plans: list[OptimizationReport] = []
        history: list[SamplingResult] = []
        current_plan: OptimizationReport | None = None

        window_id = 0
        for window in trace.iter_chunks(self.window_refs):
            if current_plan is not None and current_plan.decisions:
                executed = apply_prefetch_plan(window, current_plan)
            else:
                executed = window
            hierarchy.run(executed, work_per_memop, mlp, stats=stats)

            sampler = RuntimeSampler(
                rate=_WINDOW_RATE, seed=seed + window_id, min_samples=32
            )
            history.append(sampler.sample(window))
            if len(history) > self.history_windows:
                history.pop(0)

            merged_reuse = history[0].reuse
            merged_strides = history[0].strides
            for extra in history[1:]:
                merged_reuse = merged_reuse.merged_with(extra.reuse)
                merged_strides = merged_strides.merged_with(extra.strides)
            merged = SamplingResult(
                reuse=merged_reuse,
                strides=merged_strides,
                sample_rate=_WINDOW_RATE,
                n_refs=merged_reuse.n_refs,
                overhead_estimate=history[-1].overhead_estimate,
            )
            if len(merged.reuse):
                current_plan = self.optimizer.analyze(merged)
            plans.append(
                current_plan
                if current_plan is not None
                else OptimizationReport(machine_name=self.machine.name)
            )
            window_id += 1

        hierarchy.drain_writebacks(stats)
        stats.cycles = hierarchy.now
        return OnlineResult(stats=stats, plans=plans)
