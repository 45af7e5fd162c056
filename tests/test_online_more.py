"""Additional tests: online optimiser internals and trace/plan workflows."""

import json

import numpy as np

from repro.core import (
    OnlineOptimizer,
    OptimizationReport,
    PrefetchOptimizer,
    apply_prefetch_plan,
    plan_from_dict,
    plan_to_dict,
)
from repro.isa import execute_program
from repro.sampling import RuntimeSampler
from repro.trace import MemoryTrace
from repro.trace.synthesis import strided_pattern
from repro.workloads import WorkloadRecipe, build_program, generate_workload, workload_seed


class TestOnlineInternals:
    def test_single_window_equals_offline_shape(self, amd):
        n = 60_000
        trace = MemoryTrace.loads(np.zeros(n, np.int64), strided_pattern(0, n, 16))
        online = OnlineOptimizer(amd, window_refs=n)
        result = online.run(trace, work_per_memop=8.0, mlp=8.0)
        assert result.n_windows == 1
        # the single-window plan matches what offline analysis would pick
        offline = PrefetchOptimizer(amd).analyze(
            RuntimeSampler(rate=5e-3, seed=0).sample(trace)
        )
        assert result.plans[0].prefetched_pcs == offline.prefetched_pcs

    def test_history_smooths_plan_changes(self, amd):
        # same workload, alternating noise: longer history -> fewer flips
        n = 30_000
        parts = []
        for i in range(6):
            addr = strided_pattern(i * (n * 16), n, 16)
            parts.append(MemoryTrace.loads(np.zeros(n, np.int64), addr))
        trace = MemoryTrace.concat(parts)
        short = OnlineOptimizer(amd, window_refs=n, history_windows=1).run(
            trace, 8.0, 8.0
        )
        long = OnlineOptimizer(amd, window_refs=n, history_windows=3).run(
            trace, 8.0, 8.0
        )
        assert long.plan_changes() <= short.plan_changes() + 1

    def test_empty_plan_first_window(self, amd):
        n = 20_000
        trace = MemoryTrace.loads(np.zeros(2 * n, np.int64), strided_pattern(0, 2 * n, 16))
        result = OnlineOptimizer(amd, window_refs=n).run(trace, 8.0, 8.0)
        # the first window executed without prefetches (cold start), so
        # its plan only influences window 2
        assert result.n_windows == 2


def _ship(plan: OptimizationReport, path) -> OptimizationReport:
    """Write a plan as a JSON file and read it back."""
    path.write_text(json.dumps(plan_to_dict(plan)))
    return plan_from_dict(json.loads(path.read_text()))


class TestShipAPlanWorkflow:
    """The deployment story: profile on host A, optimise on host B."""

    def test_roundtrip_through_files(self, tmp_path, amd):
        # host A: execute and profile
        program = build_program("soplex", "ref", 0.05)
        trace = execute_program(program, seed=workload_seed("soplex", "ref")).trace

        # host B: analyse, ship the plan
        sampling = RuntimeSampler(rate=5e-3, seed=1).sample(trace)
        plan = PrefetchOptimizer(amd).analyze(sampling)

        # host A again: load plan, rewrite, run
        shipped = _ship(plan, tmp_path / "plan.json")
        optimised = apply_prefetch_plan(trace, shipped)
        assert optimised.n_prefetch > 0
        assert optimised.demand_only() == trace.demand_only()

    def test_generated_workload_roundtrip(self, tmp_path, amd):
        recipe = WorkloadRecipe(
            stream_weight=2, gather_weight=1, trips=20_000, footprint_bytes=4 << 20
        )
        program = generate_workload(recipe, seed=9)
        execution = execute_program(program, seed=9)
        sampling = RuntimeSampler(rate=5e-3, seed=9).sample(execution.trace)
        plan = PrefetchOptimizer(amd).analyze(
            sampling, refs_per_pc=program.refs_per_pc()
        )
        assert _ship(plan, tmp_path / "gen.json").prefetched_pcs == plan.prefetched_pcs
