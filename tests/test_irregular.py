"""Tier-1 tests for the irregular-workload frontier.

Graph-analytics IR patterns, the graph benchmark suite, the structural
``A[B[i]]`` pairing, the indirect software rewrite (``swi``), and the
cross-core LLC helper prefetcher (``hwx``).
"""

import numpy as np
import pytest

from repro.api import CONFIGS, PLAN_KINDS, ExperimentSpec
from repro.core.report import PrefetchDecision
from repro.errors import ProgramError, WorkloadError
from repro.experiments import runner
from repro.experiments.engine import ExperimentEngine
from repro.hwpref import (
    PrefetchTuning,
    cross_core_prefetcher_for,
    index_directory_for,
)
from repro.isa import (
    IndexedAccess,
    IndirectPrefetch,
    Kernel,
    Load,
    Prefetch,
    Program,
    StridedAccess,
    execute_program,
    insert_prefetches,
)
from repro.trace import MemOp
from repro.workloads import (
    GRAPH_BENCHMARKS,
    WorkloadRecipe,
    build_program,
    generate_workload,
    list_workloads,
    workload_seed,
)

MACHINE = "amd-phenom-ii"
SCALE = 0.02


def indirect_program(trips=512, ahead=0):
    """Minimal A[B[i]] kernel: strided index walk + indexed gather."""
    idx_base = 1 << 22
    data_base = 1 << 26
    n_indices = 256
    body = [
        Load("bwalk", StridedAccess(idx_base, 8, wrap_bytes=n_indices * 8)),
        Load(
            "gather",
            IndexedAccess(
                base=data_base,
                region_bytes=1 << 20,
                index_base=idx_base,
                n_indices=n_indices,
                index_seed=42,
            ),
        ),
    ]
    if ahead:
        body.append(IndirectPrefetch(target="gather", ahead=ahead))
    return Program("indirect-demo", (Kernel("k", tuple(body), trips=trips),))


class TestGraphBenchmarks:
    def test_suite_registration(self):
        assert list_workloads(suite="graph") == ["bfs", "hashjoin", "pagerank"]
        assert sorted(s.name for s in GRAPH_BENCHMARKS) == [
            "bfs", "hashjoin", "pagerank",
        ]

    @pytest.mark.parametrize("name", ["pagerank", "hashjoin"])
    def test_indirect_pairs_present(self, name):
        pairs = build_program(name, scale=SCALE).indirect_pairs()
        assert pairs, f"{name} should carry an A[B[i]] pair"
        for data_pc, (index_pc, stride) in pairs.items():
            assert data_pc != index_pc
            assert stride > 0

    def test_bfs_has_no_pairs(self):
        # bfs is frontier/visited traversal — no index-array indirection,
        # so the cross-core helper must stay silent on it.
        assert build_program("bfs", scale=SCALE).indirect_pairs() == {}

    @pytest.mark.parametrize("name", ["pagerank", "bfs", "hashjoin"])
    def test_build_and_execute_deterministic(self, name):
        seed = workload_seed(name, "ref")
        a = build_program(name, scale=SCALE)
        b = build_program(name, scale=SCALE)
        assert a == b
        ta = execute_program(a, seed=seed).trace
        tb = execute_program(b, seed=seed).trace
        assert np.array_equal(ta.addr, tb.addr)
        assert np.array_equal(ta.pc, tb.pc)
        assert np.array_equal(ta.op, tb.op)

    def test_input_sets_change_footprint(self):
        ref = build_program("pagerank", "ref", scale=SCALE)
        alt = build_program("pagerank", "alt", scale=SCALE)
        assert ref != alt


class TestIndirectPairs:
    def test_structural_match(self):
        program = indirect_program()
        pc = program.pc_map()
        assert program.indirect_pairs() == {
            pc[("k", "gather")]: (pc[("k", "bwalk")], 8)
        }

    def test_unmatched_index_base_yields_no_pair(self):
        program = Program(
            "orphan",
            (
                Kernel(
                    "k",
                    (
                        Load(
                            "gather",
                            IndexedAccess(
                                base=1 << 26,
                                region_bytes=1 << 20,
                                index_base=1 << 22,  # no load walks this
                                n_indices=64,
                                index_seed=7,
                            ),
                        ),
                    ),
                    trips=64,
                ),
            ),
        )
        assert program.indirect_pairs() == {}


class TestIndirectPrefetchSemantics:
    def test_prefetch_addresses_run_ahead_of_target(self):
        ahead = 16
        plain = execute_program(indirect_program(), seed=3)
        rewritten = execute_program(indirect_program(ahead=ahead), seed=3)
        trace = rewritten.trace
        gather_pc = indirect_program().pc_map()[("k", "gather")]
        demand = trace.addr[(trace.pc == gather_pc) & (trace.op != int(MemOp.PREFETCH))]
        issued = trace.addr[(trace.pc == gather_pc) & (trace.op == int(MemOp.PREFETCH))]
        # Every prefetch is the gather's own demand address `ahead`
        # iterations later, tail clamped to the last iteration.
        expected = np.concatenate(
            (demand[ahead:], np.full(ahead, demand[-1]))
        )
        assert np.array_equal(issued, expected)
        # The demand stream itself is untouched by the insertion.
        plain_demand = plain.trace.addr[plain.trace.pc == gather_pc]
        assert np.array_equal(demand, plain_demand)

    def test_validation(self):
        with pytest.raises(ProgramError):
            IndirectPrefetch(target="gather", ahead=0)
        with pytest.raises(ProgramError):
            IndirectPrefetch(target="", ahead=8)


class TestIndirectRewrite:
    def decision(self, program, ahead=24):
        pc = program.pc_map()
        return PrefetchDecision(
            pc=pc[("k", "gather")],
            stride=8,
            distance_bytes=ahead * 8,
            nta=False,
            indirect_ahead=ahead,
            index_pc=pc[("k", "bwalk")],
        )

    def test_two_instruction_insertion(self):
        program = indirect_program()
        rewritten = insert_prefetches(program, [self.decision(program)])
        body = rewritten.kernels[0].body
        kinds = [type(i).__name__ for i in body]
        # prefetch B[i+d] rides the index walk; IndirectPrefetch covers
        # the gather: the paper-style two-instruction rewrite.
        assert kinds == ["Load", "Prefetch", "Load", "IndirectPrefetch"]
        assert isinstance(body[1], Prefetch) and body[1].target == "bwalk"
        assert body[3].target == "gather" and body[3].ahead == 24

    def test_demand_stream_preserved(self):
        program = indirect_program()
        rewritten = insert_prefetches(program, [self.decision(program)])
        before = execute_program(program, seed=9).trace
        after = execute_program(rewritten, seed=9).trace.demand_only()
        assert np.array_equal(before.demand_only().addr, after.addr)
        assert np.array_equal(before.demand_only().pc, after.pc)

    def test_unknown_index_pc_rejected(self):
        program = indirect_program()
        bad = PrefetchDecision(
            pc=program.pc_map()[("k", "gather")],
            stride=8,
            distance_bytes=64,
            nta=False,
            indirect_ahead=8,
            index_pc=999,
        )
        with pytest.raises(ProgramError):
            insert_prefetches(program, [bad])


class TestCrossCorePrefetcher:
    def test_index_directory(self):
        program = build_program("pagerank", scale=SCALE)
        directory = index_directory_for(program)
        assert directory
        (index_pc, region), = directory.items()
        values = region.index_values()
        assert len(values) == region.n_indices
        assert (values >= 0).all() and (values < region.n_slots).all()

    def test_empty_directory_issues_nothing(self):
        program = build_program("bfs", scale=SCALE)
        pf = cross_core_prefetcher_for(program)
        trace = execute_program(program, seed=1).trace
        lines = trace.addr // 64
        ev, tgt, fill = pf.observe_batch(
            trace.pc, trace.addr, lines, np.zeros(len(lines), dtype=bool)
        )
        assert len(ev) == 0

    def test_fills_are_llc_only(self):
        program = indirect_program()
        pf = cross_core_prefetcher_for(program)
        trace = execute_program(program, seed=5).trace
        issued = []
        for i in range(len(trace)):
            issued += pf.observe(
                int(trace.pc[i]), int(trace.addr[i]), int(trace.addr[i]) // 64, False
            )
        assert issued
        assert all(not req[1] for req in issued)

    def test_tuning_disable_and_degree_scale(self):
        program = indirect_program()
        trace = execute_program(program, seed=5).trace
        lines = trace.addr // 64
        hits = np.zeros(len(lines), dtype=bool)

        def issues(tuning):
            pf = cross_core_prefetcher_for(program)
            if tuning is not None:
                pf.apply_tuning(tuning)
            ev, _, _ = pf.observe_batch(trace.pc, trace.addr, lines, hits)
            return len(ev)

        full = issues(None)
        assert full > 0
        assert issues(PrefetchTuning(degree_scale=0.0)) == 0
        scaled = issues(PrefetchTuning(degree_scale=0.25))
        assert 0 < scaled < full


class TestGeneratorGraphFamily:
    def test_graph_recipe_emits_graph_patterns(self):
        recipe = WorkloadRecipe(
            stream_weight=0.1,
            csr_weight=0.3,
            bfs_weight=0.2,
            hash_weight=0.2,
            indirect_weight=0.2,
            n_instructions=8,
            trips=128,
        )
        program = generate_workload(recipe, seed=11)
        names = {
            type(i.pattern).__name__
            for k in program.kernels
            for i in k.mem_instructions
        }
        assert {"CSRAccess", "BFSAccess", "HashProbeAccess", "IndexedAccess"} <= names
        assert program.indirect_pairs()  # each indirect slot emits a pair
        assert generate_workload(recipe, seed=11) == program

    def test_legacy_recipe_untouched_by_graph_family(self):
        recipe = WorkloadRecipe(stream_weight=0.6, chase_weight=0.4, trips=128)
        program = generate_workload(recipe, seed=7)
        names = {
            type(i.pattern).__name__
            for k in program.kernels
            for i in k.mem_instructions
        }
        assert names <= {"StridedAccess", "ChaseAccess"}
        assert program.indirect_pairs() == {}

    def test_all_zero_weights_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadRecipe(stream_weight=0.0)


class TestNewConfigs:
    def test_config_surface(self):
        assert "swi" in CONFIGS and "hwx" in CONFIGS
        assert "swi" in PLAN_KINDS
        assert ExperimentSpec("pagerank", MACHINE, "swi", "ref", SCALE).plan_kind == "swi"
        assert ExperimentSpec("pagerank", MACHINE, "hwx", "ref", SCALE).plan_kind is None

    def test_swi_plan_contains_indirect_decision(self):
        spec = ExperimentSpec("pagerank", MACHINE, "swi", "ref", SCALE)
        plan = runner.plan_for_spec(spec)
        indirect = [d for d in plan.decisions if d.indirect_ahead]
        assert indirect, "swi on pagerank should emit an indirect decision"
        assert all(d.index_pc is not None for d in indirect)

    def test_swi_and_hwx_run_end_to_end(self):
        base = ExperimentSpec("pagerank", MACHINE, "baseline", "ref", SCALE)
        swi = base.with_config("swi")
        hwx = base.with_config("hwx")
        baseline = runner.run_spec(base)
        swi_stats = runner.run_spec(swi)
        hwx_stats = runner.run_spec(hwx)
        assert swi_stats.sw_prefetches > 0
        assert hwx_stats.hw_prefetches > 0
        # Both mechanisms must actually help on the indirect-heavy kernel.
        assert swi_stats.cycles < baseline.cycles
        assert hwx_stats.cycles < baseline.cycles

    def test_parallel_engine_deterministic_for_new_configs(self):
        grid = ExperimentSpec.grid(
            ("pagerank", "hashjoin"), (MACHINE,), ("swi", "hwx"), scales=(SCALE,)
        )
        serial = ExperimentEngine(jobs=1).run(grid)
        runner.clear_memo()
        parallel = ExperimentEngine(jobs=2).run(grid)
        assert {s: r.cycles for s, r in serial.items()} == {
            s: r.cycles for s, r in parallel.items()
        }
        for spec in grid:
            assert serial[spec].sw_prefetches == parallel[spec].sw_prefetches
            assert serial[spec].hw_prefetches == parallel[spec].hw_prefetches
