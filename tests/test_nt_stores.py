"""Tests for the non-temporal store extension."""

import numpy as np
import pytest

from repro.cachesim import CacheHierarchy
from repro.core import (
    OptimizerSettings,
    PrefetchOptimizer,
    apply_nt_stores,
    identify_nt_stores,
)
from repro.errors import ProgramError
from repro.isa import (
    Kernel,
    Load,
    Program,
    Store,
    StridedAccess,
    convert_nt_stores,
    emit,
    execute_program,
    parse,
)
from repro.sampling import RuntimeSampler
from repro.statstack import PerPCMissRatios, StatStackModel
from repro.trace import MemOp, MemoryTrace
from repro.trace.synthesis import strided_pattern


def store_trace(n=2000, stride=64, op=MemOp.STORE):
    addr = strided_pattern(0, n, stride)
    return MemoryTrace(np.zeros(n, np.int64), addr, np.full(n, int(op), np.uint8))


class TestHierarchySemantics:
    def test_nt_store_does_not_fill_caches(self, tiny_machine):
        h = CacheHierarchy(tiny_machine)
        s = h.run(store_trace(op=MemOp.STORE_NT))
        assert len(h.l1) == 0 and len(h.llc) == 0
        assert s.dram_fills == 0
        assert s.nt_store_writes > 0

    def test_nt_store_halves_store_stream_traffic(self, tiny_machine):
        # a cold store stream: normal stores fetch + write back (2 lines
        # of traffic per line), NT stores write once
        normal = CacheHierarchy(tiny_machine)
        s1 = normal.run(store_trace())
        normal.drain_writebacks(s1)
        nt = CacheHierarchy(tiny_machine)
        s2 = nt.run(store_trace(op=MemOp.STORE_NT))
        nt.drain_writebacks(s2)
        assert s2.dram_bytes <= 0.6 * s1.dram_bytes

    def test_write_combining_merges_subline_writes(self, tiny_machine):
        # stride-8 NT stores touch each line 8 times but write it once
        h = CacheHierarchy(tiny_machine)
        s = h.run(store_trace(n=800, stride=8, op=MemOp.STORE_NT))
        assert s.nt_store_writes == pytest.approx(100, abs=2)

    def test_nt_store_invalidates_cached_copy(self, tiny_machine):
        h = CacheHierarchy(tiny_machine)
        warm = MemoryTrace.loads([0], [0])
        h.run(warm)
        assert h.l1.contains(0)
        h.run(MemoryTrace([1], [0], [MemOp.STORE_NT]))
        assert not h.l1.contains(0)
        assert not h.llc.contains(0)

    def test_read_after_nt_store_misses(self, tiny_machine):
        h = CacheHierarchy(tiny_machine)
        t = MemoryTrace(
            [0, 1], [0, 0], [MemOp.STORE_NT, MemOp.LOAD]
        )
        s = h.run(t)
        assert s.l1.misses == 1  # the load pays the full miss


class TestTransforms:
    def test_apply_nt_stores_trace_level(self):
        t = MemoryTrace([0, 1, 0], [0, 64, 128], [MemOp.STORE, MemOp.STORE, MemOp.LOAD])
        out = apply_nt_stores(t, [0])
        assert out.op.tolist() == [int(MemOp.STORE_NT), int(MemOp.STORE), int(MemOp.LOAD)]
        assert out.n_demand == 3  # still demand events

    def test_apply_nt_stores_never_touches_loads(self):
        t = MemoryTrace.loads([0, 0], [0, 64])
        out = apply_nt_stores(t, [0])
        assert out is t or np.array_equal(out.op, t.op)

    def test_convert_nt_stores_ir_level(self):
        p = Program(
            "p",
            (
                Kernel(
                    "k",
                    (
                        Load("x", StridedAccess(0, 8)),
                        Store("y", StridedAccess(1 << 20, 64)),
                    ),
                    trips=50,
                ),
            ),
        )
        converted = convert_nt_stores(p, [p.pc_map()[("k", "y")]])
        body = converted.kernels[0].body
        assert isinstance(body[1], Store) and body[1].nt
        # trace matches the trace-level transform
        via_ir = execute_program(converted, seed=1).trace
        via_trace = apply_nt_stores(execute_program(p, seed=1).trace, [1])
        assert via_ir == via_trace

    def test_convert_unknown_pc_rejected(self):
        p = Program("p", (Kernel("k", (Load("x", StridedAccess(0, 8)),), trips=1),))
        with pytest.raises(ProgramError):
            convert_nt_stores(p, [42])

    def test_assembly_roundtrip_storent(self):
        p = Program(
            "p",
            (
                Kernel(
                    "k",
                    (Store("y", StridedAccess(0, 64), nt=True),),
                    trips=8,
                ),
            ),
        )
        q = parse(emit(p))
        assert q.kernels[0].body[0].nt
        assert execute_program(q, 3).trace == execute_program(p, 3).trace


class TestAnalysis:
    def _sampled(self, trace, machine):
        sampling = RuntimeSampler(rate=5e-3, seed=2).sample(trace)
        model = StatStackModel(sampling.reuse, machine.line_bytes)
        return sampling, PerPCMissRatios(model, machine)

    def test_streaming_store_selected(self, amd):
        n = 80_000
        pc = np.tile([0, 1], n // 2)
        addr = np.empty(n, np.int64)
        addr[0::2] = strided_pattern(0, n // 2, 16)
        addr[1::2] = strided_pattern(1 << 31, n // 2, 16)
        op = np.where(pc == 1, int(MemOp.STORE), int(MemOp.LOAD)).astype(np.uint8)
        t = MemoryTrace(pc, addr, op)
        sampling, ratios = self._sampled(t, amd)
        assert identify_nt_stores(sampling, ratios, {1}) == [1]

    def test_read_back_store_rejected(self, amd):
        # pc1 stores a line, pc0 reads it right after -> unsafe
        n = 80_000
        pc = np.tile([1, 0], n // 2)
        base = strided_pattern(0, n // 2, 64)
        addr = np.empty(n, np.int64)
        addr[0::2] = base
        addr[1::2] = base
        op = np.where(pc == 1, int(MemOp.STORE), int(MemOp.LOAD)).astype(np.uint8)
        t = MemoryTrace(pc, addr, op)
        sampling, ratios = self._sampled(t, amd)
        assert identify_nt_stores(sampling, ratios, {1}) == []

    def test_hitting_store_rejected(self, amd):
        # a store that never misses has no fill to save
        n = 40_000
        t = MemoryTrace(
            np.zeros(n, np.int64),
            strided_pattern(0, n, 8, wrap_bytes=8 * 1024),
            np.full(n, int(MemOp.STORE), np.uint8),
        )
        sampling, ratios = self._sampled(t, amd)
        assert identify_nt_stores(sampling, ratios, {0}) == []

    def test_pipeline_integration(self, amd):
        from repro.workloads import build_program, workload_seed

        program = build_program("lbm", "ref", 0.1)
        execution = execute_program(program, seed=workload_seed("lbm", "ref"))
        sampling = RuntimeSampler(rate=2e-3, seed=1).sample(execution.trace)
        plan = PrefetchOptimizer(
            amd, OptimizerSettings(enable_nt_stores=True)
        ).analyze(
            sampling,
            refs_per_pc=program.refs_per_pc(),
            store_pcs=program.store_pcs(),
        )
        # lbm's f_out stream store is the canonical candidate
        assert program.pc_map()[("collide", "f_out")] in plan.nt_stores

    def test_end_to_end_traffic_reduction(self, amd):
        from repro.workloads import build_program, workload_seed

        program = build_program("lbm", "ref", 0.15)
        execution = execute_program(program, seed=workload_seed("lbm", "ref"))
        sampling = RuntimeSampler(rate=2e-3, seed=1).sample(execution.trace)
        opt = PrefetchOptimizer(amd, OptimizerSettings(enable_nt_stores=True))
        plan = opt.analyze(
            sampling,
            refs_per_pc=program.refs_per_pc(),
            store_pcs=program.store_pcs(),
        )
        from repro.core import apply_prefetch_plan

        swnt_trace = apply_prefetch_plan(execution.trace, plan)
        nts_trace = apply_nt_stores(swnt_trace, plan.nt_stores)

        def run(tr):
            h = CacheHierarchy(amd)
            s = h.run(tr, execution.work_per_memop, execution.mlp)
            h.drain_writebacks(s)
            return s

        swnt = run(swnt_trace)
        nts = run(nts_trace)
        assert nts.dram_bytes < swnt.dram_bytes
        assert nts.cycles <= swnt.cycles * 1.05
