"""Tests for trace-level insertion, the pipeline, and the baselines."""

import numpy as np
import pytest

from repro.baselines import stride_centric_plan
from repro.core import (
    OptimizerSettings,
    PrefetchDecision,
    PrefetchOptimizer,
    apply_prefetch_plan,
)
from repro.errors import AnalysisError
from repro.isa import execute_program, insert_prefetches
from repro.sampling import RuntimeSampler
from repro.trace import MemOp, MemoryTrace
from repro.trace.synthesis import chase_pattern, strided_pattern
from repro.workloads import build_program, workload_seed


def stream_chase_trace(n=120_000, seed=0):
    """pc0 streams (prefetchable), pc1 chases (not)."""
    rng = np.random.default_rng(seed)
    pc = np.tile([0, 1], n // 2)
    addr = np.empty(n, np.int64)
    addr[0::2] = strided_pattern(0, n // 2, 16)
    addr[1::2] = chase_pattern(rng, 1 << 31, 50_000, n // 2)
    return MemoryTrace.loads(pc, addr)


class TestApplyPrefetchPlan:
    def test_insert_position_and_address(self):
        t = MemoryTrace.loads([0, 1, 0], [100, 200, 300])
        plan = [PrefetchDecision(pc=0, stride=8, distance_bytes=64, nta=False)]
        out = apply_prefetch_plan(t, plan)
        assert len(out) == 5
        assert out.pc.tolist() == [0, 0, 1, 0, 0]
        assert out.addr.tolist() == [100, 164, 200, 300, 364]
        assert out.op.tolist()[1] == int(MemOp.PREFETCH)

    def test_nta_op_used(self):
        t = MemoryTrace.loads([0], [100])
        out = apply_prefetch_plan(
            t, [PrefetchDecision(pc=0, stride=8, distance_bytes=64, nta=True)]
        )
        assert out.op.tolist()[1] == int(MemOp.PREFETCH_NTA)

    def test_negative_target_dropped(self):
        t = MemoryTrace.loads([0, 0], [10, 500])
        out = apply_prefetch_plan(
            t, [PrefetchDecision(pc=0, stride=-8, distance_bytes=-64, nta=False)]
        )
        # first load would prefetch addr -54 -> dropped
        assert len(out) == 3

    def test_empty_plan_identity(self):
        t = MemoryTrace.loads([0], [0])
        assert apply_prefetch_plan(t, []) is t

    def test_duplicate_decision_rejected(self):
        t = MemoryTrace.loads([0], [0])
        plan = [
            PrefetchDecision(pc=0, stride=8, distance_bytes=64, nta=False),
            PrefetchDecision(pc=0, stride=8, distance_bytes=128, nta=False),
        ]
        with pytest.raises(AnalysisError):
            apply_prefetch_plan(t, plan)

    def test_prefetches_not_reinserted(self):
        # applying a plan to an already-optimised trace must only match
        # demand events
        t = MemoryTrace.loads([0, 0], [100, 200])
        plan = [PrefetchDecision(pc=0, stride=8, distance_bytes=64, nta=False)]
        once = apply_prefetch_plan(t, plan)
        twice = apply_prefetch_plan(once, plan)
        assert twice.n_prefetch == 2 * once.n_demand


class TestPipeline:
    def test_stream_gets_prefetch_chase_does_not(self, amd):
        t = stream_chase_trace()
        sampling = RuntimeSampler(rate=2e-3, seed=1).sample(t)
        report = PrefetchOptimizer(amd).analyze(sampling)
        assert 0 in report.prefetched_pcs
        assert 1 not in report.prefetched_pcs
        assert report.skipped.get(1) == "irregular-stride"

    def test_bypass_toggle(self, amd):
        t = stream_chase_trace()
        sampling = RuntimeSampler(rate=2e-3, seed=1).sample(t)
        with_nt = PrefetchOptimizer(
            amd, OptimizerSettings(enable_bypass=True)
        ).analyze(sampling)
        without_nt = PrefetchOptimizer(
            amd, OptimizerSettings(enable_bypass=False)
        ).analyze(sampling)
        assert any(d.nta for d in with_nt.decisions)
        assert not any(d.nta for d in without_nt.decisions)

    def test_single_profile_two_machines(self, amd, intel):
        # the paper optimises both targets from one profile (§VII)
        t = stream_chase_trace()
        sampling = RuntimeSampler(rate=2e-3, seed=1).sample(t)
        plan_amd = PrefetchOptimizer(amd).analyze(sampling)
        plan_intel = PrefetchOptimizer(intel).analyze(sampling)
        assert plan_amd.prefetched_pcs == plan_intel.prefetched_pcs
        # distances may differ (different latencies/Δ) but stay sane
        intel_by_pc = {d.pc: d for d in plan_intel.decisions}
        for pa in plan_amd.decisions:
            pi = intel_by_pc.get(pa.pc)
            assert pi is not None
            assert np.sign(pi.distance_bytes) == np.sign(pa.distance_bytes)

    def test_empty_sampling_rejected(self, amd):
        t = MemoryTrace.loads([0], [0])
        sampling = RuntimeSampler(rate=1e-9, seed=0, min_samples=0).sample(t)
        with pytest.raises(AnalysisError):
            PrefetchOptimizer(amd).analyze(sampling)

    def test_latency_recorded(self, amd):
        t = stream_chase_trace()
        sampling = RuntimeSampler(rate=2e-3, seed=1).sample(t)
        report = PrefetchOptimizer(amd).analyze(sampling)
        assert report.latency_used > 0

    def test_report_summary_text(self, amd):
        t = stream_chase_trace()
        sampling = RuntimeSampler(rate=2e-3, seed=1).sample(t)
        report = PrefetchOptimizer(amd).analyze(sampling)
        text = report.summary()
        assert "prefetches inserted" in text


class TestStrideCentricBaseline:
    def test_prefetches_every_strided_load(self, amd):
        # a strided load that never misses: MDDLI rejects, stride-centric
        # inserts anyway (the paper's key contrast)
        n = 80_000
        pc = np.tile([0, 1], n // 2)
        addr = np.empty(n, np.int64)
        addr[0::2] = strided_pattern(0, n // 2, 16)
        addr[1::2] = strided_pattern(1 << 31, n // 2, 8, wrap_bytes=8 * 1024)
        t = MemoryTrace.loads(pc, addr)
        sampling = RuntimeSampler(rate=2e-3, seed=2).sample(t)

        mddli = PrefetchOptimizer(amd).analyze(sampling)
        stride = stride_centric_plan(sampling, amd)
        assert 1 not in mddli.prefetched_pcs
        assert 1 in stride.prefetched_pcs
        assert len(stride.decisions) > len(mddli.decisions)

    def test_no_nta_ever(self, amd):
        t = stream_chase_trace()
        sampling = RuntimeSampler(rate=2e-3, seed=1).sample(t)
        plan = stride_centric_plan(sampling, amd)
        assert plan.decisions and not any(d.nta for d in plan.decisions)

    def test_fixed_lookahead(self, amd):
        t = stream_chase_trace()
        sampling = RuntimeSampler(rate=2e-3, seed=1).sample(t)
        plan = stride_centric_plan(sampling, amd, lookahead_iterations=10)
        d = next((d for d in plan.decisions if d.pc == 0), None)
        assert d is not None
        assert d.distance_bytes == 10 * d.stride


class TestEndToEndEquivalence:
    def test_ir_and_trace_insertion_agree(self, amd):
        # the IR rewriter and the trace-level splicer must produce the
        # exact same optimised event stream
        program = build_program("soplex", "ref", scale=0.05)
        seed = workload_seed("soplex", "ref")
        execution = execute_program(program, seed=seed)
        sampling = RuntimeSampler(rate=5e-3, seed=4).sample(execution.trace)
        plan = PrefetchOptimizer(amd).analyze(
            sampling, refs_per_pc=program.refs_per_pc()
        )
        via_ir = execute_program(insert_prefetches(program, plan), seed=seed).trace
        via_trace = apply_prefetch_plan(execution.trace, plan)
        assert via_ir == via_trace
