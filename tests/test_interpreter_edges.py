"""Edge-case tests for the interpreter, hierarchy chunking, and model internals."""

import numpy as np
import pytest

from repro.cachesim import CacheHierarchy
from repro.cachesim.stats import RunStats
from repro.core.insertion import apply_prefetch_plan
from repro.core.report import PrefetchDecision
from repro.errors import ProgramError
from repro.isa import (
    FixedAccess,
    Kernel,
    Load,
    Prefetch,
    Program,
    StreamAccess,
    StridedAccess,
    execute_kernel,
    execute_program,
    insert_prefetches,
)
from repro.isa.instructions import AccessPattern
from repro.sampling import collect_reuse_samples
from repro.statstack.model import StatStackModel
from repro.trace import MemoryTrace
from repro.trace.synthesis import strided_pattern


class _BrokenPattern(AccessPattern):
    """Yields the wrong number of addresses (contract violation)."""

    def generate(self, rng, n):
        return np.zeros(max(0, n - 1), dtype=np.int64)

    def describe(self):
        return "broken()"


class TestInterpreterEdges:
    def test_zero_trip_kernel(self):
        k = Kernel("k", (Load("a", FixedAccess(0)),), trips=0)
        trace = execute_kernel(k, {("k", "a"): 0}, seed=0)
        assert len(trace) == 0

    def test_broken_pattern_detected(self):
        k = Kernel("k", (Load("a", _BrokenPattern()),), trips=4)
        with pytest.raises(ProgramError, match="yielded"):
            execute_kernel(k, {("k", "a"): 0}, seed=0)

    def test_prefetch_address_below_zero_dropped(self):
        p = Program(
            "neg",
            (
                Kernel(
                    "k",
                    (Load("a", StreamAccess(0, 8)), Prefetch("a", -4096)),
                    trips=4,
                ),
            ),
        )
        res = execute_program(p, seed=0)
        assert res.trace.addr.tolist() == [0, 8, 16, 24]
        assert res.kernel_slices == {"k": slice(0, 4)}

    def test_below_zero_rule_shared_with_trace_insertion(self):
        """A −64 B walk from 0x500 with a −256 B prefetch: 3 of 20 targets
        fall below 0, and the interpreter and the trace-level insertion
        both drop them."""
        strided = Kernel(
            "k", (Load("a", StridedAccess(0x500, -64)),), trips=20
        )
        tail = Kernel("tail", (Load("z", FixedAccess(0x40)),), trips=2)
        p = Program("neg", (strided, tail))
        plan = [PrefetchDecision(pc=0, stride=-64, distance_bytes=-256, nta=False)]
        execution = execute_program(p, seed=0)
        rewritten = execute_program(insert_prefetches(p, plan), seed=0)
        assert len(rewritten.trace) == 39
        assert rewritten.trace == apply_prefetch_plan(execution.trace, plan)
        assert rewritten.kernel_slices == {"k": slice(0, 37), "tail": slice(37, 39)}
        assert rewritten.trace.addr.min() >= 0

    def test_rewriting_insensitive_to_prefetch_count(self):
        """Random patterns must not shift when more prefetches are added."""
        base_body = (
            Load("a", StreamAccess(0, 8)),
            Load("g", __import__("repro.isa", fromlist=["GatherAccess"]).GatherAccess(1 << 20, 65536, 0.5)),
        )
        p1 = Program("p", (Kernel("k", base_body, trips=200),))
        p2 = Program(
            "p",
            (
                Kernel(
                    "k",
                    (base_body[0], Prefetch("a", 64), base_body[1], Prefetch("g", 128)),
                    trips=200,
                ),
            ),
        )
        d1 = execute_program(p1, seed=5).trace.demand_only()
        d2 = execute_program(p2, seed=5).trace.demand_only()
        assert d1 == d2


class TestHierarchyChunking:
    def test_chunked_run_equals_single_run(self, tiny_machine):
        trace = MemoryTrace.loads(
            np.zeros(3000, np.int64),
            strided_pattern(0, 3000, 64, wrap_bytes=4096),
        )
        whole = CacheHierarchy(tiny_machine).run(trace, 2.0, 2.0)

        h = CacheHierarchy(tiny_machine)
        stats = RunStats(line_bytes=tiny_machine.line_bytes)
        for chunk in trace.iter_chunks(700):
            h.run(chunk, 2.0, 2.0, stats=stats)
        assert stats.cycles == pytest.approx(whole.cycles)
        assert stats.l1.misses == whole.l1.misses
        assert stats.dram_fills == whole.dram_fills
        assert stats.instructions == whole.instructions


class TestTailIntegralInternals:
    def _model(self, wrap_lines):
        n = 4000
        t = MemoryTrace.loads(
            np.zeros(n, np.int64),
            strided_pattern(0, n, 64, wrap_bytes=wrap_lines * 64),
        )
        samples = collect_reuse_samples(t, np.arange(n), 64)
        return StatStackModel(samples)

    def test_inverse_consistency(self):
        model = self._model(128)
        tail = model._tail
        for target in (1.0, 10.0, 64.0, 127.0):
            d = tail.inverse(target)
            if np.isfinite(d):
                sd = tail.stack_distance(np.array([d]))[0]
                assert sd == pytest.approx(target, abs=1.0)

    def test_inverse_beyond_tail_is_inf_without_dangling(self):
        # a tight loop has zero dangling mass beyond the loop size...
        model = self._model(16)
        # cannot ever accumulate more unique lines than exist + dangling slope
        d = model._tail.inverse(1e9)
        assert d == np.inf or d > 1e6

    def test_dangling_only_model(self):
        # cold stream: all samples dangle, every access misses anywhere
        n = 1000
        t = MemoryTrace.loads(np.zeros(n, np.int64), strided_pattern(0, n, 64))
        samples = collect_reuse_samples(t, np.arange(n), 64)
        model = StatStackModel(samples)
        assert model.miss_ratio(1 << 30) == pytest.approx(1.0)
