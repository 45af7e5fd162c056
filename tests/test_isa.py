"""Tests for the mini-ISA: programs, interpreter, assembly, rewriter."""

import numpy as np
import pytest

from repro import api
from repro.core.report import PrefetchDecision
from repro.errors import ProgramError
from repro.isa import (
    ChaseAccess,
    FixedAccess,
    IndexedAccess,
    IndirectPrefetch,
    Kernel,
    Load,
    Prefetch,
    Program,
    RandomAccess,
    Store,
    StreamAccess,
    StridedAccess,
    SweepAccess,
    emit,
    execute_program,
    insert_prefetches,
    parse,
)
from repro.trace import MemOp
from repro.workloads import build_program
from repro.workloads.base import list_workloads


def two_kernel_program():
    return Program(
        "demo",
        (
            Kernel(
                "a",
                (
                    Load("x", StreamAccess(0x1000, 8)),
                    Store("y", StridedAccess(0x9000, 16)),
                ),
                trips=10,
                work_per_memop=4.0,
                mlp=3.0,
            ),
            Kernel(
                "b",
                (Load("z", FixedAccess(0x5000)),),
                trips=5,
                work_per_memop=2.0,
                mlp=1.0,
            ),
        ),
    )


class TestProgram:
    def test_pc_assignment_in_order(self):
        p = two_kernel_program()
        assert p.pc_map() == {("a", "x"): 0, ("a", "y"): 1, ("b", "z"): 2}

    def test_refs_per_pc(self):
        p = two_kernel_program()
        assert p.refs_per_pc() == {0: 10, 1: 10, 2: 5}
        assert p.n_dynamic_refs == 25

    def test_duplicate_kernel_names_rejected(self):
        k = Kernel("k", (Load("x", FixedAccess(0)),), trips=1)
        with pytest.raises(ProgramError):
            Program("p", (k, k))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ProgramError):
            Kernel(
                "k",
                (Load("x", FixedAccess(0)), Load("x", FixedAccess(8))),
                trips=1,
            )

    def test_prefetch_unknown_target_rejected(self):
        with pytest.raises(ProgramError):
            Kernel("k", (Load("x", FixedAccess(0)), Prefetch("y", 64)), trips=1)

    def test_empty_body_rejected(self):
        with pytest.raises(ProgramError):
            Kernel("k", (), trips=1)


class TestInterpreter:
    def test_program_order(self):
        p = two_kernel_program()
        res = execute_program(p, seed=0)
        # kernel a: x,y alternating; then kernel b
        assert res.trace.pc[:4].tolist() == [0, 1, 0, 1]
        assert res.trace.pc[-5:].tolist() == [2] * 5

    def test_deterministic(self):
        p = two_kernel_program()
        assert execute_program(p, 5).trace == execute_program(p, 5).trace

    def test_seed_changes_random_patterns(self):
        p = Program(
            "r",
            (Kernel("k", (Load("c", ChaseAccess(0, 64, 64)),), trips=32),),
        )
        a = execute_program(p, 1).trace
        b = execute_program(p, 2).trace
        assert not np.array_equal(a.addr, b.addr)

    def test_work_and_mlp_are_ref_weighted(self):
        p = two_kernel_program()
        res = execute_program(p, 0)
        # kernel a: 20 refs at work 4; kernel b: 5 refs at work 2
        assert res.work_per_memop == pytest.approx((20 * 4 + 5 * 2) / 25)
        assert res.mlp == pytest.approx((20 * 3 + 5 * 1) / 25)

    def test_kernel_slices(self):
        p = two_kernel_program()
        res = execute_program(p, 0)
        assert res.kernel_slices == {"a": slice(0, 20), "b": slice(20, 25)}

    def test_prefetch_address_follows_target(self):
        p = Program(
            "pf",
            (
                Kernel(
                    "k",
                    (
                        Load("x", StreamAccess(0, 8)),
                        Prefetch("x", 640, nta=True),
                    ),
                    trips=4,
                ),
            ),
        )
        res = execute_program(p, 0)
        # events alternate load/prefetch; prefetch addr = load addr + 640
        loads = res.trace.addr[0::2]
        prefetches = res.trace.addr[1::2]
        assert np.array_equal(prefetches, loads + 640)
        assert np.all(res.trace.op[1::2] == int(MemOp.PREFETCH_NTA))


class TestRewriter:
    def test_insert_after_target(self):
        p = two_kernel_program()
        plan = [PrefetchDecision(pc=0, stride=8, distance_bytes=128, nta=False)]
        rewritten = insert_prefetches(p, plan)
        body = rewritten.kernels[0].body
        assert isinstance(body[0], Load)
        assert isinstance(body[1], Prefetch)
        assert body[1].target == "x"
        assert body[1].distance_bytes == 128

    def test_pcs_stable_after_rewrite(self):
        p = two_kernel_program()
        plan = [PrefetchDecision(pc=1, stride=16, distance_bytes=-64, nta=True)]
        rewritten = insert_prefetches(p, plan)
        assert rewritten.pc_map() == p.pc_map()

    def test_rewrite_preserves_demand_stream(self):
        p = two_kernel_program()
        plan = [
            PrefetchDecision(pc=0, stride=8, distance_bytes=128, nta=False),
            PrefetchDecision(pc=2, stride=8, distance_bytes=64, nta=True),
        ]
        rewritten = insert_prefetches(p, plan)
        orig = execute_program(p, 3).trace.demand_only()
        new = execute_program(rewritten, 3).trace.demand_only()
        assert orig == new

    def test_unknown_pc_rejected(self):
        with pytest.raises(ProgramError):
            insert_prefetches(
                two_kernel_program(),
                [PrefetchDecision(pc=42, stride=8, distance_bytes=64, nta=False)],
            )

    def test_empty_plan_is_identity(self):
        p = two_kernel_program()
        assert insert_prefetches(p, []) is p


class TestAssembly:
    def test_roundtrip_all_patterns(self):
        p = Program(
            "rt",
            (
                Kernel(
                    "k",
                    (
                        Load("a", StreamAccess(0x10, 8)),
                        Load("b", StridedAccess(0x20, -24, wrap_bytes=4096)),
                        Load("c", ChaseAccess(0x30, 128, 64)),
                        Load("d", SweepAccess(0x40, (256, 512), 64)),
                        Prefetch("a", 64),
                        Prefetch("b", -128, nta=True),
                        Store("e", StridedAccess(0x50, 8)),
                    ),
                    trips=16,
                    work_per_memop=2.5,
                    mlp=2.0,
                ),
            ),
        )
        q = parse(emit(p))
        assert execute_program(p, 9).trace == execute_program(q, 9).trace

    def test_parse_rejects_garbage(self):
        with pytest.raises(ProgramError):
            parse(".program x\n.kernel k trips=1 work=1 mlp=1\n  boom\n.end\n")

    def test_parse_requires_program_header(self):
        with pytest.raises(ProgramError):
            parse(".kernel k trips=1 work=1 mlp=1\n.end\n")

    def test_parse_requires_end(self):
        with pytest.raises(ProgramError):
            parse(".program p\n.kernel k trips=1 work=1 mlp=1\n")

    @pytest.mark.parametrize("workload", list_workloads())
    def test_every_workload_and_its_swi_rewrites_roundtrip(self, workload):
        # The graph workloads carry csr/bfs/hash/indexed patterns, and
        # their swi rewrites A[B[i+d]] indirect prefetches.
        program = build_program(workload, "ref", 0.05)
        programs = [program] + [
            insert_prefetches(program, api.plan(api.ExperimentSpec(workload, m, "swi", scale=0.05)))
            for m in ("amd-phenom-ii", "intel-i7-2600k")
        ]
        for p in programs:
            assert parse(emit(p)) == p

    def test_optional_fields_written_only_off_default(self):
        p = Program(
            "opt",
            (
                Kernel(
                    "k",
                    (
                        Load("a", RandomAccess(0x40, 4096, align=16)),
                        Load("b", RandomAccess(0x80, 4096)),
                        Load("c", IndexedAccess(0x1000, 4096, 0x9000, 64, 7, elem_bytes=16)),
                        IndirectPrefetch("c", 4, nta=True),
                    ),
                    trips=8,
                ),
            ),
        )
        text = emit(p)
        assert "random(base=0x40, region=4096, align=16)" in text
        assert "random(base=0x80, region=4096)" in text
        assert "indices=64, seed=7, elem=16)" in text
        assert "prefetchnta c[i+4]" in text
        assert parse(text) == p

    def test_parse_rejects_malformed_value(self):
        with pytest.raises(ProgramError, match="locality"):
            parse(
                ".program p\n.kernel k trips=1 work=1 mlp=1\n"
                "  a: load gather(base=0x0, region=64, locality=high)\n.end\n"
            )

    def test_comments_and_blank_lines_ignored(self):
        text = (
            ".program p\n\n# a comment\n.kernel k trips=2 work=1.0 mlp=1.0\n"
            "  a: load fixed(addr=0x8)\n.end\n"
        )
        p = parse(text)
        assert p.kernels[0].trips == 2
