"""Decoding a rewritten program by splicing its profiled trace.

``splice_execution`` must equal re-executing the rewritten program, in
every field of the ``ExecutionResult``, on hand-built corner cases and
on every real workload under every plan kind on both machines.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import PLAN_KINDS, ExperimentSpec
from repro.config import MACHINES
from repro.core.report import PrefetchDecision
from repro.errors import ProgramError
from repro.experiments import runner
from repro.isa import (
    FixedAccess,
    IndexedAccess,
    Kernel,
    Load,
    Program,
    Store,
    StreamAccess,
    StridedAccess,
    convert_nt_stores,
    execute_program,
    insert_prefetches,
    splice_execution,
)
from repro.workloads.base import list_workloads, workload_seed

SCALE = 0.02
INPUTS = ("ref", "train")


def assert_same_execution(got, want):
    assert np.array_equal(got.trace.pc, want.trace.pc)
    assert np.array_equal(got.trace.addr, want.trace.addr)
    assert np.array_equal(got.trace.op, want.trace.op)
    assert got.work_per_memop == want.work_per_memop
    assert got.mlp == want.mlp
    assert got.kernel_slices == want.kernel_slices


def indirect_program() -> Program:
    return Program(
        "corners",
        (
            Kernel(
                "walk",
                (
                    Load("i", StreamAccess(0x10000, 8)),
                    Load(
                        "a",
                        IndexedAccess(0x100000, 1 << 16, 0x10000, n_indices=64, index_seed=3),
                    ),
                    Store("s", StridedAccess(0x200000, 16)),
                ),
                trips=50,
                work_per_memop=3.0,
                mlp=2.0,
            ),
            Kernel("empty", (Load("e", StreamAccess(0x300000, 8)),), trips=0),
            Kernel(
                "down",
                (Load("d", StridedAccess(0x500, -64)), Load("f", FixedAccess(0x40))),
                trips=20,
                mlp=1.0,
            ),
        ),
    )


class TestSpliceExecution:
    def test_corner_plans_match_reexecution(self):
        program = indirect_program()
        execution = execute_program(program, seed=11)
        plan = [
            PrefetchDecision(
                pc=1, stride=8, distance_bytes=256, nta=True, indirect_ahead=5, index_pc=0
            ),
            PrefetchDecision(pc=2, stride=16, distance_bytes=-64, nta=False),
            # 3 of the walk's 20 targets fall below 0 and are dropped.
            PrefetchDecision(pc=4, stride=-64, distance_bytes=-256, nta=False),
            PrefetchDecision(pc=5, stride=0, distance_bytes=64, nta=True),
        ]
        rewritten = convert_nt_stores(insert_prefetches(program, plan), [2])
        spliced = splice_execution(rewritten, program, execution)
        assert_same_execution(spliced, execute_program(rewritten, seed=11))
        assert spliced.trace.demand_only().addr.tolist() == execution.trace.addr.tolist()

    def test_unrewritten_program_is_its_profile(self):
        program = indirect_program()
        execution = execute_program(program, seed=2)
        assert splice_execution(program, program, execution) is execution

    def test_rejects_other_demand_instructions(self):
        program = indirect_program()
        execution = execute_program(program, seed=2)
        walk, empty, down = program.kernels
        moved = Kernel("down", (Load("d", StridedAccess(0x540, -64)),) + down.body[1:], trips=20)
        for other in (
            program.with_kernels((walk, empty, moved)),
            program.with_kernels((walk, empty, Kernel("down", down.body, trips=19))),
            program.with_kernels((walk, down)),
        ):
            with pytest.raises(ProgramError):
                splice_execution(other, program, execution)

    def test_rejects_execution_of_another_program(self):
        program = indirect_program()
        walk, empty, down = program.kernels
        shorter = program.with_kernels((Kernel("walk", walk.body, trips=49), empty, down))
        rewritten = insert_prefetches(
            program, [PrefetchDecision(pc=0, stride=8, distance_bytes=64, nta=False)]
        )
        with pytest.raises(ProgramError, match="trips"):
            splice_execution(rewritten, program, execute_program(shorter, seed=2))


@pytest.fixture(scope="module", autouse=True)
def _fresh_memo():
    """Leave no tiny-scale profiles or plans behind for later tests."""
    yield
    runner.clear_memo()


@pytest.mark.parametrize("workload", list_workloads())
def test_splice_equals_reexecution_on_every_plan(workload):
    for input_set in INPUTS:
        profile = runner.profile_for(workload, input_set, SCALE)
        for machine in MACHINES:
            for kind in PLAN_KINDS:
                spec = ExperimentSpec(workload, machine, kind, input_set, SCALE)
                rewritten = insert_prefetches(profile.program, runner.plan_for_spec(spec))
                want = execute_program(rewritten, seed=workload_seed(workload, input_set))
                got = splice_execution(rewritten, profile.program, profile.execution)
                assert_same_execution(got, want)
