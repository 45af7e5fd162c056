"""Benchmark models: SPEC-2006-like programs, parallel suites, mixes.

Importing this package registers every built-in workload.
"""

from repro.workloads.generator import WorkloadRecipe, generate_workload
from repro.workloads.base import (
    WorkloadSpec,
    build_program,
    get_workload,
    list_workloads,
    register_workload,
    workload_seed,
)
from repro.workloads.mixes import (
    PAPER_MIX_COUNT,
    PAPER_MIX_SIZE,
    Mix,
    fig8_mix,
    generate_mixes,
)
from repro.workloads.parallel import (
    PARALLEL_BENCHMARKS,
    ParallelWorkloadSpec,
    get_parallel_workload,
)
from repro.workloads.graph import GRAPH_BENCHMARKS
from repro.workloads.spec2006 import ALL_SINGLE_CORE, OTHER_BENCHMARKS, SPEC_BENCHMARKS

__all__ = [
    "WorkloadSpec",
    "build_program",
    "get_workload",
    "list_workloads",
    "register_workload",
    "workload_seed",
    "ALL_SINGLE_CORE",
    "SPEC_BENCHMARKS",
    "OTHER_BENCHMARKS",
    "GRAPH_BENCHMARKS",
    "Mix",
    "generate_mixes",
    "fig8_mix",
    "PAPER_MIX_COUNT",
    "PAPER_MIX_SIZE",
    "ParallelWorkloadSpec",
    "PARALLEL_BENCHMARKS",
    "get_parallel_workload",
    "WorkloadRecipe",
    "generate_workload",
]
