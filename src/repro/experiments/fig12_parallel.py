"""Figure 12 — multi-threaded workloads at 1, 2 and 4 threads.

Four parallel benchmarks on the Intel machine: swim* and cg* (the
highest-bandwidth programs of the SPEC OMP / NAS suites) plus fma3d and
dc.  Speedups are relative to the single-threaded no-prefetch baseline.
The paper's conclusion: software prefetching only gains over the
hardware prefetcher when threads saturate bandwidth (cg at 14 GB/s of a
15.6 GB/s machine); elsewhere they are comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import PREFETCH_CONFIGS
from repro.config import get_machine
from repro.experiments.mixes_common import coordinator_for
from repro.experiments.runner import derive_plan, prefetcher_for
from repro.experiments.tables import render_table
from repro.isa.interpreter import execute_program
from repro.isa.rewriter import insert_prefetches
from repro.multicore.simulator import CoreSpec, MulticoreSimulator
from repro.sampling.sampler import RuntimeSampler
from repro.workloads.base import workload_seed
from repro.workloads.parallel import PARALLEL_BENCHMARKS, get_parallel_workload

__all__ = ["Fig12Cell", "run_fig12", "render_fig12", "FIG12_BENCHMARKS"]

FIG12_BENCHMARKS = tuple(spec.name for spec in PARALLEL_BENCHMARKS)


@dataclass(frozen=True)
class Fig12Cell:
    """One benchmark at one thread count."""

    benchmark: str
    threads: int
    speedup: dict[str, float]  # config -> speedup over 1-thread baseline
    bandwidth: dict[str, float]  # config -> achieved GB/s


def _run_parallel(
    name: str,
    threads: int,
    machine_name: str,
    config: str,
    scale: float,
    rate: float = 2e-3,
):
    machine = get_machine(machine_name)
    spec = get_parallel_workload(name)
    programs = spec.build(threads, "ref", scale)

    kind = PREFETCH_CONFIGS[config].plan
    if kind is not None:
        # Profile thread 0; all threads share the code, so one plan
        # rewrites every thread's program (the paper's single profile).
        profile_exec = execute_program(programs[0], seed=workload_seed(name, "ref"))
        sampling = RuntimeSampler(rate=rate, seed=workload_seed(name, "ref") & 0xFFFF).sample(
            profile_exec.trace
        )
        plan = derive_plan(kind, sampling, machine, programs[0])
        programs = [insert_prefetches(p, plan) for p in programs]

    specs = []
    for t, program in enumerate(programs):
        execution = execute_program(program, seed=workload_seed(name, "ref", salt=t))
        specs.append(
            CoreSpec(
                trace=execution.trace,
                work_per_memop=execution.work_per_memop,
                mlp=execution.mlp,
                prefetcher=prefetcher_for(config, machine, program),
                name=f"{name}.t{t}",
            )
        )
    sim = MulticoreSimulator(machine, specs, coordinator=coordinator_for(config))
    # No end-of-run drain: Fig 12 reports sustained bandwidth, and the
    # drain's bytes arrive in zero simulated time.
    return sim.run(drain=False)


def run_fig12(
    machine_name: str = "intel-i7-2600k",
    benchmarks: tuple[str, ...] = FIG12_BENCHMARKS,
    thread_counts: tuple[int, ...] = (1, 2, 4),
    configs: tuple[str, ...] = ("swnt", "hw"),
    scale: float = 0.5,
) -> list[Fig12Cell]:
    """Evaluate the parallel suite.

    Speedup for T threads = (1-thread baseline makespan) × T /
    (T-thread config makespan): total work grows with threads, so
    perfect scaling with no prefetch benefit gives exactly T.
    """
    machine = get_machine(machine_name)
    cells = []
    for name in benchmarks:
        base_1t = _run_parallel(name, 1, machine_name, "baseline", scale)
        base_time = base_1t.makespan_cycles
        for threads in thread_counts:
            speedup = {}
            bandwidth = {}
            for config in configs:
                res = _run_parallel(name, threads, machine_name, config, scale)
                speedup[config] = base_time * threads / res.makespan_cycles
                bandwidth[config] = res.achieved_bandwidth_gbs(machine.freq_ghz)
            cells.append(Fig12Cell(name, threads, speedup, bandwidth))
    return cells


def render_fig12(cells: list[Fig12Cell]) -> str:
    configs = list(cells[0].speedup) if cells else []
    rows = []
    for c in cells:
        star = "*" if get_parallel_workload(c.benchmark).high_bandwidth else ""
        rows.append(
            (
                f"{c.benchmark}{star} x{c.threads}",
                *(f"{c.speedup[cfg]:.2f}" for cfg in configs),
                *(f"{c.bandwidth[cfg]:.1f}" for cfg in configs),
            )
        )
    return render_table(
        (
            "bench x threads",
            *(f"{PREFETCH_CONFIGS[c].label} speedup" for c in configs),
            *(f"{PREFETCH_CONFIGS[c].label} GB/s" for c in configs),
        ),
        rows,
        title="Fig 12: Parallel workloads, speedup over 1-thread baseline (Intel)",
    )
