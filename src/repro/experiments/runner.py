"""Single-cell experiment compute layer.

Encodes the paper's evaluation protocol (§VII):

* the **baseline** is the original program with hardware prefetching
  turned off;
* **Hardware Pref.** runs the original program with the machine's
  hardware prefetcher model enabled;
* **Software Pref.** / **Soft.Pref.+NT** run the rewritten program (one
  profiling pass on the *reference* input, analysed per target machine)
  without hardware prefetching — NT adds the cache-bypass analysis;
* **Stride-centric** runs the rewritten program from the baseline plan
  of Luk'02/Wu'02-style insertion.

Every cell is addressed by an :class:`~repro.api.ExperimentSpec`.  The
spec-based entry points (:func:`profile_for_spec`, :func:`plan_for_spec`,
:func:`run_spec`) share **one** in-process memo, so the CLI, the
parallel engine and the experiment drivers all reuse each other's work.
This module never touches the disk: the persistent
:class:`~repro.cache.ResultCache` belongs to
:class:`~repro.experiments.engine.ExperimentEngine`, which resolves a
cell memo → disk → :func:`compute_run` and stores what it computed.
The historical stringly-typed functions were removed after their
deprecation cycle (see the note at the end of this module).

Every expensive stage is wrapped in a :func:`repro.obs.span` so traced
runs show where profiling, planning and simulation time goes (see
``docs/observability.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro import faults, obs
from repro.api import CONFIGS, PLAN_KINDS, PREFETCH_CONFIGS, ExperimentSpec
from repro.baselines.stride_centric import stride_centric_plan
from repro.cache import PROFILE_RATE
from repro.cachesim.bandwidth import BandwidthModel
from repro.cachesim.hierarchy import CacheHierarchy
from repro.cachesim.stats import RunStats
from repro.config import MachineConfig, get_machine
from repro.core.pipeline import OptimizerSettings, PrefetchOptimizer
from repro.core.report import OptimizationReport
from repro.errors import ExperimentError
from repro.hwpref import (
    amd_hw_prefetcher,
    cross_core_prefetcher_for,
    intel_hw_prefetcher,
)
from repro.isa.interpreter import ExecutionResult, execute_program, splice_execution
from repro.isa.program import Program
from repro.isa.rewriter import insert_prefetches
from repro.sampling.sampler import RuntimeSampler, SamplingResult
from repro.workloads.base import build_program, workload_seed

__all__ = [
    "CONFIGS",
    "PROFILE_RATE",
    "WorkloadProfile",
    "profile_for",
    "profile_for_spec",
    "plan_for_spec",
    "derive_plan",
    "execution_for",
    "prefetcher_for",
    "compute_run",
    "run_spec",
    "seed_memo",
    "memo_contains",
    "clear_memo",
    "hw_prefetcher_for",
]

#: In-process memo of completed cells, shared by every entry point.  A
#: plain dict (not ``lru_cache``) so the parallel engine can seed it
#: with worker-computed and disk-loaded results.
_MEMO: dict[ExperimentSpec, RunStats] = {}


@dataclass(frozen=True)
class WorkloadProfile:
    """Everything derived from one profiling pass of one workload."""

    program: Program
    execution: ExecutionResult
    sampling: SamplingResult


def profile_for(name: str, input_set: str = "ref", scale: float = 1.0) -> WorkloadProfile:
    """Build, execute and sample one workload at :data:`PROFILE_RATE` (cached)."""
    # Normalise before the memo so defaulted and explicit arguments hit
    # one cache entry.
    return _profile(name, input_set, float(scale))


@lru_cache(maxsize=128)
def _profile(name: str, input_set: str, scale: float) -> WorkloadProfile:
    with obs.span(
        "profile.pass", workload=name, input_set=input_set, scale=scale
    ):
        with obs.span("profile.build", workload=name):
            program = build_program(name, input_set, scale)
        seed = workload_seed(name, input_set)
        with obs.span("profile.execute", workload=name) as exec_span:
            execution = execute_program(program, seed=seed)
            exec_span.set(refs=len(execution.trace))
        sampler = RuntimeSampler(rate=PROFILE_RATE, seed=seed & 0xFFFF_FFFF)
        return WorkloadProfile(program, execution, sampler.sample(execution.trace))


def profile_for_spec(spec: ExperimentSpec) -> WorkloadProfile:
    """Profile the workload a spec's cell evaluates (machine-agnostic)."""
    return profile_for(spec.workload, spec.input_set, spec.scale)


def derive_plan(
    kind: str,
    sampling: SamplingResult,
    machine: MachineConfig,
    program: Program | None = None,
) -> OptimizationReport:
    """The analysis behind one plan kind: the only place a kind is read.

    ``program`` supplies per-loop reference counts (the ``P <= R/2``
    distance clamp) and, for ``swi``, the structural ``A[B[i]]`` pairs;
    an inline trace has no program, so ``swi`` then plans like ``sw``.
    """
    if kind not in PLAN_KINDS:
        raise ExperimentError(f"unknown plan kind {kind!r}; valid: {PLAN_KINDS}")
    if kind == "stride":
        return stride_centric_plan(sampling, machine)
    settings = OptimizerSettings(
        enable_bypass=(kind == "swnt"), enable_indirect=(kind == "swi")
    )
    return PrefetchOptimizer(machine, settings).analyze(
        sampling,
        refs_per_pc=None if program is None else program.refs_per_pc(),
        indirect_pairs=(
            program.indirect_pairs() if program is not None and kind == "swi" else None
        ),
    )


@lru_cache(maxsize=256)
def _plan(name: str, machine_name: str, kind: str, scale: float) -> OptimizationReport:
    """Prefetch plan of one method for one workload on one machine.

    Profiling always uses the reference input (the paper's single-profile
    methodology), but the *profiled scale* matches the evaluated scale so
    distances stay consistent — hence no ``input_set`` in the key.
    """
    profile = profile_for(name, "ref", scale)
    with obs.span(
        "plan.derive", workload=name, machine=machine_name, kind=kind
    ):
        return derive_plan(kind, profile.sampling, get_machine(machine_name), profile.program)


def plan_for_spec(spec: ExperimentSpec) -> OptimizationReport:
    """The software prefetch plan a spec's configuration requires."""
    kind = spec.plan_kind
    if kind is None:
        raise ExperimentError(
            f"config {spec.config!r} carries no software plan"
        )
    return _plan(spec.workload, spec.machine, kind, spec.scale)


def hw_prefetcher_for(machine: MachineConfig, utilisation=None):
    """The machine's hardware prefetcher model (paper Table II parts)."""
    if "amd" in machine.name:
        return amd_hw_prefetcher(machine.line_bytes, utilisation)
    return intel_hw_prefetcher(machine.line_bytes, utilisation)


def prefetcher_for(config: str, machine: MachineConfig, program: Program, utilisation=None):
    """The hardware prefetcher ``config`` attaches to a core running ``program``.

    ``utilisation`` throttles the machine's model against off-chip
    bandwidth.  Cross-core helper prefetching fills the shared LLC on
    the memory side, untouched by off-chip back-off in the paper's
    sense, so it runs unthrottled.
    """
    hw = PREFETCH_CONFIGS[config].hw
    if hw == "machine":
        return hw_prefetcher_for(machine, utilisation)
    if hw == "xcore":
        return cross_core_prefetcher_for(program, machine)
    return None


@lru_cache(maxsize=64)
def _rewritten_execution(
    workload: str, input_set: str, scale: float, machine_name: str, kind: str
) -> ExecutionResult:
    """Rewrite one workload under one prefetch plan and decode it.

    The rewritten program's trace is spliced from the profiled one
    (:func:`~repro.isa.interpreter.splice_execution`): its demand
    columns are the profile's, so only the prefetch columns are new and
    no pattern runs again.  The memo keeps each decoded trace because
    several readers ask for it again: grid sweeps evaluate one rewritten
    program under many configurations (``swnt`` and ``hwsw`` share the
    ``swnt`` plan), and the census and Fig. 8's mixes reread it.  It keys
    on everything the rewrite depends on: the plan is a function of
    (workload, machine, kind, scale), the profiled execution of
    (workload, input_set, scale).
    """
    profile = profile_for(workload, input_set, scale)
    plan = _plan(workload, machine_name, kind, scale)
    with obs.span(
        "rewrite.apply", workload=workload, machine=machine_name, kind=kind
    ):
        rewritten = insert_prefetches(profile.program, plan)
        return splice_execution(rewritten, profile.program, profile.execution)


def execution_for(spec: ExperimentSpec) -> ExecutionResult:
    """The execution a cell simulates: the original or the rewritten program's."""
    kind = spec.plan_kind
    if kind is None:
        return profile_for_spec(spec).execution
    return _rewritten_execution(spec.workload, spec.input_set, spec.scale, spec.machine, kind)


def compute_run(spec: ExperimentSpec) -> RunStats:
    """Simulate one cell, unconditionally (no memo, no persistent cache).

    This is the pure deterministic compute kernel the engine's worker
    processes call; everything else layers caching on top of it.
    """
    if faults.ACTIVE:
        faults.check("worker.compute", spec)
        # Chaos-harness site: a "kill" fault here models a worker
        # SIGKILLed mid-cell (only fires inside pool workers).
        faults.check("worker.sigkill", spec)
    with obs.span("cell.compute", cell=spec.label()):
        machine = get_machine(spec.machine)
        execution = execution_for(spec)

        # Build the hierarchy fully wired: the batched fast path is
        # chosen at construction from the attached prefetcher, so the
        # prefetcher must not be bolted on afterwards.
        bandwidth = BandwidthModel(machine.bytes_per_cycle())
        prefetcher = prefetcher_for(
            spec.config, machine, profile_for_spec(spec).program, bandwidth.utilisation
        )
        hierarchy = CacheHierarchy(
            machine, prefetcher=prefetcher, bandwidth=bandwidth
        )
        stats = hierarchy.run(
            execution.trace,
            work_per_memop=execution.work_per_memop,
            mlp=execution.mlp,
        )
        hierarchy.drain_writebacks(stats)
        if obs.enabled():
            reg = obs.metrics()
            reg.counter("sim.cells").inc()
            reg.counter("sim.dram_bytes").inc(stats.dram_bytes)
            reg.histogram("sim.bandwidth_gbs").observe(
                stats.bandwidth_gbs(machine.freq_ghz)
            )
        return stats


def run_spec(spec: ExperimentSpec) -> RunStats:
    """Simulate one cell through the shared in-process memo.

    Every caller — bare single-cell runs, grid sweeps, the engine's
    serial path — funnels through this one entry point, so a result
    computed (or seeded from disk by the engine) anywhere in the process
    is reused everywhere.
    """
    stats = _MEMO.get(spec)
    if stats is None:
        stats = _MEMO[spec] = compute_run(spec)
    return stats


def seed_memo(spec: ExperimentSpec, stats: RunStats) -> None:
    """Install an externally computed result (engine workers, disk loads)."""
    _MEMO[spec] = stats


def memo_contains(spec: ExperimentSpec) -> bool:
    """Whether a cell is already resident in the in-process memo."""
    return spec in _MEMO


def clear_memo() -> None:
    """Drop every in-process cache (memo, profiles, plans).

    Benchmarks use this to measure genuinely cold runs; the engine's
    persistent disk cache is untouched.
    """
    _MEMO.clear()
    _profile.cache_clear()
    _plan.cache_clear()
    _rewritten_execution.cache_clear()


# The historical stringly-typed five-positional-argument entry points
# (``profile_workload``/``plan_for``/``run_config``/``run_all_configs``)
# were deprecated when the ExperimentSpec API landed, tombstoned for two
# releases, and are now plain AttributeErrors.  The spec-first facade on
# :mod:`repro.api` is the only public surface.
