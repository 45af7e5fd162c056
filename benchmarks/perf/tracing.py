"""Traced recomposition: the per-layer view of each benchmark operation.

The :class:`Recomposer` re-runs an operation by calling each layer's
public entry point itself, in the order ``runner.compute_run`` (cells),
``serve.advisor`` (plan-only requests) and ``suite.mix_executions``
(mixes) use, and with the sharing the runner memo gives: one profile per
(workload, input set, scale), one plan per (workload, machine, kind,
scale) and one decode per (workload, input set, scale, machine, kind).
A span is recorded around every call.  Its outputs are digested like the
untraced operation's, which shows the decomposition ran the same program.

Spans live in memory (:class:`Tracer`) and are written out once, at the
end of the run.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Callable
from contextlib import contextmanager

import numpy as np

from repro.api import AdvisorResponse
from repro.baselines.stride_centric import stride_centric_plan
from repro.cachesim.bandwidth import BandwidthModel
from repro.cachesim.hierarchy import CacheHierarchy
from repro.config import get_machine
from repro.core.pipeline import OptimizerSettings, PrefetchOptimizer
from repro.core.serialization import plan_to_dict
from repro.experiments import runner
from repro.hwpref import cross_core_prefetcher_for
from repro.isa.interpreter import execute_program
from repro.isa.rewriter import insert_prefetches
from repro.sampling.sampler import RuntimeSampler
from repro.trace.events import MemOp
from repro.workloads.base import build_program, workload_seed

from suite import MIX_MACHINE, Op, mix_simulator

#: Layer spans, named ``<repo module>.<entry point>``.  The remaining
#: span, ``op``, wraps one operation; its self time is benchmark glue.
LAYERS = (
    "workloads.build",
    "isa.execute",
    "sampling.sample",
    "core.plan",
    "isa.rewrite",
    "isa.decode",
    "cachesim.run",
    "cachesim.drain",
    "multicore.run",
    "serve.advise",
)

_STORE = int(MemOp.STORE)
_SW_PREFETCH = (int(MemOp.PREFETCH), int(MemOp.PREFETCH_NTA))


class Tracer:
    """In-memory span recorder: name, start, end, parent, operation id.

    Spans are timed with ``clock``, in CPU seconds (``HostSpeed.work_time``
    when probes run during the pass).  ``factors`` maps an operation id
    to its normalisation factor (``HostSpeed.factor``); self times and
    the operation total are normalised with it.  ``span()`` yields the
    span's record, so the caller can attach attributes such as a cell's
    simulator path.
    """

    def __init__(self, clock: Callable[[], float] = time.thread_time) -> None:
        self.spans: list[dict] = []
        self.factors: dict[str, float] = {}
        self._clock = clock
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: str):
        record = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._open[-1] if self._open else None,
            "op": op,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = self._clock()
        try:
            yield record
        finally:
            record["end"] = self._clock()
            self._open.pop()

    def _duration(self, s: dict) -> float:
        return (s["end"] - s["start"]) * self.factors.get(s["op"], 1.0)

    def self_times(self) -> dict[str, float]:
        """Per span name: normalised duration minus the part its children cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += self._duration(s)
        out: dict[str, float] = {}
        for s, c in zip(self.spans, covered):
            out[s["name"]] = out.get(s["name"], 0.0) + self._duration(s) - c
        return out

    def op_time(self) -> float:
        """Summed normalised duration of the operation spans (the traced pass)."""
        return sum(self._duration(s) for s in self.spans if s["name"] == "op")

    def to_dict(self) -> dict:
        """Spans with CPU times relative to the first span's start."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        return {
            "spans": [
                {**s, "start": s["start"] - t0, "end": s["end"] - t0} for s in self.spans
            ],
            "factors": self.factors,
            "self_time_s": self.self_times(),
        }


class Recomposer:
    """Runs operations layer by layer, counting the work each layer does."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.counts: Counter[str] = Counter()
        self.paths: Counter[str] = Counter()
        self.stats: list = []
        self._profiles: dict = {}
        self._plans: dict = {}
        self._decodes: dict = {}
        self._op = ""

    def run(self, op: Op):
        self._op = op.key
        with self.tracer.span("op", op.key):
            if op.kind == "cell":
                return self._cell(op.target)
            if op.kind == "advise":
                return self._advise(op.target)
            return self._mix(op.target)

    def _span(self, name: str):
        return self.tracer.span(name, self._op)

    # -- shared stages (memoised like the runner) -------------------------

    def _profile(self, name: str, input_set: str, scale: float) -> runner.WorkloadProfile:
        key = (name, input_set, scale)
        if key not in self._profiles:
            seed = workload_seed(name, input_set)
            with self._span("workloads.build"):
                program = build_program(name, input_set, scale)
            with self._span("isa.execute"):
                execution = execute_program(program, seed=seed)
            with self._span("sampling.sample"):
                sampler = RuntimeSampler(rate=runner.PROFILE_RATE, seed=seed & 0xFFFF_FFFF)
                sampling = sampler.sample(execution.trace)
            self.counts["profiled_events"] += len(execution.trace)
            self.counts["reuse_samples"] += len(sampling.reuse)
            self._profiles[key] = runner.WorkloadProfile(program, execution, sampling)
        return self._profiles[key]

    def _plan(self, name: str, machine_name: str, kind: str, scale: float):
        key = (name, machine_name, kind, scale)
        if key not in self._plans:
            # Plans always profile the reference input (paper §VII-D).
            profile = self._profile(name, "ref", scale)
            with self._span("core.plan"):
                machine = get_machine(machine_name)
                if kind == "stride":
                    plan = stride_centric_plan(profile.sampling, machine)
                else:
                    settings = OptimizerSettings(
                        enable_bypass=(kind == "swnt"), enable_indirect=(kind == "swi")
                    )
                    plan = PrefetchOptimizer(machine, settings).analyze(
                        profile.sampling,
                        refs_per_pc=profile.program.refs_per_pc(),
                        indirect_pairs=profile.program.indirect_pairs() if kind == "swi" else None,
                    )
            self.counts["decisions"] += len(plan.decisions)
            self._plans[key] = plan
        return self._plans[key]

    def _decode(self, name: str, input_set: str, scale: float, machine_name: str, kind: str):
        key = (name, input_set, scale, machine_name, kind)
        if key not in self._decodes:
            profile = self._profile(name, input_set, scale)
            plan = self._plan(name, machine_name, kind, scale)
            with self._span("isa.rewrite"):
                program = insert_prefetches(profile.program, plan)
            with self._span("isa.decode"):
                execution = execute_program(program, seed=workload_seed(name, input_set))
            ops = execution.trace.op
            self.counts["decode_events"] += len(ops)
            self.counts["decode_sw_prefetches"] += int(np.isin(ops, _SW_PREFETCH).sum())
            self._decodes[key] = execution
        return self._decodes[key]

    # -- operations ------------------------------------------------------

    def _cell(self, spec):
        machine = get_machine(spec.machine)
        profile = self._profile(spec.workload, spec.input_set, spec.scale)
        if spec.plan_kind is None:
            execution = profile.execution
        else:
            execution = self._decode(
                spec.workload, spec.input_set, spec.scale, spec.machine, spec.plan_kind
            )
        with self._span("cachesim.run") as span:
            bandwidth = BandwidthModel(machine.bytes_per_cycle())
            prefetcher = None
            if spec.config in ("hw", "hwsw", "hwcoord", "hwrl"):
                prefetcher = runner.hw_prefetcher_for(machine, bandwidth.utilisation)
            elif spec.config == "hwx":
                prefetcher = cross_core_prefetcher_for(profile.program, machine)
            hierarchy = CacheHierarchy(machine, prefetcher=prefetcher, bandwidth=bandwidth)
            stats = hierarchy.run(
                execution.trace, work_per_memop=execution.work_per_memop, mlp=execution.mlp
            )
        with self._span("cachesim.drain"):
            hierarchy.drain_writebacks(stats)
        # Maximal LOAD/STORE runs: what the batched hierarchy gets at once.
        demand = execution.trace.op <= _STORE
        counts = {
            "cachesim_events": len(demand),
            "demand_events": int(demand.sum()),
            "demand_runs": int(demand[:1].sum())
            + int(np.count_nonzero(demand[1:] & ~demand[:-1])),
        }
        span.update(counts, path=hierarchy.last_run_path)
        self.counts.update(counts)
        self.paths[hierarchy.last_run_path] += 1
        self.stats.append(stats)
        return stats

    def _advise(self, request):
        spec = request.spec
        plan = self._plan(spec.workload, spec.machine, spec.plan_kind, spec.scale)
        with self._span("serve.advise"):
            response = AdvisorResponse(
                status="ok",
                request_id=request.request_id,
                tenant=request.tenant,
                spec=spec.as_dict(),
                plan=plan_to_dict(plan),
            )
        return response

    def _mix(self, run):
        executions = []
        for name in run.members:
            if run.config == "swnt":
                executions.append(
                    self._decode(name, run.input_set, run.scale, MIX_MACHINE, "swnt")
                )
            else:
                executions.append(self._profile(name, run.input_set, run.scale).execution)
        with self._span("multicore.run"):
            sim = mix_simulator(run, executions)
            result = sim.run(drain=False)
        with self._span("cachesim.drain"):
            for hierarchy, stats in zip(sim.hierarchies, result.per_core):
                hierarchy.drain_writebacks(stats)
        self.counts["multicore_events"] += sum(len(ex.trace) for ex in executions)
        self.stats.extend(result.per_core)
        return result

    def events(self, workload: str) -> int:
        """Trace events the pass consumed: simulated, or (advise) profiled."""
        if workload == "advise":
            return self.counts["profiled_events"]
        return self.counts["cachesim_events"] + self.counts["multicore_events"]
