"""The advisor compute kernel: one request in, one response out.

This is the *semantic core* of the serving layer, deliberately free of
sockets, queues and threads so :func:`repro.api.advise` (the one-shot
path) and the daemon's engine pool answer requests through exactly the
same code.  Everything flows through the shared runner memo, so a
daemon batch whose engine pre-resolved a request's grid cell (from its
persistent cache or by computing it) makes :func:`compute_advice` a
pure lookup — and the response documents come out byte-identical
either way.  This module itself never reads or writes the disk.

Two request shapes:

* **workload** — the request resolves to an
  :class:`~repro.api.ExperimentSpec` grid cell; the plan (for
  plan-bearing configs) and the full simulated :class:`RunStats` are
  returned as their serialised JSON documents.
* **inline trace** — the paper's "profile is cheap" pitch as a service:
  the raw ``(pc, addr, op)`` events are sampled at the standard
  profiling rate with a seed derived deterministically from the trace
  content, run through the MDDLI/stride/bypass analysis for the target
  machine, and the rewrite decisions come back.  No program exists to
  rewrite and re-simulate, so trace requests never carry stats.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro import obs
from repro.api import AdvisorRequest, AdvisorResponse
from repro.core import serialization
from repro.errors import ReproError

__all__ = ["compute_advice", "trace_profile_seed"]


def trace_profile_seed(request: AdvisorRequest) -> int:
    """Deterministic sampling seed for an inline-trace request.

    Derived from the trace content and machine name only — the same
    trace submitted by any tenant, to any daemon, in any order, yields
    the same profile and therefore the same plan.
    """
    crc = zlib.crc32(request.machine.encode())
    for pc, addr, op in request.trace:
        crc = zlib.crc32(f"{pc},{addr},{op};".encode(), crc)
    return crc & 0xFFFF_FFFF


def _error(request: AdvisorRequest, message: str) -> AdvisorResponse:
    return AdvisorResponse(
        status="error",
        request_id=request.request_id,
        tenant=request.tenant,
        error=message,
    )


def _advise_workload(request: AdvisorRequest) -> AdvisorResponse:
    from repro.experiments import runner

    spec = request.spec
    plan_doc = None
    if request.want_plan and spec.plan_kind is not None:
        plan_doc = serialization.plan_to_dict(runner.plan_for_spec(spec))
    stats_doc = None
    if request.want_stats:
        stats_doc = serialization.stats_to_dict(runner.run_spec(spec))
    return AdvisorResponse(
        status="ok",
        request_id=request.request_id,
        tenant=request.tenant,
        spec=spec.as_dict(),
        plan=plan_doc,
        stats=stats_doc,
    )


def _advise_trace(request: AdvisorRequest) -> AdvisorResponse:
    from repro.api import PREFETCH_CONFIGS
    from repro.config import get_machine
    from repro.errors import ExperimentError
    from repro.experiments.runner import PROFILE_RATE, derive_plan
    from repro.sampling.sampler import RuntimeSampler
    from repro.trace.events import MemoryTrace

    machine = get_machine(request.machine)
    events = np.asarray(request.trace, dtype=np.int64)
    trace = MemoryTrace(
        events[:, 0], events[:, 1], events[:, 2].astype(np.uint8)
    )
    plan_doc = None
    if request.want_plan:
        kind = PREFETCH_CONFIGS[request.config].plan
        if kind is None:
            raise ExperimentError(
                f"config {request.config!r} carries no software plan"
            )
        sampler = RuntimeSampler(
            rate=PROFILE_RATE,
            line_bytes=machine.line_bytes,
            seed=trace_profile_seed(request),
        )
        plan = derive_plan(kind, sampler.sample(trace), machine)
        plan_doc = serialization.plan_to_dict(plan)
    return AdvisorResponse(
        status="ok",
        request_id=request.request_id,
        tenant=request.tenant,
        spec={
            "machine": request.machine,
            "config": request.config,
            "trace_events": len(request.trace),
        },
        plan=plan_doc,
    )


def compute_advice(request: AdvisorRequest) -> AdvisorResponse:
    """Answer one advisor request; never raises for per-request trouble.

    Library errors (unknown workload/machine, plan-less config asked for
    a plan, malformed trace) come back as ``status="error"`` responses —
    a misbehaving request must cost its sender an error line, not the
    daemon its life.
    """
    with obs.span("serve.advise", request=request.label()):
        try:
            if request.workload is not None:
                return _advise_workload(request)
            return _advise_trace(request)
        except ReproError as exc:
            return _error(request, f"{type(exc).__name__}: {exc}")
