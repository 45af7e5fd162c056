"""Result and plan persistence.

An :class:`~repro.core.report.OptimizationReport` is the contract
between the offline analysis and the rewriter — in the paper's
deployment story the analysis host and the optimised binary's host need
not be the same machine, so plans serialise to a small, stable,
human-auditable JSON document.

The same layer also serialises the two artefacts the persistent result
cache (:mod:`repro.cache`) stores between processes and between runs:

* :class:`~repro.cachesim.stats.RunStats` — the complete outcome of one
  simulated cell of the evaluation grid;
* :class:`~repro.sampling.sampler.SamplingResult` — one workload's
  reuse/stride profile (the expensive part of profiling).

All codecs are versioned; a reader seeing an unknown ``format`` raises
:class:`~repro.errors.AnalysisError` so callers can treat the document
as a cache miss rather than mis-decode it.
"""

from __future__ import annotations

import numpy as np

from repro import faults
from repro.cachesim.stats import LevelStats, PCStats, RunStats
from repro.core.report import (
    DelinquentLoad,
    OptimizationReport,
    PrefetchDecision,
    StrideInfo,
)
from repro.errors import AnalysisError
from repro.sampling.reuse import ReuseSampleSet
from repro.sampling.sampler import SamplingResult
from repro.sampling.stridesampler import StrideSampleSet

__all__ = [
    "plan_to_dict",
    "plan_from_dict",
    "stats_to_dict",
    "stats_from_dict",
    "sampling_to_dict",
    "sampling_from_dict",
    "advisor_request_to_dict",
    "advisor_request_from_dict",
    "advisor_response_to_dict",
    "advisor_response_from_dict",
    "coordinator_policy_to_dict",
    "coordinator_policy_from_dict",
]

_FORMAT = "repro-plan-v1"
STATS_FORMAT = "repro-stats-v1"
SAMPLING_FORMAT = "repro-sampling-v1"
ADVISOR_REQUEST_FORMAT = "repro-advisor-request-v1"
ADVISOR_RESPONSE_FORMAT = "repro-advisor-response-v1"
COORDINATOR_POLICY_FORMAT = "repro-coordinator-policy-v1"


def plan_to_dict(report: OptimizationReport) -> dict:
    """Convert a report to JSON-serialisable primitives."""
    return {
        "format": _FORMAT,
        "machine": report.machine_name,
        "latency_used": report.latency_used,
        "delinquent": [
            {
                "pc": d.pc,
                "mr_l1": d.mr_l1,
                "mr_l2": d.mr_l2,
                "mr_llc": d.mr_llc,
                "sample_weight": d.sample_weight,
                "benefit_score": d.benefit_score,
            }
            for d in report.delinquent
        ],
        "strides": {
            str(pc): {
                "dominant_stride": info.dominant_stride,
                "dominance": info.dominance,
                "median_recurrence": info.median_recurrence,
                "n_samples": info.n_samples,
            }
            for pc, info in report.strides.items()
        },
        "decisions": [
            {
                "pc": d.pc,
                "stride": d.stride,
                "distance_bytes": d.distance_bytes,
                "nta": d.nta,
                # Indirect fields are emitted only when set so direct
                # plans keep the original wire shape byte-for-byte.
                **(
                    {"indirect_ahead": d.indirect_ahead, "index_pc": d.index_pc}
                    if d.indirect_ahead
                    else {}
                ),
            }
            for d in report.decisions
        ],
        "nt_stores": list(report.nt_stores),
        "skipped": {str(pc): reason for pc, reason in report.skipped.items()},
    }


def plan_from_dict(data: dict) -> OptimizationReport:
    """Rebuild a report from :func:`plan_to_dict` output."""
    if data.get("format") != _FORMAT:
        raise AnalysisError(f"unsupported plan format {data.get('format')!r}")
    report = OptimizationReport(
        machine_name=data["machine"], latency_used=data.get("latency_used", 0.0)
    )
    report.delinquent = [
        DelinquentLoad(
            pc=d["pc"],
            mr_l1=d["mr_l1"],
            mr_l2=d["mr_l2"],
            mr_llc=d["mr_llc"],
            sample_weight=d["sample_weight"],
            benefit_score=d["benefit_score"],
        )
        for d in data.get("delinquent", [])
    ]
    report.strides = {
        int(pc): StrideInfo(
            pc=int(pc),
            dominant_stride=info["dominant_stride"],
            dominance=info["dominance"],
            median_recurrence=info["median_recurrence"],
            n_samples=info["n_samples"],
        )
        for pc, info in data.get("strides", {}).items()
    }
    report.decisions = [
        PrefetchDecision(
            pc=d["pc"],
            stride=d["stride"],
            distance_bytes=d["distance_bytes"],
            nta=d["nta"],
            indirect_ahead=int(d.get("indirect_ahead", 0)),
            index_pc=d.get("index_pc"),
        )
        for d in data.get("decisions", [])
    ]
    report.nt_stores = [int(pc) for pc in data.get("nt_stores", [])]
    report.skipped = {int(pc): r for pc, r in data.get("skipped", {}).items()}
    return report


def _level_to_dict(level: LevelStats) -> dict:
    return {"accesses": level.accesses, "misses": level.misses}


def _level_from_dict(data: dict) -> LevelStats:
    return LevelStats(accesses=int(data["accesses"]), misses=int(data["misses"]))


def _pcstats_to_dict(pc_stats: PCStats) -> dict:
    return {
        "accesses": {str(pc): n for pc, n in sorted(pc_stats.accesses.items())},
        "misses": {str(pc): n for pc, n in sorted(pc_stats.misses.items())},
    }


def _pcstats_from_dict(data: dict) -> PCStats:
    stats = PCStats()
    stats.accesses = {int(pc): int(n) for pc, n in data.get("accesses", {}).items()}
    stats.misses = {int(pc): int(n) for pc, n in data.get("misses", {}).items()}
    return stats


def stats_to_dict(stats: RunStats) -> dict:
    """Convert one simulated run's statistics to JSON primitives."""
    return {
        "format": STATS_FORMAT,
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "l1": _level_to_dict(stats.l1),
        "l2": _level_to_dict(stats.l2),
        "llc": _level_to_dict(stats.llc),
        "pc_l1": _pcstats_to_dict(stats.pc_l1),
        "sw_prefetches": stats.sw_prefetches,
        "sw_useful": stats.sw_useful,
        "sw_useless": stats.sw_useless,
        "sw_late": stats.sw_late,
        "hw_prefetches": stats.hw_prefetches,
        "hw_useful": stats.hw_useful,
        "hw_useless": stats.hw_useless,
        "dram_fills": stats.dram_fills,
        "nta_fills": stats.nta_fills,
        "dram_writebacks": stats.dram_writebacks,
        "nt_store_writes": stats.nt_store_writes,
        "line_bytes": stats.line_bytes,
    }


def stats_from_dict(data: dict) -> RunStats:
    """Rebuild a :class:`RunStats` from :func:`stats_to_dict` output."""
    if faults.ACTIVE:
        faults.check("serialization.decode", data.get("format"))
    if data.get("format") != STATS_FORMAT:
        raise AnalysisError(f"unsupported stats format {data.get('format')!r}")
    return RunStats(
        cycles=float(data["cycles"]),
        instructions=int(data["instructions"]),
        l1=_level_from_dict(data["l1"]),
        l2=_level_from_dict(data["l2"]),
        llc=_level_from_dict(data["llc"]),
        pc_l1=_pcstats_from_dict(data.get("pc_l1", {})),
        sw_prefetches=int(data["sw_prefetches"]),
        sw_useful=int(data["sw_useful"]),
        sw_useless=int(data["sw_useless"]),
        sw_late=int(data["sw_late"]),
        hw_prefetches=int(data["hw_prefetches"]),
        hw_useful=int(data["hw_useful"]),
        hw_useless=int(data["hw_useless"]),
        dram_fills=int(data["dram_fills"]),
        nta_fills=int(data["nta_fills"]),
        dram_writebacks=int(data["dram_writebacks"]),
        nt_store_writes=int(data["nt_store_writes"]),
        line_bytes=int(data["line_bytes"]),
    )


def sampling_to_dict(sampling: SamplingResult) -> dict:
    """Convert one workload profile's sampling pass to JSON primitives."""
    return {
        "format": SAMPLING_FORMAT,
        "sample_rate": sampling.sample_rate,
        "n_refs": sampling.n_refs,
        "overhead_estimate": sampling.overhead_estimate,
        "reuse": {
            "start_pc": sampling.reuse.start_pc.tolist(),
            "end_pc": sampling.reuse.end_pc.tolist(),
            "distance": sampling.reuse.distance.tolist(),
            "n_refs": sampling.reuse.n_refs,
        },
        "strides": {
            "pc": sampling.strides.pc.tolist(),
            "stride": sampling.strides.stride.tolist(),
            "recurrence": sampling.strides.recurrence.tolist(),
        },
    }


def sampling_from_dict(data: dict) -> SamplingResult:
    """Rebuild a :class:`SamplingResult` from :func:`sampling_to_dict` output."""
    if faults.ACTIVE:
        faults.check("serialization.decode", data.get("format"))
    if data.get("format") != SAMPLING_FORMAT:
        raise AnalysisError(f"unsupported sampling format {data.get('format')!r}")
    reuse = data["reuse"]
    strides = data["strides"]
    return SamplingResult(
        reuse=ReuseSampleSet(
            start_pc=np.asarray(reuse["start_pc"], dtype=np.int64),
            end_pc=np.asarray(reuse["end_pc"], dtype=np.int64),
            distance=np.asarray(reuse["distance"], dtype=np.int64),
            n_refs=int(reuse["n_refs"]),
        ),
        strides=StrideSampleSet(
            pc=np.asarray(strides["pc"], dtype=np.int64),
            stride=np.asarray(strides["stride"], dtype=np.int64),
            recurrence=np.asarray(strides["recurrence"], dtype=np.int64),
        ),
        sample_rate=float(data["sample_rate"]),
        n_refs=int(data["n_refs"]),
        overhead_estimate=float(data["overhead_estimate"]),
    )


def advisor_request_to_dict(request) -> dict:
    """Convert an :class:`~repro.api.AdvisorRequest` to JSON primitives.

    The document is the unit the ``repro-advisor-v1`` wire protocol
    frames one-per-line; field order is stable and every value is a
    plain JSON primitive.
    """
    return {
        "format": ADVISOR_REQUEST_FORMAT,
        "workload": request.workload,
        "machine": request.machine,
        "config": request.config,
        "input_set": request.input_set,
        "scale": request.scale,
        "trace": (
            None
            if request.trace is None
            else [[pc, addr, op] for pc, addr, op in request.trace]
        ),
        "tenant": request.tenant,
        "request_id": request.request_id,
        "want_plan": request.want_plan,
        "want_stats": request.want_stats,
        "stream": request.stream,
    }


def advisor_request_from_dict(data: dict):
    """Rebuild an :class:`~repro.api.AdvisorRequest`; validates as it goes.

    Raises :class:`~repro.errors.AnalysisError` for an unknown format and
    lets the request's own validation (:class:`~repro.errors.ExperimentError`)
    surface malformed fields — the serve daemon maps both to an
    ``error`` response rather than dropping the connection.
    """
    from repro.api import AdvisorRequest

    if data.get("format") != ADVISOR_REQUEST_FORMAT:
        raise AnalysisError(
            f"unsupported advisor request format {data.get('format')!r}"
        )
    trace = data.get("trace")
    return AdvisorRequest(
        workload=data.get("workload"),
        machine=data.get("machine", "amd-phenom-ii"),
        config=data.get("config", "swnt"),
        input_set=data.get("input_set", "ref"),
        scale=data.get("scale", 1.0),
        trace=None if trace is None else tuple(tuple(ev) for ev in trace),
        tenant=data.get("tenant", "default"),
        request_id=data.get("request_id", ""),
        want_plan=bool(data.get("want_plan", True)),
        want_stats=bool(data.get("want_stats", True)),
        stream=bool(data.get("stream", False)),
    )


def advisor_response_to_dict(response) -> dict:
    """Convert an :class:`~repro.api.AdvisorResponse` to JSON primitives.

    ``plan`` and ``stats`` are embedded verbatim — they are already
    :func:`plan_to_dict` / :func:`stats_to_dict` documents, so a
    response round-trips byte-for-byte through its own codec.
    """
    return {
        "format": ADVISOR_RESPONSE_FORMAT,
        "status": response.status,
        "request_id": response.request_id,
        "tenant": response.tenant,
        "spec": response.spec,
        "plan": response.plan,
        "stats": response.stats,
        "error": response.error,
        "retry_after": response.retry_after,
    }


def advisor_response_from_dict(data: dict):
    """Rebuild an :class:`~repro.api.AdvisorResponse` from codec output."""
    from repro.api import AdvisorResponse

    if data.get("format") != ADVISOR_RESPONSE_FORMAT:
        raise AnalysisError(
            f"unsupported advisor response format {data.get('format')!r}"
        )
    return AdvisorResponse(
        status=data.get("status", "error"),
        request_id=data.get("request_id", ""),
        tenant=data.get("tenant", "default"),
        spec=data.get("spec"),
        plan=data.get("plan"),
        stats=data.get("stats"),
        error=data.get("error"),
        retry_after=data.get("retry_after"),
    )


def coordinator_policy_to_dict(policy) -> dict:
    """Convert a frozen coordinator Q policy to JSON primitives.

    Q-table states serialise as ``"r,b,g,s"`` keys; action values are
    already rounded at freeze time (:func:`repro.multicore.coordinator.
    train_coordinator`), so the document is bit-stable across
    round-trips.
    """
    return {
        "format": COORDINATOR_POLICY_FORMAT,
        "seed": policy.seed,
        "episodes": policy.episodes,
        "alpha": policy.alpha,
        "gamma": policy.gamma,
        "q": {
            ",".join(str(v) for v in state): list(row)
            for state, row in sorted(policy.q.items())
        },
    }


def coordinator_policy_from_dict(data: dict):
    """Rebuild a :class:`~repro.multicore.coordinator.CoordinatorPolicy`."""
    from repro.multicore.coordinator import CoordinatorPolicy

    if data.get("format") != COORDINATOR_POLICY_FORMAT:
        raise AnalysisError(
            f"unsupported coordinator policy format {data.get('format')!r}"
        )
    try:
        q = {
            tuple(int(v) for v in key.split(",")): tuple(float(v) for v in row)
            for key, row in data.get("q", {}).items()
        }
    except ValueError as exc:
        raise AnalysisError(f"malformed coordinator policy Q table: {exc}") from None
    return CoordinatorPolicy(
        seed=int(data.get("seed", 0)),
        episodes=int(data.get("episodes", 0)),
        alpha=float(data.get("alpha", 0.0)),
        gamma=float(data.get("gamma", 0.0)),
        q=q,
    )
