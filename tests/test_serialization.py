"""Tests for trace and plan persistence."""

import json

import pytest

from repro.core import (
    OptimizationReport,
    PrefetchDecision,
    plan_from_dict,
    plan_to_dict,
)
from repro.core.report import DelinquentLoad, StrideInfo
from repro.errors import AnalysisError, TraceError
from repro.trace import MemOp, MemoryTrace
from repro.trace.io import trace_from_dict, trace_to_dict


class TestTraceIO:
    def test_roundtrip(self):
        t = MemoryTrace(
            [0, 1, 0], [10, 20, 30], [MemOp.LOAD, MemOp.PREFETCH_NTA, MemOp.STORE]
        )
        assert trace_from_dict(json.loads(json.dumps(trace_to_dict(t)))) == t

    def test_wrong_format(self):
        data = trace_to_dict(MemoryTrace.loads([0], [64]))
        data["format"] = "repro-trace-v1"
        with pytest.raises(TraceError):
            trace_from_dict(data)


class TestPlanIO:
    def _plan(self):
        r = OptimizationReport(machine_name="amd-phenom-ii", latency_used=123.4)
        r.delinquent = [DelinquentLoad(0, 0.5, 0.4, 0.3, 0.25, 9.9)]
        r.strides = {0: StrideInfo(0, 16, 0.95, 4.0, 40)}
        r.decisions = [PrefetchDecision(0, 16, 320, nta=True)]
        r.skipped = {3: "irregular-stride"}
        return r

    def test_dict_roundtrip(self):
        original = self._plan()
        rebuilt = plan_from_dict(plan_to_dict(original))
        assert rebuilt.machine_name == original.machine_name
        assert rebuilt.latency_used == original.latency_used
        assert rebuilt.decisions == original.decisions
        assert rebuilt.strides == original.strides
        assert rebuilt.skipped == original.skipped
        assert rebuilt.delinquent == original.delinquent

    def test_json_is_human_auditable(self):
        text = json.dumps(plan_to_dict(self._plan()), indent=2)
        assert '"nta": true' in text
        assert '"distance_bytes": 320' in text

    def test_bad_format_tag(self):
        with pytest.raises(AnalysisError):
            plan_from_dict({"format": "other"})

    def test_rewriter_accepts_loaded_plan(self):
        # end-to-end: analyse on "machine A", ship the JSON, rewrite later
        from repro.core import apply_prefetch_plan

        plan = plan_from_dict(json.loads(json.dumps(plan_to_dict(self._plan()))))
        t = MemoryTrace.loads([0, 0], [100, 200])
        out = apply_prefetch_plan(t, plan)
        assert out.n_prefetch == 2
