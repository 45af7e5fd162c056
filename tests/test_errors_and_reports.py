"""Tests for the exception hierarchy and the report dataclasses."""

import pytest

import repro
from repro.core.report import (
    DelinquentLoad,
    OptimizationReport,
    PrefetchDecision,
    StrideInfo,
)
from repro.errors import (
    AnalysisError,
    ConfigError,
    ModelError,
    ProgramError,
    ReproError,
    SamplingError,
    SimulationError,
    TraceError,
    WorkloadError,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            ConfigError,
            TraceError,
            ProgramError,
            SimulationError,
            ModelError,
            SamplingError,
            AnalysisError,
            WorkloadError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_value_errors_catchable_generically(self):
        # callers using ValueError for config mistakes still work
        assert issubclass(ConfigError, ValueError)
        assert issubclass(TraceError, ValueError)

    def test_package_exports(self):
        assert repro.ReproError is ReproError
        assert repro.__version__


class TestPrefetchDecision:
    def test_kind_labels(self):
        assert PrefetchDecision(0, 8, 64, nta=False).kind == "prefetch"
        assert PrefetchDecision(0, 8, 64, nta=True).kind == "prefetchnta"

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError):
            PrefetchDecision(0, 8, 0, nta=False)


class TestStrideInfo:
    def test_run_length_infinite_for_pure_stride(self):
        info = StrideInfo(0, 16, 1.0, 3.0, 10)
        assert info.estimated_run_length == float("inf")
        assert info.is_regular

    def test_run_length_from_dominance(self):
        info = StrideInfo(0, 16, 0.8, 3.0, 10)
        assert info.estimated_run_length == pytest.approx(4.0)


class TestOptimizationReport:
    def _report(self):
        r = OptimizationReport(machine_name="m")
        r.delinquent = [DelinquentLoad(0, 0.5, 0.4, 0.3, 0.2, 10.0)]
        r.decisions = [
            PrefetchDecision(0, 16, 128, nta=True),
            PrefetchDecision(1, 8, 64, nta=False),
        ]
        r.skipped = {2: "irregular-stride"}
        return r

    def test_prefetched_pcs(self):
        assert self._report().prefetched_pcs == {0, 1}

    def test_summary_mentions_everything(self):
        text = self._report().summary()
        assert "prefetchnta" in text
        assert "irregular-stride" in text
        assert "machine: m" in text
