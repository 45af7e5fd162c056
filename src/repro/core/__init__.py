"""The paper's primary contribution: resource-efficient prefetch analysis."""

from repro.core.bypass import data_reusing_loads, should_bypass
from repro.core.distance import compute_prefetch_distance
from repro.core.insertion import apply_nt_stores, apply_prefetch_plan
from repro.core.ntstores import identify_nt_stores
from repro.core.mddli import (
    cost_benefit_threshold,
    estimate_miss_latency,
    identify_delinquent_loads,
)
from repro.core.online import OnlineOptimizer, OnlineResult
from repro.core.pipeline import OptimizerSettings, PrefetchOptimizer
from repro.core.serialization import plan_from_dict, plan_to_dict
from repro.core.report import (
    DelinquentLoad,
    OptimizationReport,
    PrefetchDecision,
    StrideInfo,
)
from repro.core.strideanalysis import analyze_stride

__all__ = [
    "PrefetchOptimizer",
    "OptimizerSettings",
    "OptimizationReport",
    "PrefetchDecision",
    "DelinquentLoad",
    "StrideInfo",
    "identify_delinquent_loads",
    "cost_benefit_threshold",
    "estimate_miss_latency",
    "analyze_stride",
    "compute_prefetch_distance",
    "should_bypass",
    "data_reusing_loads",
    "apply_prefetch_plan",
    "apply_nt_stores",
    "identify_nt_stores",
    "OnlineOptimizer",
    "OnlineResult",
    "plan_to_dict",
    "plan_from_dict",
]
