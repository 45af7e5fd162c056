"""Evaluation metrics: throughput, fairness, QoS, traffic, distributions."""

from repro.metrics.distribution import sorted_distribution
from repro.metrics.throughput import (
    fair_speedup,
    per_app_speedups,
    qos_degradation,
    weighted_speedup,
)
from repro.metrics.traffic import bandwidth_gbs, traffic_increase, traffic_reduction_vs

__all__ = [
    "weighted_speedup",
    "fair_speedup",
    "qos_degradation",
    "per_app_speedups",
    "traffic_increase",
    "traffic_reduction_vs",
    "bandwidth_gbs",
    "sorted_distribution",
]
