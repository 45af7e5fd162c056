"""Figure 7 — 180 mixed workloads: throughput and traffic distributions.

For each machine, 180 random 4-application mixes are evaluated under
Soft.Pref.+NT and Hardware Pref. (baseline: the same mix with all
prefetching off).  The paper plots the *sorted* distribution of weighted
speedup (7a/7b) and off-chip traffic increase (7c/7d) and quotes summary
statistics: on AMD the software scheme improves throughput by 16 % on
average (HW: 6 %), is strictly better in all mixes, and peaks 24 % above
hardware prefetching; on Intel it is ~5 % better on average and wins
79 % of mixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.api import PREFETCH_CONFIGS
from repro.experiments.mixes_common import MixOutcome, evaluate_mixes
from repro.experiments.tables import render_series, render_table
from repro.metrics.distribution import sorted_distribution
from repro.workloads.mixes import generate_mixes

__all__ = ["Fig7Result", "run_fig7", "render_fig7", "fig7_summary"]


@dataclass(frozen=True)
class Fig7Result:
    """Distributions and raw outcomes of the mixed-workload sweep."""

    machine: str
    n_mixes: int
    speedup: dict[str, np.ndarray]  # config -> sorted speedup-1 values
    traffic: dict[str, np.ndarray]  # config -> sorted traffic-increase values
    raw: dict[str, list[MixOutcome]]


@lru_cache(maxsize=16)
def run_fig7(
    machine_name: str,
    n_mixes: int = 180,
    scale: float = 1.0,
    vary_inputs: bool = False,
    configs: tuple[str, ...] = ("swnt", "hw"),
) -> Fig7Result:
    """Evaluate the mix sweep on one machine."""
    mixes = generate_mixes(count=n_mixes, vary_inputs=vary_inputs)
    outcomes = evaluate_mixes(
        mixes, machine_name, configs=("baseline", *configs), scale=scale
    )
    base = outcomes["baseline"]
    speedup: dict[str, np.ndarray] = {}
    traffic: dict[str, np.ndarray] = {}
    for config in configs:
        ws = [
            o.weighted_speedup_vs(b) - 1.0 for o, b in zip(outcomes[config], base)
        ]
        tr = [o.traffic_increase_vs(b) for o, b in zip(outcomes[config], base)]
        speedup[config] = sorted_distribution(ws, descending=True)
        traffic[config] = sorted_distribution(tr, descending=False)
    return Fig7Result(
        machine=machine_name,
        n_mixes=n_mixes,
        speedup=speedup,
        traffic=traffic,
        raw=outcomes,
    )


def fig7_summary(result: Fig7Result) -> dict[str, float]:
    """The headline statistics the paper quotes from Fig. 7."""
    base = result.raw["baseline"]
    sw = result.raw["swnt"]
    hw = result.raw["hw"]
    sw_ws = np.array([o.weighted_speedup_vs(b) for o, b in zip(sw, base)])
    hw_ws = np.array([o.weighted_speedup_vs(b) for o, b in zip(hw, base)])
    sw_tr = np.array([o.traffic_increase_vs(b) for o, b in zip(sw, base)])
    hw_tr = np.array([o.traffic_increase_vs(b) for o, b in zip(hw, base)])
    return {
        "sw_avg_speedup": float(sw_ws.mean() - 1.0),
        "hw_avg_speedup": float(hw_ws.mean() - 1.0),
        "sw_min_speedup": float(sw_ws.min() - 1.0),
        "sw_beats_hw_fraction": float(np.mean(sw_ws > hw_ws)),
        "sw_max_gain_over_hw": float((sw_ws / hw_ws).max() - 1.0),
        "sw_avg_gain_over_hw": float((sw_ws / hw_ws).mean() - 1.0),
        "hw_slowdown_fraction": float(np.mean(hw_ws < 1.0)),
        "sw_avg_traffic": float(sw_tr.mean()),
        "hw_avg_traffic": float(hw_tr.mean()),
        "sw_traffic_below_baseline_fraction": float(np.mean(sw_tr < 0.0)),
        "sw_traffic_always_better": float(np.mean(sw_tr < hw_tr)),
    }


def render_fig7(result: Fig7Result) -> str:
    """ASCII rendering of both distribution panels plus summary."""
    parts = [
        render_series(
            {PREFETCH_CONFIGS[c].label: v.tolist() for c, v in result.speedup.items()},
            title=f"Fig 7: Weighted speedup distribution — {result.machine} "
            f"({result.n_mixes} mixes, higher is better)",
        ),
        "",
        render_series(
            {PREFETCH_CONFIGS[c].label: v.tolist() for c, v in result.traffic.items()},
            title=f"Fig 7: Off-chip traffic increase distribution — {result.machine} "
            "(lower is better)",
        ),
    ]
    summary = fig7_summary(result)
    rows = [(k, f"{v * 100:+.1f}%") for k, v in summary.items()]
    parts += ["", render_table(("statistic", "value"), rows, title="Summary")]
    return "\n".join(parts)
