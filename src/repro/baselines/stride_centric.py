"""Stride-centric software prefetching baseline (paper §VI-D, Table I).

Stand-in for the profile-guided stride prefetching of Luk et al. (ICS'02)
and Wu (PLDI'02), as the paper reimplemented it for comparison: insert a
prefetch for **every** load exhibiting a regular stride — no cache model,
no cost/benefit filter, no bypass analysis — with a fixed lookahead
heuristic instead of the latency/recurrence-derived distance.

Consequences reproduced here:

* loads that rarely miss still get prefetches → ~36 % more prefetch
  instructions executed per covered miss (Table I's OH column);
* the fixed lookahead mistimes slow or tight loops → slightly *lower*
  miss coverage despite inserting more prefetches;
* everything fills the whole hierarchy (no ``PREFETCHNTA``) → more LLC
  pollution and off-chip traffic than the resource-efficient scheme.
"""

from __future__ import annotations

from repro.config import MachineConfig
from repro.core.pipeline import OptimizerSettings
from repro.core.report import OptimizationReport, PrefetchDecision
from repro.core.strideanalysis import analyze_stride
from repro.sampling.sampler import SamplingResult

__all__ = ["stride_centric_plan"]

#: Fixed lookahead, in loop iterations, used by the heuristic insertion
#: (the classic "prefetch a handful of iterations ahead" rule).
DEFAULT_LOOKAHEAD_ITERATIONS = 16

#: The regular-stride test is the optimizer's own (paper: a 70 % stride
#: group over at least four samples); only the insertion policy differs.
_SETTINGS = OptimizerSettings()


def stride_centric_plan(
    sampling: SamplingResult,
    machine: MachineConfig,
    lookahead_iterations: int = DEFAULT_LOOKAHEAD_ITERATIONS,
) -> OptimizationReport:
    """Build a prefetch plan covering every regularly-strided load."""
    report = OptimizationReport(machine_name=f"{machine.name} (stride-centric)")
    line = machine.line_bytes
    for pc in sampling.strides.sampled_pcs().tolist():
        info = analyze_stride(
            sampling.strides,
            int(pc),
            line_bytes=line,
            dominance_threshold=_SETTINGS.dominance_threshold,
            min_samples=_SETTINGS.min_samples,
        )
        if info is None:
            report.skipped[int(pc)] = "irregular-stride"
            continue
        report.strides[int(pc)] = info
        distance = info.dominant_stride * lookahead_iterations
        if abs(distance) < line:
            distance = line if distance > 0 else -line
        report.decisions.append(
            PrefetchDecision(
                pc=int(pc),
                stride=info.dominant_stride,
                distance_bytes=int(distance),
                nta=False,
            )
        )
    return report
