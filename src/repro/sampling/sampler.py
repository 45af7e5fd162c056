"""The integrated sampling pass (paper Fig. 1, steps 1–2).

One pass over the target's execution produces both data-reuse samples
(for StatStack) and per-instruction stride/recurrence samples (for the
prefetching analysis).  Sampling is sparse — the paper uses 1 in 100 000
memory references — which keeps the real framework's runtime overhead
under 30 %; :class:`SamplingResult` carries the matching overhead
estimate so experiments can report it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import SamplingError
from repro.sampling.reuse import ReuseSampleSet, reuse_samples_at
from repro.sampling.stridesampler import StrideSampleSet, stride_samples_at
from repro.trace.events import MemoryTrace
from repro.trace.util import next_same_value_query

__all__ = ["RuntimeSampler", "SamplingResult"]

#: Cost model constants for the simulated runtime overhead, expressed as
#: fractions of native execution per sample (watchpoint trap + counter
#: reprogramming) — chosen so the paper's default rate lands below the
#: <30 % overhead it reports.
_BASE_OVERHEAD = 0.02
_COST_PER_SAMPLE_REFS = 12_000.0


@dataclass(frozen=True)
class SamplingResult:
    """Output of one sampling pass over a workload execution."""

    reuse: ReuseSampleSet
    strides: StrideSampleSet
    sample_rate: float
    n_refs: int
    overhead_estimate: float

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{len(self.reuse)} reuse samples ({self.reuse.n_dangling} dangling), "
            f"{len(self.strides)} stride samples over {self.n_refs} refs "
            f"(rate 1/{round(1 / self.sample_rate)}, est. overhead "
            f"{self.overhead_estimate * 100:.1f}%)"
        )


class RuntimeSampler:
    """Sparse random sampler over a demand-access trace.

    Parameters
    ----------
    rate:
        Sampling probability per memory reference (paper: 1e-5).
    line_bytes:
        Cache line granularity monitored by the watchpoints.
    seed:
        Seed for the sample-point selector; sampling is the only
        stochastic step of the whole optimisation pipeline, so fixing
        this makes end-to-end runs reproducible.
    min_samples:
        If the Bernoulli draw yields fewer than this many sample points
        (short traces), the sampler falls back to evenly spaced points so
        downstream analyses always have material to work with.
    """

    def __init__(
        self,
        rate: float = 1e-5,
        line_bytes: int = 64,
        seed: int = 0,
        min_samples: int = 64,
    ) -> None:
        if not 0.0 < rate <= 1.0:
            raise SamplingError("rate must be in (0, 1]")
        if line_bytes <= 0 or line_bytes & (line_bytes - 1):
            raise SamplingError("line_bytes must be a positive power of two")
        if min_samples < 0:
            raise SamplingError("min_samples must be non-negative")
        self.rate = rate
        self.line_bytes = line_bytes
        self.seed = seed
        self.min_samples = min_samples

    def select_sample_points(self, n_refs: int) -> np.ndarray:
        """Randomly chosen reference indices (sorted, unique)."""
        rng = np.random.default_rng(self.seed)
        n_samples = rng.binomial(n_refs, self.rate)
        if n_samples < self.min_samples:
            n_samples = min(self.min_samples, n_refs)
        if n_samples == 0:
            return np.empty(0, dtype=np.int64)
        idx = rng.choice(n_refs, size=n_samples, replace=False)
        idx.sort()
        return idx.astype(np.int64)

    def sample(self, trace: MemoryTrace) -> SamplingResult:
        """Run the integrated reuse + stride sampling pass."""
        with obs.span("sampling.pass", rate=self.rate) as pass_span:
            demand = trace.demand_only()
            n = len(demand)
            idx = self.select_sample_points(n)
            # Both samplers read the one demand view, and each arms only
            # the sample points' watchpoints: the next access to the
            # sampled line, and the next execution of the sampled PC.
            next_line = next_same_value_query(demand.line_addr(self.line_bytes), idx)
            next_pc = next_same_value_query(demand.pc, idx)
            reuse = reuse_samples_at(demand, idx, next_line.index)
            strides = stride_samples_at(demand, idx, next_pc.index)
            window_resolved = next_line.window_resolved + next_pc.window_resolved
            pass_span.set(
                refs=n,
                samples=len(idx),
                window_resolved=window_resolved,
                sorts=next_line.sorts + next_pc.sorts,
                sorted_keys=next_line.sorted_keys + next_pc.sorted_keys,
            )
            if obs.enabled():
                reg = obs.metrics()
                reg.histogram("sampling.samples").observe(len(idx))
                reg.counter("sampling.window_resolved").inc(window_resolved)
        overhead = _BASE_OVERHEAD + (
            _COST_PER_SAMPLE_REFS * len(idx) / n if n else 0.0
        )
        return SamplingResult(
            reuse=reuse,
            strides=strides,
            sample_rate=self.rate,
            n_refs=n,
            overhead_estimate=overhead,
        )
