"""Sparse data-reuse (reuse distance) sampling.

Emulates the hardware-assisted sampler of Sembrant et al. that the paper
builds on: execution is stopped at randomly chosen memory references, a
watchpoint is armed on the referenced cache line, and the trap at the
next access to that line yields one *reuse sample* — the number of
intervening memory references (the reuse distance), plus the PCs of both
endpoint instructions.  Lines that are never re-accessed produce
*dangling* samples, which the cache model treats as always-missing
(cold/stream-out accesses).

The trace-driven implementation arms only the sampled watchpoints: it
scans a short window after every sample point at once and, for the
samples whose line recurs later than that, looks the next access up in
one sort of the whole trace's line keys
(:func:`~repro.trace.util.next_same_value_query`).  The semantics are
identical to per-sample watchpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SamplingError
from repro.trace.events import MemoryTrace

from repro.trace.util import next_same_value_index

__all__ = [
    "ReuseSampleSet",
    "next_same_value_index",
    "collect_reuse_samples",
    "reuse_samples_at",
]


@dataclass(frozen=True)
class ReuseSampleSet:
    """Vectorised collection of reuse samples.

    Attributes
    ----------
    start_pc:
        PC of the sampled (watchpoint-arming) access.
    end_pc:
        PC of the access that re-touched the line; -1 for dangling
        samples.
    distance:
        Reuse distance — intervening memory references between the two
        accesses; -1 for dangling samples.
    n_refs:
        Total demand references in the sampled execution (for scaling).
    """

    start_pc: np.ndarray
    end_pc: np.ndarray
    distance: np.ndarray
    n_refs: int

    def __post_init__(self) -> None:
        if not (len(self.start_pc) == len(self.end_pc) == len(self.distance)):
            raise SamplingError("reuse sample arrays must have equal length")
        if self.n_refs < 0:
            raise SamplingError("n_refs must be non-negative")

    def __len__(self) -> int:
        return len(self.distance)

    @property
    def finite_mask(self) -> np.ndarray:
        """Samples whose line was re-accessed."""
        return self.distance >= 0

    @property
    def n_dangling(self) -> int:
        """Samples whose line was never re-accessed."""
        return int(np.count_nonzero(self.distance < 0))

    def merged_with(self, other: "ReuseSampleSet") -> "ReuseSampleSet":
        """Concatenate two sample sets (e.g. from phased sampling)."""
        return ReuseSampleSet(
            np.concatenate([self.start_pc, other.start_pc]),
            np.concatenate([self.end_pc, other.end_pc]),
            np.concatenate([self.distance, other.distance]),
            self.n_refs + other.n_refs,
        )


def collect_reuse_samples(
    trace: MemoryTrace,
    sample_indices: np.ndarray,
    line_bytes: int,
) -> ReuseSampleSet:
    """Take reuse samples at the given demand-reference indices.

    ``sample_indices`` index into the *demand-only* view of ``trace``;
    only their next accesses are looked up.
    """
    demand = trace.demand_only()
    n = len(demand)
    if n == 0 and len(sample_indices):
        raise SamplingError("cannot sample an empty trace")
    if len(sample_indices) and (sample_indices.min() < 0 or sample_indices.max() >= n):
        raise SamplingError("sample index out of range")

    idx = np.asarray(sample_indices, dtype=np.int64)
    return reuse_samples_at(demand, idx, next_same_value_index(demand.line_addr(line_bytes), idx))


def reuse_samples_at(
    demand: MemoryTrace, idx: np.ndarray, nxt: np.ndarray
) -> ReuseSampleSet:
    """Reuse samples at demand indices ``idx`` of a demand-only trace.

    ``nxt`` holds each sample's next access to its line (-1: none).
    """
    finite = nxt >= 0
    distance = np.where(finite, nxt - idx - 1, -1).astype(np.int64)
    end_pc = np.where(finite, demand.pc[np.maximum(nxt, 0)], -1).astype(np.int64)
    return ReuseSampleSet(
        start_pc=demand.pc[idx].astype(np.int64),
        end_pc=end_pc,
        distance=distance,
        n_refs=len(demand),
    )
