"""Per-instruction stride and recurrence sampling.

The paper extends the reuse sampler with breakpoint-based monitoring of
the *sampled instruction* itself (paper §III, Fig. 2): when the sampled
load executes again, the difference between its current and previous data
addresses is recorded as a **stride sample**, and the number of
intervening memory references as its **recurrence**.  Recurrence feeds
the prefetch-distance formula (``d = recurrence × Δ``); strides feed the
regular-stride classification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SamplingError
from repro.trace.events import MemoryTrace
from repro.trace.util import next_same_value_index

__all__ = ["StrideSampleSet", "collect_stride_samples", "stride_samples_at"]


@dataclass(frozen=True)
class StrideSampleSet:
    """Vectorised collection of stride/recurrence samples.

    Attributes
    ----------
    pc:
        The monitored instruction.
    stride:
        Byte difference between consecutive dynamic addresses of that
        instruction.
    recurrence:
        Intervening memory references between the two executions.
    """

    pc: np.ndarray
    stride: np.ndarray
    recurrence: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.pc) == len(self.stride) == len(self.recurrence)):
            raise SamplingError("stride sample arrays must have equal length")

    def __len__(self) -> int:
        return len(self.pc)

    def for_pc(self, pc: int) -> tuple[np.ndarray, np.ndarray]:
        """(strides, recurrences) observed for one instruction."""
        mask = self.pc == pc
        return self.stride[mask], self.recurrence[mask]

    def sampled_pcs(self) -> np.ndarray:
        """Sorted unique PCs that have at least one stride sample."""
        return np.unique(self.pc)

    def merged_with(self, other: "StrideSampleSet") -> "StrideSampleSet":
        """Concatenate two sample sets."""
        return StrideSampleSet(
            np.concatenate([self.pc, other.pc]),
            np.concatenate([self.stride, other.stride]),
            np.concatenate([self.recurrence, other.recurrence]),
        )


def collect_stride_samples(
    trace: MemoryTrace,
    sample_indices: np.ndarray,
) -> StrideSampleSet:
    """Take stride samples at the given demand-reference indices.

    A sampled instruction that never executes again contributes nothing
    (the breakpoint simply never fires).  Only the sampled references'
    next executions are looked up.
    """
    demand = trace.demand_only()
    n = len(demand)
    if n == 0 and len(sample_indices):
        raise SamplingError("cannot sample an empty trace")
    if len(sample_indices) and (sample_indices.min() < 0 or sample_indices.max() >= n):
        raise SamplingError("sample index out of range")

    idx = np.asarray(sample_indices, dtype=np.int64)
    return stride_samples_at(demand, idx, next_same_value_index(demand.pc, idx))


def stride_samples_at(
    demand: MemoryTrace, idx: np.ndarray, nxt: np.ndarray
) -> StrideSampleSet:
    """Stride samples at demand indices ``idx`` of a demand-only trace.

    ``nxt`` holds each sampled instruction's next execution (-1: none).
    """
    fired = nxt >= 0
    idx = idx[fired]
    nxt = nxt[fired]
    return StrideSampleSet(
        pc=demand.pc[idx].astype(np.int64),
        stride=(demand.addr[nxt] - demand.addr[idx]).astype(np.int64),
        recurrence=(nxt - idx - 1).astype(np.int64),
    )
