"""Stride analysis: regular-stride classification (paper §VI).

For each delinquent load, its stride samples are grouped into
cache-line-sized buckets ("all strides of similar size that are likely
to fall in the same cache line").  If more than 70 % of the samples land
in one bucket the load has a *regular stride*, and the most frequent
stride inside the dominant bucket is selected for the prefetch-distance
computation.  Pointer-chasing loads (omnetpp, xalan) fail this test —
their stride histograms are flat — which is precisely why the paper's
miss coverage is low for them despite MDDLI finding their delinquent
loads (paper §VI-D: omnetpp's MDDLI coverage is 89 %, stride-prefetchable
coverage only 9 %).
"""

from __future__ import annotations

import numpy as np

from repro.core.report import StrideInfo
from repro.errors import AnalysisError
from repro.sampling.stridesampler import StrideSampleSet

__all__ = ["analyze_stride"]


def _bucket(strides: np.ndarray, line_bytes: int) -> np.ndarray:
    """Cache-line-sized stride groups (floor division keeps sign)."""
    return np.floor_divide(strides, line_bytes)


def analyze_stride(
    samples: StrideSampleSet,
    pc: int,
    line_bytes: int = 64,
    dominance_threshold: float = 0.7,
    min_samples: int = 4,
) -> StrideInfo | None:
    """Classify one load's stride behaviour.

    Returns a :class:`~repro.core.report.StrideInfo` when a dominant
    stride group exists and its representative stride is non-zero;
    otherwise ``None`` (irregular, or stationary access).
    """
    if not 0.0 < dominance_threshold <= 1.0:
        raise AnalysisError("dominance_threshold must be in (0, 1]")
    strides, recurrences = samples.for_pc(pc)
    n = len(strides)
    if n < min_samples:
        return None

    groups = _bucket(strides, line_bytes)
    uniq, counts = np.unique(groups, return_counts=True)
    best = int(np.argmax(counts))
    dominance = counts[best] / n
    if dominance < dominance_threshold:
        return None

    in_group = groups == uniq[best]
    group_strides = strides[in_group]
    vals, val_counts = np.unique(group_strides, return_counts=True)
    dominant_stride = int(vals[np.argmax(val_counts)])
    if dominant_stride == 0:
        # Stationary accesses (same address every iteration) never miss
        # after the first touch; nothing to prefetch.
        return None

    return StrideInfo(
        pc=pc,
        dominant_stride=dominant_stride,
        dominance=float(dominance),
        median_recurrence=float(np.median(recurrences)),
        n_samples=n,
    )
