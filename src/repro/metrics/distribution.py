"""Sorted distribution series for the paper's Fig. 7 / Fig. 9 plots.

The paper presents mixed-workload results as *sorted distribution
functions*: each configuration's 180 per-mix values sorted
independently, plotted against the run percentile.  "In 60 % of the
mixes, our method improves throughput by at least 14 %" is read off such
a curve at x = 60 %.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ExperimentError

__all__ = ["sorted_distribution"]


def sorted_distribution(values: Sequence[float], descending: bool = True) -> np.ndarray:
    """Values sorted for a distribution-function plot.

    Descending order matches the paper's speedup panels ("at least X in
    Y % of runs"); ascending suits lower-is-better metrics.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ExperimentError("empty distribution")
    arr = np.sort(arr)
    return arr[::-1] if descending else arr
