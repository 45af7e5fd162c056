"""Prefetch distance computation (paper §VI-A).

To hide memory latency, a prefetch must be issued enough iterations
before the demand load.  With the selected stride, the paper computes the
distance in bytes as::

    P = ceil(l / d) × stride

where ``l`` is the average memory latency and ``d`` the cycles per loop
iteration, approximated as ``d = recurrence × Δ`` (``Δ`` = average cycles
per memory operation).  When the stride is smaller than the cache line
``C`` the line is reused ``i = C / stride`` times, so the distance is
shortened proportionally::

    P = ceil(latency / (d × i)) × C

Finally, a loop executing ``R`` references can only usefully run ``R/2``
ahead — the first ``P`` bytes of any prefetched region are misses, so the
analysis enforces ``P ≤ ceil(R / 2)`` (in iterations, scaled by stride).
"""

from __future__ import annotations

import math

from repro.config import MachineConfig
from repro.core.report import StrideInfo
from repro.errors import AnalysisError

__all__ = ["compute_prefetch_distance"]


def compute_prefetch_distance(
    stride_info: StrideInfo,
    machine: MachineConfig,
    latency: float | None = None,
    refs_in_loop: int | None = None,
) -> int:
    """Distance in bytes to prefetch ahead of a delinquent load.

    Parameters
    ----------
    stride_info:
        Output of the stride analysis (dominant stride + recurrence).
    machine:
        Supplies ``Δ`` (cycles per memory operation), the line size and
        the default latency.
    latency:
        Average memory latency ``l``; defaults to the machine estimate
        (the paper measures it with performance counters).
    refs_in_loop:
        Estimated dynamic reference count ``R`` of the loop; enables the
        ``P ≤ R/2`` clamp when known.

    Returns
    -------
    Signed distance in bytes (negative for descending strides).
    """
    stride = stride_info.dominant_stride
    if stride == 0:
        raise AnalysisError("cannot compute a distance for a zero stride")
    lat = machine.avg_memory_latency if latency is None else latency
    if lat <= 0:
        raise AnalysisError("latency must be positive")
    dlt = machine.cycles_per_memop
    if dlt <= 0:
        raise AnalysisError("delta must be positive")

    # d — cycles per loop iteration, from the recurrence (memory
    # references between executions of this load) and Δ.  A recurrence of
    # zero means back-to-back executions; one memop of spacing is the
    # floor.
    d = max(1.0, (stride_info.median_recurrence + 1.0)) * dlt

    line = machine.line_bytes
    magnitude = abs(stride)
    sign = 1 if stride > 0 else -1

    if magnitude >= line:
        iterations_ahead = math.ceil(lat / d)
        distance = iterations_ahead * magnitude
    else:
        # Short strides reuse the line i = C/stride times, so fewer
        # line-granule fetches are needed per unit time.
        i = line / magnitude
        lines_ahead = math.ceil(lat / (d * i))
        distance = lines_ahead * line

    # P (in iterations) must not exceed R/2 — otherwise more than half
    # the loop's references are cold misses ahead of the prefetch wave.
    # R is the smaller of the static loop trip count (when known) and the
    # run length estimated from stride-sample dominance, which catches
    # short-lived strided runs inside long loops (cigar's rows).
    r_candidates = [stride_info.estimated_run_length]
    if refs_in_loop is not None and refs_in_loop > 0:
        r_candidates.append(float(refs_in_loop))
    r = min(r_candidates)
    if math.isfinite(r):
        max_iterations = max(1.0, r / 2.0)
        max_distance = max(line, int(max_iterations * magnitude))
        distance = min(distance, max_distance)

    return sign * max(line, int(distance))
