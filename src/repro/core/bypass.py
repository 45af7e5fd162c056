"""Cache-bypass (non-temporal) analysis — paper §VI-B.

After a load is identified as prefetchable, this pass decides whether the
ordinary ``prefetch`` can be upgraded to ``PREFETCHNTA`` (fill L1 only,
bypass L2/LLC).  Following Sandberg et al. (SC'10):

1. Identify the *data-reusing loads* — the instructions that access the
   same cache line directly after the candidate.  The reuse samples give
   exactly this data-flow graph: a sample started at PC *A* and ended at
   PC *B* means *B* reuses *A*'s lines.
2. For every data-reusing load, inspect its miss-ratio curve between the
   L1 and LLC sizes.  A *flat* curve means the load's hits never come
   from L2/LLC — caching the lines there serves nobody.
3. Only if **no** reusing load benefits from the outer levels is the
   candidate marked non-temporal.

Bypassing keeps other (temporally useful) data resident in the shared
LLC longer and cuts re-fetch traffic — the paper measures up to 22 %
traffic *reduction below the no-prefetch baseline* on streaming codes.
"""

from __future__ import annotations

import numpy as np

from repro.sampling.reuse import ReuseSampleSet
from repro.statstack.mrc import PerPCMissRatios

__all__ = ["data_reusing_loads", "should_bypass"]

#: Reuse share below which a consuming instruction is statistical noise,
#: for the bypass analysis and the NT-store analysis alike.
_MIN_REUSER_SHARE = 0.05


def data_reusing_loads(samples: ReuseSampleSet, pc: int) -> dict[int, float]:
    """Loads that consume ``pc``'s lines, with their reuse share.

    Returns a map of end-PC to the fraction of ``pc``'s finite reuse
    samples it accounts for; consumers below :data:`_MIN_REUSER_SHARE`
    are dropped as statistical noise.
    """
    mask = (samples.start_pc == pc) & samples.finite_mask
    ends = samples.end_pc[mask]
    if len(ends) == 0:
        return {}
    uniq, counts = np.unique(ends, return_counts=True)
    total = len(ends)
    return {
        int(end): cnt / total
        for end, cnt in zip(uniq.tolist(), counts.tolist())
        if cnt / total >= _MIN_REUSER_SHARE
    }


def should_bypass(
    pc: int,
    samples: ReuseSampleSet,
    ratios: PerPCMissRatios,
    flatness_tolerance: float = 0.10,
) -> bool:
    """Decide whether prefetches for ``pc`` may bypass L2/LLC.

    True when every significant data-reusing load (including ``pc``
    itself, if it re-touches its own lines) has a flat miss-ratio curve
    between the L1 and LLC sizes — i.e. nobody reuses these lines out of
    the outer cache levels.

    A load whose lines are *never* reused (all samples dangling) is
    trivially bypassable: its data is written out / abandoned, the
    classic non-temporal stream.
    """
    machine = ratios.machine
    reusers = data_reusing_loads(samples, pc)
    if not reusers:
        return True
    for reuser_pc in reusers:
        curve = ratios.pc_curve(reuser_pc)
        if not curve.is_flat_between(
            machine.l1.size_bytes, machine.llc.size_bytes, flatness_tolerance
        ):
            return False
    return True
