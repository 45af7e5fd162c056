"""Non-temporal store identification — an extension beyond the paper.

The paper bypasses the cache on the *prefetch* side (`PREFETCHNTA`);
streaming *stores* still perform a read-for-ownership fill and a later
writeback — two off-chip transfers per written line.  x86 offers
``MOVNT*`` stores that write-combine straight to DRAM (one transfer, no
fill, no cache occupancy), and the very same data-reuse analysis that
drives the paper's bypass decision can prove them safe:

* the store must actually miss (otherwise there is no fill to save) —
  the same ``MR > α/latency``-style materiality test as MDDLI;
* **nothing must read the line while it would still be cached.**  The
  reuse samples' data-flow graph gives this directly: any data-reusing
  *other* instruction disqualifies the store (its read would now miss
  all the way to DRAM).  Self-reuse by the same store (sub-line strides
  writing one line several times) is fine — the write-combining buffer
  merges it.

On store-heavy streams (lbm writes a full lattice per timestep) this
halves the stores' traffic on top of Soft.Pref.+NT; the
``bench_nt_stores`` benchmark quantifies it.
"""

from __future__ import annotations

from repro.core.bypass import data_reusing_loads
from repro.core.mddli import cost_benefit_threshold
from repro.errors import AnalysisError
from repro.sampling.sampler import SamplingResult
from repro.statstack.mrc import PerPCMissRatios

__all__ = ["identify_nt_stores"]


def identify_nt_stores(
    sampling: SamplingResult,
    ratios: PerPCMissRatios,
    store_pcs: set[int],
    latency: float | None = None,
    min_samples: int = 4,
) -> list[int]:
    """Store instructions safe and worthwhile to convert to ``MOVNT``.

    Parameters
    ----------
    sampling:
        The profiling pass output (reuse samples give the data-flow
        graph).
    ratios:
        Per-PC miss ratio provider for the target machine.
    store_pcs:
        PCs of the program's store instructions (the analysis cannot
        infer operation kinds from addresses alone; the rewriter knows
        them from the program, see
        :meth:`repro.isa.program.Program.store_pcs`).
    latency:
        Average miss latency for the materiality threshold; defaults to
        the machine estimate.
    min_samples:
        Sample support required per store.

    A store's consumers come from
    :func:`~repro.core.bypass.data_reusing_loads`, so the bypass
    analysis's noise floor applies to them too.

    Returns the selected PCs sorted by descending miss ratio.
    """
    if min_samples < 0:
        raise AnalysisError("min_samples must be non-negative")
    machine = ratios.machine
    threshold = cost_benefit_threshold(machine, latency)

    selected: list[tuple[float, int]] = []
    for pc in sorted(store_pcs):
        if ratios.model.pc_sample_count(pc) < min_samples:
            continue
        mr_l1 = ratios.model.pc_miss_ratio(pc, machine.l1.size_bytes)
        if mr_l1 <= threshold:
            continue  # the store rarely fills; nothing to save
        reusers = data_reusing_loads(sampling.reuse, pc)
        if any(reuser != pc for reuser in reusers):
            continue  # someone reads the written data while cached
        selected.append((mr_l1, pc))
    selected.sort(reverse=True)
    return [pc for _, pc in selected]
