"""Prefetch insertion at the trace level (paper §VI-C).

The real framework inserts ``prefetch[nta] distance(base)`` right after
each selected load at the assembler level; at run time every execution
of the load therefore also issues a prefetch of ``address + distance``.
:func:`apply_prefetch_plan` performs the equivalent transformation on a
:class:`~repro.trace.events.MemoryTrace`: for every demand event whose PC
carries a :class:`~repro.core.report.PrefetchDecision`, a prefetch event
to ``addr + distance_bytes`` is spliced in immediately after it.

The transformation is fully vectorised — events are assigned fractional
sort keys (original position, inserted events at position + ½) and the
result is one stable sort.

For insertion into the mini-IR (the "assembler level" of this
reproduction) see :mod:`repro.isa.rewriter`; experiments decode a
rewritten program with :func:`repro.isa.splice_execution`.  This
function is the path for traces without a program (the online
optimiser's windows) and the validators' independent oracle.
"""

from __future__ import annotations

import numpy as np

from repro.core.report import OptimizationReport, PrefetchDecision
from repro.errors import AnalysisError
from repro.trace.events import MemOp, MemoryTrace

__all__ = ["apply_prefetch_plan", "apply_nt_stores", "prefetch_overhead_ratio"]


def apply_prefetch_plan(
    trace: MemoryTrace,
    decisions: list[PrefetchDecision] | OptimizationReport,
) -> MemoryTrace:
    """Return a new trace with software prefetches inserted.

    ``decisions`` may be a bare list or a full
    :class:`~repro.core.report.OptimizationReport`.
    """
    if isinstance(decisions, OptimizationReport):
        decisions = decisions.decisions
    if not decisions:
        return trace

    by_pc: dict[int, PrefetchDecision] = {}
    for d in decisions:
        if d.pc in by_pc:
            raise AnalysisError(f"duplicate prefetch decision for pc {d.pc}")
        by_pc[d.pc] = d
    direct = {pc: d for pc, d in by_pc.items() if not d.indirect_ahead}
    indirect = {pc: d for pc, d in by_pc.items() if d.indirect_ahead}

    demand = trace.demand_mask
    # Inserted-event groups in IR body order: a load's own prefetch
    # first, an index load's run-ahead prefetch second (matching
    # ``insert_prefetches``, which appends in that order); the stable
    # merge preserves group order for events sharing a source position.
    srcs: list[np.ndarray] = []
    addrs: list[np.ndarray] = []
    pcs_out: list[np.ndarray] = []
    ops: list[np.ndarray] = []

    if direct:
        pcs = sorted(direct)
        pc_arr = np.array(pcs, dtype=np.int64)
        dist_arr = np.array([direct[p].distance_bytes for p in pcs], dtype=np.int64)
        nta_arr = np.array([direct[p].nta for p in pcs], dtype=bool)

        # Match demand events against the decision table.
        match_idx = np.searchsorted(pc_arr, trace.pc)
        match_idx_clipped = np.clip(match_idx, 0, len(pc_arr) - 1)
        hits = demand & (pc_arr[match_idx_clipped] == trace.pc)
        src = np.flatnonzero(hits)
        which = match_idx_clipped[src]
        new_addr = trace.addr[src] + dist_arr[which]
        # A target below address 0 is dropped, by the same rule as the
        # interpreter's (`repro.isa.interpreter`): a prefetch is a hint,
        # and a hint to an unmapped address does nothing.
        valid = new_addr >= 0
        src = src[valid]
        which = which[valid]
        srcs.append(src)
        addrs.append(new_addr[valid])
        pcs_out.append(trace.pc[src])
        ops.append(
            np.where(
                nta_arr[which], int(MemOp.PREFETCH_NTA), int(MemOp.PREFETCH)
            ).astype(np.uint8)
        )

    for pc in sorted(indirect):
        d = indirect[pc]
        # B[i+ahead]: ordinary run-ahead prefetch on the index walk.
        idx_src = np.flatnonzero(demand & (trace.pc == d.index_pc))
        if len(idx_src):
            new_addr = trace.addr[idx_src] + d.distance_bytes
            valid = new_addr >= 0
            srcs.append(idx_src[valid])
            addrs.append(new_addr[valid])
            pcs_out.append(trace.pc[idx_src[valid]])
            ops.append(
                np.full(int(valid.sum()), int(MemOp.PREFETCH), dtype=np.uint8)
            )
        # A[B[i+ahead]]: the data load's own address ``ahead``
        # occurrences later, clamped to its final occurrence — the
        # trace-level mirror of the interpreter's column shift.
        src = np.flatnonzero(demand & (trace.pc == pc))
        if len(src):
            shifted = np.minimum(
                np.arange(len(src), dtype=np.int64) + d.indirect_ahead,
                len(src) - 1,
            )
            srcs.append(src)
            addrs.append(trace.addr[src[shifted]])
            pcs_out.append(trace.pc[src])
            ops.append(
                np.full(
                    len(src),
                    int(MemOp.PREFETCH_NTA) if d.nta else int(MemOp.PREFETCH),
                    dtype=np.uint8,
                )
            )

    if not srcs or not sum(len(s) for s in srcs):
        return trace
    src_all = np.concatenate(srcs)

    # Stable merge: original events at key i, inserted ones at i + 0.5.
    keys = np.concatenate(
        [np.arange(len(trace), dtype=np.float64), src_all.astype(np.float64) + 0.5]
    )
    order = np.argsort(keys, kind="stable")
    return MemoryTrace(
        np.concatenate([trace.pc, *pcs_out])[order],
        np.concatenate([trace.addr, *addrs])[order],
        np.concatenate([trace.op, *ops])[order],
    )


def apply_nt_stores(trace: MemoryTrace, pcs: list[int]) -> MemoryTrace:
    """Convert the stores of the given PCs into non-temporal stores.

    A pure op-kind transformation (no events added or removed) — the
    trace-level mirror of replacing ``mov`` with ``movnt`` in the
    rewritten assembly.
    """
    if not pcs:
        return trace
    pc_set = np.isin(trace.pc, np.asarray(sorted(pcs), dtype=np.int64))
    targets = pc_set & (trace.op == int(MemOp.STORE))
    if not targets.any():
        return trace
    new_op = trace.op.copy()
    new_op[targets] = int(MemOp.STORE_NT)
    return MemoryTrace(trace.pc, trace.addr, new_op)


def prefetch_overhead_ratio(original: MemoryTrace, optimised: MemoryTrace) -> float:
    """Prefetch instructions executed per original demand reference."""
    n_demand = original.n_demand
    if n_demand == 0:
        return 0.0
    return optimised.n_prefetch / n_demand
