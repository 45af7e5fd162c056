"""Trace characterisation: the "what is this workload doing" report.

Summarises a memory trace the way a performance engineer would want to
see it before deciding on prefetching: footprint, read/write mix, per-PC
stride regularity, and the reuse-distance distribution that drives all
cache behaviour.  Backed by the same vectorised primitives as the
samplers, so it is cheap even for multi-million-event traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError
from repro.trace.util import next_same_value_index
from repro.trace.events import MemOp, MemoryTrace

__all__ = ["PCCharacter", "TraceCharacter", "characterize_trace"]

#: Reuse-distance percentiles a characterisation reports.
_PERCENTILES = (50, 90, 99)


@dataclass(frozen=True)
class PCCharacter:
    """One static instruction's access character."""

    pc: int
    refs: int
    is_store: bool
    footprint_lines: int
    dominant_stride: int
    dominance: float

    @property
    def is_regular(self) -> bool:
        """True when one line-sized stride group dominates (70 % rule)."""
        return self.dominance >= 0.7 and self.dominant_stride != 0


@dataclass(frozen=True)
class TraceCharacter:
    """Whole-trace summary."""

    n_refs: int
    n_prefetches: int
    store_fraction: float
    footprint_bytes: int
    reuse_percentiles: dict[int, float]
    per_pc: list[PCCharacter]

    def regular_fraction(self) -> float:
        """Share of demand references issued by regularly-strided PCs."""
        if self.n_refs == 0:
            return 0.0
        regular = sum(p.refs for p in self.per_pc if p.is_regular)
        return regular / self.n_refs

    def describe(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"references: {self.n_refs} ({self.store_fraction:.0%} stores, "
            f"{self.n_prefetches} prefetch events)",
            f"footprint: {self.footprint_bytes / (1 << 20):.1f} MiB",
            f"regularly-strided references: {self.regular_fraction():.0%}",
            "reuse distance percentiles (refs): "
            + ", ".join(
                f"p{p}={v:.0f}" if np.isfinite(v) else f"p{p}=inf"
                for p, v in sorted(self.reuse_percentiles.items())
            ),
            "per-instruction:",
        ]
        for p in sorted(self.per_pc, key=lambda x: -x.refs):
            kind = "store" if p.is_store else "load"
            stride = (
                f"stride {p.dominant_stride:+d} ({p.dominance:.0%})"
                if p.dominant_stride
                else "irregular"
            )
            lines.append(
                f"  pc {p.pc:4d} {kind:5s} {p.refs:8d} refs "
                f"{p.footprint_lines:8d} lines  {stride}"
            )
        return "\n".join(lines)


def characterize_trace(trace: MemoryTrace, line_bytes: int = 64) -> TraceCharacter:
    """Compute the full characterisation of one trace."""
    if line_bytes <= 0 or line_bytes & (line_bytes - 1):
        raise TraceError("line_bytes must be a positive power of two")
    demand = trace.demand_only()
    n = len(demand)
    if n == 0:
        return TraceCharacter(0, trace.n_prefetch, 0.0, 0, {p: float("nan") for p in _PERCENTILES}, [])

    lines = demand.line_addr(line_bytes)
    store_mask = (demand.op == MemOp.STORE) | (demand.op == MemOp.STORE_NT)

    # --- reuse distance distribution (exact, vectorised) ---------------
    nxt = next_same_value_index(lines)
    finite = nxt >= 0
    reuse = (nxt[finite] - np.flatnonzero(finite) - 1).astype(np.float64)
    reuse_percentiles = {}
    for p in _PERCENTILES:
        if len(reuse) and np.count_nonzero(finite) / n > p / 100.0:
            reuse_percentiles[p] = float(np.percentile(reuse, p))
        else:
            reuse_percentiles[p] = float("inf")

    # --- per-PC character ----------------------------------------------
    per_pc: list[PCCharacter] = []
    order = np.argsort(demand.pc, kind="stable")
    sorted_pc = demand.pc[order]
    bounds = np.flatnonzero(np.diff(sorted_pc)) + 1
    for idx_chunk in np.split(order, bounds):
        pc = int(demand.pc[idx_chunk[0]])
        addrs = demand.addr[np.sort(idx_chunk)]
        pc_lines = addrs >> int(np.log2(line_bytes))
        strides = np.diff(addrs)
        if len(strides):
            groups = np.floor_divide(strides, line_bytes)
            uniq, counts = np.unique(groups, return_counts=True)
            best = int(np.argmax(counts))
            dominance = counts[best] / len(strides)
            in_group = groups == uniq[best]
            vals, val_counts = np.unique(strides[in_group], return_counts=True)
            dominant = int(vals[np.argmax(val_counts)])
        else:
            dominance, dominant = 0.0, 0
        per_pc.append(
            PCCharacter(
                pc=pc,
                refs=len(idx_chunk),
                is_store=bool(store_mask[idx_chunk[0]]),
                footprint_lines=len(np.unique(pc_lines)),
                dominant_stride=dominant,
                dominance=float(dominance),
            )
        )

    return TraceCharacter(
        n_refs=n,
        n_prefetches=trace.n_prefetch,
        store_fraction=float(np.mean(store_mask)),
        footprint_bytes=len(np.unique(lines)) * line_bytes,
        reuse_percentiles=reuse_percentiles,
        per_pc=per_pc,
    )
