"""Statistics containers for cache and timing simulations."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PCStats", "LevelStats", "RunStats"]


class PCStats:
    """Per static-instruction (PC) access and miss counters.

    Backed by plain dicts because PC populations are small (tens to a few
    hundred static memory instructions per workload model) while access
    counts are large; the hot path is two dict updates per event.
    """

    __slots__ = ("accesses", "misses")

    def __init__(self) -> None:
        self.accesses: dict[int, int] = {}
        self.misses: dict[int, int] = {}

    def record(self, pc: int, miss: bool) -> None:
        """Count one access (and optionally one miss) for ``pc``."""
        self.accesses[pc] = self.accesses.get(pc, 0) + 1
        if miss:
            self.misses[pc] = self.misses.get(pc, 0) + 1

    def record_bulk(self, pc: np.ndarray, miss: np.ndarray) -> None:
        """Vectorised accumulation from parallel pc / miss arrays."""
        pcs, counts = np.unique(pc, return_counts=True)
        for p, c in zip(pcs.tolist(), counts.tolist()):
            self.accesses[p] = self.accesses.get(p, 0) + c
        if miss.any():
            pcs_m, counts_m = np.unique(pc[miss], return_counts=True)
            for p, c in zip(pcs_m.tolist(), counts_m.tolist()):
                self.misses[p] = self.misses.get(p, 0) + c

    def miss_ratio(self, pc: int) -> float:
        """Miss ratio of one PC (0.0 if never seen)."""
        acc = self.accesses.get(pc, 0)
        if not acc:
            return 0.0
        return self.misses.get(pc, 0) / acc

    def total_accesses(self) -> int:
        return sum(self.accesses.values())

    def total_misses(self) -> int:
        return sum(self.misses.values())

    def overall_miss_ratio(self) -> float:
        acc = self.total_accesses()
        return self.total_misses() / acc if acc else 0.0


@dataclass
class LevelStats:
    """Demand hit/miss counters for one cache level."""

    accesses: int = 0
    misses: int = 0

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


@dataclass
class RunStats:
    """Aggregate result of one single-core simulated run.

    Attributes
    ----------
    cycles:
        Total simulated core cycles, including stalls.
    instructions:
        Retired instructions (memory + non-memory); supplied by the
        workload model, used for CPI-style reporting.
    l1, l2, llc:
        Demand-access hit/miss counters per level.
    pc_l1:
        Per-PC L1 demand accesses/misses (coverage evaluation).
    sw_prefetches:
        Software prefetch instructions executed.
    sw_useful / sw_useless / sw_late:
        Prefetched lines that saw a demand hit before eviction; were
        evicted untouched; or were still in flight when demanded.
    hw_prefetches:
        Fills initiated by the hardware prefetcher model.
    hw_useful / hw_useless:
        As above, for hardware-prefetched lines.
    dram_fills:
        Cache lines fetched from DRAM (demand + all prefetch kinds).
    nta_fills:
        The subset of ``dram_fills`` brought in by ``PREFETCHNTA`` —
        lines that never occupy L2/LLC (needed by the shared-LLC
        contention model to compute pollution rates).
    dram_writebacks:
        Dirty lines written back to DRAM.
    nt_store_writes:
        Lines written by non-temporal stores (write-combined, no fill).
    line_bytes:
        Line size used to convert fills to bytes.
    """

    cycles: float = 0.0
    instructions: int = 0
    l1: LevelStats = field(default_factory=LevelStats)
    l2: LevelStats = field(default_factory=LevelStats)
    llc: LevelStats = field(default_factory=LevelStats)
    pc_l1: PCStats = field(default_factory=PCStats)
    sw_prefetches: int = 0
    sw_useful: int = 0
    sw_useless: int = 0
    sw_late: int = 0
    hw_prefetches: int = 0
    hw_useful: int = 0
    hw_useless: int = 0
    dram_fills: int = 0
    nta_fills: int = 0
    dram_writebacks: int = 0
    nt_store_writes: int = 0
    line_bytes: int = 64

    @property
    def dram_bytes(self) -> int:
        """Total off-chip traffic in bytes (fills + writebacks + NT writes)."""
        return (
            self.dram_fills + self.dram_writebacks + self.nt_store_writes
        ) * self.line_bytes

    def bandwidth_gbs(self, freq_ghz: float) -> float:
        """Average off-chip bandwidth over the run in GB/s."""
        if self.cycles <= 0:
            return 0.0
        seconds = self.cycles / (freq_ghz * 1e9)
        return self.dram_bytes / seconds / 1e9

    @property
    def llc_insertions(self) -> int:
        """DRAM fills that were installed in the LLC (pollution rate)."""
        return self.dram_fills - self.nta_fills
