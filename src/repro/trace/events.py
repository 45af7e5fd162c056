"""Struct-of-arrays memory trace container.

A :class:`MemoryTrace` is the common currency between the workload models,
the samplers, the cache simulators and the prefetch-insertion machinery.
It holds parallel NumPy arrays (program counter, byte address, operation
kind) rather than an array of objects, so that per-event analyses can be
fully vectorised — the idiom recommended by the scientific-Python
performance guides this project follows.

Operation kinds
---------------
``LOAD`` / ``STORE``
    Demand accesses issued by the program.  These are the "memory
    references" counted by reuse distances and recurrences.
``PREFETCH`` / ``PREFETCH_NTA``
    Software prefetches inserted by the optimiser.  ``PREFETCH_NTA``
    models x86 ``PREFETCHNTA``: it fills the L1 but bypasses (minimally
    disturbs) L2 and the shared LLC.  Prefetches are *not* counted as
    memory references for reuse/recurrence purposes, matching how the
    paper's sampler observes only demand accesses.
``STORE_NT``
    A non-temporal (streaming) store — x86 ``MOVNT*``: the write goes
    straight to DRAM through write-combining buffers, without a
    read-for-ownership fill and without caching the line.  A demand
    reference (the program issues it), produced by the optional
    NT-store transformation (an extension beyond the paper).
"""

from __future__ import annotations

from enum import IntEnum
from typing import Iterator, Sequence

import numpy as np

from repro.errors import TraceError

__all__ = ["MemOp", "MemoryTrace", "TraceBuilder"]


class MemOp(IntEnum):
    """Operation kind of one trace event."""

    LOAD = 0
    STORE = 1
    PREFETCH = 2
    PREFETCH_NTA = 3
    STORE_NT = 4

    @property
    def is_demand(self) -> bool:
        """True for program loads/stores (the sampler's "memory references")."""
        return self in (MemOp.LOAD, MemOp.STORE, MemOp.STORE_NT)

    @property
    def is_store(self) -> bool:
        """True for either flavour of store."""
        return self in (MemOp.STORE, MemOp.STORE_NT)


class MemoryTrace:
    """An immutable sequence of memory events in program order.

    Parameters
    ----------
    pc:
        Integer instruction identifiers (one per static memory
        instruction).  ``int64``.
    addr:
        Byte addresses accessed.  ``int64``; must be non-negative.
    op:
        Operation kinds, values of :class:`MemOp`.  ``uint8``.

    All three arrays must share one length.  Arrays are copied defensively
    unless they already have the right dtype and are C-contiguous, in
    which case they are referenced and marked read-only.
    """

    __slots__ = ("pc", "addr", "op")

    def __init__(
        self,
        pc: np.ndarray | Sequence[int],
        addr: np.ndarray | Sequence[int],
        op: np.ndarray | Sequence[int],
    ) -> None:
        pc_arr = np.ascontiguousarray(pc, dtype=np.int64)
        addr_arr = np.ascontiguousarray(addr, dtype=np.int64)
        op_arr = np.ascontiguousarray(op, dtype=np.uint8)
        if not (len(pc_arr) == len(addr_arr) == len(op_arr)):
            raise TraceError(
                f"array length mismatch: pc={len(pc_arr)} addr={len(addr_arr)} op={len(op_arr)}"
            )
        if pc_arr.ndim != 1:
            raise TraceError("trace arrays must be one-dimensional")
        if len(addr_arr) and addr_arr.min() < 0:
            raise TraceError("addresses must be non-negative")
        if len(op_arr) and op_arr.max() > max(MemOp):
            raise TraceError("op array contains values outside MemOp")
        for arr in (pc_arr, addr_arr, op_arr):
            arr.flags.writeable = False
        self.pc = pc_arr
        self.addr = addr_arr
        self.op = op_arr

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls) -> "MemoryTrace":
        """A zero-length trace."""
        return cls(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.uint8))

    @classmethod
    def loads(cls, pc: Sequence[int], addr: Sequence[int]) -> "MemoryTrace":
        """Build an all-LOAD trace (convenient in tests)."""
        pc_arr = np.asarray(pc, dtype=np.int64)
        return cls(pc_arr, np.asarray(addr, dtype=np.int64), np.zeros(len(pc_arr), np.uint8))

    @classmethod
    def concat(cls, traces: Sequence["MemoryTrace"]) -> "MemoryTrace":
        """Concatenate traces in order."""
        if not traces:
            return cls.empty()
        return cls(
            np.concatenate([t.pc for t in traces]),
            np.concatenate([t.addr for t in traces]),
            np.concatenate([t.op for t in traces]),
        )

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.pc)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryTrace):
            return NotImplemented
        return (
            np.array_equal(self.pc, other.pc)
            and np.array_equal(self.addr, other.addr)
            and np.array_equal(self.op, other.op)
        )

    def __hash__(self) -> int:  # pragma: no cover - traces are not dict keys
        return id(self)

    def __repr__(self) -> str:
        return f"MemoryTrace(n={len(self)}, demand={self.n_demand}, prefetch={self.n_prefetch})"

    def __getitem__(self, index: slice) -> "MemoryTrace":
        if not isinstance(index, slice):
            raise TraceError("MemoryTrace supports slice indexing only")
        return MemoryTrace(self.pc[index], self.addr[index], self.op[index])

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------

    @property
    def demand_mask(self) -> np.ndarray:
        """Boolean mask selecting demand loads and stores (incl. NT)."""
        return (self.op <= MemOp.STORE) | (self.op == MemOp.STORE_NT)

    @property
    def prefetch_mask(self) -> np.ndarray:
        """Boolean mask selecting software prefetches (both kinds)."""
        return (self.op == MemOp.PREFETCH) | (self.op == MemOp.PREFETCH_NTA)

    @property
    def n_demand(self) -> int:
        """Number of demand references."""
        return int(np.count_nonzero(self.demand_mask))

    @property
    def n_prefetch(self) -> int:
        """Number of software prefetch events."""
        return len(self) - self.n_demand

    def line_addr(self, line_bytes: int) -> np.ndarray:
        """Cache-line numbers of every event (``addr // line_bytes``)."""
        if line_bytes <= 0 or line_bytes & (line_bytes - 1):
            raise TraceError("line_bytes must be a positive power of two")
        return self.addr >> int(np.log2(line_bytes))

    def demand_only(self) -> "MemoryTrace":
        """The trace with prefetch events removed.

        A trace without prefetch events is its own demand view: its
        arrays are read-only, so sharing them is safe.
        """
        mask = self.demand_mask
        if mask.all():
            return self
        return MemoryTrace(self.pc[mask], self.addr[mask], self.op[mask])

    def select(self, mask: np.ndarray) -> "MemoryTrace":
        """A new trace with only events where ``mask`` is true."""
        if mask.shape != self.pc.shape:
            raise TraceError("mask shape must match trace length")
        return MemoryTrace(self.pc[mask], self.addr[mask], self.op[mask])

    def unique_pcs(self) -> np.ndarray:
        """Sorted array of static instruction ids appearing in the trace."""
        return np.unique(self.pc)

    def footprint_lines(self, line_bytes: int) -> int:
        """Number of distinct cache lines touched by demand accesses."""
        demand = self.demand_mask
        if not demand.any():
            return 0
        return len(np.unique(self.line_addr(line_bytes)[demand]))

    def iter_chunks(self, chunk: int) -> Iterator["MemoryTrace"]:
        """Yield consecutive sub-traces of at most ``chunk`` events."""
        if chunk <= 0:
            raise TraceError("chunk must be positive")
        for start in range(0, len(self), chunk):
            yield self[start : start + chunk]


class TraceBuilder:
    """Incrementally assemble a :class:`MemoryTrace`.

    Appending per-event would defeat vectorisation, so the builder accepts
    whole *blocks* of events (NumPy arrays) and concatenates once at
    :meth:`build` time.
    """

    def __init__(self) -> None:
        self._pc: list[np.ndarray] = []
        self._addr: list[np.ndarray] = []
        self._op: list[np.ndarray] = []

    def append_block(self, pc: np.ndarray, addr: np.ndarray, op: np.ndarray) -> None:
        """Append a block of events (arrays of equal length)."""
        if not (len(pc) == len(addr) == len(op)):
            raise TraceError("block arrays must have equal length")
        self._pc.append(np.asarray(pc, dtype=np.int64))
        self._addr.append(np.asarray(addr, dtype=np.int64))
        self._op.append(np.asarray(op, dtype=np.uint8))

    def append_uniform(self, pc: int, addr: np.ndarray, op: MemOp) -> None:
        """Append a block of events sharing one pc and op."""
        n = len(addr)
        self.append_block(
            np.full(n, pc, dtype=np.int64),
            addr,
            np.full(n, int(op), dtype=np.uint8),
        )

    def __len__(self) -> int:
        return sum(len(block) for block in self._pc)

    def build(self) -> MemoryTrace:
        """Materialise the assembled trace."""
        if not self._pc:
            return MemoryTrace.empty()
        return MemoryTrace(
            np.concatenate(self._pc),
            np.concatenate(self._addr),
            np.concatenate(self._op),
        )
