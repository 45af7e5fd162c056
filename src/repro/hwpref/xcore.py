"""Cross-core (helper) LLC prefetcher for index-array indirection.

The paper's hardware prefetchers are per-core stride/stream engines and
its software rewrite targets the owning core's cache; neither helps the
``A[B[i]]`` gathers that dominate graph analytics.  This model follows
the *helper-prefetcher* school (Pickle-style): a small engine near the
LLC watches the *index* walk of a registered ``A[B[i]]`` pair, resolves
the index values the program is about to consume, and issues prefetches
for ``A[B[i + d]]`` into the **shared LLC only** (``fill_l2=False``) —
the data arrives on chip without polluting any core's private cache, so
whichever core consumes it next (the same one, or a neighbour in a
parallel run) takes an LLC hit instead of a DRAM access.

Index values are *input data* of the workload model: an
:class:`~repro.isa.instructions.IndexedAccess` owns an ``index_seed``
from which both the interpreter and this prefetcher reconstruct the same
``B`` array (:func:`~repro.trace.synthesis.index_array_values`).  That
mirrors real helper prefetchers, which read the index array out of the
cache — here the read is a seeded recomputation.

The engine keys on the index load's PC.  A next-issue pointer per pair
suppresses re-issues while the walk advances monotonically and resets
when the walk jumps (rewind or wrap), so steady state issues one new
line per demand index access — the same discipline the streamer models
use.  Coordinator feedback (:class:`~repro.hwpref.base.PrefetchTuning`)
applies as everywhere else: ``degree_scale``/utilisation throttle the
degree (``0.0`` gates the engine off) and ``nta_bypass`` marks fills to
skip even the LLC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import ProgramError
from repro.hwpref.base import _EMPTY_BATCH, HardwarePrefetcher

if TYPE_CHECKING:  # isa imports cachesim imports hwpref — defer the cycle
    from repro.config import MachineConfig
    from repro.isa.program import Program

__all__ = [
    "IndexRegion",
    "CrossCoreLLCPrefetcher",
    "index_directory_for",
    "cross_core_prefetcher_for",
]


@dataclass(frozen=True)
class IndexRegion:
    """One registered ``A[B[i]]`` pair: where ``B`` lives, what it indexes.

    ``index_values()`` reconstructs the ``B`` array contents exactly as
    the interpreter materialises them — both sides are pure functions of
    ``index_seed``.
    """

    index_pc: int
    index_base: int
    index_elem_bytes: int
    n_indices: int
    index_seed: int
    data_base: int
    data_elem_bytes: int
    n_slots: int
    data_pc: int

    def __post_init__(self) -> None:
        if self.index_elem_bytes <= 0 or self.data_elem_bytes <= 0:
            raise ProgramError("element sizes must be positive")
        if self.n_indices <= 0 or self.n_slots <= 0:
            raise ProgramError("n_indices and n_slots must be positive")

    def index_values(self) -> np.ndarray:
        from repro.trace.synthesis import index_array_values

        return index_array_values(self.index_seed, self.n_indices, self.n_slots)

    def position_of(self, addr: int | np.ndarray) -> int | np.ndarray:
        """Element position of a demand access into the index array."""
        return ((addr - self.index_base) // self.index_elem_bytes) % self.n_indices


def index_directory_for(program: Program) -> dict[int, IndexRegion]:
    """Index-load PC → :class:`IndexRegion` for every resolvable pair.

    The structural pairing is :meth:`~repro.isa.program.Program.indirect_pairs`;
    this adds the geometry the hardware needs to resolve future indices.
    """
    from repro.isa.instructions import IndexedAccess, Load

    pairs = program.indirect_pairs()
    if not pairs:
        return {}
    mapping = program.pc_map()
    by_pc: dict[int, IndexedAccess] = {}
    for kernel in program.kernels:
        for instr in kernel.mem_instructions:
            if isinstance(instr, Load) and isinstance(instr.pattern, IndexedAccess):
                by_pc[mapping[(kernel.name, instr.label)]] = instr.pattern
    directory: dict[int, IndexRegion] = {}
    for data_pc, (index_pc, _stride) in pairs.items():
        pat = by_pc[data_pc]
        directory[index_pc] = IndexRegion(
            index_pc=index_pc,
            index_base=pat.index_base,
            index_elem_bytes=pat.index_elem_bytes,
            n_indices=pat.n_indices,
            index_seed=pat.index_seed,
            data_base=pat.base,
            data_elem_bytes=pat.elem_bytes,
            n_slots=pat.n_slots,
            data_pc=data_pc,
        )
    return directory


class CrossCoreLLCPrefetcher(HardwarePrefetcher):
    """Helper prefetcher resolving ``B[i+d]`` into LLC fills of ``A[B[i+d]]``.

    Parameters
    ----------
    regions:
        Index directory (index-load PC → :class:`IndexRegion`), typically
        :func:`index_directory_for`.
    line_bytes:
        LLC line size for address→line conversion.
    degree:
        Consecutive future positions covered per demand index access.
    ahead:
        Run-ahead distance in index *elements*.
    """

    name = "hw-xcore"
    _state_attrs = ("_next",)

    def __init__(
        self,
        regions: dict[int, IndexRegion],
        line_bytes: int = 64,
        degree: int = 4,
        ahead: int = 16,
        utilisation: Callable[[], float] | None = None,
    ) -> None:
        super().__init__(utilisation)
        if degree <= 0 or ahead <= 0:
            raise ValueError("degree and ahead must be positive")
        if line_bytes <= 0:
            raise ValueError("line_bytes must be positive")
        self.regions = dict(regions)
        self.line_bytes = line_bytes
        self.degree = degree
        self.ahead = ahead
        self._values: dict[int, np.ndarray] = {}
        self._next: dict[int, int] = {}

    # -- resolution ----------------------------------------------------

    def _region_values(self, region: IndexRegion) -> np.ndarray:
        vals = self._values.get(region.index_pc)
        if vals is None:
            vals = region.index_values()
            self._values[region.index_pc] = vals
        return vals

    def _resolve(self, region: IndexRegion, positions: np.ndarray) -> np.ndarray:
        """Target *lines* of ``A[B[pos]]`` for future index positions.

        Separated out so the validation self-test can break exactly this
        step (issuing unresolved garbage) and check the invariants notice.
        """
        vals = self._region_values(region)
        slots = vals[positions % region.n_indices]
        addrs = region.data_base + slots * region.data_elem_bytes
        return addrs // self.line_bytes

    # -- scalar path ---------------------------------------------------

    def observe(self, pc: int, addr: int, line: int, l1_hit: bool) -> list[tuple[int, bool, bool]]:
        region = self.regions.get(pc)
        if region is None:
            return []
        factor = self._throttle_factor()
        if factor <= 0.0:
            return []
        degree = max(1, round(self.degree * factor))
        start = int(region.position_of(addr)) + self.ahead
        hi = start + degree - 1
        nxt = self._next.get(pc)
        # Monotone advance: resume at the pointer; a jump (rewind or
        # wrap past the array end) falls outside the window and resets.
        lo = nxt if nxt is not None and start < nxt <= hi + 1 else start
        self._next[pc] = hi + 1
        if lo > hi:
            return []
        lines = self._resolve(region, np.arange(lo, hi + 1, dtype=np.int64))
        return [self._request(t, fill_l2=False) for t in lines.tolist()]

    # -- batched path --------------------------------------------------

    def observe_batch(
        self,
        pcs: np.ndarray,
        addrs: np.ndarray,
        lines: np.ndarray,
        l1_hits: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized pointer walk, equivalent to per-access ``observe``.

        Because the pointer after every access is always ``start +
        degree`` regardless of how much was issued, the carried state
        needs no sequential scan: access ``k`` resumes from access
        ``k-1``'s window end, elementwise.  Equivalent to ``observe()``
        while the throttle factor is 1.0; a tuned engine takes the
        scalar fallback.
        """
        if not self.batch_safe:
            return super().observe_batch(pcs, addrs, lines, l1_hits)
        if len(pcs) == 0 or not self.regions:
            return _EMPTY_BATCH
        pcs = np.ascontiguousarray(pcs, dtype=np.int64)
        addrs = np.ascontiguousarray(addrs, dtype=np.int64)
        degree = self.degree
        ahead = self.ahead
        ev_parts: list[np.ndarray] = []
        tgt_parts: list[np.ndarray] = []
        for pc, region in self.regions.items():
            idx = np.flatnonzero(pcs == pc)
            if len(idx) == 0:
                continue
            start = region.position_of(addrs[idx]).astype(np.int64) + ahead
            hi = start + degree - 1
            prev_next = np.empty(len(idx), dtype=np.int64)
            prev_next[1:] = start[:-1] + degree
            nxt = self._next.get(pc)
            prev_next[0] = nxt if nxt is not None else start[0] - degree - 1
            resume = (start < prev_next) & (prev_next <= hi + 1)
            lo = np.where(resume, prev_next, start)
            self._next[pc] = int(start[-1]) + degree
            counts = hi - lo + 1
            emit = counts > 0
            if not emit.any():
                continue
            lo_e = lo[emit]
            counts_e = counts[emit]
            ends = np.cumsum(counts_e)
            total = int(ends[-1])
            run_id = np.repeat(np.arange(len(counts_e)), counts_e)
            offsets = np.arange(total) - (ends - counts_e)[run_id]
            positions = lo_e[run_id] + offsets
            ev_parts.append(np.repeat(idx[emit], counts_e))
            tgt_parts.append(self._resolve(region, positions))
        if not ev_parts:
            return _EMPTY_BATCH
        ev = np.concatenate(ev_parts)
        tgt = np.concatenate(tgt_parts)
        order = np.argsort(ev, kind="stable")
        return ev[order], tgt[order], np.zeros(len(ev), dtype=bool)


def cross_core_prefetcher_for(
    program: Program,
    machine: MachineConfig | None = None,
    utilisation: Callable[[], float] | None = None,
    degree: int = 4,
    ahead: int = 16,
) -> CrossCoreLLCPrefetcher:
    """Build the helper prefetcher for a program's resolvable pairs.

    Programs without any ``A[B[i]]`` pair get an engine with an empty
    directory — it observes everything and issues nothing, so the config
    degenerates to the baseline (the honest outcome for e.g. ``bfs``,
    whose visitation order is not index-array indirection).
    """
    line_bytes = machine.line_bytes if machine is not None else 64
    return CrossCoreLLCPrefetcher(
        index_directory_for(program),
        line_bytes=line_bytes,
        degree=degree,
        ahead=ahead,
        utilisation=utilisation,
    )
