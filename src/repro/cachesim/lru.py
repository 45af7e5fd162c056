"""Set-associative LRU cache with per-line metadata flags.

Each set is a plain ``dict`` mapping line number to a flags integer.
CPython dicts preserve insertion order, so least-recently-used is always
the first key: a hit re-inserts the key (``pop`` + assign) and eviction
removes ``next(iter(set))`` — both O(1).  This keeps the simulator's hot
loop free of heap-based LRU bookkeeping.

Line flags record how a line entered the cache and what happened since:

* ``FLAG_SW_PREFETCH`` / ``FLAG_HW_PREFETCH`` — installed by a prefetch.
* ``FLAG_NTA`` — installed by ``PREFETCHNTA`` (L1-only residency).
* ``FLAG_REFERENCED`` — a demand access has touched the line since fill.
* ``FLAG_DIRTY`` — a store wrote the line (eviction causes a writeback).

Prefetch usefulness accounting (paper's accuracy argument) falls out of
these: a prefetched line evicted without ``FLAG_REFERENCED`` was a
useless fetch that cost bandwidth and cache space.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.config import CacheConfig
from repro.errors import SimulationError

__all__ = [
    "FLAG_NTA",
    "FLAG_SW_PREFETCH",
    "FLAG_HW_PREFETCH",
    "FLAG_REFERENCED",
    "FLAG_DIRTY",
    "OP_DEMAND",
    "OP_FILL",
    "OP_PFILL",
    "OP_PROBE",
    "OP_TOUCH",
    "OP_LOOKUP",
    "OP_INVAL",
    "LRUCache",
]

FLAG_NTA = 1
FLAG_SW_PREFETCH = 2
FLAG_HW_PREFETCH = 4
FLAG_REFERENCED = 8
FLAG_DIRTY = 16

#: Op kinds of an ``ops_batch`` stream (:meth:`LRUCache.ops_batch`,
#: :meth:`~repro.cachesim.fastlru.FastLRUCache.ops_batch`).  Each op
#: reproduces one scalar access pattern of the cache hierarchy:
#:
#: * ``OP_DEMAND`` — probe; on hit promote to MRU and OR the op's flags
#:   in (``lookup``); on miss install with the op's flags, evicting the
#:   LRU way (``install``).  The demand path of every level.
#: * ``OP_FILL``   — probe; on hit do nothing (``contains``); on miss
#:   install with the op's flags.  Hardware-prefetch fills and software
#:   prefetches at the L1.
#: * ``OP_PFILL``  — on hit promote without OR-ing flags (``lookup``);
#:   on miss install with the op's flags.  Software prefetches that
#:   fetch through L2/LLC.
#: * ``OP_PROBE``  — pure residency probe, no state change.
#: * ``OP_TOUCH``  — on hit OR the op's flags in without refreshing LRU;
#:   on miss do nothing.  Dirty-victim write-back absorption.
#: * ``OP_LOOKUP`` — on hit promote without OR-ing flags; on miss do
#:   nothing.  Software prefetches that must not install (NTA).
#: * ``OP_INVAL``  — on hit empty the way (``invalidate``); on miss do
#:   nothing.  Non-temporal stores.
#:
#: The kinds that install on a miss are exactly those ``<= OP_PFILL``.
OP_DEMAND, OP_FILL, OP_PFILL, OP_PROBE, OP_TOUCH, OP_LOOKUP, OP_INVAL = range(7)

#: Ops per Python-list chunk of :meth:`LRUCache.ops_batch`: whole-stream
#: lists of line numbers would cost about 40 bytes an op.
_OPS_CHUNK = 1 << 14


class LRUCache:
    """One level of set-associative LRU cache operating on line numbers.

    All methods take *line numbers* (byte address divided by line size);
    the hierarchy is responsible for that conversion so a single trace
    conversion is shared by all levels.
    """

    __slots__ = ("config", "ways", "_sets", "_set_mask")

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.ways = config.ways
        n_sets = config.num_sets
        self._sets: list[dict[int, int]] = [dict() for _ in range(n_sets)]
        self._set_mask = n_sets - 1

    # ------------------------------------------------------------------
    # core operations
    # ------------------------------------------------------------------

    def lookup(self, line: int, set_flags: int = 0) -> bool:
        """Probe for ``line``; on hit, refresh LRU and OR in ``set_flags``.

        Returns True on hit.  This is the demand-access path.
        """
        s = self._sets[line & self._set_mask]
        flags = s.pop(line, None)
        if flags is None:
            return False
        s[line] = flags | set_flags
        return True

    def install(self, line: int, flags: int = 0) -> tuple[int, int] | None:
        """Insert ``line`` as most-recently-used.

        If the line is already resident its flags are OR-merged and LRU is
        refreshed.  Returns the evicted ``(line, flags)`` pair if the set
        overflowed, else None.
        """
        s = self._sets[line & self._set_mask]
        old = s.pop(line, None)
        if old is not None:
            s[line] = old | flags
            return None
        victim = None
        if len(s) >= self.ways:
            victim_line = next(iter(s))
            victim = (victim_line, s.pop(victim_line))
        s[line] = flags
        return victim

    def contains(self, line: int) -> bool:
        """Non-updating residency probe."""
        return line in self._sets[line & self._set_mask]

    def peek_flags(self, line: int) -> int | None:
        """Flags of a resident line, or None (no LRU update)."""
        return self._sets[line & self._set_mask].get(line)

    def invalidate(self, line: int) -> int | None:
        """Remove ``line``; returns its flags if it was resident."""
        return self._sets[line & self._set_mask].pop(line, None)

    def ops_batch(
        self,
        lines: np.ndarray,
        kinds: np.ndarray,
        oflags: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Apply an ordered stream of operations (kinds :data:`OP_DEMAND` …).

        Same contract and results as
        :meth:`FastLRUCache.ops_batch <repro.cachesim.fastlru.FastLRUCache.ops_batch>`,
        as one plain loop over the sets' dicts: on a cache with few sets
        (an L1) the array kernel's wavefront rounds are narrow, and this
        loop is faster.  Returns ``(hit, prior, vic_idx, vic_line,
        vic_flags)``: per op its residency and flags (0 on miss) before
        the op, and the evictions in stream order.
        """
        sets = self._sets
        mask = self._set_mask
        ways = self.ways
        n = len(lines)
        prior = np.empty(n, dtype=np.int64)
        vic_i: list[int] = []
        vic_l: list[int] = []
        vic_f: list[int] = []
        for start in range(0, n, _OPS_CHUNK):
            end = min(start + _OPS_CHUNK, n)
            out: list[int] = []
            append = out.append
            for i, line, kind, of in zip(
                range(start, end),
                lines[start:end].tolist(),
                kinds[start:end].tolist(),
                oflags[start:end].tolist(),
            ):
                s = sets[line & mask]
                flags = s.get(line)
                if flags is None:
                    append(-1)
                    if kind <= OP_PFILL:
                        if len(s) >= ways:
                            victim = next(iter(s))
                            vic_i.append(i)
                            vic_l.append(victim)
                            vic_f.append(s.pop(victim))
                        s[line] = of
                    continue
                append(flags)
                if kind == OP_DEMAND:
                    del s[line]
                    s[line] = flags | of
                elif kind == OP_PFILL or kind == OP_LOOKUP:
                    del s[line]
                    s[line] = flags
                elif kind == OP_TOUCH:
                    s[line] = flags | of
                elif kind == OP_INVAL:
                    del s[line]
            prior[start:end] = out
        hit = prior >= 0
        prior[~hit] = 0
        return (
            hit,
            prior,
            np.array(vic_i, dtype=np.int64),
            np.array(vic_l, dtype=np.int64),
            np.array(vic_f, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def resident_lines(self) -> Iterator[int]:
        """Iterate all resident line numbers (LRU→MRU within each set)."""
        for s in self._sets:
            yield from s

    def dirty_lines(self) -> np.ndarray:
        """Resident line numbers carrying ``FLAG_DIRTY`` (any order)."""
        return np.fromiter(
            (line for s in self._sets for line, f in s.items() if f & FLAG_DIRTY),
            dtype=np.int64,
        )

    def check_invariants(self) -> None:
        """Verify structural invariants (test helper).

        Raises :class:`~repro.errors.SimulationError` if any set exceeds
        associativity or holds a line that maps to a different set.
        """
        for idx, s in enumerate(self._sets):
            if len(s) > self.ways:
                raise SimulationError(f"set {idx} exceeds associativity")
            for line in s:
                if (line & self._set_mask) != idx:
                    raise SimulationError(f"line {line} stored in wrong set {idx}")
