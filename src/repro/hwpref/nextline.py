"""Adjacent-line (buddy) prefetcher.

On every L1 miss it fetches the other half of the aligned 128-byte pair
(line XOR 1).  Intel parts pair this "spatial" prefetcher with the
streamer; it is cheap and helps spatially-local codes, but on scattered
misses half its fetches are pure waste — the paper credits it for cigar's
speedup under Intel hardware prefetching (useful buddies) while it also
contributes to Intel's 628 % cigar traffic blow-up.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.hwpref.base import HardwarePrefetcher

__all__ = ["AdjacentLinePrefetcher"]


class AdjacentLinePrefetcher(HardwarePrefetcher):
    """Fetch the buddy line of every L1 miss."""

    name = "hw-adjacent"
    _state_attrs = ("_duty",)

    def __init__(self, utilisation: Callable[[], float] | None = None) -> None:
        super().__init__(utilisation)
        self._duty = 0.0

    def observe(self, pc: int, addr: int, line: int, l1_hit: bool) -> list[tuple[int, bool, bool]]:
        if l1_hit:
            return []
        # Duty-cycled back-off: issue buddies on a deterministic fraction
        # of L1 misses equal to the throttle factor, so the documented
        # linear-to-25%-floor curve holds in expectation over any
        # utilisation band (no cliff, no RNG).  At factor 1.0 the
        # accumulator fires on every miss.
        factor = self._throttle_factor()
        if factor <= 0.0:
            return []
        self._duty += factor
        if self._duty < 1.0 - 1e-9:
            return []
        self._duty -= 1.0
        return [self._request(line ^ 1)]

    def observe_batch(
        self,
        pcs: np.ndarray,
        addrs: np.ndarray,
        lines: np.ndarray,
        l1_hits: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Equivalent to observe() while the throttle factor is 1.0: every
        # L1 miss fires and the duty accumulator stays at 0.0.
        if not self.batch_safe:
            # Tuned, or a partial duty cycle carried over: per-access
            # gating; use the scalar fallback so behaviour matches.
            return super().observe_batch(pcs, addrs, lines, l1_hits)
        ev = np.nonzero(~np.asarray(l1_hits, dtype=bool))[0].astype(np.int64)
        targets = np.asarray(lines, dtype=np.int64)[ev] ^ 1
        return ev, targets, np.ones(len(ev), dtype=bool)

    @property
    def batch_safe(self) -> bool:
        # At factor 1.0 an accumulator at 0.0 returns to exactly 0.0 on
        # every firing; any other value would drift in its low bits.
        return super().batch_safe and self._duty == 0.0
