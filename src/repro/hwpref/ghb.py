"""Global History Buffer prefetcher with PC-localised delta correlation.

An extension beyond the paper's two machine models: the GHB/PC-DC
prefetcher of Nesbit & Smith (HPCA'04), the classic answer to access
patterns with *repeating but non-constant* deltas (e.g. the
+8,+8,+48,+8,+8,+48… walk of an array of structs accessed field-wise).
A reference-prediction-table prefetcher sees no single dominant stride
there and stays silent; delta correlation finds the repeating delta
*sequence* and replays it.

Mechanism, per load PC:

1. keep the recent history of addresses (the per-PC slice of the GHB);
2. on each access, compute the latest pair of deltas ``(d₋₂, d₋₁)``;
3. search the history for the previous occurrence of that pair;
4. replay the deltas that followed it, issuing up to ``degree``
   prefetches along the predicted path.

Used by the prefetcher-comparison ablation
(``benchmarks/bench_prefetcher_comparison.py``) and available to any
experiment via ``CacheHierarchy(prefetcher=GHBPrefetcher(...))``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

import numpy as np

from repro.hwpref.base import _EMPTY_BATCH, HardwarePrefetcher

__all__ = ["GHBPrefetcher"]


class GHBPrefetcher(HardwarePrefetcher):
    """GHB PC/DC (delta-correlation) prefetcher.

    Parameters
    ----------
    line_bytes:
        Cache line size for converting predicted addresses to lines.
    history:
        Addresses of each PC's history window (GHB slice length).
    degree:
        Maximum prefetches replayed per trigger.
    table_size:
        Maximum tracked PCs (FIFO replacement).
    """

    name = "hw-ghb"
    _state_attrs = ("_table",)

    def __init__(
        self,
        line_bytes: int = 64,
        history: int = 16,
        degree: int = 4,
        table_size: int = 256,
        utilisation: Callable[[], float] | None = None,
    ) -> None:
        super().__init__(utilisation)
        if history < 4:
            raise ValueError("history must be at least 4")
        if degree <= 0:
            raise ValueError("degree must be positive")
        self.line_bytes = line_bytes
        self.history = history
        self.degree = degree
        self.table_size = table_size
        self._table: dict[int, deque[int]] = {}

    def observe(self, pc: int, addr: int, line: int, l1_hit: bool) -> list[tuple[int, bool, bool]]:
        hist = self._table.get(pc)
        if hist is None:
            if len(self._table) >= self.table_size:
                self._table.pop(next(iter(self._table)))
            hist = deque(maxlen=self.history)
            self._table[pc] = hist
        hist.append(addr)
        if len(hist) < 4:
            return []

        addrs = list(hist)
        deltas = [b - a for a, b in zip(addrs, addrs[1:])]
        key = (deltas[-2], deltas[-1])
        # Find the most recent earlier occurrence of the delta pair.  The
        # newest candidate is i = len(deltas) - 2, whose pair overlaps
        # the key by one delta — exactly the match a constant stride
        # produces first, so starting any lower detects streams one
        # observation late.
        match = -1
        for i in range(len(deltas) - 2, 0, -1):
            if (deltas[i - 1], deltas[i]) == key:
                match = i
                break
        if match < 0:
            return []

        factor = self._throttle_factor()
        if factor <= 0.0:
            return []
        degree = max(1, round(self.degree * factor))
        # replay the deltas that followed the matched pair
        replay = deltas[match + 1 : match + 1 + degree]
        if not replay:
            return []
        requests: list[tuple[int, bool, bool]] = []
        seen = {line}
        predicted = addr
        for delta in replay:
            predicted += delta
            target = predicted // self.line_bytes
            if target >= 0 and target not in seen:
                seen.add(target)
                requests.append(self._request(target))
        return requests

    def observe_batch(
        self,
        pcs: np.ndarray,
        addrs: np.ndarray,
        lines: np.ndarray,
        l1_hits: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched observe: per-PC vectorised delta correlation.

        GHB state factors cleanly by PC (one history deque each), so the
        batch is grouped by PC and each group replayed with array ops:
        the delta-pair search has a bounded lookback (``history - 1``
        deltas), which unrolls into at most ``history - 2`` shifted
        whole-group comparisons, and the replay gather is a fixed
        ``(group, degree)`` window.  Table insertion order is preserved
        by pre-inserting new PCs in first-occurrence order.  A batch of
        fewer than 64 events, or one that would overflow the FIFO table
        (eviction order depends on the exact interleaving), takes the
        base class's ``observe()`` loop instead, as does a tuned model.
        Equivalent to ``observe()`` while the throttle factor is 1.0.
        """
        if not self.batch_safe or len(pcs) < 64:
            return super().observe_batch(pcs, addrs, lines, l1_hits)
        table = self._table
        order = np.argsort(pcs, kind="stable")
        sp = pcs[order]
        uniq, start, counts = np.unique(sp, return_index=True, return_counts=True)
        firsts = order[start]
        new_sel = np.fromiter(
            (pc not in table for pc in uniq.tolist()), dtype=bool, count=len(uniq)
        )
        if len(table) + int(np.count_nonzero(new_sel)) > self.table_size:
            return super().observe_batch(pcs, addrs, lines, l1_hits)
        history = self.history
        for pc in uniq[new_sel][np.argsort(firsts[new_sel])].tolist():
            table[pc] = deque(maxlen=history)

        window = history - 1  # deltas visible from one access
        degree = self.degree
        line_bytes = self.line_bytes
        ks = np.arange(degree)
        ev_out: list[np.ndarray] = []
        tgt_out: list[np.ndarray] = []
        for gi in range(len(uniq)):
            m = int(counts[gi])
            s0 = int(start[gi])
            g_idx = order[s0 : s0 + m]
            hist = table[int(uniq[gi])]
            n_prev = len(hist)
            a_group = np.concatenate(
                (np.fromiter(hist, dtype=np.int64, count=n_prev), addrs[g_idx])
            )
            tail = a_group[-history:]
            hist.clear()
            hist.extend(tail.tolist())
            if n_prev + m < 4:
                continue
            d = np.diff(a_group)
            t = n_prev + np.arange(m)
            valid = t >= 3
            p = np.maximum(0, t - window)
            key1 = d[np.maximum(t - 1, 0)]
            key0 = d[np.maximum(t - 2, 0)]
            # Most-recent-first pair search, unrolled over the bounded
            # offset range: offset o means candidate position g = t - o.
            best_o = np.zeros(m, dtype=np.int64)
            found = np.zeros(m, dtype=bool)
            for o in range(2, window + 1):
                g = t - o
                cand_o = valid & (g >= p + 1)
                if not cand_o.any():
                    break
                g_c = np.maximum(g, 1)
                hit_o = cand_o & ~found & (d[g_c] == key1) & (d[g_c - 1] == key0)
                best_o[hit_o] = o
                found |= hit_o
            if not found.any():
                continue
            g_match = t - best_o
            # Replay window: deltas g+1 .. min(g+degree, t-1), cumulated
            # onto the trigger address.
            ridx = g_match[:, None] + 1 + ks[None, :]
            rvalid = found[:, None] & (ridx <= (t - 1)[:, None])
            rd = np.where(rvalid, d[np.clip(ridx, 0, len(d) - 1)], 0)
            predicted = addrs[g_idx][:, None] + np.cumsum(rd, axis=1)
            targets = predicted // line_bytes
            base_line = lines[g_idx]
            cand = rvalid & (targets >= 0) & (targets != base_line[:, None])
            keep = cand.copy()
            for k in range(1, degree):
                dup_k = np.zeros(m, dtype=bool)
                for j in range(k):
                    dup_k |= cand[:, j] & (targets[:, j] == targets[:, k])
                keep[:, k] &= ~dup_k
            rr, cc = np.nonzero(keep)
            if len(rr):
                ev_out.append(g_idx[rr])
                tgt_out.append(targets[rr, cc])
        if not ev_out:
            return _EMPTY_BATCH
        ev = np.concatenate(ev_out)
        tgt = np.concatenate(tgt_out)
        o = np.argsort(ev, kind="stable")
        return ev[o], tgt[o], np.ones(len(ev), dtype=bool)
