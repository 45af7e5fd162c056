"""Per-PC stride prefetcher (reference prediction table).

Models the AMD Phenom II family's data prefetcher: a table indexed by the
program counter tracks the last address and last stride of each load.
Two consecutive matching strides train an entry; a trained entry issues
``degree`` prefetches ``distance`` strides ahead of the demand stream.

This design is fast to train and very effective on long regular streams,
but it is exactly the prefetcher that cigar's *short-lived* strided
bursts defeat: the bursts are long enough to train the table, after which
the prefetcher runs ahead of a stream that is about to end, fetching data
the program never touches (paper §VII-A reports an 11 % slowdown).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.hwpref.base import _EMPTY_BATCH, HardwarePrefetcher

__all__ = ["PCStridePrefetcher"]


class _Entry:
    __slots__ = ("last_addr", "stride", "confidence")

    def __init__(self, addr: int) -> None:
        self.last_addr = addr
        self.stride = 0
        self.confidence = 0


class PCStridePrefetcher(HardwarePrefetcher):
    """Reference-prediction-table stride prefetcher.

    Lookahead is expressed in *cache lines*: once trained, the prefetcher
    keeps a window of ``degree`` lines starting ``distance_lines`` ahead
    of the demand stream filled, with the effective distance ramping up
    with confidence (real prefetchers start conservatively and run
    further ahead as a stream proves stable).  Because already-resident
    lines are filtered by the hierarchy, the steady-state cost is about
    one new fill per demanded line — plus the overshoot past stream ends
    that makes the scheme wasteful on short streams.

    Parameters
    ----------
    line_bytes:
        Cache line size, for converting predicted addresses to lines.
    degree:
        Width of the prefetch window in lines per trained access.
    distance_lines:
        Base lookahead (in lines) of the window at minimum confidence;
        scales up to 4x with confidence.
    train_threshold:
        Consecutive matching strides required before issuing.
    table_size:
        Maximum tracked PCs (FIFO replacement beyond this).
    """

    name = "hw-stride"
    _state_attrs = ("_table",)

    def __init__(
        self,
        line_bytes: int = 64,
        degree: int = 2,
        distance_lines: int = 3,
        train_threshold: int = 2,
        table_size: int = 256,
        max_ramp: int = 4,
        utilisation: Callable[[], float] | None = None,
    ) -> None:
        super().__init__(utilisation)
        if degree <= 0 or distance_lines <= 0 or train_threshold <= 0:
            raise ValueError("degree, distance_lines and train_threshold must be positive")
        if max_ramp <= 0:
            raise ValueError("max_ramp must be positive")
        self.line_bytes = line_bytes
        self.degree = degree
        self.distance_lines = distance_lines
        self.max_ramp = max_ramp
        self.train_threshold = train_threshold
        self.table_size = table_size
        self._table: dict[int, _Entry] = {}

    def observe(self, pc: int, addr: int, line: int, l1_hit: bool) -> list[tuple[int, bool, bool]]:
        entry = self._table.get(pc)
        if entry is None:
            if len(self._table) >= self.table_size:
                # FIFO replacement: drop the oldest trained PC.
                self._table.pop(next(iter(self._table)))
            self._table[pc] = _Entry(addr)
            return []

        stride = addr - entry.last_addr
        entry.last_addr = addr
        if stride == 0:
            return []
        if stride == entry.stride:
            entry.confidence = min(entry.confidence + 1, 8)
        else:
            entry.stride = stride
            entry.confidence = 1
            return []

        if entry.confidence < self.train_threshold:
            return []

        factor = self._throttle_factor()
        if factor <= 0.0:
            return []
        direction = 1 if stride > 0 else -1
        # Strides below a line advance one line per several accesses;
        # larger strides skip `step` lines per access.
        step = max(1, abs(stride) // self.line_bytes)
        ramp = min(self.max_ramp, entry.confidence - self.train_threshold + 1)
        distance = self.distance_lines * ramp
        degree = max(1, round(self.degree * factor))
        requests: list[tuple[int, bool, bool]] = []
        for k in range(degree):
            target = line + direction * step * (distance + k)
            if target >= 0 and target != line:
                requests.append(self._request(target))
        return requests

    def observe_batch(
        self,
        pcs: np.ndarray,
        addrs: np.ndarray,
        lines: np.ndarray,
        l1_hits: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized per-PC stride training and issue.

        Confidence after each non-zero stride is a function of its run
        of equal consecutive strides, so a whole batch trains with
        grouped array arithmetic.  Equivalent to ``observe()`` while
        the throttle factor is 1.0.  Falls back to the scalar loop when
        tuned or when the table would overflow mid-batch (FIFO evictions
        are order-sensitive).
        """
        if not self.batch_safe:
            return super().observe_batch(pcs, addrs, lines, l1_hits)
        pcs = np.ascontiguousarray(pcs, dtype=np.int64)
        addrs = np.ascontiguousarray(addrs, dtype=np.int64)
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        if len(pcs) == 0:
            return _EMPTY_BATCH
        order = np.argsort(pcs, kind="stable")
        uniq, starts = np.unique(pcs[order], return_index=True)
        new_pcs = sum(1 for p in uniq.tolist() if p not in self._table)
        if len(self._table) + new_pcs > self.table_size:
            return super().observe_batch(pcs, addrs, lines, l1_hits)

        degree = self.degree
        thr = self.train_threshold
        ev_parts: list[np.ndarray] = []
        tgt_parts: list[np.ndarray] = []
        # Insert brand-new PCs in first-occurrence order so future FIFO
        # evictions replay identically to the scalar path.
        first_seen = {int(p): int(order[s]) for p, s in zip(uniq.tolist(), starts.tolist())}
        for p in sorted(first_seen, key=first_seen.get):
            if p not in self._table:
                self._table[p] = _Entry(0)
                self._table[p].last_addr = None  # type: ignore[assignment]

        bounds = np.append(starts, len(pcs))
        for g, p in enumerate(uniq.tolist()):
            idx = order[bounds[g] : bounds[g + 1]]
            idx.sort()
            a = addrs[idx]
            entry = self._table[p]
            if entry.last_addr is None:
                # Created above: the first access trains, issues nothing.
                entry.last_addr = int(a[0])
                entry.stride = 0
                entry.confidence = 0
                if len(a) == 1:
                    continue
                prev = a[:-1]
                cur = a[1:]
                cur_idx = idx[1:]
            else:
                prev = np.concatenate(([entry.last_addr], a[:-1]))
                cur = a
                cur_idx = idx
            strides = cur - prev
            entry.last_addr = int(a[-1])
            nz = strides != 0
            if not nz.any():
                continue
            s = strides[nz]
            s_idx = cur_idx[nz]
            s_lines = lines[s_idx]
            m = len(s)
            # Run decomposition over equal consecutive strides; run 0 may
            # continue the entry's trained stride and inherit confidence.
            new_run = np.empty(m, dtype=bool)
            new_run[0] = int(s[0]) != entry.stride
            new_run[1:] = s[1:] != s[:-1]
            pos = np.arange(m)
            run_start = np.maximum.accumulate(np.where(new_run, pos, 0))
            k_in_run = pos - run_start
            base = np.zeros(m, dtype=np.int64)
            if not new_run[0]:
                base[run_start == 0] = entry.confidence
            conf = np.minimum(base + 1 + k_in_run, 8)
            entry.stride = int(s[-1])
            entry.confidence = int(conf[-1])
            issue = (~new_run) | (~new_run[0] & (run_start == 0))
            issue &= conf >= thr
            if not issue.any():
                continue
            si = s[issue]
            direction = np.where(si > 0, 1, -1)
            step = np.maximum(1, np.abs(si) // self.line_bytes)
            ramp = np.minimum(self.max_ramp, conf[issue] - thr + 1)
            distance = self.distance_lines * ramp
            base_line = s_lines[issue]
            targets = (
                base_line[:, None]
                + direction[:, None] * step[:, None] * (distance[:, None] + np.arange(degree))
            )
            valid = (targets >= 0) & (targets != base_line[:, None])
            ev_rep = np.repeat(s_idx[issue], degree).reshape(-1, degree)
            ev_parts.append(ev_rep[valid])
            tgt_parts.append(targets[valid])

        if not ev_parts:
            return _EMPTY_BATCH
        ev = np.concatenate(ev_parts)
        tgt = np.concatenate(tgt_parts)
        final = np.argsort(ev, kind="stable")
        ev = ev[final]
        tgt = tgt[final]
        return ev, tgt, np.ones(len(ev), dtype=bool)
