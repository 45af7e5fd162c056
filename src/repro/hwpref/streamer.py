"""Streamer prefetcher and composite machine prefetchers.

:class:`StreamerPrefetcher` models the Intel Sandy Bridge L2 "streamer":
it tracks access streams within 4 kB pages, detects a direction from the
first few line accesses, and then runs ahead of the stream with a degree
that grows with confidence.  Combined with the adjacent-line prefetcher
(:mod:`repro.hwpref.nextline`) this reproduces the aggressive behaviour
the paper measures on the i7-2600K: excellent single-thread speedups on
regular codes, but large speculative overshoot — every detected stream is
extended past its true end, and scattered misses drag in buddy lines.

:func:`amd_hw_prefetcher` / :func:`intel_hw_prefetcher` build the per-
machine composites used throughout the evaluation.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.hwpref.base import _EMPTY_BATCH, HardwarePrefetcher
from repro.hwpref.nextline import AdjacentLinePrefetcher
from repro.hwpref.stride_pref import PCStridePrefetcher

__all__ = [
    "StreamerPrefetcher",
    "CompositePrefetcher",
    "amd_hw_prefetcher",
    "intel_hw_prefetcher",
]


class _Stream:
    __slots__ = ("last_line", "direction", "confidence")

    def __init__(self, line: int) -> None:
        self.last_line = line
        self.direction = 0
        self.confidence = 0


class StreamerPrefetcher(HardwarePrefetcher):
    """Page-local stream detector with confidence-scaled degree.

    Parameters
    ----------
    line_bytes:
        Cache line size in bytes.
    page_bytes:
        Tracking granularity (streams do not cross pages).
    max_degree:
        Lines fetched ahead at full confidence.
    max_streams:
        Concurrently tracked pages (FIFO replacement).
    cross_page:
        If True, a confident stream continues prefetching into the next
        page — the over-aggressive behaviour that inflates traffic.
    """

    name = "hw-streamer"
    _state_attrs = ("_streams",)

    def __init__(
        self,
        line_bytes: int = 64,
        page_bytes: int = 4096,
        max_degree: int = 4,
        max_streams: int = 32,
        cross_page: bool = True,
        utilisation: Callable[[], float] | None = None,
    ) -> None:
        super().__init__(utilisation)
        if max_degree <= 0:
            raise ValueError("max_degree must be positive")
        self.line_bytes = line_bytes
        self.lines_per_page = max(1, page_bytes // line_bytes)
        self.max_degree = max_degree
        self.max_streams = max_streams
        self.cross_page = cross_page
        self._streams: dict[int, _Stream] = {}

    def observe(self, pc: int, addr: int, line: int, l1_hit: bool) -> list[tuple[int, bool, bool]]:
        streams = self._streams
        lpp = self.lines_per_page
        page = line // lpp
        stream = streams.get(page)
        if stream is None:
            if len(streams) >= self.max_streams:
                streams.pop(next(iter(streams)))
            streams[page] = _Stream(line)
            return []

        delta = line - stream.last_line
        stream.last_line = line
        if delta == 0:
            return []
        direction = 1 if delta > 0 else -1
        if direction != stream.direction:
            stream.direction = direction
            stream.confidence = 1
            return []
        confidence = stream.confidence
        if confidence < 8:
            confidence += 1
            stream.confidence = confidence

        factor = self._throttle_factor()
        if factor <= 0.0:
            return []
        # The run-ahead window widens with confidence: a proven stream is
        # kept `max_degree` lines ahead of demand.  Resident lines are
        # filtered by the hierarchy, so in steady state only the window's
        # leading edge causes fills.
        window = max(1, round(confidence * self.max_degree / 4 * factor))
        cross_page = self.cross_page
        request = self._request
        requests: list[tuple[int, bool, bool]] = []
        for k in range(1, window + 1):
            target = line + direction * k
            if target < 0:
                break
            if not cross_page and target // lpp != page:
                break
            requests.append(request(target))
        return requests

    def observe_batch(
        self,
        pcs: np.ndarray,
        addrs: np.ndarray,
        lines: np.ndarray,
        l1_hits: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched observe: one flat loop over the run, then NumPy windows.

        The FIFO page table (``max_streams``) makes stream tracking
        order-sensitive across pages, so training stays a flat loop with
        local bindings and no call per event.  It records one signed
        window (direction times width) per access that fires; NumPy
        expands each into its run-ahead targets and masks out those
        below line 0 and, without ``cross_page``, those off the page.
        The targets are monotone in ``k``, so the mask keeps the same
        prefix of each window as ``observe()``'s ``break``.  Equivalent
        to ``observe()`` while the throttle factor is 1.0; a tuned
        streamer takes the scalar fallback.
        """
        if not self.batch_safe:
            return super().observe_batch(pcs, addrs, lines, l1_hits)
        streams = self._streams
        lpp = self.lines_per_page
        max_streams = self.max_streams
        quarter_degree = self.max_degree / 4
        # Window width by confidence, as observe() rounds it.
        widths = [max(1, round(c * quarter_degree)) for c in range(9)]
        fired: list[int] = []
        windows: list[int] = []
        for i, line in enumerate(lines.tolist()):
            page = line // lpp
            stream = streams.get(page)
            if stream is None:
                if len(streams) >= max_streams:
                    streams.pop(next(iter(streams)))
                streams[page] = _Stream(line)
                continue
            delta = line - stream.last_line
            stream.last_line = line
            if delta == 0:
                continue
            direction = 1 if delta > 0 else -1
            if direction != stream.direction:
                stream.direction = direction
                stream.confidence = 1
                continue
            confidence = stream.confidence
            if confidence < 8:
                confidence += 1
                stream.confidence = confidence
            fired.append(i)
            windows.append(direction * widths[confidence])
        if not fired:
            return _EMPTY_BATCH
        signed = np.asarray(windows, dtype=np.int64)
        width = np.abs(signed)
        ev = np.repeat(np.asarray(fired, dtype=np.int64), width)
        # k = 1..width within each window.
        k = np.arange(1, len(ev) + 1) - np.repeat(np.cumsum(width) - width, width)
        line = lines[ev]
        target = line + np.repeat(np.sign(signed), width) * k
        keep = target >= 0
        if not self.cross_page:
            keep &= target // lpp == line // lpp
        ev = ev[keep]
        return ev, target[keep], np.ones(len(ev), dtype=bool)

    def reset(self) -> None:
        self._streams.clear()


class CompositePrefetcher(HardwarePrefetcher):
    """Union of several prefetcher components (deduplicated per access).

    Per access, the first component to request a line wins.  A
    component's own requests for one access must name distinct lines, as
    the streamer, stride, GHB and adjacent-line models' do (the
    cross-core model's may not), so when only one component requests
    anything its list is the union as it stands.
    """

    def __init__(self, components: list[HardwarePrefetcher], name: str = "hw-composite") -> None:
        super().__init__(None)
        if not components:
            raise ValueError("CompositePrefetcher needs at least one component")
        self.components = components
        self.name = name

    def observe(self, pc: int, addr: int, line: int, l1_hit: bool) -> list[tuple[int, bool, bool]]:
        parts = []
        for comp in self.components:
            requests = comp.observe(pc, addr, line, l1_hit)
            if requests:
                parts.append(requests)
        if len(parts) < 2:
            return parts[0] if parts else []
        seen: set[int] = set()
        out: list[tuple[int, bool, bool]] = []
        for requests in parts:
            for req in requests:
                if req[0] not in seen:
                    seen.add(req[0])
                    out.append(req)
        return out

    def observe_batch(
        self,
        pcs: np.ndarray,
        addrs: np.ndarray,
        lines: np.ndarray,
        l1_hits: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenate component batches, dedup per access deterministically.

        Per access, the first component to request a line wins (same rule
        as the scalar path); later duplicates are dropped.
        """
        parts = [c.observe_batch(pcs, addrs, lines, l1_hits) for c in self.components]
        parts = [p for p in parts if len(p[0])]
        if not parts:
            return _EMPTY_BATCH
        if len(parts) == 1:
            ev, tgt, fill = parts[0]
        else:
            ev = np.concatenate([p[0] for p in parts])
            tgt = np.concatenate([p[1] for p in parts])
            fill = np.concatenate([p[2] for p in parts])
            # Parts are concatenated in component order, so a stable sort
            # on the access keeps each access's requests in that order.
            order = np.argsort(ev, kind="stable")
            ev = ev[order]
            tgt = tgt[order]
            fill = fill[order]
        # Drop per-access duplicate lines, keeping the earliest request:
        # order by (access, line, position) with two stable sorts.
        by_tgt = np.argsort(tgt, kind="stable")
        by_line = by_tgt[np.argsort(ev[by_tgt], kind="stable")]
        dup = np.zeros(len(ev), dtype=bool)
        same = (ev[by_line][1:] == ev[by_line][:-1]) & (tgt[by_line][1:] == tgt[by_line][:-1])
        dup[by_line[1:][same]] = True
        if dup.any():
            keep = ~dup
            ev = ev[keep]
            tgt = tgt[keep]
            fill = fill[keep]
        return ev, tgt, fill

    @property
    def batch_safe(self) -> bool:
        return super().batch_safe and all(c.batch_safe for c in self.components)

    @property
    def throttled(self) -> bool:
        return super().throttled or any(c.throttled for c in self.components)

    def throttled_only_by(self, utilisation) -> bool:
        return super().throttled_only_by(utilisation) and all(
            c.throttled_only_by(utilisation) for c in self.components
        )

    def checkpoint(self) -> list:
        return [c.checkpoint() for c in self.components]

    def restore(self, state) -> None:
        for comp, comp_state in zip(self.components, state):
            comp.restore(comp_state)

    def apply_tuning(self, tuning) -> None:
        super().apply_tuning(tuning)
        for comp in self.components:
            comp.apply_tuning(tuning)

    def reset(self) -> None:
        for comp in self.components:
            comp.reset()


def amd_hw_prefetcher(
    line_bytes: int = 64,
    utilisation: Callable[[], float] | None = None,
) -> HardwarePrefetcher:
    """AMD Phenom II model: per-PC stride prefetcher only.

    No adjacent-line component — which is why cigar gains nothing and
    loses cache space under AMD hardware prefetching (paper §VII-A).
    The low training threshold makes it eager: any repeated stride fires,
    so loosely-regular access (gathers, bursts) triggers speculative
    fetches that inflate traffic.
    """
    return PCStridePrefetcher(
        line_bytes=line_bytes,
        degree=2,
        distance_lines=2,
        train_threshold=1,
        max_ramp=3,
        utilisation=utilisation,
    )


def intel_hw_prefetcher(
    line_bytes: int = 64,
    utilisation: Callable[[], float] | None = None,
) -> HardwarePrefetcher:
    """Intel Sandy Bridge model: streamer + adjacent-line prefetchers."""
    return CompositePrefetcher(
        [
            StreamerPrefetcher(
                line_bytes=line_bytes,
                max_degree=8,
                cross_page=False,
                utilisation=utilisation,
            ),
            AdjacentLinePrefetcher(utilisation=utilisation),
        ],
        name="hw-intel",
    )
