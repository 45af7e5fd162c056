"""Functional (timing-free) cache simulation.

Plays the role of the Pin-based functional simulator the paper uses as
ground truth (paper §IV): it simulates one cache level over the *demand*
accesses of a trace and reports exact per-instruction miss counts.  Both
Table I (prefetch coverage) and the StatStack validation experiment
compare model output against this simulator.

Two interchangeable backends implement the simulation (see
``docs/performance.md``):

* ``"reference"`` — the original per-event loop over the dict-based
  :class:`~repro.cachesim.lru.LRUCache`;
* ``"fast"`` — the batched :meth:`FastLRUCache.access_batch
  <repro.cachesim.fastlru.FastLRUCache.access_batch>` kernel, which
  processes the whole trace as arrays and is bit-identical by
  construction *and* by test (``tests/test_sim_backend_diff.py``).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.cachesim.fastlru import FastLRUCache
from repro.cachesim.lru import LRUCache
from repro.cachesim.options import resolve_options
from repro.cachesim.stats import PCStats
from repro.config import CacheConfig
from repro.errors import SimulationError
from repro.trace.events import MemoryTrace

__all__ = [
    "FunctionalCacheSim",
    "fully_associative_config",
]


class FunctionalCacheSim:
    """Exact per-PC hit/miss simulation of a single cache level.

    Parameters
    ----------
    config:
        Cache geometry.
    backend:
        Simulation backend, ``"reference"`` or ``"fast"``; by default
        the process-wide default
        (:func:`repro.cachesim.options.set_default_options`).
    """

    def __init__(self, config: CacheConfig, backend: str | None = None) -> None:
        self.config = config
        self.backend = resolve_options(backend).backend
        self.cache = (
            FastLRUCache(config) if self.backend == "fast" else LRUCache(config)
        )
        self.stats = PCStats()
        #: Per-event miss vector of the most recent :meth:`run` (over the
        #: simulated view: demand-only unless ``honor_prefetches``).
        self.last_miss: np.ndarray = np.zeros(0, dtype=bool)
        #: Eviction victims of the most recent :meth:`run` in program
        #: order (populated only with ``collect_victims=True``).
        self.last_victims: np.ndarray = np.empty(0, dtype=np.int64)

    def run(
        self,
        trace: MemoryTrace,
        honor_prefetches: bool = False,
        collect_victims: bool = False,
    ) -> PCStats:
        """Simulate ``trace``; returns per-PC demand stats.

        With ``honor_prefetches=False`` (default) software prefetch
        events are ignored — the ground-truth simulator observes the
        original, unoptimised program, exactly like the paper's Pin
        tool.  With ``honor_prefetches=True`` prefetch events install
        their line (timing-free) and, like a real prefetch hitting in
        the cache, *refresh the LRU recency* of an already-resident
        line — which measures how many demand misses a prefetch plan
        removes, the paper's coverage metric.

        ``collect_victims`` additionally records evicted line numbers in
        program order on :attr:`last_victims` (differential testing).
        """
        view = trace if honor_prefetches else trace.demand_only()
        lines = view.line_addr(self.config.line_bytes)
        pcs = view.pc
        is_demand = view.demand_mask
        with obs.span(
            "cachesim.functional",
            backend=self.backend,
            level=self.config.name,
            events=len(view),
        ):
            if self.backend == "fast":
                miss, victims = self.cache.access_batch(
                    lines, collect_victims=collect_victims
                )
            else:
                miss, victims = self._run_reference(lines, collect_victims)
            if obs.enabled():
                obs.metrics().counter(f"sim.functional.events.{self.backend}").inc(
                    len(view)
                )
        self.last_miss = miss
        self.last_victims = victims
        self.stats.record_bulk(pcs[is_demand], miss[is_demand])
        return self.stats

    def _run_reference(
        self, lines: np.ndarray, collect_victims: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-event oracle loop over the dict-based LRU cache.

        Demand and prefetch events have identical cache-state effects —
        a recency-refreshing probe, install on miss (a prefetch that
        hits a resident line promotes it to MRU, like real hardware) —
        they differ only in which rows feed the per-PC stats, which the
        caller filters.  Kept in the original one-event-at-a-time form
        on purpose: this is the oracle the fast backend is checked
        against, so clarity beats speed here.
        """
        cache = self.cache
        miss = np.zeros(len(lines), dtype=bool)
        victims: list[int] = []
        for i in range(len(lines)):
            line = int(lines[i])
            if not cache.lookup(line):
                miss[i] = True
                victim = cache.install(line)
                if collect_victims and victim is not None:
                    victims.append(victim[0])
        return miss, np.asarray(victims, dtype=np.int64)

    def miss_ratio(self) -> float:
        """Overall demand miss ratio observed so far."""
        return self.stats.overall_miss_ratio()


def fully_associative_config(size_bytes: int, line_bytes: int = 64) -> CacheConfig:
    """A fully associative cache of ``size_bytes`` (``ways == num_lines``).

    This is the geometry StatStack models — one LRU stack, no set
    conflicts — so the conformance harness simulates it when comparing
    model output against exact simulation.
    """
    if size_bytes <= 0 or size_bytes % line_bytes:
        raise SimulationError(
            f"size_bytes must be a positive multiple of line_bytes, got {size_bytes}"
        )
    return CacheConfig(
        name="FA",
        size_bytes=size_bytes,
        ways=size_bytes // line_bytes,
        line_bytes=line_bytes,
    )
