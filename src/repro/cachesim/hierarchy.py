"""Single-core three-level cache hierarchy with timing.

This is the workhorse simulator behind the single-benchmark experiments
(paper Figs. 4–6).  It models:

* L1/L2/LLC set-associative LRU caches (mostly-inclusive fill policy);
* demand access timing — ``Δ`` cycles per memory operation plus the
  service latency of the level that provides the data, divided by a
  memory-level-parallelism factor (dependent pointer chases expose the
  full latency, streaming code overlaps several misses);
* software prefetches with *in-flight tracking*: a prefetch issued too
  close to its demand access only hides part of the latency (late
  prefetch), which is how the paper's prefetch-distance formula is
  exercised end to end;
* ``PREFETCHNTA`` semantics: the line is installed in L1 only and is
  dropped on eviction, never occupying L2/LLC — the cache-bypassing
  mechanism of paper §VI-B;
* a hardware prefetcher model observing the L1 miss stream and filling
  L2/LLC speculatively;
* off-chip traffic and bandwidth-dependent DRAM latency through
  :class:`~repro.cachesim.bandwidth.BandwidthModel`.

Two drivers replay a trace.  The scalar loop (``path="scalar"``) feeds
each event to the per-event handlers below; it is the reference oracle
and the fast backend's fallback.  The batched pipeline
(``path="batch"``) replays a whole trace as five array passes over
:class:`~repro.cachesim.fastlru.FastLRUCache` levels, bit-identical to
the scalar loop; it runs when the backend is ``fast``, the LLC is
private and the hardware prefetcher is batch-safe and throttled, if at
all, by this hierarchy's own bandwidth model.

A utilisation-throttled prefetcher keeps full aggressiveness while the
controller's utilisation EWMA stays at or below the 70 % knee of
:func:`~repro.hwpref.base.throttle_factor`, and the EWMA changes only at
off-chip transfers.  Such a run is batched one checkpointed span of
``_KNEE_SPAN`` events at a time, and every span reports the largest
EWMA it reached.  A span whose EWMA never crossed the knee is exactly
the scalar run; the first span that crossed it is rolled back, the
levels move into dict-backed caches, and the scalar loop replays the
rest of the trace (reason ``knee-crossed``).
"""

from __future__ import annotations

import copy
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import fields, replace
from time import perf_counter

import numpy as np

from repro import obs
from repro.cachesim.bandwidth import BandwidthModel
from repro.cachesim.fastlru import (
    OP_DEMAND,
    OP_FILL,
    OP_INVAL,
    OP_LOOKUP,
    OP_PFILL,
    OP_PROBE,
    OP_TOUCH,
    FastLRUCache,
)
from repro.cachesim.lru import (
    FLAG_DIRTY,
    FLAG_HW_PREFETCH,
    FLAG_NTA,
    FLAG_REFERENCED,
    FLAG_SW_PREFETCH,
    LRUCache,
)
from repro.cachesim.options import SimOptions, resolve_options
from repro.cachesim.stats import RunStats
from repro.config import MachineConfig
from repro.errors import SimulationError
from repro.hwpref.base import HardwarePrefetcher, NullPrefetcher, throttle_factor
from repro.trace.events import MemOp, MemoryTrace

__all__ = ["CacheHierarchy", "clock_charges", "l2_resident_requests"]

#: Events per checkpointed batch span of a throttled prefetcher's run:
#: long enough to amortise the batch passes and the checkpoint, short
#: enough that a span rolled back at the knee wastes little work.
_KNEE_SPAN = 1 << 16

#: L2/LLC stream minor key of an event's own op (demand access,
#: software prefetch or NT store); hardware-prefetch requests use their
#: per-event issue index (< this) so they sort first, and the L1-victim
#: touch sorts after the event's op at ``+ 1``.
_MINOR_DA = 1 << 20

#: Timing-op sequence key of an event's own op within the event.
_SEQ_DA = 1 << 22

#: Longest span of events whose clock charges :func:`clock_charges`
#: keys by bit pattern: one bit per event, under a length bit, in an
#: int64.
_PATTERN_BITS = 62

#: Batch-path L2 op categories: hardware-prefetch request, demand
#: access, NTA / T0 software prefetch, NT store, L1-victim dirty touch.
_CAT_HW, _CAT_DEMAND, _CAT_NTA, _CAT_T0, _CAT_NT, _CAT_TOUCH = range(6)

#: LLC op kind of each category; also the L2 kind, except that a
#: hardware request that does not fill L2 probes it and a T0 prefetch
#: is speculated (see ``CacheHierarchy._l2_llc_passes``).
_OP_OF_CAT = np.array(
    [OP_FILL, OP_DEMAND, OP_LOOKUP, OP_PFILL, OP_INVAL, OP_TOUCH], dtype=np.uint8
)


_STORE = int(MemOp.STORE)
_STORE_NT = int(MemOp.STORE_NT)

#: L1 op kind of each event, by op code: loads and stores are demand
#: lookups, software prefetches contains-then-install fills, NT stores
#: invalidations.
_L1_KIND = np.array([OP_DEMAND, OP_DEMAND, OP_FILL, OP_FILL, OP_INVAL], dtype=np.uint8)

#: Flags the L1 op sets, by op code: a load or store (dirty) references
#: its line; a T0 or NTA software prefetch marks it.
_L1_FLAGS = np.array(
    [
        FLAG_REFERENCED,
        FLAG_REFERENCED | FLAG_DIRTY,
        FLAG_SW_PREFETCH,
        FLAG_SW_PREFETCH | FLAG_NTA,
        0,
    ],
    dtype=np.int64,
)

#: The batch path's passes, as ``cachesim.run`` span attributes: the L1
#: op stream, prefetcher observation, the L2/LLC op streams, building
#: the timing stream (emit, sort, liveness and clock charges) and its
#: serial loop.
_PASSES = ("l1_s", "observe_s", "l2_llc_s", "timing_build_s", "timing_loop_s")


def _unreferenced(flags: np.ndarray, bit: int) -> np.ndarray:
    """Lines carrying ``bit`` that no demand access has touched."""
    return ((flags & bit) != 0) & ((flags & FLAG_REFERENCED) == 0)


def l2_resident_requests(
    set_mask: int,
    req_ev: np.ndarray,
    req_line: np.ndarray,
    req_fill: np.ndarray,
    op_ev: np.ndarray,
    op_line: np.ndarray,
    op_holds: np.ndarray,
) -> np.ndarray:
    """The hardware-prefetch requests that provably hit a private L2.

    ``req_*`` are one batch's requests in issue order (``req_ev`` their
    triggering events, non-decreasing) and ``op_*`` the events' own L2
    ops: demand L1 misses, software prefetches that missed L1 and NT
    stores, at increasing events; ``op_holds`` marks the demand misses.
    Within an event the requests precede its own op, as in
    :meth:`CacheHierarchy._demand_access`.

    A request is resident when the previous op in its L2 set is a demand
    L1 miss or an L2-filling request on the same line: either leaves the
    line in L2.  L1 victims' dirty touches are left out of the stream,
    because they change neither residency nor LRU order; a software
    prefetch, an NT store or a request that does not fill L2 ends the
    chain.  ``_hw_requests`` skips a request whose line its L2 set
    holds, so dropping it changes nothing.

    One sort of composite keys (L2 set, position in the batch's L2 op
    stream) puts each op right after its set's previous op.  Returns a
    mask over the requests.
    """
    m_h = len(req_ev)
    if not m_h:
        return np.zeros(0, dtype=bool)
    pos = np.concatenate(
        (
            np.arange(m_h) + np.searchsorted(op_ev, req_ev),
            np.arange(len(op_ev)) + np.searchsorted(req_ev, op_ev, side="right"),
        )
    )
    line = np.concatenate((req_line, op_line))
    order = np.argsort(((line & set_mask) << len(pos).bit_length()) | pos)
    del pos
    line = line[order]
    holds = np.concatenate((req_fill, op_holds))[order[:-1]]
    order = order[1:]
    after = (line[1:] == line[:-1]) & holds & (order < m_h)
    resident = np.zeros(m_h, dtype=bool)
    resident[order[after]] = True
    return resident


def clock_charges(
    starts: np.ndarray,
    ends: np.ndarray,
    is_pf: np.ndarray,
    demand_cost: float,
    pf_cost: float,
) -> list[tuple[float, ...]]:
    """What each span of events adds to the clock, one tuple per span.

    Span ``j`` holds events ``starts[j]`` to ``ends[j] - 1`` (possibly
    none); spans are disjoint and in program order.  A software prefetch
    (``is_pf``) charges ``pf_cost`` and any other event ``demand_cost``,
    as the scalar handlers do, and each tuple lists its span's charges in
    program order, so adding them one at a time makes the scalar loop's
    float additions.

    Few patterns recur, so each distinct one is built once and shared.
    Spans without a prefetch take one tuple per length present, from a
    table indexed by length; spans of at most :data:`_PATTERN_BITS`
    events with one are keyed by their prefetch bits under a length bit,
    and the rare longer ones are built one at a time.
    """
    lengths = ends - starts
    pf_before = np.concatenate(([0], np.cumsum(is_pf)))
    first_pf = pf_before[starts]
    n_pf = pf_before[ends] - first_pf
    mixed = n_pf > 0
    # Each span's row of ``table``; a prefetch-free span's is its length.
    row = np.where(mixed, 0, lengths)
    table = np.empty(int(row.max(initial=0)) + 1, dtype=object)
    for length in np.nonzero(np.bincount(row[~mixed]))[0].tolist():
        table[length] = (demand_cost,) * length
    short = np.nonzero(mixed & (lengths <= _PATTERN_BITS))[0]
    if len(short):
        # The prefetches of a span are a contiguous run of all of them.
        count = n_pf[short]
        offsets = np.cumsum(count) - count
        take = np.arange(int(offsets[-1] + count[-1])) + np.repeat(
            first_pf[short] - offsets, count
        )
        shift = np.nonzero(is_pf)[0][take] - np.repeat(starts[short], count)
        bits = np.bitwise_or.reduceat(np.left_shift(1, shift), offsets)
        keys, inverse = np.unique(bits | np.left_shift(1, lengths[short]), return_inverse=True)
        row[short] = len(table) + inverse
        by_key = np.empty(len(keys), dtype=object)
        for u, key in enumerate(keys.tolist()):
            by_key[u] = tuple(
                [pf_cost if key >> k & 1 else demand_cost for k in range(key.bit_length() - 1)]
            )
        table = np.concatenate((table, by_key))
    charges = table[row].tolist()
    patterns: dict[tuple[float, ...], tuple[float, ...]] = {}
    for j in np.nonzero(mixed & (lengths > _PATTERN_BITS))[0].tolist():
        costs = tuple(np.where(is_pf[starts[j] : ends[j]], pf_cost, demand_cost).tolist())
        charges[j] = patterns.setdefault(costs, costs)
    return charges


class _PassClock:
    """Wall seconds per batch pass, summed over a run's batch spans.

    Only a traced run builds one; ``lap(name)`` charges the time since
    :meth:`start` or the previous lap to pass ``name``.
    """

    __slots__ = ("seconds", "_t")

    def __init__(self) -> None:
        self.seconds = dict.fromkeys(_PASSES, 0.0)
        self._t = 0.0

    def start(self) -> None:
        self._t = perf_counter()

    def lap(self, name: str) -> None:
        t = perf_counter()
        self.seconds[name] += t - self._t
        self._t = t


class _NoPassClock:
    """The untraced runs' pass clock: reads no clock, keeps nothing."""

    __slots__ = ()

    def start(self) -> None:
        pass

    def lap(self, name: str) -> None:
        pass


_NO_PASS_CLOCK = _NoPassClock()


class _ReplayedL1:
    """The L1 as the handlers see it under :meth:`CacheHierarchy.replayed_l1`."""

    __slots__ = ("_victims",)

    def __init__(self, victims: Iterator[tuple[int, int] | None]) -> None:
        self._victims = victims

    def install(self, line: int, flags: int) -> tuple[int, int] | None:
        return next(self._victims)

    def contains(self, line: int) -> bool:
        return False

    def invalidate(self, line: int) -> None:
        return None


class CacheHierarchy:
    """One core's private L1/L2 plus an (optionally shared) LLC.

    Parameters
    ----------
    machine:
        Machine description (geometry, latencies, Δ, α).
    prefetcher:
        Hardware prefetcher model; defaults to disabled
        (:class:`~repro.hwpref.base.NullPrefetcher`), the paper's baseline.
    bandwidth:
        Shared memory-controller model.  Supply one instance to several
        hierarchies to model cores contending for off-chip bandwidth; by
        default a private model is created.
    llc:
        Pass a pre-built LLC to share it between hierarchies (multicore
        mode); by default a private LLC is created.
    options:
        :class:`~repro.cachesim.options.SimOptions` (or a bare backend
        name) overriding the process default.  Resolved once, here:
        the backend also picks the cache class.
    """

    def __init__(
        self,
        machine: MachineConfig,
        prefetcher: HardwarePrefetcher | None = None,
        bandwidth: BandwidthModel | None = None,
        llc: LRUCache | None = None,
        options: SimOptions | str | None = None,
    ) -> None:
        self.machine = machine
        self.prefetcher = prefetcher if prefetcher is not None else NullPrefetcher()
        self.backend = resolve_options(options).backend
        self.bandwidth = (
            bandwidth if bandwidth is not None else BandwidthModel(machine.bytes_per_cycle())
        )
        # The batched whole-hierarchy path needs array-backed levels; it
        # is only worth building them when the attached prefetcher can be
        # observed in batch and the LLC is private (a shared LLC
        # interleaves accesses from other cores).
        batch_capable = (
            self.backend == "fast" and llc is None and self._prefetcher_batchable()
        )
        cache_cls = FastLRUCache if batch_capable else LRUCache
        self.l1 = cache_cls(machine.l1)
        self.l2 = cache_cls(machine.l2)
        self.llc = llc if llc is not None else cache_cls(machine.llc)
        self._shared_llc = llc is not None
        self._knee_crossed = False
        self.now: float = 0.0
        self.last_run_path: str | None = None
        self._inflight: dict[int, float] = {}
        self._line_shift = machine.line_bytes.bit_length() - 1
        # What the event handlers charge, read once here rather than
        # through ``machine`` on every event.
        self._line_bytes = machine.line_bytes
        self._l2_latency = machine.l2.hit_latency
        self._llc_latency = machine.llc.hit_latency
        self._dram_latency = machine.dram_latency
        self._prefetch_cost = machine.prefetch_cost
        # write-combining buffer for non-temporal stores (4 entries,
        # like x86 WC buffers): consecutive NT writes to the same line
        # merge into one off-chip transfer.
        self._wc_buffer: list[int] = []

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------

    def run(
        self,
        trace: MemoryTrace,
        work_per_memop: float = 2.0,
        mlp: float = 2.0,
        stats: RunStats | None = None,
    ) -> RunStats:
        """Simulate ``trace`` to completion and return statistics.

        Parameters
        ----------
        trace:
            Events in program order.
        work_per_memop:
            Average non-memory instructions executed per memory
            operation; charged at the machine's base CPI.
        mlp:
            Memory-level parallelism — how many outstanding misses the
            core overlaps.  Miss stalls are divided by this factor.
        stats:
            Accumulate into an existing :class:`RunStats` (used when a
            run is split into chunks); a fresh one is created otherwise.
        """
        if mlp < 1.0:
            raise SimulationError("mlp must be >= 1")
        if work_per_memop < 0.0:
            raise SimulationError("work_per_memop must be non-negative")
        if stats is None:
            stats = RunStats(line_bytes=self.machine.line_bytes)
        path, reason = self._select_path()
        n = len(trace)
        clock = _PassClock() if path == "batch" and obs.enabled() else _NO_PASS_CLOCK
        with obs.span(
            "cachesim.run",
            machine=self.machine.name,
            events=n,
            backend=self.backend,
        ) as run_span:
            batch_events = rounds = groups = dropped = 0
            peak = None
            if path == "batch":
                if self.prefetcher.throttled:
                    batch_events, rounds, groups, peak, dropped = self._run_spans(
                        trace, work_per_memop, mlp, stats, clock
                    )
                    if batch_events < n:
                        path, reason = "scalar", "knee-crossed"
                else:
                    rounds, groups, peak, dropped = self._run_events_batch(
                        trace, work_per_memop, mlp, stats, clock
                    )
                    batch_events = n
            elif isinstance(self.l1, FastLRUCache):
                # Batch-capable at construction, but not now (a tuning
                # applied since): the scalar loop runs 2.8x slower on
                # array-backed levels than on dict-backed ones.
                self._move_to_dict_levels()
            if batch_events < n:
                self._run_events(trace[batch_events:], work_per_memop, mlp, stats)
            n_pf = trace.n_prefetch
            stats.instructions += int((n - n_pf) * (1.0 + work_per_memop)) + n_pf
            stats.cycles = self.now
            self.last_run_path = path
            if obs.enabled():
                metrics = obs.metrics()
                metrics.counter(f"sim.hierarchy.events.{self.backend}").inc(n)
                metrics.counter(f"sim.hierarchy.path.{path}").inc()
                if peak is not None:
                    metrics.counter("sim.hierarchy.spec_rounds").inc(rounds)
                    metrics.counter("sim.hierarchy.spec_groups").inc(groups)
                    metrics.counter("sim.hwpref.l2_resident_dropped").inc(dropped)
                    run_span.set(
                        spec_rounds=rounds,
                        spec_groups=groups,
                        max_utilisation=min(peak / self.bandwidth.peak, 1.0),
                        hw_dropped=dropped,
                    )
                if reason is not None:
                    metrics.counter(f"sim.hierarchy.reason.{reason}").inc()
                    run_span.set(reason=reason)
            if isinstance(clock, _PassClock):
                run_span.set(**clock.seconds)
            run_span.set(path=path, batch_events=batch_events, cycles=stats.cycles)
        return stats

    def _prefetcher_batchable(self) -> bool:
        """Whether the batch path may observe the prefetcher.

        It must be batch-safe, and throttled, if at all, only by this
        hierarchy's own bandwidth model: the one the knee check reads.
        """
        pf = self.prefetcher
        return pf.batch_safe and pf.throttled_only_by(self.bandwidth.utilisation)

    def _select_path(self) -> tuple[str, str | None]:
        """The driver for one run and, off the batch path, the reason.

        The backend and the cache class were fixed at construction; the
        prefetcher is checked per run because its tuning can change
        between runs.  A run that leaves the batch path moves
        array-backed levels into dict-backed ones first (the scalar loop
        is 2.8x slower on arrays), and the hierarchy stays on the scalar
        loop from then on; so does one whose knee was crossed.
        """
        if self.backend != "fast":
            return "scalar", "reference-backend"
        if self._shared_llc:
            return "scalar", "shared-llc"
        if self._knee_crossed:
            return "scalar", "knee-crossed"
        # Dict-backed caches under ``fast`` mean the prefetcher was not
        # batch-safe when they were built or at an earlier run.
        if not (self._prefetcher_batchable() and isinstance(self.l1, FastLRUCache)):
            return "scalar", "prefetcher-not-batch-safe"
        return "batch", None

    def _run_spans(
        self,
        trace: MemoryTrace,
        work_per_memop: float,
        mlp: float,
        stats: RunStats,
        clock: _PassClock | _NoPassClock = _NO_PASS_CLOCK,
    ) -> tuple[int, int, int, float, int]:
        """Batch a throttled prefetcher's run, one checkpointed span at a time.

        Each span of ``_KNEE_SPAN`` events runs on the batch path at
        full aggressiveness.  The prefetcher reads
        ``BandwidthModel.utilisation()``, which changes only at
        transfers, so a span whose EWMA (entry value and every
        post-transfer value) kept the throttle factor at 1.0 matches the
        scalar run bit for bit.  The first span that crossed the knee is
        rolled back to its checkpoint and the levels move into
        dict-backed caches, ready for the scalar loop.

        Returns the events committed on the batch path, and the
        speculation's ``(rounds, groups)``, the largest EWMA and the
        requests dropped as L2-resident over the spans run.
        """
        bw = self.bandwidth
        n = len(trace)
        done = rounds = groups = dropped = 0
        peak = 0.0
        while done < n:
            end = min(done + _KNEE_SPAN, n)
            saved = self._checkpoint(stats)
            r, g, span_peak, d = self._run_events_batch(
                trace[done:end], work_per_memop, mlp, stats, clock
            )
            rounds += r
            groups += g
            dropped += d
            peak = max(peak, span_peak)
            if throttle_factor(min(peak / bw.peak, 1.0)) != 1.0:
                self._restore(saved, stats)
                self._move_to_dict_levels()
                self._knee_crossed = True
                break
            done = end
        return done, rounds, groups, peak, dropped

    def _checkpoint(self, stats: RunStats) -> tuple:
        """Everything one batch span can change, for :meth:`_restore`.

        ``stats`` is copied through the constructors and restored field
        by field, never through ``__dict__``: CPython's fast attribute
        access on an object ends once its ``__dict__`` is read or filled
        directly, and the scalar loop reads ``stats`` several times per
        event.
        """
        bw = self.bandwidth
        return (
            [cache.snapshot() for cache in (self.l1, self.l2, self.llc)],
            self.prefetcher.checkpoint(),
            (bw._free_time, bw._ewma_bpc, bw._last_time, bw.total_bytes, bw.total_transfers),
            self.now,
            dict(self._inflight),
            list(self._wc_buffer),
            replace(
                stats,
                l1=replace(stats.l1),
                l2=replace(stats.l2),
                llc=replace(stats.llc),
                pc_l1=copy.deepcopy(stats.pc_l1),
            ),
        )

    def _restore(self, saved: tuple, stats: RunStats) -> None:
        """Roll the hierarchy, its prefetcher and ``stats`` back in place."""
        snaps, pf_state, bw_state, now, inflight, wc, stats_copy = saved
        for cache, snap in zip((self.l1, self.l2, self.llc), snaps):
            cache.restore_sets(snap, np.arange(cache.config.num_sets))
        self.prefetcher.restore(pf_state)
        bw = self.bandwidth
        (bw._free_time, bw._ewma_bpc, bw._last_time, bw.total_bytes, bw.total_transfers) = (
            bw_state
        )
        self.now = now
        self._inflight.clear()
        self._inflight.update(inflight)
        self._wc_buffer[:] = wc
        for field in fields(stats):
            setattr(stats, field.name, getattr(stats_copy, field.name))

    def _move_to_dict_levels(self) -> None:
        """Replace the array-backed levels by dict-backed copies."""
        self.l1 = self.l1.to_lru()
        self.l2 = self.l2.to_lru()
        self.llc = self.llc.to_lru()

    def _run_events(
        self,
        trace: MemoryTrace,
        work_per_memop: float,
        mlp: float,
        stats: RunStats,
    ) -> None:
        shift = self._line_shift
        demand_cost = (
            self.machine.cycles_per_memop + self.machine.cpi_base * work_per_memop
        )
        store_op = int(MemOp.STORE)
        nta_op = int(MemOp.PREFETCH_NTA)
        store_nt_op = int(MemOp.STORE_NT)

        # Plain Python lists: no per-event NumPy scalar extraction.
        for op, pc, addr in zip(trace.op.tolist(), trace.pc.tolist(), trace.addr.tolist()):
            line = addr >> shift
            if op <= store_op:
                self._demand_access(pc, addr, line, op == store_op, demand_cost, mlp, stats)
            elif op == store_nt_op:
                self._nt_store(pc, line, demand_cost, stats)
            else:
                self._sw_prefetch(line, op == nta_op, stats)

    def _run_events_batch(
        self,
        trace: MemoryTrace,
        work_per_memop: float,
        mlp: float,
        stats: RunStats,
        clock: _PassClock | _NoPassClock = _NO_PASS_CLOCK,
    ) -> tuple[int, int, float, int]:
        """Batched whole-hierarchy event loop (the ``batch`` path).

        The whole trace — loads, stores, software prefetches and NT
        stores together — is replayed as five array passes: an L1 op
        wavefront, batched prefetcher observation of the demand events,
        an ordered L2 op stream, an ordered LLC op stream, and a merged
        timing stream.  They are constructed so that every cache probe,
        install, invalidation, writeback and bandwidth reservation
        happens in precisely the order the scalar loop would produce it;
        the one L2 op that depends on an LLC outcome is speculated and
        repaired per set group (:meth:`_l2_llc_passes`).  Hardware
        requests that provably hit L2 (:func:`l2_resident_requests`)
        never enter the L2 stream.  Timing is then
        accumulated over *interesting* events only (misses, software
        prefetches that miss L1, writebacks, in-flight-line hits), each
        carrying the clock charges of the events since the previous one
        (:func:`clock_charges`).  Bit-identity with the reference loop is
        enforced by ``tests/test_sim_backend_diff.py``.

        Returns the speculation's ``(rounds, groups)``, the largest
        bandwidth EWMA of the batch (its entry value or any value right
        after a transfer, the only values ``utilisation()`` can read)
        and the number of requests dropped as L2-resident.  ``clock``
        times the passes (see :data:`_PASSES`).
        """
        clock.start()
        machine = self.machine
        n = len(trace)
        ops = trace.op
        pcs = trace.pc
        addrs = trace.addr
        lines = addrs >> self._line_shift
        store_op = int(MemOp.STORE)
        is_dm = ops <= store_op
        is_nt = ops == int(MemOp.STORE_NT)
        is_pf = ~(is_dm | is_nt)
        is_nta = ops == int(MemOp.PREFETCH_NTA)
        n_dm = int(np.count_nonzero(is_dm))
        n_nt = int(np.count_nonzero(is_nt))
        n_pf = n - n_dm - n_nt
        demand_cost = machine.cycles_per_memop + machine.cpi_base * work_per_memop
        stats.sw_prefetches += n_pf
        if n == 0:
            return 0, 0, self.bandwidth._ewma_bpc, 0

        # ---- pass 1: L1 op wavefront ------------------------------------
        of1 = _L1_FLAGS[ops]
        hit1, prior1, v1i, v1l, v1f = self.l1.ops_batch(lines, _L1_KIND[ops], of1)
        miss1 = is_dm & ~hit1
        stats.l1.accesses += n_dm + n_nt
        stats.l1.misses += int(np.count_nonzero(miss1))
        counted = ~is_pf  # NT stores count as L1 hits
        stats.pc_l1.record_bulk(pcs[counted], miss1[counted])
        stats.sw_useful += int(
            np.count_nonzero(is_dm & hit1 & _unreferenced(prior1, FLAG_SW_PREFETCH))
        )
        stats.sw_useless += int(
            np.count_nonzero(_unreferenced(v1f, FLAG_SW_PREFETCH))
        )
        clock.lap("l1_s")

        # ---- pass 2: batched prefetcher observation ---------------------
        # The prefetcher trains on demand events only: the scalar loop
        # calls observe from _demand_access alone.
        if isinstance(self.prefetcher, NullPrefetcher):
            h_ev = np.empty(0, dtype=np.int64)
            h_line = np.empty(0, dtype=np.int64)
            h_fill = np.empty(0, dtype=bool)
        else:
            dm_idx = np.nonzero(is_dm)[0]
            h_ev, h_line, h_fill = self.prefetcher.observe_batch(
                pcs[dm_idx], addrs[dm_idx], lines[dm_idx], hit1[dm_idx]
            )
            h_ev = dm_idx[h_ev]
        clock.lap("observe_s")

        # ---- passes 3-4: ordered L2 and LLC op streams ------------------
        # Per event, in scalar order: hardware-prefetch requests (fill or
        # probe, by issue index), then the event's own op — a demand
        # access or software prefetch that missed L1, or an NT store —
        # then the L1 victim's dirty touch.  Requests that provably hit
        # L2 are dropped first.
        mp = np.nonzero(~hit1 | is_nt)[0]
        keep = ~l2_resident_requests(
            self.l2.config.num_sets - 1, h_ev, h_line, h_fill, mp, lines[mp], is_dm[mp]
        )
        h_ev, h_line, h_fill = h_ev[keep], h_line[keep], h_fill[keep]
        m_h = len(h_ev)
        dropped = len(keep) - m_h
        # Per-event issue index j of each request: requests sort before
        # the event's own op (minor j < _MINOR_DA) and encode their
        # within-event timing slots as (j + 1) * 8.
        h_j = np.arange(m_h) - np.searchsorted(h_ev, h_ev)
        cat_p = np.where(
            is_dm[mp],
            _CAT_DEMAND,
            np.where(is_nt[mp], _CAT_NT, np.where(is_nta[mp], _CAT_NTA, _CAT_T0)),
        ).astype(np.int8)
        td1 = ((v1f & FLAG_NTA) == 0) & ((v1f & FLAG_DIRTY) != 0)
        vt = v1i[td1]
        m_p = len(mp)
        m_t = len(vt)
        pos2 = np.concatenate((h_ev, mp, vt))
        minor2 = np.concatenate(
            (
                h_j,
                np.full(m_p, _MINOR_DA, dtype=np.int64),
                np.full(m_t, _MINOR_DA + 1, dtype=np.int64),
            )
        )
        # One sort key per op: minor keys stay below 1 << 21.
        o2 = np.argsort((pos2 << 21) | minor2, kind="stable")
        pos2 = pos2[o2]
        minor2 = minor2[o2]
        cat2 = np.concatenate(
            (
                np.full(m_h, _CAT_HW, dtype=np.int8),
                cat_p,
                np.full(m_t, _CAT_TOUCH, dtype=np.int8),
            )
        )[o2]
        line2 = np.concatenate((h_line, lines[mp], v1l[td1]))[o2]
        kind2 = np.concatenate(
            (
                np.where(h_fill, OP_FILL, OP_PROBE).astype(np.uint8),
                _OP_OF_CAT[cat_p],
                np.full(m_t, OP_TOUCH, dtype=np.uint8),
            )
        )[o2]
        of2 = np.concatenate(
            (
                np.full(m_h, FLAG_HW_PREFETCH, dtype=np.int64),
                np.where(
                    cat_p == _CAT_DEMAND,
                    of1[mp],
                    np.where(cat_p == _CAT_T0, FLAG_SW_PREFETCH, 0),
                ),
                np.full(m_t, FLAG_DIRTY, dtype=np.int64),
            )
        )[o2]
        hit2, prior2, hit3, prior3, v3f, wb2, rounds, groups = self._l2_llc_passes(
            line2, kind2, of2, cat2
        )

        is_h2 = cat2 == _CAT_HW
        is_d2 = cat2 == _CAT_DEMAND
        is_p2 = (cat2 == _CAT_T0) | (cat2 == _CAT_NTA)
        miss2 = ~hit2
        dram = miss2 & ~hit3  # reached the LLC and missed it
        d_miss2 = is_d2 & miss2
        n_l2_miss = int(np.count_nonzero(d_miss2))
        stats.l2.accesses += int(np.count_nonzero(is_d2))
        stats.l2.misses += n_l2_miss
        stats.llc.accesses += n_l2_miss
        stats.llc.misses += int(np.count_nonzero(is_d2 & dram))
        stats.hw_prefetches += int(np.count_nonzero(is_h2 & miss2))
        stats.hw_useful += int(
            np.count_nonzero(is_d2 & hit2 & _unreferenced(prior2, FLAG_HW_PREFETCH))
        ) + int(
            np.count_nonzero(d_miss2 & hit3 & _unreferenced(prior3, FLAG_HW_PREFETCH))
        )
        stats.hw_useless += int(
            np.count_nonzero(_unreferenced(v3f, FLAG_HW_PREFETCH))
        )
        stats.dram_fills += int(np.count_nonzero((is_d2 | is_h2 | is_p2) & dram))
        stats.nta_fills += int(np.count_nonzero((cat2 == _CAT_NTA) & dram))
        clock.lap("l2_llc_s")

        # ---- pass 5: merged timing stream -------------------------------
        # Codes: 0 hardware-prefetch DRAM fill, 1 off-chip write
        # (writeback or NT store), 2/3/4 demand served from L2/LLC/DRAM,
        # 5 in-flight drop (L1 victim or NT store), 6 in-flight check on
        # an L1 hit, 7/8 demand served from L2/LLC with the line provably
        # not in flight, 10/11/12 software prefetch served from
        # L2/LLC/DRAM.  Sequence keys replicate the scalar within-event
        # order (hardware requests, the event's own op, the victim
        # chain).  A software prefetch that hits L1 only charges
        # ``prefetch_cost``, so it gets no op: its charge rides in the
        # clock charges of the next op (:func:`clock_charges`).
        inflight = self._inflight
        cand_parts = [h_line, lines[is_pf & ~hit1]]
        keys0 = None
        if inflight:
            keys0 = np.sort(
                np.fromiter(inflight.keys(), dtype=np.int64, count=len(inflight))
            )
            cand_parts.append(keys0)
        # Sorted-membership helper: lines outside this candidate set can
        # never be in flight (only prefetches create entries), so their
        # events skip the dict probes entirely.
        cand = np.sort(np.concatenate(cand_parts))

        def in_cand(arr: np.ndarray) -> np.ndarray:
            if not len(cand):
                return np.zeros(len(arr), dtype=bool)
            pos = np.searchsorted(cand, arr).clip(0, len(cand) - 1)
            return cand[pos] == arr

        ev_parts: list[np.ndarray] = []
        seq_parts: list[np.ndarray] = []
        code_parts: list[np.ndarray] = []
        arg_parts: list[np.ndarray] = []

        def emit(ev, seq, code, arg) -> None:
            """Queue timing ops at events ``ev`` (scalars broadcast)."""
            ev_parts.append(ev)
            for parts, value in ((seq_parts, seq), (code_parts, code), (arg_parts, arg)):
                parts.append(np.broadcast_to(np.asarray(value, dtype=np.int64), len(ev)))

        # L1 hits of demand events on lines that may be in flight.
        hp = np.nonzero(is_dm & hit1)[0]
        inf_ev = hp[in_cand(lines[hp])]
        emit(inf_ev, 0, 6, lines[inf_ev])
        # Hardware-prefetch DRAM fills.
        hd = np.nonzero(is_h2 & dram)[0]
        emit(pos2[hd], (minor2[hd] + 1) * 8, 0, line2[hd])
        # Demand L1 misses: 2/3 check the in-flight map before charging
        # the L2/LLC hit latency; 7/8 are the common case where the line
        # cannot be in flight and the charge is unconditional.
        di = np.nonzero(is_d2)[0]
        d_line = line2[di]
        d_code = np.where(hit2[di], 2, np.where(hit3[di], 3, 4))
        d_code[(d_code != 4) & ~in_cand(d_line)] += 5
        emit(pos2[di], _SEQ_DA, d_code, d_line)
        # Software prefetches that missed L1.
        pi = np.nonzero(is_p2)[0]
        emit(
            pos2[pi],
            _SEQ_DA,
            np.where(hit2[pi], 10, np.where(hit3[pi], 11, 12)),
            line2[pi],
        )
        # Writebacks: LLC victims of installs, L2 victims whose dirty
        # touch missed the LLC, L1 victims' dirty touches that missed
        # both levels, and dirty NTA L1 victims (straight to DRAM).
        hw_minor = minor2 < _MINOR_DA
        w1 = np.nonzero((v3f & FLAG_DIRTY) != 0)[0]
        emit(
            pos2[w1],
            np.where(hw_minor[w1], (minor2[w1] + 1) * 8 + 1, _SEQ_DA + 1),
            1,
            0,
        )
        w2 = np.nonzero(wb2)[0]
        emit(
            pos2[w2],
            np.where(hw_minor[w2], (minor2[w2] + 1) * 8 + 2, _SEQ_DA + 2),
            1,
            0,
        )
        w3 = np.nonzero((cat2 == _CAT_TOUCH) & dram)[0]
        emit(pos2[w3], _SEQ_DA + 4, 1, 0)
        w4 = v1i[((v1f & FLAG_NTA) != 0) & ((v1f & FLAG_DIRTY) != 0)]
        emit(w4, _SEQ_DA + 4, 1, 0)
        n_wb = len(w1) + len(w2) + len(w3) + len(w4)
        # L1 victims drop their in-flight entry.
        v5 = in_cand(v1l)
        emit(v1i[v5], _SEQ_DA + 3, 5, v1l[v5])
        # NT stores drop the line's in-flight entry; the 4-entry
        # write-combining FIFO depends only on the NT line sequence, so
        # which of them write off-chip is decided up front.
        n_ntw = 0
        if n_nt:
            nt_idx = np.nonzero(is_nt)[0]
            nt_line = lines[nt_idx]
            nt_write = np.zeros(n_nt, dtype=bool)
            wc = self._wc_buffer
            for j, line in enumerate(nt_line.tolist()):
                if line in wc:
                    continue  # merged into an open write-combining entry
                wc.append(line)
                if len(wc) > 4:
                    wc.pop(0)
                nt_write[j] = True
            n_ntw = int(np.count_nonzero(nt_write))
            nt_inf = in_cand(nt_line)
            emit(nt_idx[nt_inf], _SEQ_DA, 5, nt_line[nt_inf])
            emit(nt_idx[nt_write], _SEQ_DA + 1, 1, 0)

        ev_t = np.concatenate(ev_parts)
        # Sequence keys stay below 1 << 23 (_SEQ_DA + 4 at most).
        t_order = np.argsort(
            ev_t * (1 << 23) + np.concatenate(seq_parts), kind="stable"
        )
        ev_s = ev_t[t_order]
        code_s = np.concatenate(code_parts)[t_order]
        arg_s = np.concatenate(arg_parts)[t_order]

        # Liveness pass: a pop (2, 3, 5, 6) can only find an in-flight
        # entry when the immediately preceding inflight-relevant event
        # on the same line (in processing order) was a set — a
        # hardware-prefetch fill (0) or a software prefetch that missed
        # L1 (10-12) — or the line entered the batch already in flight.
        # Pops that provably find nothing become unconditional-latency
        # codes (2 -> 7, 3 -> 8) or vanish (5, 6), keeping the serial
        # loop to the events that matter.
        is_set = (code_s == 0) | (code_s >= 10)
        infl_rel = is_set | (
            (code_s >= 2) & (code_s <= 6) & (code_s != 4)
        )
        ri = np.nonzero(infl_rel)[0]
        if len(ri):
            gsel = arg_s[ri]
            csel = code_s[ri]
            go = np.argsort(gsel, kind="stable")
            gg = gsel[go]
            first = np.empty(len(go), dtype=bool)
            first[0] = True
            first[1:] = gg[1:] != gg[:-1]
            live_g = np.zeros(len(go), dtype=bool)
            live_g[1:] = ~first[1:] & is_set[ri][go][:-1]
            if keys0 is not None:
                pos0 = np.searchsorted(keys0, gg).clip(0, len(keys0) - 1)
                live_g |= first & (keys0[pos0] == gg)
            dead = np.empty(len(ri), dtype=bool)
            dead[go] = ~live_g
            code_s[ri[dead & (csel == 2)]] = 7
            code_s[ri[dead & (csel == 3)]] = 8
            drop = dead & ((csel == 5) | (csel == 6))
            if drop.any():
                keep = np.ones(len(ev_s), dtype=bool)
                keep[ri[drop]] = False
                ev_s = ev_s[keep]
                code_s = code_s[keep]
                arg_s = arg_s[keep]
        # Each op carries the clock charges of the events since the
        # previous op's, its own event's included: empty when it shares
        # that event.  The last span runs to the end of the batch.
        gaps = clock_charges(
            np.concatenate(([0], ev_s + 1)),
            np.concatenate((ev_s + 1, [n])),
            is_pf,
            demand_cost,
            machine.prefetch_cost,
        )
        tail = gaps.pop()
        # Codes 0, 1, 4 and 12 move one line off or on chip each.
        n_transfers = int(np.count_nonzero((code_s <= 1) | (code_s == 4) | (code_s == 12)))
        code_l = code_s.tolist()
        arg_l = arg_s.tolist()
        clock.lap("timing_build_s")

        bw = self.bandwidth
        window = bw.window
        free = bw._free_time
        ewma = bw._ewma_bpc
        last = bw._last_time
        line_bytes = machine.line_bytes
        dur = line_bytes / bw.peak
        bpw = line_bytes / window
        dram_latency = machine.dram_latency
        l2_hit = machine.l2.hit_latency
        llc_hit = machine.llc.hit_latency
        l2_lat = l2_hit / mlp
        llc_lat = llc_hit / mlp
        dram_term = (dur + dram_latency) / mlp
        now = self.now
        peak = ewma
        sw_late = 0
        # A transfer decays the EWMA by the time since the previous one,
        # as BandwidthModel.transfer does: ``1 - min(dt / window, 1)``.
        for gap, c, g in zip(gaps, code_l, arg_l):
            for cost in gap:
                now += cost
            if c < 5:
                if c == 4:
                    start = now if now > free else free
                    free = start + dur
                    if now > last:
                        x = (now - last) / window
                        ewma *= 1.0 - x if x < 1.0 else 0.0
                        last = now
                    ewma += bpw
                    if ewma > peak:
                        peak = ewma
                    now = start + dram_term
                elif c == 0:
                    start = now if now > free else free
                    free = start + dur
                    if now > last:
                        x = (now - last) / window
                        ewma *= 1.0 - x if x < 1.0 else 0.0
                        last = now
                    ewma += bpw
                    if ewma > peak:
                        peak = ewma
                    inflight[g] = start + dur + dram_latency
                elif c == 2:
                    completion = inflight.pop(g, None)
                    if completion is not None and completion > now:
                        now += (completion - now) / mlp
                    else:
                        now += l2_lat
                elif c == 3:
                    completion = inflight.pop(g, None)
                    if completion is not None and completion > now:
                        now += (completion - now) / mlp
                    else:
                        now += llc_lat
                else:  # c == 1, off-chip write
                    start = now if now > free else free
                    free = start + dur
                    if now > last:
                        x = (now - last) / window
                        ewma *= 1.0 - x if x < 1.0 else 0.0
                        last = now
                    ewma += bpw
                    if ewma > peak:
                        peak = ewma
            elif c == 12:
                start = now if now > free else free
                free = start + dur
                if now > last:
                    x = (now - last) / window
                    ewma *= 1.0 - x if x < 1.0 else 0.0
                    last = now
                ewma += bpw
                if ewma > peak:
                    peak = ewma
                inflight[g] = start + dur + dram_latency
            elif c == 6:
                completion = inflight.pop(g, None)
                if completion is not None and completion > now:
                    now += (completion - now) / mlp
                    sw_late += 1
            elif c == 7:
                now += l2_lat
            elif c == 8:
                now += llc_lat
            elif c == 5:
                inflight.pop(g, None)
            elif c == 10:
                inflight[g] = now + l2_hit
            else:  # c == 11
                inflight[g] = now + llc_hit
        for cost in tail:
            now += cost

        self.now = now
        bw._free_time = free
        bw._ewma_bpc = ewma
        bw._last_time = last
        bw.total_bytes += n_transfers * line_bytes
        bw.total_transfers += n_transfers
        stats.sw_late += sw_late
        stats.dram_writebacks += n_wb
        stats.nt_store_writes += n_ntw
        clock.lap("timing_loop_s")
        return rounds, groups, peak, dropped

    def _l2_llc_passes(
        self,
        line2: np.ndarray,
        kind2: np.ndarray,
        of2: np.ndarray,
        cat2: np.ndarray,
    ) -> tuple:
        """Run the ordered L2 and LLC op streams of one batch.

        Every L2 op passes one op on to the LLC when it misses (an NT
        store's invalidation always does), in :data:`_OP_OF_CAT` form
        and right after it in LLC order; an L2 victim's dirty touch
        follows that op.

        ``_sw_prefetch`` installs a T0 line into L2 only when it also
        misses the LLC: the one L2 op that depends on an LLC outcome.
        Each T0 prefetch's LLC outcome is guessed first — a miss
        (``OP_PFILL`` at L2, installing on an L2 miss) for a line no
        earlier op of the batch touched, a hit (``OP_LOOKUP``) otherwise
        — and each guess that reached the LLC is then compared with its
        LLC result.  A consistent set of guesses reproduces the scalar
        run exactly, by induction over the stream.

        Every L2 and LLC op on a line, victim touches included, stays
        inside the line's *group* ``line & min(l2_mask, llc_mask)``, so
        wrong guesses (set to their outcome) re-run only their groups'
        sub-streams, from a pre-batch snapshot of those sets; every
        other group's result is already final.  A group's ops before its
        first wrong guess ran on exact state, so each round fixes at
        least that guess and the loop terminates.

        Returns per-L2-op arrays ``(hit2, prior2, hit3, prior3, v3f,
        wb2)`` — the op's L2 result; the result of the LLC op it passed
        on (meaningless where it passed none) and that op's victim flags
        (0 when nothing was evicted); and whether its L2 victim's dirty
        touch missed the LLC — plus the speculation's ``(rounds,
        groups)``: L2/LLC passes run, and groups re-run over all rounds.
        """
        l2 = self.l2
        llc = self.llc
        m2 = len(line2)
        hit2 = np.zeros(m2, dtype=bool)
        prior2 = np.zeros(m2, dtype=np.int64)
        hit3 = np.zeros(m2, dtype=bool)
        prior3 = np.zeros(m2, dtype=np.int64)
        v3f = np.zeros(m2, dtype=np.int64)
        wb2 = np.zeros(m2, dtype=bool)
        kind3 = _OP_OF_CAT[cat2]

        def run(sel: np.ndarray) -> None:
            lsel = line2[sel]
            ksel = kind3[sel]
            h, p, vi, vl, vf = l2.ops_batch(lsel, kind2[sel], of2[sel])
            hit2[sel] = h
            prior2[sel] = p
            # LLC order: each L2 op's own LLC op, then its dirty L2
            # victim's touch.
            has_a = ~h | (ksel == OP_INVAL)
            dirty_v = (vf & FLAG_DIRTY) != 0
            ib = vi[dirty_v]
            cnt = has_a.astype(np.int64)
            cnt[ib] += 1
            off = np.cumsum(cnt) - cnt
            ia = np.nonzero(has_a)[0]
            pa = off[ia]
            pb = off[ib] + has_a[ib]
            m3 = int(cnt.sum())
            l3 = np.empty(m3, dtype=np.int64)
            k3 = np.empty(m3, dtype=np.uint8)
            f3 = np.empty(m3, dtype=np.int64)
            l3[pa] = lsel[ia]
            k3[pa] = ksel[ia]
            f3[pa] = of2[sel[ia]]
            l3[pb] = vl[dirty_v]
            k3[pb] = OP_TOUCH
            f3[pb] = FLAG_DIRTY
            h3, p3, vi3, _, vf3 = llc.ops_batch(l3, k3, f3)
            sa = sel[ia]
            hit3[sel] = False
            hit3[sa] = h3[pa]
            prior3[sa] = p3[pa]
            wb2[sel] = False
            wb2[sel[ib]] = ~h3[pb]
            v3f[sel] = 0
            # Only installs evict, and touches never install.
            owner = np.empty(m3, dtype=np.int64)
            owner[pa] = sa
            v3f[owner[vi3]] = vf3

        t0 = np.nonzero(cat2 == _CAT_T0)[0]
        if len(t0):
            snap2 = l2.snapshot()
            snap3 = llc.snapshot()
            # Re-fetches are the common LLC hits; a line no earlier op
            # of the batch touched hits only if it entered the batch
            # resident.
            by_line = np.argsort(line2, kind="stable")
            sorted_lines = line2[by_line]
            seen = np.zeros(m2, dtype=bool)
            seen[by_line[1:]] = sorted_lines[1:] == sorted_lines[:-1]
            guess_miss = ~seen[t0]
            kind2[t0] = np.where(guess_miss, OP_PFILL, OP_LOOKUP)
        run(np.arange(m2))
        rounds, groups = 1, 0
        if not len(t0):
            return hit2, prior2, hit3, prior3, v3f, wb2, rounds, groups
        gmask = min(l2.config.num_sets, llc.config.num_sets) - 1
        while True:
            out_miss = ~hit3[t0]
            bad = ~hit2[t0] & (guess_miss != out_miss)
            if not bad.any():
                break
            guess_miss[bad] = out_miss[bad]
            kind2[t0[bad]] = np.where(out_miss[bad], OP_PFILL, OP_LOOKUP)
            bad_grp = np.zeros(gmask + 1, dtype=bool)
            bad_grp[line2[t0[bad]] & gmask] = True
            for cache, snap in ((l2, snap2), (llc, snap3)):
                cache.restore_sets(
                    snap,
                    np.nonzero(bad_grp[np.arange(cache.config.num_sets) & gmask])[0],
                )
            run(np.nonzero(bad_grp[line2 & gmask])[0])
            rounds += 1
            groups += int(np.count_nonzero(bad_grp))
        return hit2, prior2, hit3, prior3, v3f, wb2, rounds, groups

    def drain_writebacks(self, stats: RunStats, llc_dirty: np.ndarray | None = None) -> int:
        """Account writebacks of dirty lines still resident at run end.

        Without this, a configuration that parks dirty data in the LLC
        looks cheaper than one (e.g. NTA) that wrote it back eagerly —
        the bytes must reach DRAM either way.  ``llc_dirty`` is the
        LLC's :meth:`~LRUCache.dirty_lines`, when the caller has already
        read them (a shared LLC, drained once per core).  Returns the
        number of lines drained.
        """
        if llc_dirty is None:
            llc_dirty = self.llc.dirty_lines()
        count = len(
            np.unique(np.concatenate((self.l1.dirty_lines(), self.l2.dirty_lines(), llc_dirty)))
        )
        self.bandwidth.charge_batch(self.now, self.machine.line_bytes, count)
        stats.dram_writebacks += count
        return count

    # ------------------------------------------------------------------
    # L1 replay (the multicore simulator's batch driver)
    # ------------------------------------------------------------------

    def replay_l1(self, trace: MemoryTrace, stats: RunStats) -> tuple[np.ndarray, ...]:
        """Run a trace's L1 operations up front, in program order.

        A private L1 sees only its own core's events, so the multicore
        simulator's batch driver replays them before it interleaves the
        cores, and runs the handlers only for the events that reach
        beyond the L1 (under :meth:`replayed_l1`).  The op stream is the
        batch path's pass 1, run by the L1's own ``ops_batch``.

        Counts the demand accesses' L1 statistics (accesses, misses,
        ``pc_l1``, ``sw_useful``) and the software prefetches that hit
        L1; the handlers count those of NT stores and of prefetches that
        missed.  Returns each event's L1 residency before its op, and the
        evictions in program order: the installing event, the victim
        line and its flags.
        """
        ops = trace.op
        hit, prior, vic_idx, vic_line, vic_flags = self.l1.ops_batch(
            trace.addr >> self._line_shift, _L1_KIND[ops], _L1_FLAGS[ops]
        )
        is_dm = ops <= _STORE
        dm_miss = is_dm & ~hit
        stats.l1.accesses += int(np.count_nonzero(is_dm))
        stats.l1.misses += int(np.count_nonzero(dm_miss))
        stats.pc_l1.record_bulk(trace.pc[is_dm], dm_miss[is_dm])
        stats.sw_useful += int(
            np.count_nonzero(is_dm & hit & _unreferenced(prior, FLAG_SW_PREFETCH))
        )
        stats.sw_prefetches += int(np.count_nonzero(hit & ~is_dm & (ops != _STORE_NT)))
        return hit, vic_idx, vic_line, vic_flags

    @contextmanager
    def replayed_l1(self, victims: Iterator[tuple[int, int] | None]):
        """Answer the handlers' L1 calls from a :meth:`replay_l1` pass.

        Inside the block the handlers run only for events whose L1
        outcome the replay already applied: ``_install_l1`` receives
        the next of ``victims``, each install's victim in program order
        (``None`` when it evicted nothing), a software prefetch's L1
        probe misses, and an NT store's L1 invalidation is a no-op.  The
        real L1, already in its final state, is reattached on exit, also
        when the block raises.
        """
        real = self.l1
        self.l1 = _ReplayedL1(victims)
        try:
            yield
        finally:
            self.l1 = real

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    #
    # Three drivers run these: the scalar loop, the multicore event loop
    # and the multicore batch driver's live events.  L2 and the LLC are
    # always dict-backed ``LRUCache`` levels here, so every probe is one
    # operation on the line's set dict, and a hit pops the line and
    # re-inserts it as most recently used.  Only ``_demand_access`` reads
    # L1's sets: the other handlers also run under :meth:`replayed_l1`,
    # and reach L1 through its ``install``, ``contains`` and
    # ``invalidate``.

    def _demand_access(
        self,
        pc: int,
        addr: int,
        line: int,
        is_write: bool,
        demand_cost: float,
        mlp: float,
        stats: RunStats,
    ) -> None:
        """A load or store on the event loops, whose L1 is a dict ``LRUCache``."""
        self.now += demand_cost
        write_flag = FLAG_DIRTY if is_write else 0
        stats.l1.accesses += 1
        pc_l1 = stats.pc_l1
        accesses = pc_l1.accesses
        accesses[pc] = accesses.get(pc, 0) + 1
        l1 = self.l1
        s = l1._sets[line & l1._set_mask]
        flags = s.pop(line, None)
        if flags is not None:
            # As _inflight_hit: a late prefetch stalls the core.
            completion = self._inflight.pop(line, None)
            if completion is not None and completion > self.now:
                self.now += (completion - self.now) / mlp
                stats.sw_late += 1
            if flags & FLAG_SW_PREFETCH and not flags & FLAG_REFERENCED:
                stats.sw_useful += 1
            s[line] = flags | FLAG_REFERENCED | write_flag
            requests = self.prefetcher.observe(pc, addr, line, True)
            if requests:
                self._hw_requests(requests, stats)
            return

        stats.l1.misses += 1
        misses = pc_l1.misses
        misses[pc] = misses.get(pc, 0) + 1
        requests = self.prefetcher.observe(pc, addr, line, False)
        if requests:
            self._hw_requests(requests, stats)
        self._demand_miss(line, write_flag, mlp, stats)

    def _inflight_hit(self, line: int, mlp: float, stats: RunStats) -> None:
        """A demand L1 hit on ``line``: stall for a prefetch still in flight.

        The hit drops the line's in-flight entry; a prefetch that has not
        completed yet (late prefetch) stalls the core for the remaining
        fetch time, overlapped with other outstanding misses.  The batch
        driver's live L1 hits call this; ``_demand_access`` makes the
        same check inline.
        """
        completion = self._inflight.pop(line, None)
        if completion is not None and completion > self.now:
            self.now += (completion - self.now) / mlp
            stats.sw_late += 1

    def _demand_miss(
        self,
        line: int,
        write_flag: int,
        mlp: float,
        stats: RunStats,
    ) -> None:
        """Service an L1 miss from L2, the LLC or DRAM.

        Reached from :meth:`_demand_access`, so the scalar loop on both
        backends and the multicore simulator share it; the batch path
        reproduces it pass by pass.
        """
        set_flags = FLAG_REFERENCED | write_flag
        stats.l2.accesses += 1
        l2 = self.l2
        s2 = l2._sets[line & l2._set_mask]
        flags = s2.pop(line, None)
        if flags is not None:
            if flags & FLAG_HW_PREFETCH and not flags & FLAG_REFERENCED:
                stats.hw_useful += 1
            s2[line] = flags | set_flags
            completion = self._inflight.pop(line, None)
            if completion is not None and completion > self.now:
                self.now += (completion - self.now) / mlp
            else:
                self.now += self._l2_latency / mlp
            self._install_l1(line, set_flags, stats)
            return

        stats.l2.misses += 1
        stats.llc.accesses += 1
        llc = self.llc
        s3 = llc._sets[line & llc._set_mask]
        flags = s3.pop(line, None)
        if flags is not None:
            if flags & FLAG_HW_PREFETCH and not flags & FLAG_REFERENCED:
                stats.hw_useful += 1
            s3[line] = flags | set_flags
            completion = self._inflight.pop(line, None)
            if completion is not None and completion > self.now:
                self.now += (completion - self.now) / mlp
            else:
                self.now += self._llc_latency / mlp
            self._install_l2(s2, line, set_flags, stats)
            self._install_l1(line, set_flags, stats)
            return

        stats.llc.misses += 1
        start, duration = self.bandwidth.transfer(self.now, self._line_bytes)
        stats.dram_fills += 1
        # Queueing behind earlier transfers (start - now) is a
        # throughput limit that parallelism cannot hide and is paid in
        # full; the pipelined transfer + access latency overlaps across
        # the core's outstanding misses.
        self.now = start + (duration + self._dram_latency) / mlp
        self._install_llc(s3, line, set_flags, stats)
        self._install_l2(s2, line, set_flags, stats)
        self._install_l1(line, set_flags, stats)

    def _nt_store(self, pc: int, line: int, demand_cost: float, stats: RunStats) -> None:
        """Non-temporal store: write-combine straight to DRAM.

        No read-for-ownership fill, no caching; any cached copy is
        invalidated (superseded by the full-line write).  The write is
        posted — it occupies a controller slot but does not stall the
        core.
        """
        self.now += demand_cost
        stats.l1.accesses += 1
        stats.pc_l1.record(pc, False)
        self.l1.invalidate(line)
        for cache in (self.l2, self.llc):
            cache._sets[line & cache._set_mask].pop(line, None)
        self._inflight.pop(line, None)
        if line in self._wc_buffer:
            return  # merged into an open write-combining entry
        self._wc_buffer.append(line)
        if len(self._wc_buffer) > 4:
            self._wc_buffer.pop(0)
        self.bandwidth.transfer(self.now, self._line_bytes)
        stats.nt_store_writes += 1

    def _sw_prefetch(self, line: int, nta: bool, stats: RunStats) -> None:
        self.now += self._prefetch_cost
        stats.sw_prefetches += 1
        if self.l1.contains(line):
            return
        # Fetch from the nearest level that has the line.
        l2 = self.l2
        s2 = l2._sets[line & l2._set_mask]
        flags = s2.pop(line, None)
        if flags is not None:
            s2[line] = flags
            completion = self.now + self._l2_latency
        else:
            llc = self.llc
            s3 = llc._sets[line & llc._set_mask]
            flags = s3.pop(line, None)
            if flags is not None:
                s3[line] = flags
                completion = self.now + self._llc_latency
            else:
                start, duration = self.bandwidth.transfer(self.now, self._line_bytes)
                stats.dram_fills += 1
                completion = start + duration + self._dram_latency
                if nta:
                    stats.nta_fills += 1
                else:
                    # An ordinary prefetch from DRAM installs through the
                    # hierarchy; NTA bypasses L2/LLC entirely.
                    self._install_llc(s3, line, FLAG_SW_PREFETCH, stats)
                    self._install_l2(s2, line, FLAG_SW_PREFETCH, stats)
        self._install_l1(line, FLAG_SW_PREFETCH | (FLAG_NTA if nta else 0), stats)
        self._inflight[line] = completion

    def _hw_requests(self, requests: Iterable[tuple[int, bool, bool]], stats: RunStats) -> None:
        """Issue one demand event's hardware-prefetch requests, in order.

        Each request is a ``(line, fill_l2, llc_bypass)`` triple, the
        same rows from both drivers: an item of ``observe``'s list on
        the scalar loop, or one row of ``observe_batch``'s result (with
        ``llc_bypass`` False) in the multicore simulator's batch driver.
        """
        l2 = self.l2
        sets2, mask2 = l2._sets, l2._set_mask
        llc = self.llc
        sets3, mask3 = llc._sets, llc._set_mask
        for target, fill_l2, llc_bypass in requests:
            s2 = sets2[target & mask2]
            if target in s2:
                continue
            stats.hw_prefetches += 1
            s3 = sets3[target & mask3]
            if target in s3:
                # Promote into L2 only; no off-chip traffic.
                if fill_l2:
                    self._install_l2(s2, target, FLAG_HW_PREFETCH, stats)
                continue
            start, duration = self.bandwidth.transfer(self.now, self._line_bytes)
            stats.dram_fills += 1
            self._inflight[target] = start + duration + self._dram_latency
            if not llc_bypass:
                # A coordinator-retargeted (NTA) fill skips the shared
                # LLC, conserving neighbours' space like PREFETCHNTA.
                self._install_llc(s3, target, FLAG_HW_PREFETCH, stats)
            if fill_l2:
                self._install_l2(s2, target, FLAG_HW_PREFETCH, stats)

    # ------------------------------------------------------------------
    # fills and evictions
    # ------------------------------------------------------------------

    def _install_l1(self, line: int, flags: int, stats: RunStats) -> None:
        # Through ``install``: the L1 may be the batch driver's _ReplayedL1.
        victim = self.l1.install(line, flags)
        if victim is None:
            return
        v_line, v_flags = victim
        self._inflight.pop(v_line, None)
        if v_flags & FLAG_SW_PREFETCH and not v_flags & FLAG_REFERENCED:
            stats.sw_useless += 1
        if not v_flags & FLAG_DIRTY:
            return
        # A dirty line goes into the nearest outer copy, or to DRAM;
        # NTA lines bypass the outer levels and always go to DRAM.
        if not v_flags & FLAG_NTA:
            for cache in (self.l2, self.llc):
                s = cache._sets[v_line & cache._set_mask]
                if v_line in s:
                    s[v_line] |= FLAG_DIRTY
                    return
        stats.dram_writebacks += 1
        self.bandwidth.transfer(self.now, self._line_bytes)

    def _install_l2(self, s: dict[int, int], line: int, flags: int, stats: RunStats) -> None:
        """Install ``line``, which its L2 set ``s`` does not hold, as MRU.

        A full set evicts its LRU line; a dirty victim goes into the
        LLC's copy, or to DRAM.
        """
        if len(s) >= self.l2.ways:
            v_line = next(iter(s))
            if s.pop(v_line) & FLAG_DIRTY:
                llc = self.llc
                s3 = llc._sets[v_line & llc._set_mask]
                if v_line in s3:
                    s3[v_line] |= FLAG_DIRTY
                else:
                    stats.dram_writebacks += 1
                    self.bandwidth.transfer(self.now, self._line_bytes)
        s[line] = flags

    def _install_llc(self, s: dict[int, int], line: int, flags: int, stats: RunStats) -> None:
        """Install ``line``, which its LLC set ``s`` does not hold, as MRU."""
        if len(s) >= self.llc.ways:
            v_line = next(iter(s))
            v_flags = s.pop(v_line)
            if v_flags & FLAG_HW_PREFETCH and not v_flags & FLAG_REFERENCED:
                stats.hw_useless += 1
            if v_flags & FLAG_DIRTY:
                stats.dram_writebacks += 1
                self.bandwidth.transfer(self.now, self._line_bytes)
        s[line] = flags

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Flush all caches and clear prefetcher/bandwidth state."""
        self.l1.flush()
        self.l2.flush()
        self.llc.flush()
        self._inflight.clear()
        self._wc_buffer.clear()
        self.prefetcher.reset()
        self.bandwidth.reset()
        self.now = 0.0
