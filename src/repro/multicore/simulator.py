"""Direct multicore simulation: N cores, shared LLC, shared bandwidth.

Each core owns a :class:`~repro.cachesim.hierarchy.CacheHierarchy` whose
LLC object and memory-controller queue are *shared* between all cores —
so one core's fills evict another core's lines (LLC contention) and one
core's transfers delay everyone's (bandwidth contention), the two
mechanisms the paper's mixed-workload evaluation exercises.

Scheduling is clock-driven: at every step the core with the smallest
local clock executes its next trace event, which interleaves the cores'
memory streams in simulated-time order (a core stalled on DRAM naturally
falls behind and yields the shared resources).  Cores that finish their
trace drop out; the mix result records each core's completion time.

Two drivers produce that schedule.  The event loop (``path="scalar"``)
pushes every event through one heap; it is the oracle, and it runs the
``reference`` backend, coordinated runs and throttled or tuned
prefetchers.  The batch driver (``path="batch"``) replays each core's
private L1 and prefetcher up front and heap-orders only the events that
reach shared state, bit-identical to the event loop; a hardware-prefetch
request that provably hits its core's private L2 is dropped before the
heap sees it.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

from repro import obs
from repro.cachesim.bandwidth import BandwidthModel
from repro.cachesim.hierarchy import CacheHierarchy, clock_charges, l2_resident_requests
from repro.cachesim.lru import FLAG_DIRTY, LRUCache
from repro.cachesim.stats import RunStats
from repro.config import MachineConfig
from repro.errors import SimulationError
from repro.hwpref.base import HardwarePrefetcher
from repro.multicore.coordinator import Coordinator, CoreFeedback, note_decisions
from repro.statstack.mrc import MissRatioCurve
from repro.trace.events import MemOp, MemoryTrace

__all__ = ["CoreSpec", "MulticoreResult", "MulticoreSimulator"]

#: Demand events per ``observe_batch`` call of the batch driver, and
#: items per chunk of the Python lists it builds.  The prefetcher's
#: training state carries over between calls; fixed chunks bound the
#: memory one call or list takes.
_CHUNK = 1 << 12

#: Live-event kinds of the batch driver: a demand access that missed L1,
#: a demand L1 hit, a software prefetch that missed L1, an NT store.
_MISS, _HIT, _PREFETCH, _NT_STORE = range(4)

_STORE = int(MemOp.STORE)
_PREFETCH_NTA = int(MemOp.PREFETCH_NTA)
_STORE_NT = int(MemOp.STORE_NT)


@dataclass
class CoreSpec:
    """One core's program and execution parameters."""

    trace: MemoryTrace
    work_per_memop: float = 2.0
    mlp: float = 2.0
    prefetcher: HardwarePrefetcher | None = None
    name: str = ""
    #: Optional miss-ratio curve; gives a coordinator the core's LLC
    #: marginal utility (without it the gradient reads as zero).
    mrc: MissRatioCurve | None = None


@dataclass
class MulticoreResult:
    """Outcome of one multicore run."""

    per_core: list[RunStats]
    names: list[str]
    total_bytes: int
    makespan_cycles: float

    def achieved_bandwidth_gbs(self, freq_ghz: float) -> float:
        """Average off-chip bandwidth over the mix's makespan."""
        if self.makespan_cycles <= 0:
            return 0.0
        seconds = self.makespan_cycles / (freq_ghz * 1e9)
        return self.total_bytes / seconds / 1e9


class MulticoreSimulator:
    """Clock-ordered interleaved execution of several cores.

    With a ``coordinator``, every ``epoch_events`` processed events the
    simulator snapshots per-core traffic/occupancy deltas, asks the
    coordinator for fresh :class:`~repro.hwpref.base.PrefetchTuning`
    decisions and applies them to each core's prefetcher — the direct
    counterpart of the analytic model's coordinated solve.
    """

    def __init__(
        self,
        machine: MachineConfig,
        cores: list[CoreSpec],
        coordinator: Coordinator | None = None,
        epoch_events: int = 2000,
    ) -> None:
        if not cores:
            raise SimulationError("at least one core required")
        if len(cores) > machine.cores:
            raise SimulationError(
                f"machine has {machine.cores} cores, {len(cores)} requested"
            )
        if epoch_events <= 0:
            raise SimulationError("epoch_events must be positive")
        self.machine = machine
        self.cores = cores
        self.coordinator = coordinator
        self.epoch_events = epoch_events
        self.shared_llc = LRUCache(machine.llc)
        self.bandwidth = BandwidthModel(machine.bytes_per_cycle())
        self.hierarchies = [
            CacheHierarchy(
                machine,
                prefetcher=spec.prefetcher,
                bandwidth=self.bandwidth,
                llc=self.shared_llc,
            )
            for spec in cores
        ]

    def run(self, drain: bool = True) -> MulticoreResult:
        """Execute all cores to completion."""
        machine = self.machine
        path, reason = self._select_path()
        events = sum(len(spec.trace) for spec in self.cores)
        with obs.span(
            "multicore.run", machine=machine.name, cores=len(self.cores), events=events
        ) as run_span:
            stats = [RunStats(line_bytes=machine.line_bytes) for _ in self.cores]
            dropped = 0
            if path == "batch":
                live, dropped = self._run_batch(stats)
            else:
                self._run_events(stats)
                live = events
            # Every core's hierarchy holds the shared LLC: read its dirty
            # lines once for all the drains.
            llc_dirty = self.shared_llc.dirty_lines() if drain else None
            for spec, hier, core_stats in zip(self.cores, self.hierarchies, stats):
                trace = spec.trace
                n_pf = trace.n_prefetch
                core_stats.instructions = (
                    int((len(trace) - n_pf) * (1.0 + spec.work_per_memop)) + n_pf
                )
                core_stats.cycles = hier.now
                if drain:
                    hier.drain_writebacks(core_stats, llc_dirty)
            if obs.enabled():
                metrics = obs.metrics()
                metrics.counter(f"sim.multicore.path.{path}").inc()
                if reason is not None:
                    metrics.counter(f"sim.multicore.reason.{reason}").inc()
                    run_span.set(reason=reason)
                if path == "batch":
                    metrics.counter("sim.hwpref.l2_resident_dropped").inc(dropped)
                    run_span.set(hw_dropped=dropped)
            run_span.set(path=path, live_events=live)

        return MulticoreResult(
            per_core=stats,
            names=[spec.name for spec in self.cores],
            total_bytes=self.bandwidth.total_bytes,
            makespan_cycles=max(s.cycles for s in stats),
        )

    def _select_path(self) -> tuple[str, str | None]:
        """The driver for one run and, off the batch path, the reason.

        The batch driver replays each core's private L1 and prefetcher
        on their own, so it needs every prefetcher's requests to depend
        only on its own core's demand stream: untuned (no coordinator,
        whose epochs count every core's events), unthrottled (no
        utilisation callback reading the shared controller) and not
        shared with another core.
        """
        if any(hier.backend != "fast" for hier in self.hierarchies):
            return "scalar", "reference-backend"
        if self.coordinator is not None:
            return "scalar", "coordinated"
        prefetchers = [hier.prefetcher for hier in self.hierarchies]
        if not all(pf.batch_safe and not pf.throttled for pf in prefetchers):
            return "scalar", "prefetcher-not-batch-safe"
        if len({id(pf) for pf in prefetchers}) < len(prefetchers):
            return "scalar", "shared-prefetcher"
        return "batch", None

    def _demand_cost(self, spec: CoreSpec) -> float:
        """Cycles one memory operation and its share of other work take."""
        machine = self.machine
        return machine.cycles_per_memop + machine.cpi_base * spec.work_per_memop

    def _run_events(self, stats: list[RunStats]) -> None:
        """The event loop: every event of every core through one heap.

        The oracle of the batch driver, and the driver of coordinated
        runs and of throttled or tuned prefetchers.
        """
        shift = self.machine.line_bytes.bit_length() - 1
        cores = []
        heap: list[tuple[float, int]] = []
        for idx, (spec, hier, core_stats) in enumerate(zip(self.cores, self.hierarchies, stats)):
            trace = spec.trace
            cores.append(
                (
                    hier,
                    core_stats,
                    trace.op.tolist(),
                    trace.pc.tolist(),
                    trace.addr.tolist(),
                    len(trace),
                    self._demand_cost(spec),
                    spec.mlp,
                )
            )
            if len(trace):
                heap.append((0.0, idx))
        pos = [0] * len(cores)

        coordinator = self.coordinator
        epoch_events = self.epoch_events
        events_since_epoch = 0
        epoch_prev = [(0, 0, 0) for _ in cores]

        item = heapq.heappop(heap) if heap else None
        while item is not None:
            idx = item[1]
            hier, core_stats, ops, pcs, addrs, n, demand_cost, mlp = cores[idx]
            p = pos[idx]
            op = ops[p]
            addr = addrs[p]
            line = addr >> shift
            if op <= _STORE:
                hier._demand_access(pcs[p], addr, line, op == _STORE, demand_cost, mlp, core_stats)
            elif op == _STORE_NT:
                hier._nt_store(pcs[p], line, demand_cost, core_stats)
            else:
                hier._sw_prefetch(line, op == _PREFETCH_NTA, core_stats)
            p += 1
            pos[idx] = p
            if coordinator is not None:
                events_since_epoch += 1
                if events_since_epoch >= epoch_events:
                    events_since_epoch = 0
                    epoch_prev = self._control_epoch(stats, epoch_prev)
            # The core's next event runs right away unless another core
            # is due first (heappushpop returns the pushed key then).
            if p < n:
                item = heapq.heappushpop(heap, (hier.now, idx))
            else:
                item = heapq.heappop(heap) if heap else None

    def _run_batch(self, stats: list[RunStats]) -> tuple[int, int]:
        """The batch driver: private passes per core, then a heap of live events.

        Each core's L1 is replayed and its prefetcher observed up front
        (:func:`_private_pass`).  The heap then holds one entry per core,
        keyed by ``(clock before the core's next live event, core
        index)``; live events run the event loop's own handlers.  A
        skipped event touches no L2, LLC, controller or live in-flight
        entry and only adds its cost to its core's clock, so every live
        event keeps the key and tie-break the event loop gives it.
        Returns the number of live events and of hardware-prefetch
        requests dropped as L2-resident.
        """
        cores = []
        heap: list[tuple[float, int]] = []
        n_live = n_dropped = 0
        with ExitStack() as replayed:
            for idx, (spec, hier, core_stats) in enumerate(
                zip(self.cores, self.hierarchies, stats)
            ):
                demand_cost = self._demand_cost(spec)
                live = _private_pass(hier, spec.trace, core_stats, demand_cost)
                replayed.enter_context(hier.replayed_l1(live.victims))
                now = hier.now
                for cost in live.gaps[0]:
                    now += cost
                hier.now = now
                cores.append(
                    (
                        hier,
                        core_stats,
                        demand_cost,
                        spec.mlp,
                        live.codes,
                        live.lines,
                        live.args,
                        live.n_requests,
                        live.requests,
                        live.gaps,
                        len(live.codes),
                        hier._demand_miss,
                        hier._hw_requests,
                    )
                )
                if live.codes:
                    # The event loop seeds every core at clock 0.0, the
                    # key of its first event.
                    heap.append((now if live.gaps[0] else 0.0, idx))
                n_live += len(live.codes)
                n_dropped += live.dropped
            heapq.heapify(heap)
            cursor = [0] * len(cores)

            item = heapq.heappop(heap) if heap else None
            while item is not None:
                idx = item[1]
                (
                    hier,
                    core_stats,
                    dc,
                    mlp,
                    codes,
                    lines,
                    args,
                    n_req,
                    reqs,
                    gaps,
                    n_live_core,
                    demand_miss,
                    hw_requests,
                ) = cores[idx]
                i = cursor[idx]
                code = codes[i]
                if code == _MISS:
                    hier.now += dc
                    if n_req[i]:
                        hw_requests(islice(reqs, n_req[i]), core_stats)
                    demand_miss(lines[i], args[i], mlp, core_stats)
                elif code == _HIT:
                    hier.now += dc
                    hier._inflight_hit(lines[i], mlp, core_stats)
                    if n_req[i]:
                        hw_requests(islice(reqs, n_req[i]), core_stats)
                elif code == _PREFETCH:
                    hier._sw_prefetch(lines[i], args[i], core_stats)
                else:
                    hier._nt_store(args[i], lines[i], dc, core_stats)
                i += 1
                cursor[idx] = i
                now = hier.now
                for cost in gaps[i]:
                    now += cost
                hier.now = now
                if i < n_live_core:
                    item = heapq.heappushpop(heap, (now, idx))
                else:
                    item = heapq.heappop(heap) if heap else None
        return n_live, n_dropped

    def _control_epoch(
        self,
        stats: list[RunStats],
        prev: list[tuple[int, int, int]],
    ) -> list[tuple[int, int, int]]:
        """Run one coordinator decision and retune every prefetcher.

        ``prev`` holds each core's (transfers, prefetches, insertions)
        counters at the previous epoch boundary; this epoch's feedback
        is computed from the deltas since then.
        """
        llc_bytes = float(self.machine.llc.size_bytes)
        snap = []
        deltas = []
        for core_stats, (p_tr, p_pf, p_ins) in zip(stats, prev):
            transfers = core_stats.dram_fills + core_stats.dram_writebacks
            prefetches = core_stats.hw_prefetches
            inserts = core_stats.llc_insertions
            snap.append((transfers, prefetches, inserts))
            deltas.append((transfers - p_tr, prefetches - p_pf, inserts - p_ins))

        total_traffic = sum(d[0] for d in deltas)
        total_inserts = sum(d[2] for d in deltas)
        n = len(stats)
        feedback = []
        for spec, (d_tr, d_pf, d_ins) in zip(self.cores, deltas):
            bw_share = d_tr / total_traffic if total_traffic > 0 else 1.0 / n
            spec_share = min(1.0, d_pf / d_tr) if d_tr > 0 else 0.0
            llc_share = d_ins / total_inserts if total_inserts > 0 else 1.0 / n
            if spec.mrc is not None:
                lo = max(int(llc_share * llc_bytes), 65536)
                gradient = max(
                    0.0,
                    1.0 - float(spec.mrc.at(2 * lo)) / max(float(spec.mrc.at(lo)), 1e-12),
                )
            else:
                gradient = 0.0
            feedback.append(
                CoreFeedback(
                    name=spec.name,
                    bw_share=bw_share,
                    spec_share=spec_share,
                    mrc_gradient=gradient,
                    llc_share=llc_share,
                )
            )

        rho = self.bandwidth.utilisation()
        with obs.span("coord.decide", policy=self.coordinator.name, cores=n):
            tunings = self.coordinator.decide(feedback, rho)
        if len(tunings) != n:
            raise SimulationError(
                f"coordinator returned {len(tunings)} tunings for {n} cores"
            )
        note_decisions(tunings)
        for spec, tuning in zip(self.cores, tunings):
            prefetcher = spec.prefetcher
            if prefetcher is not None:
                prefetcher.apply_tuning(tuning)
        return snap


@dataclass
class _LiveEvents:
    """One core's live events, in program order, as the batch driver runs them.

    ``gaps[i]`` lists what the skipped events before live event ``i``
    add to the clock, one charge per event in program order
    (:func:`~repro.cachesim.hierarchy.clock_charges`; ``gaps[-1]``:
    after the last one); ``args[i]`` is a
    demand access's write flag, a prefetch's NTA flag or an NT store's
    PC; ``n_requests[i]`` how many hardware-prefetch requests the event
    issues, the next ``(line, fill_l2, llc_bypass)`` triples ``requests``
    yields; ``victims`` yields each L1 install's victim, for
    :meth:`CacheHierarchy.replayed_l1`; ``dropped`` counts the requests
    left out as L2-resident.
    """

    gaps: list[tuple[float, ...]]
    codes: list[int]
    lines: list[int]
    args: list[int]
    n_requests: list[int]
    requests: Iterator[tuple[int, bool, bool]]
    victims: Iterator[tuple[int, int] | None]
    dropped: int


def _private_pass(
    hier: CacheHierarchy, trace: MemoryTrace, stats: RunStats, demand_cost: float
) -> _LiveEvents:
    """Replay one core's L1 and prefetcher, and keep its live events.

    A live event is an L1 miss (demand access or software prefetch), an
    NT store, a demand access with hardware-prefetch requests that may
    miss L2 (:func:`~repro.cachesim.hierarchy.l2_resident_requests`
    drops the others), or a demand L1 hit whose in-flight pop can find
    an entry (:func:`_live_pops`).  Whole-trace columns stay in NumPy;
    Python lists hold live events only.
    """
    n = len(trace)
    hit, vic_idx, vic_line, vic_flags = hier.replay_l1(trace, stats)
    ops = trace.op
    lines = trace.addr >> (hier.machine.line_bytes.bit_length() - 1)
    is_dm = ops <= _STORE
    is_nt = ops == _STORE_NT
    h_ev, h_line, h_fill = _observe(hier.prefetcher, trace, lines, is_dm, hit)
    own = np.nonzero(~hit | is_nt)[0]
    keep = ~l2_resident_requests(
        hier.l2.config.num_sets - 1, h_ev, h_line, h_fill, own, lines[own], is_dm[own]
    )
    h_ev, h_line, h_fill = h_ev[keep], h_line[keep], h_fill[keep]
    dropped = len(keep) - len(h_ev)

    live = ~hit | is_nt
    live[h_ev] = True
    inflight = np.fromiter(hier._inflight, dtype=np.int64, count=len(hier._inflight))
    live[_live_pops(lines, hit, is_dm, is_nt, vic_idx, vic_line, h_ev, h_line, inflight)] = True
    live_ev = np.nonzero(live)[0]

    # Skipped events are demand L1 hits and software prefetches that hit L1.
    gaps = clock_charges(
        np.concatenate(([0], live_ev + 1)),
        np.concatenate((live_ev, [n])),
        (ops > _STORE) & ~is_nt,
        demand_cost,
        hier.machine.prefetch_cost,
    )

    live_op = ops[live_ev]
    live_dm = live_op <= _STORE
    codes = np.where(
        live_dm,
        np.where(hit[live_ev], _HIT, _MISS),
        np.where(live_op == _STORE_NT, _NT_STORE, _PREFETCH),
    )
    args = np.where(
        live_dm,
        np.where(live_op == _STORE, FLAG_DIRTY, 0),
        np.where(live_op == _STORE_NT, trace.pc[live_ev], live_op == _PREFETCH_NTA),
    )
    return _LiveEvents(
        gaps=gaps,
        codes=codes.tolist(),
        lines=lines[live_ev].tolist(),
        args=args.tolist(),
        n_requests=np.bincount(h_ev, minlength=n)[live_ev].tolist(),
        requests=_requests(h_line, h_fill),
        victims=_victims(np.nonzero(~hit & ~is_nt)[0], vic_idx, vic_line, vic_flags),
        dropped=dropped,
    )


def _victims(
    installs: np.ndarray, vic_idx: np.ndarray, vic_line: np.ndarray, vic_flags: np.ndarray
) -> Iterator[tuple[int, int] | None]:
    """Each L1 install's victim in program order, ``(line, flags)`` or ``None``.

    ``installs`` are the installing events, ``vic_*`` the evictions;
    built one chunk at a time, like :func:`_requests`.
    """
    slots = np.searchsorted(installs, vic_idx)
    done = 0
    for start in range(0, len(slots), _CHUNK):
        end = start + _CHUNK
        for slot, line, flags in zip(
            slots[start:end].tolist(), vic_line[start:end].tolist(), vic_flags[start:end].tolist()
        ):
            yield from repeat(None, slot - done)
            yield line, flags
            done = slot + 1
    yield from repeat(None, len(installs) - done)


def _requests(lines: np.ndarray, fills: np.ndarray) -> Iterator[tuple[int, bool, bool]]:
    """``observe_batch``'s requests as ``(line, fill_l2, llc_bypass)`` triples, in order.

    The same rows ``observe`` returns on the event loop; ``_hw_requests``
    reads both.  Built one chunk at a time: a core can issue several
    requests per demand event, and whole-trace lists of them would
    dominate the driver's memory.  An untuned prefetcher never bypasses
    the LLC.
    """
    for start in range(0, len(lines), _CHUNK):
        end = start + _CHUNK
        yield from zip(lines[start:end].tolist(), fills[start:end].tolist(), repeat(False))


def _observe(
    prefetcher: HardwarePrefetcher,
    trace: MemoryTrace,
    lines: np.ndarray,
    is_dm: np.ndarray,
    hit: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The prefetcher's requests over a core's demand events.

    ``observe_batch`` runs in chunks of ``_CHUNK`` demand events.
    Returns each request's triggering event (trace index), target line
    and L2-fill flag, in issue order.
    """
    dm_ev = np.nonzero(is_dm)[0]
    evs = [np.empty(0, dtype=np.int64)]
    targets = [np.empty(0, dtype=np.int64)]
    fills = [np.empty(0, dtype=bool)]
    for start in range(0, len(dm_ev), _CHUNK):
        sel = dm_ev[start : start + _CHUNK]
        ev, target, fill = prefetcher.observe_batch(
            trace.pc[sel], trace.addr[sel], lines[sel], hit[sel]
        )
        evs.append(sel[ev])
        targets.append(target)
        fills.append(fill)
    return np.concatenate(evs), np.concatenate(targets), np.concatenate(fills)


def _live_pops(
    lines: np.ndarray,
    hit: np.ndarray,
    is_dm: np.ndarray,
    is_nt: np.ndarray,
    vic_idx: np.ndarray,
    vic_line: np.ndarray,
    h_ev: np.ndarray,
    h_line: np.ndarray,
    inflight: np.ndarray,
) -> np.ndarray:
    """The demand L1 hits whose in-flight pop can find an entry.

    Only a software prefetch that missed L1 and a hardware request can
    set a line's entry (possible sets: a request served on chip sets
    none).  Demand L1 hits, L1 victims and NT stores drop it (kills); a
    demand L1 miss may or may not, so it is neither.  A hit's pop can
    find an entry only if the latest earlier set or kill on its line is
    a possible set or, with none, the line was ``inflight`` when the run
    began.  Within one event a hit's pop precedes its requests, a miss's
    requests precede its victim, and a prefetch's victim precedes its
    set: keys ``4 * event + 0..3`` order them.
    """
    hit_ev = np.nonzero(is_dm & hit)[0]
    pf_ev = np.nonzero(~is_dm & ~is_nt & ~hit)[0]
    nt_ev = np.nonzero(is_nt)[0]
    op_line = np.concatenate((lines[hit_ev], h_line, lines[pf_ev], vic_line, lines[nt_ev]))
    op_key = np.concatenate((4 * hit_ev, 4 * h_ev + 1, 4 * pf_ev + 3, 4 * vic_idx + 2, 4 * nt_ev))
    n_set_from = len(hit_ev)
    n_set_to = n_set_from + len(h_ev) + len(pf_ev)
    is_set = np.zeros(len(op_line), dtype=bool)
    is_set[n_set_from:n_set_to] = True

    # Order by (line, key, position): two stable sorts, the minor key first.
    by_key = np.argsort(op_key, kind="stable")
    order = by_key[np.argsort(op_line[by_key], kind="stable")]
    sorted_line = op_line[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = sorted_line[1:] != sorted_line[:-1]
    after_set = np.zeros(len(order), dtype=bool)
    after_set[1:] = is_set[order][:-1]
    after_set[first] = np.isin(sorted_line[first], inflight)
    live = np.empty(len(order), dtype=bool)
    live[order] = after_set
    return hit_ev[live[: len(hit_ev)]]
