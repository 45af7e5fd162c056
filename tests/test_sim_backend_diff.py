"""Differential tests: fast simulation backend vs the dict-based oracle.

The fast backend's contract is *bit-identity*: same miss vectors, same
PCStats, same eviction victims, same RunStats (including float cycle
counts) as the reference simulator, on any trace.  These tests enforce
the contract over seeded random traces across associativities and both
prefetch-handling modes, plus the backend-selection plumbing.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro.cachesim.hierarchy as hierarchy_module
from repro.cachesim import BandwidthModel, CacheHierarchy, FunctionalCacheSim, RunStats
from repro.cachesim.fastlru import EMPTY, FastLRUCache
from repro.cachesim.lru import (
    FLAG_DIRTY,
    FLAG_HW_PREFETCH,
    FLAG_NTA,
    FLAG_SW_PREFETCH,
    LRUCache,
)
from repro.cachesim.options import (
    BACKENDS,
    SimOptions,
    get_default_options,
    resolve_options,
    set_default_options,
    validate_backend,
)
from repro.config import CacheConfig, MachineConfig
from repro.errors import ConfigError
from repro.hwpref import (
    AdjacentLinePrefetcher,
    GHBPrefetcher,
    NullPrefetcher,
    PCStridePrefetcher,
    PrefetchTuning,
    StreamerPrefetcher,
    amd_hw_prefetcher,
    intel_hw_prefetcher,
)
from repro.hwpref.streamer import CompositePrefetcher
from repro.trace import MemOp, MemoryTrace

PREFETCHER_FACTORIES = {
    "null": NullPrefetcher,
    "adjacent": AdjacentLinePrefetcher,
    "stride": PCStridePrefetcher,
    "ghb": GHBPrefetcher,
    "streamer": StreamerPrefetcher,
    "amd": amd_hw_prefetcher,
    "intel": intel_hw_prefetcher,
}


def random_trace(rng, n, footprint_lines, prefetch_share=0.0, all_ops=False):
    """Seeded mixed trace: streaming + hot-set + random addresses."""
    stream = (np.arange(n) % footprint_lines) * 64
    hot = rng.integers(0, max(2, footprint_lines // 16), n) * 64
    rand = rng.integers(0, footprint_lines * 4, n) * 64
    pick = rng.random(n)
    addr = np.where(pick < 0.4, stream, np.where(pick < 0.8, hot, rand))
    pc = rng.integers(0, 32, n)
    op = np.zeros(n, dtype=np.int64)
    if all_ops:
        roll = rng.random(n)
        op[roll < 0.25] = int(MemOp.STORE)
        op[(roll >= 0.25) & (roll < 0.30)] = int(MemOp.PREFETCH)
        op[(roll >= 0.30) & (roll < 0.34)] = int(MemOp.PREFETCH_NTA)
        op[(roll >= 0.34) & (roll < 0.38)] = int(MemOp.STORE_NT)
    elif prefetch_share:
        op[rng.random(n) < prefetch_share] = int(MemOp.PREFETCH)
    return MemoryTrace(pc, addr, op)


def set_trace(rng, n, sets, n_sets, tags=12):
    """``n`` loads, each to one of ``tags`` lines of a set drawn from
    ``sets`` (a set drawn as often as it appears there)."""
    lines = rng.choice(sets, n) + n_sets * rng.integers(0, tags, n)
    zeros = np.zeros(n, dtype=np.int64)
    return MemoryTrace(zeros, lines * 64, zeros)


def lru_state(cache):
    """Each set's ``(line, flags)`` pairs in LRU -> MRU order."""
    if isinstance(cache, FastLRUCache):
        order = np.argsort(cache.stamp, axis=1, kind="stable")
        tags = np.take_along_axis(cache.tags, order, axis=1).tolist()
        flags = np.take_along_axis(cache.flags, order, axis=1).tolist()
        return [
            [(t, f) for t, f in zip(row_t, row_f) if t != EMPTY]
            for row_t, row_f in zip(tags, flags)
        ]
    return [list(s.items()) for s in cache._sets]


BANDWIDTH_STATE = ("_free_time", "_ewma_bpc", "_last_time", "total_bytes", "total_transfers")


def assert_same_state(ref_h, fast_h):
    """Hierarchy state after a run: time, in-flight map, every set's
    ``(line, flags)`` in LRU order, write-combining buffer, bandwidth."""
    assert ref_h.now == fast_h.now
    assert ref_h._inflight == fast_h._inflight
    for lvl in ("l1", "l2", "llc"):
        assert lru_state(getattr(ref_h, lvl)) == lru_state(getattr(fast_h, lvl)), lvl
    assert ref_h._wc_buffer == fast_h._wc_buffer
    for name in BANDWIDTH_STATE:
        assert getattr(ref_h.bandwidth, name) == getattr(fast_h.bandwidth, name), name


def run_functional(backend, config, trace, honor):
    sim = FunctionalCacheSim(config, backend=backend)
    stats = sim.run(trace, honor_prefetches=honor, collect_victims=True)
    return stats, sim.last_miss, sim.last_victims


class TestFunctionalDifferential:
    @pytest.mark.parametrize("ways", [1, 2, 4, 8])
    @pytest.mark.parametrize("honor", [False, True])
    def test_miss_vectors_pcstats_and_victims_identical(self, rng, ways, honor):
        config = CacheConfig("T", 64 * 64 * ways, ways=ways, line_bytes=64)
        for trial in range(3):
            trace = random_trace(rng, 3000 + trial * 997, 256, prefetch_share=0.2)
            ref, ref_miss, ref_vic = run_functional("reference", config, trace, honor)
            fast, fast_miss, fast_vic = run_functional("fast", config, trace, honor)
            assert np.array_equal(ref_miss, fast_miss)
            assert np.array_equal(ref_vic, fast_vic)
            assert ref.accesses == fast.accesses
            assert ref.misses == fast.misses

    def test_single_set_scalar_tail(self, rng):
        # Every access lands in one set: the wavefront kernel has no
        # cross-set parallelism and must finish on dict sets.
        config = CacheConfig("T", 4 * 64, ways=4, line_bytes=64)
        trace = MemoryTrace(
            np.zeros(2000, np.int64),
            rng.integers(0, 12, 2000) * 64 * config.num_sets,
            np.zeros(2000, np.int64),
        )
        ref, ref_miss, ref_vic = run_functional("reference", config, trace, False)
        fast, fast_miss, fast_vic = run_functional("fast", config, trace, False)
        assert np.array_equal(ref_miss, fast_miss)
        assert np.array_equal(ref_vic, fast_vic)

    def test_many_set_wavefront(self, rng):
        # Uniform pressure over 1024 sets keeps the wavefront rounds
        # wide from start to finish, with four ways or one.
        for ways in (4, 1):
            config = CacheConfig("T", 1024 * ways * 64, ways=ways, line_bytes=64)
            trace = random_trace(rng, 20_000, 8192)
            ref, ref_miss, ref_vic = run_functional("reference", config, trace, False)
            fast, fast_miss, fast_vic = run_functional("fast", config, trace, False)
            assert np.array_equal(ref_miss, fast_miss)
            assert np.array_equal(ref_vic, fast_vic)
            assert ref.total_misses() == fast.total_misses()

    def test_state_carries_across_batches(self, rng):
        # The 2-way closed form; then 4 ways over 256 sets, alternating a
        # batch on eight sets (all on dict sets) with one over every set
        # where those eight are hot (wavefront rounds, then dict sets):
        # each wavefront batch starts from rows the dict tail wrote back,
        # and its victims come from both.
        few, hot = np.arange(8), np.r_[np.arange(256), np.tile(np.arange(8), 60)]
        cases = [
            (
                CacheConfig("T", 32 * 64, ways=2, line_bytes=64),
                [random_trace(rng, 500, 64) for _ in range(4)],
            ),
            (
                CacheConfig("T", 256 * 4 * 64, ways=4, line_bytes=64),
                [set_trace(rng, 2000, few, 256), set_trace(rng, 6000, hot, 256)] * 2,
            ),
        ]
        for config, traces in cases:
            ref_sim = FunctionalCacheSim(config, backend="reference")
            fast_sim = FunctionalCacheSim(config, backend="fast")
            for trace in traces:
                ref_sim.run(trace, collect_victims=True)
                fast_sim.run(trace, collect_victims=True)
                assert np.array_equal(ref_sim.last_miss, fast_sim.last_miss)
                assert np.array_equal(ref_sim.last_victims, fast_sim.last_victims)
            assert lru_state(ref_sim.cache) == lru_state(fast_sim.cache)
            fast_sim.cache.check_invariants()


class TestHierarchyDifferential:
    def _compare(self, machine, trace, prefetcher_factory=None, **run_kw):
        compare_hierarchies(machine, [trace], prefetcher_factory or NullPrefetcher, **run_kw)

    def test_all_event_kinds(self, tiny_machine, rng):
        trace = random_trace(rng, 6000, 512, all_ops=True)
        self._compare(tiny_machine, trace, work_per_memop=3.0, mlp=2.0)

    def test_with_hardware_prefetchers(self, tiny_machine, rng):
        trace = random_trace(rng, 4000, 512, all_ops=True)
        for factory in (PCStridePrefetcher, GHBPrefetcher):
            self._compare(tiny_machine, trace, prefetcher_factory=factory)

    def test_full_machine_model(self, amd, rng):
        trace = random_trace(rng, 8000, 4096, all_ops=True)
        self._compare(amd, trace, work_per_memop=8.0, mlp=4.0)


def pc_correlated_trace(rng, n, hot_lines=64, n_streams=5, nta_share=0.0, sw_share=0.0):
    """Demand-heavy trace with PC-correlated streams (prefetchers fire)."""
    hot = rng.integers(0, hot_lines, n) * 64
    sid = rng.integers(0, n_streams, n)
    prog = np.zeros(n, dtype=np.int64)
    for s in range(n_streams):
        m = sid == s
        prog[m] = np.arange(m.sum())
    stream = (1 << 22) + sid * (1 << 18) + prog * 8 * (1 + (sid % 4))
    pick = rng.random(n)
    addr = np.where(pick < 0.6, hot, stream)
    pc = np.where(pick < 0.6, 900 + (hot // 64) % 7, 100 + sid)
    op = np.where(rng.random(n) < 0.3, int(MemOp.STORE), int(MemOp.LOAD))
    roll = rng.random(n)
    op = np.where(roll < sw_share, int(MemOp.PREFETCH), op)
    op = np.where(
        (roll >= sw_share) & (roll < sw_share + nta_share),
        int(MemOp.PREFETCH_NTA),
        op,
    )
    return MemoryTrace(pc.astype(np.int64), addr.astype(np.int64), op.astype(np.int64))


RUNSTAT_FIELDS = (
    "sw_prefetches", "sw_useful", "sw_useless", "sw_late",
    "hw_prefetches", "hw_useful", "hw_useless",
    "dram_fills", "nta_fills", "dram_writebacks", "nt_store_writes",
)


def compare_hierarchies(machine, traces, factory, bandwidth=False, accumulate=False, **run_kw):
    """Run the same traces under both backends; assert bit-identity.

    With ``accumulate`` every run adds to one ``RunStats`` per backend,
    as ``core/online.py`` drives a hierarchy through successive slices.
    Returns the fast hierarchy so callers can assert on the path taken.
    """
    hiers = {}
    acc = {}
    for backend in BACKENDS:
        bw = BandwidthModel(machine.bytes_per_cycle()) if bandwidth else None
        hiers[backend] = CacheHierarchy(
            machine, prefetcher=factory(), bandwidth=bw, options=backend
        )
        acc[backend] = RunStats(line_bytes=machine.line_bytes) if accumulate else None
    for trace in traces:
        stats = {b: h.run(trace, stats=acc[b], **run_kw) for b, h in hiers.items()}
        assert_same_stats(stats["reference"], stats["fast"])
        assert_same_state(hiers["reference"], hiers["fast"])
    return hiers["fast"]


def assert_same_stats(ref, fast):
    """Every ``RunStats`` counter, per-PC L1 counts and float cycles."""
    assert ref.cycles == fast.cycles  # bit-identical, not approx
    assert ref.instructions == fast.instructions
    assert (ref.l1, ref.l2, ref.llc) == (fast.l1, fast.l2, fast.llc)
    for name in RUNSTAT_FIELDS:
        assert getattr(ref, name) == getattr(fast, name), name
    assert ref.pc_l1.accesses == fast.pc_l1.accesses
    assert ref.pc_l1.misses == fast.pc_l1.misses


class TestHierarchyBatchParity:
    """The whole-hierarchy batched fast path vs the scalar reference."""

    @pytest.mark.parametrize("model", sorted(PREFETCHER_FACTORIES))
    def test_every_prefetcher_model_batch_parity(self, amd, rng, model):
        traces = [pc_correlated_trace(rng, 5000) for _ in range(2)]
        fast_h = compare_hierarchies(
            amd, traces, PREFETCHER_FACTORIES[model], work_per_memop=2.0, mlp=2.0
        )
        # pure-demand traces must engage the batched pipeline
        assert fast_h.last_run_path == "batch"

    def test_nta_bypass_parity(self, amd, rng):
        traces = [pc_correlated_trace(rng, 5000, nta_share=0.05, sw_share=0.05)]
        compare_hierarchies(
            amd, traces, GHBPrefetcher, work_per_memop=2.0, mlp=2.0
        )

    @pytest.mark.parametrize("bandwidth", [False, True])
    def test_bandwidth_model_on_off(self, amd, rng, bandwidth):
        traces = [pc_correlated_trace(rng, 5000)]
        compare_hierarchies(
            amd, traces, StreamerPrefetcher, bandwidth=bandwidth,
            work_per_memop=2.0, mlp=2.0,
        )

    def test_throttled_prefetcher_uses_scalar_path(self, amd):
        # A utilisation-throttled prefetcher uses the scalar path when
        # its callback reads some other object than the hierarchy's own
        # bandwidth model; reading its own, it batches below the knee.
        # Both match the reference.
        trace = pc_correlated_trace(np.random.default_rng(7), 4000)
        for foreign, path in ((False, "batch"), (True, "scalar")):
            results = {}
            for backend in BACKENDS:
                bw = BandwidthModel(amd.bytes_per_cycle())
                util = (lambda bw=bw: bw.utilisation()) if foreign else bw.utilisation
                pf = amd_hw_prefetcher(amd.line_bytes, util)
                h = CacheHierarchy(amd, prefetcher=pf, bandwidth=bw, options=backend)
                results[backend] = (h.run(trace, work_per_memop=2.0, mlp=2.0), h)
            ref, fast = results["reference"][0], results["fast"][0]
            assert ref.cycles == fast.cycles
            assert ref.hw_prefetches == fast.hw_prefetches
            assert_same_state(results["reference"][1], results["fast"][1])
            assert results["fast"][1].last_run_path == path

    @pytest.mark.parametrize("model", ["ghb", "stride"])
    def test_prefetcher_tuned_after_construction_runs_scalar(self, amd, rng, model):
        # Untuned at construction, the fast hierarchy gets array-backed
        # caches; a coordinator tuning applied afterwards makes the
        # prefetcher unsafe to batch, so the run must move the levels
        # into dict-backed caches, take the scalar loop on them and
        # still match the reference.
        from repro import obs

        trace = pc_correlated_trace(rng, 4000)
        hiers = {
            backend: CacheHierarchy(
                amd, prefetcher=PREFETCHER_FACTORIES[model](), options=backend
            )
            for backend in BACKENDS
        }
        assert isinstance(hiers["fast"].l1, FastLRUCache)
        for h in hiers.values():
            h.prefetcher.apply_tuning(PrefetchTuning(degree_scale=0.5))
        obs.disable()
        obs.reset_metrics()
        obs.enable()
        try:
            stats = {b: h.run(trace, work_per_memop=2.0, mlp=2.0) for b, h in hiers.items()}
            spans = [s["attrs"] for s in obs.drain_spans() if s["name"] == "cachesim.run"]
        finally:
            obs.disable()
            obs.reset_metrics()
        assert [(a["backend"], a["path"], a.get("reason")) for a in spans] == [
            ("reference", "scalar", "reference-backend"),
            ("fast", "scalar", "prefetcher-not-batch-safe"),
        ]
        ref, fast = stats["reference"], stats["fast"]
        assert ref.cycles == fast.cycles
        assert (ref.l1, ref.l2, ref.llc) == (fast.l1, fast.l2, fast.llc)
        for name in RUNSTAT_FIELDS:
            assert getattr(ref, name) == getattr(fast, name), name
        assert_same_state(hiers["reference"], hiers["fast"])
        for lvl in ("l1", "l2", "llc"):
            assert type(getattr(hiers["fast"], lvl)) is LRUCache, lvl


def prefetch_after_load_trace(rng, n, kind, distance=6):
    """Every load followed by a software prefetch ``distance`` lines
    ahead at the same pc, as the paper's rewrite emits them."""
    base = pc_correlated_trace(rng, n)
    loads = base.op == int(MemOp.LOAD)
    if kind == "t0":
        pf_op = np.full(n, int(MemOp.PREFETCH))
    elif kind == "nta":
        pf_op = np.full(n, int(MemOp.PREFETCH_NTA))
    else:
        pf_op = rng.choice([int(MemOp.PREFETCH), int(MemOp.PREFETCH_NTA)], n)
    pc = np.stack((base.pc, base.pc), axis=1)
    addr = np.stack((base.addr, base.addr + distance * 64), axis=1)
    op = np.stack((base.op, pf_op), axis=1)
    keep = np.stack((np.ones(n, dtype=bool), loads), axis=1)
    return MemoryTrace(pc[keep], addr[keep], op[keep])


def crafted_trace(lines, ops, line_bytes=64):
    return MemoryTrace(
        np.full(len(lines), 7, dtype=np.int64),
        np.asarray(lines, dtype=np.int64) * line_bytes,
        np.asarray([int(o) for o in ops], dtype=np.int64),
    )


def chain_machine():
    """L1 2 sets x 2 ways, L2 16 x 2, LLC 4 x 16: an LLC set spans four
    L2 sets, so a line can leave the LLC while L2 keeps it.  A group
    (``line & 3``) is one LLC set."""
    return MachineConfig(
        name="chain",
        l1=CacheConfig("L1", 256, ways=2, line_bytes=64, hit_latency=2),
        l2=CacheConfig("L2", 2048, ways=2, line_bytes=64, hit_latency=8),
        llc=CacheConfig("LLC", 4096, ways=16, line_bytes=64, hit_latency=20),
        cores=1,
        freq_ghz=1.0,
        dram_latency=100,
        peak_bandwidth_gbs=8.0,
        prefetch_cost=1.0,
        cpi_base=0.5,
        cycles_per_memop=2.0,
    )


def speculation_chain_trace():
    """T0 prefetches chained inside one group of :func:`chain_machine`.

    Lines ``p, z1, z2`` of L2 set 3 are loaded (``z2`` evicts ``p`` from
    L2), then sixteen lines of the same LLC set that live in other L2
    sets evict all three from the LLC while L2 keeps ``z1, z2``.  The
    batch guesses that a prefetch of a line it has already seen hits
    the LLC, so re-fetching ``p`` first skips its L2 install.  Until
    that guess is corrected ``p`` cannot evict ``z1``, so the prefetch of
    ``z1`` hits L2 and its own wrong guess stays hidden for a round; the
    same then holds for ``z2``.  Four rounds in all.
    """
    load, pf = MemOp.LOAD, MemOp.PREFETCH
    chain = [3, 19, 35]  # p, z1, z2
    fillers = [line for line in range(3, 200, 4) if line % 16 != 3][:16]
    lines = chain + fillers + chain
    ops = [load] * (len(chain) + len(fillers)) + [pf] * len(chain)
    return crafted_trace(lines, ops)


def nt_store_trace(rng, n=3000):
    """Random traffic around NT stores to WC-merged, in-flight and
    dirty lines (tiny machine geometry: L1 set = ``line & 7``)."""
    load, store, nt = MemOp.LOAD, MemOp.STORE, MemOp.STORE_NT
    pf = MemOp.PREFETCH
    a, b, c, d, e = 1000, 1001, 1002, 1003, 1004
    crafted = crafted_trace(
        # WC merges, then a FIFO overflow that re-opens line a
        [a, a, b, a, 2000, 2001, 2002, 2003, a]
        # prefetch in flight, then NT-stored, then loaded
        + [c, c, c]
        # dirty in L1, NT-stored
        + [d, d, d]
        # dirty in L2 (evicted from L1 by two same-set loads), NT-stored
        + [e, e, e + 8, e + 16, e, e],
        [nt, nt, nt, nt, nt, nt, nt, nt, nt]
        + [pf, nt, load]
        + [store, nt, load]
        + [store, store, load, load, nt, load],
    )
    return MemoryTrace.concat(
        [
            random_trace(rng, n, 256, all_ops=True),
            crafted,
            random_trace(rng, n, 256, all_ops=True),
            crafted,
        ]
    )


def traced_run_attrs(hier, trace, **run_kw):
    """Run with tracing on; the ``cachesim.run`` span's attributes."""
    from repro import obs

    obs.disable()
    obs.reset_metrics()
    obs.enable()
    try:
        hier.run(trace, **run_kw)
        return [s["attrs"] for s in obs.drain_spans() if s["name"] == "cachesim.run"][-1]
    finally:
        obs.disable()
        obs.reset_metrics()


class TestRewrittenTraceBatch:
    """Whole rewritten traces — software prefetches and NT stores folded
    into the batch — against the scalar reference."""

    @pytest.mark.parametrize("kind", ["t0", "nta", "mixed"])
    @pytest.mark.parametrize("model", sorted(PREFETCHER_FACTORIES))
    def test_prefetch_after_every_load(self, amd, rng, model, kind):
        traces = [prefetch_after_load_trace(rng, 3000, kind) for _ in range(2)]
        fast_h = compare_hierarchies(
            amd, traces, PREFETCHER_FACTORIES[model], work_per_memop=2.0, mlp=2.0
        )
        assert fast_h.last_run_path == "batch"

    def test_speculation_chain_needs_several_rounds(self):
        machine = chain_machine()
        trace = speculation_chain_trace()
        compare_hierarchies(machine, [trace], NullPrefetcher)
        fast = CacheHierarchy(machine, options="fast")
        attrs = traced_run_attrs(fast, trace)
        assert attrs["spec_rounds"] >= 3
        assert attrs["spec_groups"] >= 2

    @pytest.mark.parametrize("model", ["null", "ghb"])
    def test_nt_stores_merged_inflight_and_dirty(self, tiny_machine, rng, model):
        traces = [nt_store_trace(rng) for _ in range(2)]
        fast_h = compare_hierarchies(
            tiny_machine, traces, PREFETCHER_FACTORIES[model], work_per_memop=3.0
        )
        assert fast_h.last_run_path == "batch"

    @pytest.mark.parametrize("model", ["null", "stride"])
    def test_long_mixed_gap_and_prefetch_tail(self, tiny_machine, rng, model):
        # Line 5000 is loaded once, then loaded and prefetched while it
        # stays in L1 and was never in flight: no timing op, so 241
        # events of demand and prefetch charges form one gap, longer
        # than a pattern key holds.  The trace ends in L1-hit prefetches,
        # which only the tail span charges.
        load, pf = MemOp.LOAD, MemOp.PREFETCH
        hot, other = 5000, 5001  # L1 sets 0 and 1 of the tiny machine
        gap = crafted_trace(
            [hot] + [hot, hot, hot] * 80 + [other] + [hot, hot] * 20 + [hot] * 3,
            [load] + [load, pf, pf] * 80 + [load] + [pf, load] * 20 + [pf] * 3,
        )
        assert 3 * 80 > hierarchy_module._PATTERN_BITS
        trace = MemoryTrace.concat([random_trace(rng, 2000, 256, all_ops=True), gap])
        fast_h = compare_hierarchies(
            tiny_machine, [trace, gap], PREFETCHER_FACTORIES[model], mlp=2.0
        )
        assert fast_h.last_run_path == "batch"

    @pytest.mark.parametrize("model", ["null", "stride"])
    def test_repeated_runs_accumulate_into_one_stats(self, tiny_machine, rng, model):
        trace = random_trace(rng, 6000, 512, all_ops=True)
        fast_h = compare_hierarchies(
            tiny_machine,
            list(trace.iter_chunks(1500)),
            PREFETCHER_FACTORIES[model],
            accumulate=True,
            work_per_memop=2.0,
            mlp=2.0,
        )
        assert fast_h.last_run_path == "batch"


class TestClockCharges:
    """``clock_charges``, which builds the gaps of the hierarchy's batch
    path and of the multicore simulator's, against one charge per event."""

    def test_charges_in_program_order_and_interned(self, rng):
        from repro.cachesim.hierarchy import _PATTERN_BITS, clock_charges

        n = 4000
        is_pf = rng.random(n) < 0.4
        is_pf[1000:1100] = False
        # Random cuts (repeats make empty spans) around spans of exactly
        # the key's bit budget, one event more, 100 demand events and
        # 200 mixed ones; a fifth of the other spans are left out.
        fixed = [500, 500 + _PATTERN_BITS, 501 + 2 * _PATTERN_BITS, 1000, 1100, 1300]
        cuts = np.sort(
            np.concatenate(
                (rng.integers(0, 500, 150), fixed, rng.integers(1300, n + 1, 250), [0, n])
            )
        )
        starts, ends = cuts[:-1], cuts[1:]
        keep = (rng.random(len(starts)) < 0.8) | np.isin(starts, fixed)
        starts, ends = starts[keep], ends[keep]
        charges = clock_charges(starts, ends, is_pf, 2.5, 1.0)
        assert len(charges) == len(starts)
        shared = {}
        for s, e, got in zip(starts.tolist(), ends.tolist(), charges):
            assert got == tuple(1.0 if p else 2.5 for p in is_pf[s:e].tolist())
            assert shared.setdefault(got, got) is got
        lengths = {len(c) for c in charges}
        assert {0, _PATTERN_BITS, _PATTERN_BITS + 1, 100, 200} <= lengths


def saturating_trace(rng, n_calm=2500, n_sweep=3500):
    """A random prefix, then a store sweep that saturates the controller.

    The prefix (every op kind over a small footprint) keeps utilisation
    low; the sweep misses on every line, and a throttled prefetcher
    running ahead of it pushes utilisation past the 70 % knee on
    :func:`narrow_bandwidth` machines.
    """
    sweep = MemoryTrace(
        np.full(n_sweep, 5, dtype=np.int64),
        (1 << 24) + np.arange(n_sweep, dtype=np.int64) * 64,
        np.full(n_sweep, int(MemOp.STORE), dtype=np.int64),
    )
    return MemoryTrace.concat([random_trace(rng, n_calm, 256, all_ops=True), sweep])


def narrow_bandwidth(machine):
    """``machine`` with a controller slow enough for a sweep to saturate."""
    return replace(machine, peak_bandwidth_gbs=4.0)


def throttled_hierarchies(machine, factory):
    """One hierarchy per backend, its prefetcher throttled by its own
    bandwidth model's bound ``utilisation``."""
    hiers = {}
    for backend in BACKENDS:
        bw = BandwidthModel(machine.bytes_per_cycle())
        pf = factory(machine.line_bytes, bw.utilisation)
        hiers[backend] = CacheHierarchy(machine, prefetcher=pf, bandwidth=bw, options=backend)
    return hiers


def assert_rollback_exact(factory, first, discarded, after):
    """Observing ``discarded`` and restoring the checkpoint taken before
    it leaves a model exactly where an untouched twin stands: both then
    issue the same requests for ``after``."""

    def observe(pf, trace):
        lines = trace.addr // 64
        return pf.observe_batch(trace.pc, trace.addr, lines, np.zeros(len(lines), dtype=bool))

    rolled, twin = factory(), factory()
    observe(rolled, first)
    observe(twin, first)
    saved = rolled.checkpoint()
    observe(rolled, discarded)
    rolled.restore(saved)
    for got, want in zip(observe(rolled, after), observe(twin, after)):
        assert np.array_equal(got, want)


class TestKneeReplay:
    """Throttled prefetchers on the batch path: checkpointed spans at full
    aggressiveness, the 70 % knee checked per span, exact scalar replay
    from the span that crossed it."""

    FACTORIES = {"amd": amd_hw_prefetcher, "intel": intel_hw_prefetcher}

    def crossed(self, machine, rng, monkeypatch, model):
        """Both backends after one run over :func:`saturating_trace`,
        with spans of 1000 events; the fast run's span attributes.

        The sweep starts mid-span, so the span rolled back at the knee
        begins with the prefetcher already trained on the sweep.
        """
        monkeypatch.setattr(hierarchy_module, "_KNEE_SPAN", 1000)
        hiers = throttled_hierarchies(narrow_bandwidth(machine), self.FACTORIES[model])
        trace = saturating_trace(rng)
        pf = hiers["fast"].prefetcher
        stats = {b: RunStats(line_bytes=machine.line_bytes) for b in BACKENDS}
        hiers["reference"].run(trace, stats=stats["reference"], work_per_memop=1.0)
        attrs = traced_run_attrs(hiers["fast"], trace, stats=stats["fast"], work_per_memop=1.0)
        assert hiers["fast"].prefetcher is pf  # restored in place
        return hiers, stats, attrs, len(trace)

    @pytest.mark.parametrize("model", ["amd", "intel"])
    def test_knee_crossed_midway_replays_exactly(self, amd, rng, monkeypatch, model):
        hiers, stats, attrs, n = self.crossed(amd, rng, monkeypatch, model)
        assert (attrs["path"], attrs["reason"]) == ("scalar", "knee-crossed")
        # Crossed in a span after the first: earlier spans stay batched.
        assert 1000 <= attrs["batch_events"] < n
        assert attrs["max_utilisation"] > 0.70
        assert_same_stats(stats["reference"], stats["fast"])
        assert_same_state(hiers["reference"], hiers["fast"])
        for lvl in ("l1", "l2", "llc"):
            assert type(getattr(hiers["fast"], lvl)) is LRUCache, lvl

    def test_second_run_after_crossing_stays_scalar(self, amd, rng, monkeypatch):
        hiers, stats, _, _ = self.crossed(amd, rng, monkeypatch, "amd")
        calm = random_trace(rng, 3000, 256, all_ops=True)
        hiers["reference"].run(calm, stats=stats["reference"], work_per_memop=1.0)
        attrs = traced_run_attrs(hiers["fast"], calm, stats=stats["fast"], work_per_memop=1.0)
        assert (attrs["path"], attrs["reason"], attrs["batch_events"]) == (
            "scalar", "knee-crossed", 0
        )
        assert_same_stats(stats["reference"], stats["fast"])
        assert_same_state(hiers["reference"], hiers["fast"])

    def test_foreign_callback_stays_scalar(self, amd, rng):
        # One component of a composite reads a callback that is not the
        # hierarchy's own bound ``bw.utilisation``: no knee check can
        # cover it, so the hierarchy never builds array-backed levels.
        def factory(line_bytes, utilisation):
            return CompositePrefetcher(
                [
                    StreamerPrefetcher(line_bytes, utilisation=utilisation),
                    AdjacentLinePrefetcher(utilisation=lambda: utilisation()),
                ]
            )

        hiers = throttled_hierarchies(narrow_bandwidth(amd), factory)
        assert hiers["fast"].prefetcher.throttled
        assert type(hiers["fast"].l1) is LRUCache
        trace = saturating_trace(rng)
        ref = hiers["reference"].run(trace, work_per_memop=1.0)
        fast = RunStats(line_bytes=amd.line_bytes)
        attrs = traced_run_attrs(hiers["fast"], trace, stats=fast, work_per_memop=1.0)
        assert (attrs["path"], attrs["reason"], attrs["batch_events"]) == (
            "scalar", "prefetcher-not-batch-safe", 0
        )
        assert_same_stats(ref, fast)
        assert_same_state(hiers["reference"], hiers["fast"])

    @pytest.mark.parametrize("model", sorted(PREFETCHER_FACTORIES))
    def test_prefetcher_checkpoint_rolls_back_training(self, rng, model):
        traces = [pc_correlated_trace(rng, 1500) for _ in range(3)]
        assert_rollback_exact(PREFETCHER_FACTORIES[model], *traces)

    @pytest.mark.parametrize("n_sets", [4, 512])
    def test_transplant_round_trip(self, rng, n_sets):
        # Array -> dict: every set's lines keep their LRU order and
        # flags, and both caches then evolve identically.
        config = CacheConfig("T", n_sets * 4 * 64, ways=4, line_bytes=64)
        fast = FastLRUCache(config)

        def stream(n):
            return (
                rng.integers(0, 8 * n_sets, n),
                rng.integers(0, 7, n).astype(np.uint8),
                rng.integers(1, 32, n),
            )

        fast.ops_batch(*stream(40 * n_sets))
        moved = fast.to_lru()
        assert type(moved) is LRUCache
        assert lru_state(moved) == lru_state(fast)
        moved.check_invariants()
        for _ in range(4):
            ops = stream(1000)
            for got, want in zip(moved.ops_batch(*ops), fast.ops_batch(*ops)):
                assert np.array_equal(got, want)
        assert lru_state(moved) == lru_state(fast)
        moved.check_invariants()
        fast.check_invariants()


class TestDrainWritebacks:
    def test_fast_matches_reference(self, tiny_machine, rng):
        load, store, nta = MemOp.LOAD, MemOp.STORE, MemOp.PREFETCH_NTA
        n_line, x = 3000, 3001
        # An NTA line dirtied in L1; then x dirty in L2 (evicted from
        # L1 by two same-set loads) and dirty again in L1.
        tail = crafted_trace(
            [n_line, n_line, x, x + 8, x + 16, x, x],
            [nta, store, store, load, load, load, store],
        )
        for _ in range(3):
            trace = MemoryTrace.concat([random_trace(rng, 4000, 512, all_ops=True), tail])
            drained = {}
            for backend in BACKENDS:
                h = CacheHierarchy(tiny_machine, options=backend)
                st = h.run(trace, work_per_memop=2.0, mlp=2.0)
                l1, l2, llc = (
                    dict(pair for s in lru_state(cache) for pair in s)
                    for cache in (h.l1, h.l2, h.llc)
                )
                assert l1[n_line] & (FLAG_NTA | FLAG_DIRTY) == FLAG_NTA | FLAG_DIRTY
                assert l1[x] & FLAG_DIRTY
                assert l2[x] & FLAG_DIRTY
                dirty = {
                    line for level in (l1, l2, llc) for line, f in level.items() if f & FLAG_DIRTY
                }
                count = h.drain_writebacks(st)
                assert count == len(dirty)  # a line dirty twice drains once
                drained[backend] = (
                    count,
                    st.dram_writebacks,
                    [getattr(h.bandwidth, name) for name in BANDWIDTH_STATE],
                )
            assert drained["reference"] == drained["fast"]


#: Own L2 ops of the residency-rule streams: a demand L1 miss, a T0 or
#: NTA software prefetch that missed L1, an NT store.
_DEMAND, _T0, _NTA, _NT = range(4)


def l2_bound_events(rng, n, n_lines=24):
    """Seeded events whose L2 ops crowd a few lines: each demand event
    issues 0-3 filling or non-filling requests near its line and may
    miss L1; a software prefetch or NT store has no requests; any event
    may be followed by an L1 victim's dirty touch.  Returns one
    ``(requests, own, touch)`` row per event: ``requests`` a list of
    ``(line, fill)``, ``own`` ``(kind, line)`` or None, ``touch`` a
    line or None."""
    events = []
    for _ in range(n):
        line = int(rng.integers(0, n_lines))
        roll = rng.random()
        requests = []
        if roll < 0.75:  # a demand access: an L1 hit (own None) or miss
            own = (_DEMAND, line) if rng.random() < 0.5 else None
            for _ in range(int(rng.integers(0, 4))):
                target = max(0, line + int(rng.integers(-2, 3)))
                requests.append((target, bool(rng.random() < 0.8)))
        else:
            own = (int(rng.choice([_T0, _NTA, _NT])), line)
        touch = int(rng.integers(0, n_lines)) if rng.random() < 0.2 else None
        events.append((requests, own, touch))
    return events


def resident_by_rule(events, set_mask):
    """The rule, event by event: a request is resident when its set's
    previous op (touches skipped) is a demand miss or a filling request
    on its line."""
    last = {}
    out = []
    for requests, own, _ in events:
        for line, fill in requests:
            prev = last.get(line & set_mask)
            out.append(prev == (line, True))
            last[line & set_mask] = (line, fill)
        if own is not None:
            last[own[1] & set_mask] = (own[1], own[0] == _DEMAND)
    return out


class TestL2ResidentRule:
    """``l2_resident_requests`` drops only requests that hit L2 and
    change nothing, the ``l2.contains(...) -> continue`` of the scalar
    ``_hw_requests``."""

    def test_dropped_requests_hit_and_leave_their_set_unchanged(self, rng):
        l2 = LRUCache(CacheConfig("L2", 512, ways=2, line_bytes=64, hit_latency=8))
        set_mask = l2.config.num_sets - 1
        dropped_total = kept_total = 0
        for _ in range(4):  # the cache carries its state between batches
            events = l2_bound_events(rng, 3000)
            req = [(e, line, fill) for e, (reqs, _, _) in enumerate(events) for line, fill in reqs]
            own = [(e, *o) for e, (_, o, _) in enumerate(events) if o is not None]
            req_ev, req_line, req_fill = (np.array(c) for c in zip(*req))
            op_ev, op_kind, op_line = (np.array(c) for c in zip(*own))
            resident = hierarchy_module.l2_resident_requests(
                set_mask, req_ev, req_line, req_fill.astype(bool), op_ev, op_line, op_kind == _DEMAND
            )
            assert resident.tolist() == resident_by_rule(events, set_mask)
            flags = iter(resident.tolist())
            for requests, own_op, touch in events:
                for line, fill in requests:
                    drop = next(flags)
                    before = list(l2._sets[line & set_mask].items())
                    hit = l2.contains(line)
                    if not hit and fill:
                        l2.install(line, FLAG_HW_PREFETCH)
                    if drop:
                        assert hit
                        assert list(l2._sets[line & set_mask].items()) == before
                if own_op is not None:
                    kind, line = own_op
                    if kind == _DEMAND:
                        if not l2.lookup(line, FLAG_DIRTY):
                            l2.install(line, FLAG_DIRTY)
                    elif kind == _NT:
                        l2.invalidate(line)
                    elif not l2.lookup(line) and kind == _T0 and rng.random() < 0.5:
                        l2.install(line, FLAG_SW_PREFETCH)  # the LLC missed too
                if touch is not None:
                    l2.touch_flags(touch, FLAG_DIRTY)
            dropped_total += int(resident.sum())
            kept_total += int((~resident).sum())
        assert dropped_total > 1000 and kept_total > 1000

    def test_empty_streams(self):
        empty = np.empty(0, dtype=np.int64)
        one = np.array([5])
        for args in (
            (empty, empty, empty.astype(bool), empty, empty, empty.astype(bool)),
            (empty, empty, empty.astype(bool), one, one, np.array([True])),
            (one, one, np.array([True]), empty, empty, empty.astype(bool)),
        ):
            resident = hierarchy_module.l2_resident_requests(3, *args)
            assert resident.dtype == bool and not resident.any()


class TestObserveBatchParity:
    """observe_batch must equal an observe() loop, per model, with state."""

    @pytest.mark.parametrize("model", sorted(PREFETCHER_FACTORIES))
    def test_batch_equals_scalar_loop(self, rng, model):
        scalar_pf = PREFETCHER_FACTORIES[model]()
        batch_pf = PREFETCHER_FACTORIES[model]()
        for _ in range(2):  # second batch checks carried training state
            trace = pc_correlated_trace(rng, 2000)
            lines = trace.addr // 64
            hits = rng.random(len(lines)) < 0.5
            ev, tgt, fill = [], [], []
            for i in range(len(lines)):
                for req in scalar_pf.observe(
                    int(trace.pc[i]), int(trace.addr[i]), int(lines[i]), bool(hits[i])
                ):
                    ev.append(i)
                    tgt.append(req[0])
                    fill.append(req[1])
            bev, btgt, bfill = batch_pf.observe_batch(
                trace.pc, trace.addr, lines, hits
            )
            assert np.array_equal(np.asarray(ev, dtype=np.int64), bev)
            assert np.array_equal(np.asarray(tgt, dtype=np.int64), btgt)
            assert np.array_equal(np.asarray(fill, dtype=bool), bfill)

    @pytest.mark.parametrize("cross_page", [True, False])
    @pytest.mark.parametrize("max_degree,max_streams", [(1, 2), (4, 32), (8, 3), (16, 8)])
    def test_streamer_descending_and_page_crossing(self, rng, cross_page, max_degree, max_streams):
        # Interleaved streams: descending ones that run into line 0 and
        # start over, and ones that cross a 64-line page boundary either
        # way; two batches, so the second starts from the first's
        # stream table.
        starts = [(6, -1), (13, -2), (40, -1), (64 * 5 - 4, 1), (64 * 9 + 3, -1), (64 * 2 - 2, 2)]
        lines = []
        cursor = [start for start, _ in starts]
        for k in rng.integers(0, len(starts), 1600).tolist():
            lines.append(cursor[k])
            cursor[k] += starts[k][1]
            if cursor[k] < 0:
                cursor[k] = starts[k][0]
        lines = np.array(lines, dtype=np.int64)

        def make():
            return StreamerPrefetcher(
                max_degree=max_degree, max_streams=max_streams, cross_page=cross_page
            )

        scalar_pf, batch_pf = make(), make()
        zeros = np.zeros(len(lines), dtype=np.int64)
        hits = rng.random(len(lines)) < 0.5
        for part in np.array_split(np.arange(len(lines)), 2):
            ev, tgt = [], []
            for i in part.tolist():
                for req in scalar_pf.observe(0, int(lines[i]) * 64, int(lines[i]), bool(hits[i])):
                    ev.append(i - part[0])
                    tgt.append(req[0])
            bev, btgt, bfill = batch_pf.observe_batch(
                zeros[part], lines[part] * 64, lines[part], hits[part]
            )
            assert np.array_equal(np.asarray(ev, dtype=np.int64), bev)
            assert np.array_equal(np.asarray(tgt, dtype=np.int64), btgt)
            assert bfill.dtype == bool and bfill.all() and len(bfill) == len(bev)
            assert [
                (page, s.last_line, s.direction, s.confidence)
                for page, s in scalar_pf._streams.items()
            ] == [
                (page, s.last_line, s.direction, s.confidence)
                for page, s in batch_pf._streams.items()
            ]
        if not cross_page:
            assert (btgt // 64 == lines[part][bev] // 64).all()

    def test_ghb_fifo_eviction_fallback(self, rng):
        # A batch that would overflow the PC table falls back to the
        # base observe() loop and must still match it exactly, including
        # FIFO eviction order.
        scalar_pf = GHBPrefetcher(table_size=8)
        batch_pf = GHBPrefetcher(table_size=8)
        trace = pc_correlated_trace(rng, 1500, n_streams=11)
        lines = trace.addr // 64
        hits = np.zeros(len(lines), dtype=bool)
        ev, tgt = [], []
        for i in range(len(lines)):
            for req in scalar_pf.observe(
                int(trace.pc[i]), int(trace.addr[i]), int(lines[i]), False
            ):
                ev.append(i)
                tgt.append(req[0])
        bev, btgt, _ = batch_pf.observe_batch(trace.pc, trace.addr, lines, hits)
        assert np.array_equal(np.asarray(ev, dtype=np.int64), bev)
        assert np.array_equal(np.asarray(tgt, dtype=np.int64), btgt)
        assert list(scalar_pf._table) == list(batch_pf._table)
        for pc in scalar_pf._table:
            assert list(scalar_pf._table[pc]) == list(batch_pf._table[pc])

    def test_ghb_vectorised_state_matches(self, rng):
        scalar_pf = GHBPrefetcher()
        batch_pf = GHBPrefetcher()
        trace = pc_correlated_trace(rng, 2000)
        lines = trace.addr // 64
        for i in range(len(lines)):
            scalar_pf.observe(int(trace.pc[i]), int(trace.addr[i]), int(lines[i]), False)
        batch_pf.observe_batch(
            trace.pc, trace.addr, lines, np.zeros(len(lines), dtype=bool)
        )
        assert list(scalar_pf._table) == list(batch_pf._table)
        for pc in scalar_pf._table:
            assert list(scalar_pf._table[pc]) == list(batch_pf._table[pc])


class TestDemand2WayKernel:
    """The round-free 2-way kernel, on demand and fill ops, vs chunked
    replay of itself and vs the dict cache.

    Chunks of <= 2 ops never dispatch to the kernel (it requires n > 2),
    so a second cache fed the same stream two ops at a time replays the
    exact per-op semantics through the generic path — an in-family
    oracle independent of the run decomposition.
    """

    def test_kernel_matches_chunked_replay(self, rng):
        from repro.cachesim.fastlru import OP_DEMAND

        config = CacheConfig("T", 64 * 2 * 64, ways=2, line_bytes=64)
        for trial in range(6):
            kern = FastLRUCache(config)
            oracle = FastLRUCache(config)
            n = 500 + trial * 331
            lines = rng.integers(0, 48, n) * (1 + rng.integers(0, 4, n))
            flags = rng.integers(0, 4, n) * FLAG_DIRTY
            kinds = np.full(n, OP_DEMAND, dtype=np.int64)
            kh, kp, kvi, kvl, kvf = kern.ops_batch(lines, kinds, flags)
            oh = np.empty(0, dtype=bool)
            op_ = np.empty(0, dtype=np.int64)
            ovi, ovl, ovf = [], [], []
            for s in range(0, n, 2):
                h, p, vi, vl, vf = oracle.ops_batch(
                    lines[s : s + 2], kinds[s : s + 2], flags[s : s + 2]
                )
                oh = np.concatenate((oh, h))
                op_ = np.concatenate((op_, p))
                ovi.extend((vi + s).tolist())
                ovl.extend(vl.tolist())
                ovf.extend(vf.tolist())
            assert np.array_equal(kh, oh)
            assert np.array_equal(kp, op_)
            assert kvi.tolist() == ovi
            assert kvl.tolist() == ovl
            assert kvf.tolist() == ovf
            assert lru_state(kern) == lru_state(oracle)
            kern.check_invariants()

    @staticmethod
    def fill_stream(rng, n_sets, n):
        """Demand and fill ops over three lines per set, 40% fills (the
        share of a rewritten trace), so fills often hit the LRU way."""
        from repro.cachesim.fastlru import OP_DEMAND, OP_FILL

        lines = rng.integers(0, n_sets, n) + n_sets * rng.integers(0, 3, n)
        kinds = np.where(rng.random(n) < 0.4, OP_FILL, OP_DEMAND).astype(np.uint8)
        return lines, kinds, rng.integers(0, 32, n)

    @staticmethod
    def lru_way_fills(cache, lines, kinds):
        """Replay on a dict cache, op by op; count the fills that hit the
        LRU way (a resident line that is not its set's MRU line)."""
        from repro.cachesim.fastlru import OP_FILL

        count = 0
        for line, kind in zip(lines.tolist(), kinds.tolist()):
            s = cache._sets[line & cache._set_mask]
            if kind == OP_FILL and line in s:
                count += line != next(reversed(s))
            elif not cache.lookup(line):
                cache.install(line)
        return count

    def test_fills_match_chunked_replay(self, rng):
        config = CacheConfig("T", 64 * 2 * 64, ways=2, line_bytes=64)
        kern = FastLRUCache(config)
        oracle = FastLRUCache(config)
        for batch in range(4):  # state carries across batches
            lines, kinds, flags = self.fill_stream(rng, 64, 700 + 250 * batch)
            got = kern.ops_batch(lines, kinds, flags)
            parts = [
                oracle.ops_batch(lines[s : s + 2], kinds[s : s + 2], flags[s : s + 2])
                for s in range(0, len(lines), 2)
            ]
            assert np.array_equal(got[0], np.concatenate([p[0] for p in parts]))
            assert np.array_equal(got[1], np.concatenate([p[1] for p in parts]))
            victims = [
                (i + 2 * k, line, f)
                for k, p in enumerate(parts)
                for i, line, f in zip(p[2].tolist(), p[3].tolist(), p[4].tolist())
            ]
            assert list(zip(*(v.tolist() for v in got[2:]))) == victims
            assert lru_state(kern) == lru_state(oracle)
            kern.check_invariants()

    @pytest.mark.parametrize("n_sets", [1, 8, 512])
    def test_fills_match_dict_cache_across_batches(self, rng, n_sets):
        # The sets whose fills hit the LRU way finish on dict sets from
        # their pre-batch rows; the other sets keep the run view's
        # write-back.  Both must leave the dict cache's state.
        config = CacheConfig("T", n_sets * 2 * 64, ways=2, line_bytes=64)
        for trial in range(8):
            kern, ref, probe = FastLRUCache(config), LRUCache(config), LRUCache(config)
            lru_fills = 0
            for batch in range(3):
                n = int(rng.integers(3, 6 * n_sets + 400))
                lines, kinds, flags = self.fill_stream(rng, n_sets, n)
                lru_fills += self.lru_way_fills(probe, lines, kinds)
                got = kern.ops_batch(lines, kinds, flags)
                want = ref.ops_batch(lines, kinds, flags)
                for g, w in zip(got, want):
                    assert np.array_equal(g, w)
                assert lru_state(kern) == lru_state(ref)
                kern.check_invariants()
            assert lru_fills > 0


class TestOpsBatchKinds:
    """Every ``ops_batch`` kind, on both cache classes, against the dict
    cache's scalar calls."""

    @staticmethod
    def scalar_replay(cache, lines, kinds, oflags):
        from repro.cachesim import fastlru as f

        hit, prior, victims = [], [], []
        for i, (line, kind, of) in enumerate(zip(lines.tolist(), kinds.tolist(), oflags.tolist())):
            flags = cache.peek_flags(line)
            hit.append(flags is not None)
            prior.append(flags or 0)
            if kind == f.OP_DEMAND:
                victim = None if cache.lookup(line, of) else cache.install(line, of)
            elif kind in (f.OP_FILL, f.OP_PFILL):
                present = cache.contains(line) if kind == f.OP_FILL else cache.lookup(line)
                victim = None if present else cache.install(line, of)
            else:
                victim = None
                if kind == f.OP_TOUCH:
                    cache.touch_flags(line, of)
                elif kind == f.OP_LOOKUP:
                    cache.lookup(line)
                elif kind == f.OP_INVAL:
                    cache.invalidate(line)
            if victim is not None:
                victims.append((i, *victim))
        return hit, prior, victims

    #: (sets, ways): the dict tail, the wavefront, the Intel L1, whose
    #: 64 sets run wholly on dict sets, and the AMD L1, whose demand and
    #: fill batches take the 2-way kernel.
    GEOMETRIES = [
        pytest.param(4, 4, id="4"),
        pytest.param(512, 4, id="512"),
        pytest.param(64, 8, id="64x8"),
        pytest.param(512, 2, id="512x2"),
    ]

    @pytest.mark.parametrize(("n_sets", "ways"), GEOMETRIES)
    def test_every_kind_matches_scalar_calls(self, rng, n_sets, ways):
        self.check_every_kind(rng, n_sets, ways, FastLRUCache)

    @pytest.mark.parametrize(("n_sets", "ways"), GEOMETRIES)
    def test_dict_cache_every_kind_matches_scalar_calls(self, rng, n_sets, ways):
        self.check_every_kind(rng, n_sets, ways, LRUCache)

    def check_every_kind(self, rng, n_sets, ways, cls):
        config = CacheConfig("T", n_sets * ways * 64, ways=ways, line_bytes=64)
        batched, ref = cls(config), LRUCache(config)
        for batch in range(5):  # state carries across batches
            lines = rng.integers(0, 2 * ways * n_sets, 40 * n_sets)
            if batch == 3:
                # Too few active sets for the wavefront: the dict tail
                # resumes sets whose rows the wavefront left out of LRU
                # order.
                lines = lines[lines % n_sets < 64]
            n = len(lines)
            # The last batch holds demand and fill ops only, the kinds
            # of the 2-way kernel.
            kinds = rng.integers(0, 2 if batch == 4 else 7, n).astype(np.uint8)
            oflags = rng.integers(1, 32, n)
            h, p, vi, vl, vf = batched.ops_batch(lines, kinds, oflags)
            rh, rp, rv = self.scalar_replay(ref, lines, kinds, oflags)
            assert h.tolist() == rh
            assert p.tolist() == rp
            assert list(zip(vi.tolist(), vl.tolist(), vf.tolist())) == rv
            assert lru_state(batched) == lru_state(ref)
            batched.check_invariants()


class TestNarrowLevel:
    """A level with fewer sets than ``MIN_WAVEFRONT_SETS`` (the Intel
    L1's 64x8) sends every batch straight to the dict tail."""

    @pytest.mark.parametrize("kernel", ["ops_batch", "access_batch"])
    def test_matches_dict_cache_and_wavefront_across_batches(self, rng, monkeypatch, kernel):
        # ``wide`` runs the same batches as wavefront rounds: with the
        # minimum at one set, its bands never break to the dict tail.
        # ``access_batch``'s wavefront rounds leave the flags matrix as it
        # was, so its states compare lines only.
        from repro.cachesim import fastlru

        config = CacheConfig("T", 64 * 8 * 64, ways=8, line_bytes=64)
        assert config.num_sets < fastlru.MIN_WAVEFRONT_SETS
        narrow, wide, ref = FastLRUCache(config), FastLRUCache(config), LRUCache(config)

        def state(cache):
            sets = lru_state(cache)
            return sets if kernel == "ops_batch" else [[t for t, _ in s] for s in sets]

        for batch in range(6):  # state carries across batches
            n = int(rng.integers(1, 4000))
            lines = rng.integers(0, 64 * 24, n)
            if kernel == "ops_batch":
                args = (lines, rng.integers(0, 7, n).astype(np.uint8), rng.integers(1, 32, n))
                want = ref.ops_batch(*args)
            else:
                args = (lines, True)
                hit, _, _, vic_line, _ = ref.ops_batch(
                    lines, np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.int64)
                )
                want = (~hit, vic_line)
            got = getattr(narrow, kernel)(*args)
            monkeypatch.setattr(fastlru, "MIN_WAVEFRONT_SETS", 1)
            other = getattr(wide, kernel)(*args)
            monkeypatch.undo()
            for g, o, w in zip(got, other, want):
                assert np.array_equal(g, w)
                assert np.array_equal(g, o)
            assert state(narrow) == state(ref)
            assert state(wide) == state(ref)
            assert narrow._clock == wide._clock
            narrow.check_invariants()


class TestSimOptionsPrecedence:
    def test_explicit_beats_spec_and_default(self):
        previous = set_default_options(SimOptions(backend="reference"))
        try:
            assert resolve_options(SimOptions(backend="fast")).backend == "fast"
            assert resolve_options("fast").backend == "fast"
        finally:
            set_default_options(previous)

    def test_default_applies_last(self):
        previous = set_default_options(SimOptions(backend="fast"))
        try:
            assert resolve_options(None).backend == "fast"
        finally:
            set_default_options(previous)

    def test_frozen_and_validated(self):
        opts = SimOptions(backend="fast")
        with pytest.raises(Exception):
            opts.backend = "reference"  # type: ignore[misc]
        with pytest.raises(ConfigError):
            SimOptions(backend="turbo")
        with pytest.raises(ConfigError):
            set_default_options("fast")  # type: ignore[arg-type]

    def test_backend_pinned_at_construction(self, amd, rng):
        # The default in force when the hierarchy is built decides its
        # backend; switching the default before the run moves nothing.
        from repro import obs

        trace = pc_correlated_trace(rng, 2000)
        previous = set_default_options(SimOptions(backend="reference"))
        try:
            h = CacheHierarchy(amd)
            set_default_options(SimOptions(backend="fast"))
            obs.disable()
            obs.reset_metrics()
            obs.enable()
            try:
                h.run(trace, work_per_memop=2.0, mlp=2.0)
                (span,) = [s["attrs"] for s in obs.drain_spans() if s["name"] == "cachesim.run"]
            finally:
                obs.disable()
                obs.reset_metrics()
        finally:
            set_default_options(previous)
        assert h.last_run_path == "scalar"
        assert (span["backend"], span["path"], span.get("reason")) == (
            "reference", "scalar", "reference-backend"
        )

    def test_api_sim_backend_kwarg_removed(self):
        from repro import api

        with pytest.raises(TypeError, match="sim_backend"):
            api.configure(sim_backend="fast")
        # Removal is an error, not a silent default change.
        assert get_default_options().backend == "reference"


class TestPathObservability:
    def test_path_counters_and_span_attribute(self, amd, rng):
        from repro import obs

        obs.disable()
        obs.reset_metrics()
        obs.enable()
        try:
            trace = pc_correlated_trace(rng, 3000)
            fast = CacheHierarchy(amd, options="fast")
            fast.run(trace, work_per_memop=2.0, mlp=2.0)
            ref = CacheHierarchy(amd, options="reference")
            ref.run(trace, work_per_memop=2.0, mlp=2.0)
            assert fast.last_run_path == "batch"
            assert ref.last_run_path == "scalar"
            snap = obs.metrics().snapshot()
            assert snap["sim.hierarchy.path.batch"]["value"] >= 1
            assert snap["sim.hierarchy.path.scalar"]["value"] >= 1
            paths = [
                s["attrs"].get("path")
                for s in obs.drain_spans()
                if s["name"] == "cachesim.run"
            ]
            assert "batch" in paths and "scalar" in paths
        finally:
            obs.disable()
            obs.reset_metrics()

    def test_fallback_reasons_and_speculation_fields(self, amd, rng):
        from repro import obs

        bw = BandwidthModel(amd.bytes_per_cycle())
        hierarchies = {
            "reference-backend": CacheHierarchy(amd, options="reference"),
            # Throttled through a callback that is not the hierarchy's
            # own bound ``bw.utilisation``: the knee check cannot see it.
            "prefetcher-not-batch-safe": CacheHierarchy(
                amd,
                prefetcher=amd_hw_prefetcher(amd.line_bytes, lambda: bw.utilisation()),
                bandwidth=bw,
                options="fast",
            ),
            "shared-llc": CacheHierarchy(amd, llc=LRUCache(amd.llc), options="fast"),
        }
        trace = prefetch_after_load_trace(rng, 2000, "mixed")
        obs.disable()
        obs.reset_metrics()
        obs.enable()
        try:
            for h in hierarchies.values():
                h.run(trace, work_per_memop=2.0, mlp=2.0)
            batch = CacheHierarchy(amd, options="fast")
            batch.run(trace, work_per_memop=2.0, mlp=2.0)
            spans = [s["attrs"] for s in obs.drain_spans() if s["name"] == "cachesim.run"]
            snap = obs.metrics().snapshot()
        finally:
            obs.disable()
            obs.reset_metrics()
        assert [a.get("reason") for a in spans] == list(hierarchies) + [None]
        for reason in hierarchies:
            assert snap[f"sim.hierarchy.reason.{reason}"]["value"] == 1
        *fallbacks, batched = spans
        assert batched["path"] == "batch"
        assert batched["spec_rounds"] >= 1 and batched["spec_groups"] >= 0
        assert all("spec_rounds" not in a for a in fallbacks)
        assert snap["sim.hierarchy.spec_rounds"]["value"] == batched["spec_rounds"]
        assert snap["sim.hierarchy.spec_groups"]["value"] == batched["spec_groups"]

    def test_dropped_requests_span_and_counter(self, intel, rng):
        from repro import obs

        trace = pc_correlated_trace(rng, 4000)
        obs.disable()
        obs.reset_metrics()
        obs.enable()
        try:
            for backend in BACKENDS:
                CacheHierarchy(intel, intel_hw_prefetcher(), options=backend).run(trace)
            spans = [s["attrs"] for s in obs.drain_spans() if s["name"] == "cachesim.run"]
            snap = obs.metrics().snapshot()
        finally:
            obs.disable()
            obs.reset_metrics()
        scalar, batch = sorted(spans, key=lambda a: a["path"] == "batch")
        assert batch["hw_dropped"] > 0 and "hw_dropped" not in scalar
        assert snap["sim.hwpref.l2_resident_dropped"]["value"] == batch["hw_dropped"]

    def test_disabled_tracing_touches_no_counters(self, amd, rng):
        from repro import obs

        obs.disable()
        obs.reset_metrics()
        trace = prefetch_after_load_trace(rng, 1000, "t0")
        CacheHierarchy(amd, options="fast").run(trace)
        CacheHierarchy(amd, amd_hw_prefetcher(), options="fast").run(trace)
        CacheHierarchy(amd, options="reference").run(trace)
        assert not [
            k for k in obs.metrics().snapshot() if k.startswith(("sim.hierarchy", "sim.hwpref"))
        ]

    PASSES = ("l1_s", "observe_s", "l2_llc_s", "timing_build_s", "timing_loop_s")

    def test_traced_batch_run_times_its_passes(self, amd, rng):
        from repro import obs

        obs.disable()
        obs.enable()
        try:
            trace = prefetch_after_load_trace(rng, 3000, "mixed")
            CacheHierarchy(amd, options="fast").run(trace)
            (span,) = [s for s in obs.drain_spans() if s["name"] == "cachesim.run"]
        finally:
            obs.disable()
            obs.reset_metrics()
        attrs = span["attrs"]
        assert attrs["path"] == "batch"
        assert all(attrs[p] >= 0.0 for p in self.PASSES)
        assert sum(attrs[p] for p in self.PASSES) <= span["dur"] / 1e6

    def test_throttled_run_sums_its_spans(self, amd, rng, monkeypatch):
        # A fake clock advancing one second per reading charges exactly
        # one second to every pass of every span.
        ticks = iter(range(1_000_000))
        monkeypatch.setattr(hierarchy_module, "perf_counter", lambda: float(next(ticks)))
        monkeypatch.setattr(hierarchy_module, "_KNEE_SPAN", 1000)
        fast = throttled_hierarchies(amd, amd_hw_prefetcher)["fast"]
        attrs = traced_run_attrs(fast, random_trace(rng, 3000, 256, all_ops=True))
        assert (attrs["path"], attrs["batch_events"]) == ("batch", 3000)
        assert [attrs[p] for p in self.PASSES] == [3.0] * 5

    def test_untraced_batch_run_reads_no_clock(self, amd, rng, monkeypatch):
        from repro import obs

        def no_clock():
            raise AssertionError("an untraced run read the clock")

        obs.disable()
        monkeypatch.setattr(hierarchy_module, "perf_counter", no_clock)
        before = obs.Span.allocated
        hier = CacheHierarchy(amd, options="fast")
        hier.run(prefetch_after_load_trace(rng, 1000, "mixed"))
        assert hier.last_run_path == "batch"
        assert obs.Span.allocated == before

    def test_scalar_run_carries_no_pass_times(self, amd, rng):
        attrs = traced_run_attrs(
            CacheHierarchy(amd, options="reference"),
            prefetch_after_load_trace(rng, 1000, "mixed"),
        )
        assert attrs["path"] == "scalar"
        assert not set(self.PASSES) & set(attrs)


class TestBackendSelection:
    def test_default_is_reference(self):
        assert get_default_options().backend == "reference"
        assert resolve_options(None).backend == "reference"

    def test_explicit_wins_over_config_and_default(self):
        previous = set_default_options(SimOptions(backend="reference"))
        try:
            sim = FunctionalCacheSim(CacheConfig("T", 1024, ways=2), backend="fast")
        finally:
            set_default_options(previous)
        assert sim.backend == "fast"
        assert isinstance(sim.cache, FastLRUCache)

    def test_process_default_applies(self):
        previous = set_default_options(SimOptions(backend="fast"))
        try:
            assert FunctionalCacheSim(CacheConfig("T", 1024, ways=2)).backend == "fast"
        finally:
            set_default_options(previous)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            resolve_options("turbo")
        with pytest.raises(ConfigError):
            validate_backend("turbo")
        with pytest.raises(ConfigError):
            FunctionalCacheSim(CacheConfig("T", 1024, ways=2), backend="turbo")

    def test_api_configure_installs_default(self):
        from repro import api

        previous = get_default_options()
        try:
            api.configure(sim_options=SimOptions(backend="fast"))
            assert get_default_options().backend == "fast"
        finally:
            set_default_options(previous)
            api.reset_default_engine()


class TestCrossCorePrefetcherDiff:
    """hw-xcore helper prefetcher: batch-vs-scalar and backend parity.

    Unlike the models in PREFETCHER_FACTORIES the cross-core prefetcher
    is built *from a program* (it needs the A[B[i]] index directory), so
    it gets its own grid here instead of a zero-arg factory entry.
    """

    @pytest.fixture(params=["pagerank", "hashjoin"])
    def graph(self, request):
        from repro.isa.interpreter import execute_program
        from repro.workloads import build_program, workload_seed

        name = request.param
        program = build_program(name, "train", scale=0.02)
        seed = workload_seed(name, "train")
        return program, execute_program(program, seed=seed).trace

    def test_hierarchy_batch_parity(self, amd, graph):
        from repro.hwpref import cross_core_prefetcher_for

        program, trace = graph
        fast_h = compare_hierarchies(
            amd, [trace], lambda: cross_core_prefetcher_for(program),
            work_per_memop=2.0, mlp=2.0,
        )
        assert fast_h.last_run_path == "batch"

    def test_batch_equals_scalar_loop(self, graph):
        from repro.hwpref import cross_core_prefetcher_for

        program, trace = graph
        scalar_pf = cross_core_prefetcher_for(program)
        batch_pf = cross_core_prefetcher_for(program)
        lines = trace.addr // 64
        hits = np.zeros(len(lines), dtype=bool)
        ev, tgt, fill = [], [], []
        for i in range(len(lines)):
            for req in scalar_pf.observe(
                int(trace.pc[i]), int(trace.addr[i]), int(lines[i]), False
            ):
                ev.append(i)
                tgt.append(req[0])
                fill.append(req[1])
        bev, btgt, bfill = batch_pf.observe_batch(trace.pc, trace.addr, lines, hits)
        assert len(ev) > 0  # the helper actually fires on graph traces
        assert np.array_equal(np.asarray(ev, dtype=np.int64), bev)
        assert np.array_equal(np.asarray(tgt, dtype=np.int64), btgt)
        assert np.array_equal(np.asarray(fill, dtype=bool), bfill)
        assert not bfill.any()  # every fill is LLC-only (cross-core)

    def test_split_batch_carries_next_pointer(self, graph):
        # Chunked replay must equal one whole-trace batch: the per-PC
        # next-issue pointer has to survive the batch boundary.
        from repro.hwpref import cross_core_prefetcher_for

        program, trace = graph
        whole = cross_core_prefetcher_for(program)
        split = cross_core_prefetcher_for(program)
        lines = trace.addr // 64
        hits = np.zeros(len(lines), dtype=bool)
        wev, wtgt, _ = whole.observe_batch(trace.pc, trace.addr, lines, hits)
        cut = len(lines) // 3
        sev, stgt = [], []
        for sl in (slice(0, cut), slice(cut, None)):
            bev, btgt, _ = split.observe_batch(
                trace.pc[sl], trace.addr[sl], lines[sl], hits[sl]
            )
            sev.append(bev + (sl.start or 0))
            stgt.append(btgt)
        assert np.array_equal(wev, np.concatenate(sev))
        assert np.array_equal(wtgt, np.concatenate(stgt))

    def test_checkpoint_rolls_back_next_pointer(self, graph):
        from repro.hwpref import cross_core_prefetcher_for

        program, trace = graph
        third = len(trace) // 3
        assert_rollback_exact(
            lambda: cross_core_prefetcher_for(program),
            trace[:third],
            trace[third : 2 * third],
            trace[third : 2 * third],
        )

    def test_throttled_xcore_falls_back_scalar(self, amd, graph):
        # With a utilisation hook on some other object than the
        # hierarchy's own bandwidth model the model falls back to the
        # scalar path; on its own model it batches below the knee.  Both
        # backends must agree either way.
        from repro.cachesim import BandwidthModel, CacheHierarchy
        from repro.hwpref import cross_core_prefetcher_for

        program, trace = graph
        for foreign, path in ((False, "batch"), (True, "scalar")):
            results = {}
            for backend in BACKENDS:
                bw = BandwidthModel(amd.bytes_per_cycle())
                util = (lambda bw=bw: bw.utilisation()) if foreign else bw.utilisation
                pf = cross_core_prefetcher_for(program, utilisation=util)
                h = CacheHierarchy(amd, prefetcher=pf, bandwidth=bw, options=backend)
                results[backend] = (h.run(trace, work_per_memop=2.0, mlp=2.0), h)
            ref, fast = results["reference"][0], results["fast"][0]
            assert ref.cycles == fast.cycles
            assert ref.hw_prefetches == fast.hw_prefetches
            assert_same_state(results["reference"][1], results["fast"][1])
            assert results["fast"][1].last_run_path == path


#: Per-core work and MLP of the multicore mixes below.  2.3 and 1.7
#: make the tiny machine's demand cost inexact in binary (3.15, 2.85),
#: so a gap charged as ``k * demand_cost`` instead of by repeated
#: addition shows in the clock.
MC_WORK = (2.3, 1.7, 3.1, 0.9)
MC_MLP = (2.0, 1.5, 3.0, 1.0)


def mix_trace(rng, n, core):
    """One core's trace: PC-correlated streams (prefetchers fire), then
    every op kind at random.  Cores' footprints overlap in part, so they
    share some lines and evict each other's in the shared LLC."""
    half = n // 2
    trace = MemoryTrace.concat(
        [
            pc_correlated_trace(rng, half, sw_share=0.08, nta_share=0.04),
            random_trace(rng, n - half, 384, all_ops=True),
        ]
    )
    return MemoryTrace(trace.pc, trace.addr + core * 96 * 64, trace.op)


def mix_sims(machine, traces, factory=lambda core: None, work=MC_WORK, mlp=MC_MLP, **kw):
    """One :class:`MulticoreSimulator` per backend over the same cores;
    each is built under its backend as the process default."""
    from repro.multicore.simulator import CoreSpec, MulticoreSimulator

    sims = {}
    for backend in BACKENDS:
        cores = [
            CoreSpec(
                trace=trace,
                work_per_memop=work[i],
                mlp=mlp[i],
                prefetcher=factory(i),
                name=f"core{i}",
            )
            for i, trace in enumerate(traces)
        ]
        previous = set_default_options(SimOptions(backend=backend))
        try:
            sims[backend] = MulticoreSimulator(machine, cores, **kw)
        finally:
            set_default_options(previous)
    return sims


def traced_mix_run(sim, drain=False):
    """``sim.run(drain)`` with tracing on: the result and the
    ``multicore.run`` span's attributes."""
    from repro import obs

    obs.disable()
    obs.enable()
    try:
        result = sim.run(drain=drain)
        spans = [s["attrs"] for s in obs.drain_spans() if s["name"] == "multicore.run"]
    finally:
        obs.disable()
        obs.reset_metrics()
    (attrs,) = spans
    return result, attrs


def compare_mix(machine, traces, factory=lambda core: None, drains=(False,), **kw):
    """Run a mix on both backends (once per entry of ``drains``, on the
    same simulators) and assert bit-identity: per-core stats, traffic,
    makespan, and every hierarchy's state, the shared LLC and the
    bandwidth model included.  Returns the reference results and the
    fast runs' span attributes."""
    sims = mix_sims(machine, traces, factory, **kw)
    refs, attrs = [], []
    for drain in drains:
        ref = sims["reference"].run(drain=drain)
        fast, fast_attrs = traced_mix_run(sims["fast"], drain)
        for r, f in zip(ref.per_core, fast.per_core):
            assert_same_stats(r, f)
        assert ref.total_bytes == fast.total_bytes
        assert ref.makespan_cycles == fast.makespan_cycles
        for ref_h, fast_h in zip(sims["reference"].hierarchies, sims["fast"].hierarchies):
            assert type(fast_h.l1) is LRUCache
            assert_same_state(ref_h, fast_h)
        refs.append(ref)
        attrs.append(fast_attrs)
    return refs, attrs


class TestMulticoreFastPath:
    """The multicore batch driver against the event loop, its oracle.

    The ``reference`` backend runs every event through the heap; the
    ``fast`` backend replays each core's L1 and prefetcher up front and
    heap-orders only the live events.  Both must agree bit for bit.
    """

    MODELS = ("null", "adjacent", "stride", "ghb", "streamer", "intel")

    def random_mix(self, rng, lengths=(3000, 2200, 2600)):
        return [mix_trace(rng, n, core) for core, n in enumerate(lengths)]

    @pytest.mark.parametrize("drain", [False, True])
    @pytest.mark.parametrize("model", MODELS)
    def test_random_mix_matches_event_loop(self, tiny_machine, rng, model, drain):
        traces = self.random_mix(rng)
        (ref,), (attrs,) = compare_mix(
            tiny_machine, traces, lambda core: PREFETCHER_FACTORIES[model](), drains=(drain,)
        )
        assert (attrs["path"], attrs.get("reason")) == ("batch", None)
        assert attrs["events"] == sum(len(t) for t in traces)
        assert 0 < attrs["live_events"] < attrs["events"]
        if model != "null":
            assert sum(s.hw_prefetches for s in ref.per_core) > 0

    def test_random_mix_exercises_every_mechanism(self, tiny_machine, rng):
        traces = self.random_mix(rng)
        (ref,), _ = compare_mix(tiny_machine, traces)
        total = {
            name: sum(getattr(s, name) for s in ref.per_core)
            for name in ("sw_late", "sw_useless", "dram_writebacks", "nt_store_writes")
        }
        assert all(total.values()), total
        # Cross-core competition for the LLC: every core misses the
        # shared LLC more often than it would alone.
        for core, trace in enumerate(traces):
            (alone,), _ = compare_mix(
                tiny_machine, [trace], work=MC_WORK[core:], mlp=MC_MLP[core:]
            )
            assert alone.per_core[0].llc.misses < ref.per_core[core].llc.misses

    @pytest.mark.parametrize("graph", ["pagerank", "hashjoin"])
    def test_cross_core_prefetcher(self, tiny_machine, rng, graph):
        from repro.hwpref import cross_core_prefetcher_for
        from repro.isa.interpreter import execute_program
        from repro.workloads import build_program, workload_seed

        program = build_program(graph, "train", scale=0.02)
        trace = execute_program(program, seed=workload_seed(graph, "train")).trace[:6000]
        factories = [lambda: cross_core_prefetcher_for(program), PCStridePrefetcher]
        (ref,), (attrs,) = compare_mix(
            tiny_machine,
            [trace, mix_trace(rng, 2500, 1)],
            lambda core: factories[core](),
            drains=(True,),
        )
        assert attrs["path"] == "batch"
        assert ref.per_core[0].hw_prefetches > 0

    def test_fig8_hw_mix_drops_l2_resident_requests(self, intel):
        # The paper's Fig. 8 mix under the Intel streamer and
        # adjacent-line prefetchers: most requests the streamer repeats
        # hit L2 and never reach the heap, and the result is the event
        # loop's.
        from repro.experiments import runner
        from repro.workloads.mixes import fig8_mix

        executions = [
            runner.profile_for(name, "ref", 0.01).execution for name in fig8_mix().members
        ]
        (ref,), (attrs,) = compare_mix(
            intel,
            [ex.trace for ex in executions],
            lambda core: runner.hw_prefetcher_for(intel),
            drains=(True,),
            work=[ex.work_per_memop for ex in executions],
            mlp=[ex.mlp for ex in executions],
        )
        assert attrs["path"] == "batch"
        issued = sum(s.hw_prefetches for s in ref.per_core)
        assert attrs["hw_dropped"] > issued > 0

    def test_identical_traces_tie_on_core_index(self, tiny_machine, rng):
        # Equal work and MLP: both cores' clocks tie before every event
        # until their paths split, and the lower index goes first.
        trace = mix_trace(rng, 2500, 0)
        (ref,), (attrs,) = compare_mix(
            tiny_machine,
            [trace, trace],
            lambda core: PCStridePrefetcher(),
            work=(2.3, 2.3),
            mlp=(2.0, 2.0),
        )
        assert attrs["path"] == "batch"
        # The first core to miss a shared line fetches it; the other hits.
        assert ref.per_core[0].llc.misses > ref.per_core[1].llc.misses

    def test_unequal_lengths_and_an_empty_core(self, tiny_machine, rng):
        traces = [mix_trace(rng, 3000, 0), MemoryTrace.empty(), mix_trace(rng, 300, 2)]
        (ref,), (attrs,) = compare_mix(
            tiny_machine, traces, lambda core: GHBPrefetcher(), drains=(True,)
        )
        assert attrs["events"] == 3300
        assert ref.per_core[1].cycles == 0.0

    def test_second_run_continues_from_the_first(self, tiny_machine, rng):
        # The second run starts with warm caches, clocks that are not
        # zero, and the in-flight entries the first left behind.
        traces = self.random_mix(rng)
        sim = mix_sims(tiny_machine, traces, lambda core: PCStridePrefetcher())["fast"]
        sim.run(drain=False)
        assert all(h._inflight and h.now > 0 for h in sim.hierarchies)
        _, attrs = compare_mix(
            tiny_machine, traces, lambda core: PCStridePrefetcher(), drains=(False, True)
        )
        assert [a["path"] for a in attrs] == ["batch", "batch"]

    def test_liveness_rule(self, tiny_machine):
        # The tiny L1 has 8 sets of 2 ways: lines 4, 12 and 20 share set 4.
        load, prefetch, nt = MemOp.LOAD, MemOp.PREFETCH, MemOp.STORE_NT
        trace = crafted_trace(
            *zip(
                (1, prefetch),  # 0 live: a prefetch that misses L1 sets line 1
                (1, load),  # 1 live: the latest set-or-kill on line 1 is a set
                (1, load),  # 2 dead: event 1's pop killed it
                (2, load),  # 3 live: L1 miss
                (2, load),  # 4 dead: a miss neither sets nor kills
                (3, prefetch),  # 5 live: sets line 3
                (3, nt),  # 6 live: NT store, kills line 3
                (3, load),  # 7 live: L1 miss
                (3, load),  # 8 dead: killed by the NT store
                (4, prefetch),  # 9 live: sets line 4
                (12, load),  # 10 live: L1 miss
                (20, load),  # 11 live: L1 miss, evicts line 4 (kill)
                (4, load),  # 12 live: L1 miss
                (4, load),  # 13 dead: killed by the eviction at 11
            )
        )
        (ref,), (attrs,) = compare_mix(tiny_machine, [trace])
        assert attrs["live_events"] == 10
        assert ref.per_core[0].sw_late == 1  # event 1 waits for its prefetch

    def test_path_reasons_and_counters(self, tiny_machine, rng):
        from repro import obs
        from repro.multicore.coordinator import HeuristicCoordinator

        traces = self.random_mix(rng, (800, 600))
        shared = PCStridePrefetcher()

        def tuned(core):
            pf = PCStridePrefetcher()
            pf.apply_tuning(PrefetchTuning(degree_scale=0.5))
            return pf

        cases = {
            "coordinated": dict(coordinator=HeuristicCoordinator()),
            "throttled": dict(factory=lambda core: PCStridePrefetcher(utilisation=lambda: 0.0)),
            "tuned": dict(factory=tuned),
            "shared-prefetcher": dict(factory=lambda core: shared),
        }
        expected = {
            "coordinated": "coordinated",
            "throttled": "prefetcher-not-batch-safe",
            "tuned": "prefetcher-not-batch-safe",
            "shared-prefetcher": "shared-prefetcher",
        }
        obs.disable()
        obs.reset_metrics()
        obs.enable()
        try:
            sims = [mix_sims(tiny_machine, traces, **kw)["fast"] for kw in cases.values()]
            sims.append(mix_sims(tiny_machine, traces)["reference"])
            sims.append(mix_sims(tiny_machine, traces)["fast"])
            for sim in sims:
                sim.run()
            spans = [s["attrs"] for s in obs.drain_spans() if s["name"] == "multicore.run"]
            snap = obs.metrics().snapshot()
        finally:
            obs.disable()
            obs.reset_metrics()
        reasons = [*expected.values(), "reference-backend", None]
        assert [(a["path"], a.get("reason")) for a in spans] == [
            ("scalar", r) for r in reasons[:-1]
        ] + [("batch", None)]
        for attrs in spans[:-1]:
            assert attrs["live_events"] == attrs["events"] == 1400
        assert spans[-1]["live_events"] < 1400
        assert snap["sim.multicore.path.scalar"]["value"] == 5
        assert snap["sim.multicore.path.batch"]["value"] == 1
        assert all("hw_dropped" not in attrs for attrs in spans[:-1])
        assert snap["sim.hwpref.l2_resident_dropped"]["value"] == spans[-1]["hw_dropped"] == 0
        assert snap["sim.multicore.reason.prefetcher-not-batch-safe"]["value"] == 2
        for reason in ("coordinated", "shared-prefetcher", "reference-backend"):
            assert snap[f"sim.multicore.reason.{reason}"]["value"] == 1

    def test_disabled_tracing_touches_no_counters(self, tiny_machine, rng):
        from repro import obs

        obs.disable()
        obs.reset_metrics()
        traces = self.random_mix(rng, (500, 500))
        for sim in mix_sims(tiny_machine, traces, lambda core: StreamerPrefetcher()).values():
            sim.run()
        assert not [
            k for k in obs.metrics().snapshot() if k.startswith(("sim.multicore", "sim.hwpref"))
        ]

    def test_exception_in_merge_loop_reattaches_real_l1(self, tiny_machine, rng, monkeypatch):
        sim = mix_sims(tiny_machine, self.random_mix(rng, (500, 500, 500)))["fast"]
        real = [h.l1 for h in sim.hierarchies]
        seen = []

        def fail(self, *args):
            seen.append(type(self.l1))
            raise RuntimeError("handler failed")

        monkeypatch.setattr(CacheHierarchy, "_demand_miss", fail)
        with pytest.raises(RuntimeError, match="handler failed"):
            sim.run()
        assert seen and seen[0] is not LRUCache  # raised under the stand-in
        assert all(h.l1 is l1 for h, l1 in zip(sim.hierarchies, real))
