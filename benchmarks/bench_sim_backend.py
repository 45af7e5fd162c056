"""Speedup benchmark: fast cache-simulation backend vs the reference.

Two families of rows, both gated on bit-identity with the reference
simulator:

* **functional** — the single-level simulator on the AMD Phenom II
  cache levels over a mixed 500k-event trace.  The L1 row is the
  headline for the paper's Table I / StatStack pipelines and carries a
  >=5x gate at full scale.
* **end-to-end** — the full ``CacheHierarchy`` (L1+L2+LLC, timing,
  bandwidth model) with a hardware prefetcher attached, over a
  SPEC-like trace (hot L1-resident set, warm L2 set, strided word
  streams).  The GHB row carries the >=4x end-to-end gate: GHB is the
  most expensive reference prefetcher, so it is the configuration
  where batch observation matters most.

Each row times the two backends in ``ROUNDS`` alternating rounds, one
run per backend per round, in CPU time (``time.process_time``), and
gates the median of the per-round speedups: a change in host load
between rounds moves both runs of a ratio, not one backend's column.

The artifact goes to ``benchmarks/results/sim_backend_speedup.txt``.
``REPRO_BENCH_SIM_EVENTS`` shrinks the trace for local smoke runs; the
speedup gates only apply at full scale, where they were measured (CI
runs full scale).
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np
from conftest import save_artifact

from repro.cachesim import BandwidthModel, CacheHierarchy, FunctionalCacheSim
from repro.config import get_machine
from repro.experiments.tables import render_table
from repro.hwpref import GHBPrefetcher, StreamerPrefetcher
from repro.trace import MemOp, MemoryTrace

EVENTS = int(os.environ.get("REPRO_BENCH_SIM_EVENTS", "500000"))
MACHINE = "amd-phenom-ii"
#: Alternating reference/fast rounds per row.
ROUNDS = 3


def _mixed_trace(n: int) -> MemoryTrace:
    rng = np.random.default_rng(42)
    stream = (np.arange(n) * 64) % (8 << 20)
    hot = rng.integers(0, 64 << 10, n) & ~63
    rand = rng.integers(0, 32 << 20, n) & ~63
    pick = rng.random(n)
    addr = np.where(pick < 0.5, stream, np.where(pick < 0.85, hot, rand))
    pc = rng.integers(0, 512, n)
    return MemoryTrace(pc, addr.astype(np.int64), np.zeros(n, np.int64))


def _spec_like_trace(n: int) -> MemoryTrace:
    """SPEC-archetype demand trace: hot set, warm set, word streams.

    70% of accesses hit a 32KB hot working set (L1-resident on the AMD
    machine), 8% a 256KB warm set (L2 hits), 22% walk thirteen
    PC-correlated streams with 8-32 byte word strides — the
    constant-delta pattern hardware prefetchers exist for.
    """
    rng = np.random.default_rng(42)
    hot = rng.integers(0, 512, n) * 64
    warm = rng.integers(0, 4096, n) * 64 + (1 << 24)
    n_streams = 13
    sid = rng.integers(0, n_streams, n)
    strides = 8 * (1 + (sid % 4))
    prog = np.zeros(n, dtype=np.int64)
    for s in range(n_streams):
        m = sid == s
        prog[m] = np.arange(m.sum())
    stream = (2 << 24) + sid * (1 << 20) + prog * strides
    pick = rng.random(n)
    addr = np.where(pick < 0.70, hot, np.where(pick < 0.78, warm, stream))
    pc = np.where(
        pick < 0.70,
        900 + (hot // 64) % 13,
        np.where(pick < 0.78, 800 + (warm // 64) % 7, 100 + sid),
    )
    op = np.where(rng.random(n) < 0.3, int(MemOp.STORE), int(MemOp.LOAD))
    return MemoryTrace(pc.astype(np.int64), addr.astype(np.int64), op.astype(np.int64))


def _time_functional(config, trace, backend):
    sim = FunctionalCacheSim(config, backend=backend)
    t0 = time.process_time()
    stats = sim.run(trace)
    return time.process_time() - t0, stats, sim


def _time_hierarchy(machine, backend, trace, factory):
    bw = BandwidthModel(machine.bytes_per_cycle())
    hier = CacheHierarchy(machine, prefetcher=factory(), bandwidth=bw, options=backend)
    t0 = time.process_time()
    stats = hier.run(trace, work_per_memop=2.0, mlp=2.0)
    return time.process_time() - t0, stats, hier


def _alternate(timed):
    """Run ``timed(backend)`` on both backends in ``ROUNDS`` alternating rounds.

    Returns each backend's median CPU time, the median of the per-round
    ``reference / fast`` ratios, and each backend's last
    ``(stats, simulator)``.
    """
    times = {"reference": [], "fast": []}
    last = {}
    for _ in range(ROUNDS):
        for backend in times:
            seconds, stats, sim = timed(backend)
            times[backend].append(seconds)
            last[backend] = stats, sim
    ratio = statistics.median(r / f for r, f in zip(times["reference"], times["fast"]))
    return (
        statistics.median(times["reference"]),
        statistics.median(times["fast"]),
        ratio,
        last["reference"],
        last["fast"],
    )


_STAT_FIELDS = (
    "sw_prefetches", "sw_useful", "sw_useless", "sw_late",
    "hw_prefetches", "hw_useful", "hw_useless",
    "dram_fills", "nta_fills", "dram_writebacks", "nt_store_writes",
)


def _assert_identical(ref, fast):
    assert ref.cycles == fast.cycles  # bit-identical, not approx
    assert (ref.l1, ref.l2, ref.llc) == (fast.l1, fast.l2, fast.llc)
    for name in _STAT_FIELDS:
        assert getattr(ref, name) == getattr(fast, name), name


def _run_backend_comparison():
    machine = get_machine(MACHINE)
    trace = _mixed_trace(EVENTS)
    rows = []
    speedups = {}
    for config in (machine.l1, machine.l2, machine.llc):
        t_ref, t_fast, ratio, (s_ref, sim_ref), (s_fast, sim_fast) = _alternate(
            lambda backend: _time_functional(config, trace, backend)
        )
        assert np.array_equal(sim_ref.last_miss, sim_fast.last_miss)
        assert s_ref.accesses == s_fast.accesses
        assert s_ref.misses == s_fast.misses
        speedups[config.name] = ratio
        rows.append(
            (
                f"functional {config.name} ({config.ways}-way)",
                f"{t_ref:.3f}s",
                f"{t_fast:.3f}s",
                f"{ratio:.1f}x",
            )
        )

    # End-to-end hierarchy with hardware prefetcher + bandwidth model.
    spec = _spec_like_trace(EVENTS)
    for label, factory in (("ghb", GHBPrefetcher), ("streamer", StreamerPrefetcher)):
        t_ref, t_fast, ratio, (s_ref, _), (s_fast, h_fast) = _alternate(
            lambda backend: _time_hierarchy(machine, backend, spec, factory)
        )
        _assert_identical(s_ref, s_fast)
        assert h_fast.last_run_path == "batch", h_fast.last_run_path
        speedups[f"e2e-{label}"] = ratio
        rows.append(
            (
                f"hierarchy+bw+{label} prefetcher",
                f"{t_ref:.3f}s",
                f"{t_fast:.3f}s",
                f"{ratio:.1f}x",
            )
        )
    return rows, speedups


def test_sim_backend_speedup(benchmark, results_dir):
    rows, speedups = benchmark.pedantic(
        _run_backend_comparison, rounds=1, iterations=1
    )
    text = render_table(
        ("simulation", "reference", "fast", "speedup"),
        rows,
        title=f"Fast cache-simulation backend — {MACHINE}, "
        f"{EVENTS:,}-event traces (bit-identical results; median CPU time "
        f"and median per-round speedup over {ROUNDS} alternating rounds)",
    )
    save_artifact(results_dir, "sim_backend_speedup.txt", text)
    if EVENTS >= 500_000:
        assert speedups["L1"] >= 5.0, f"L1 speedup regressed: {speedups['L1']:.1f}x"
        assert speedups["e2e-ghb"] >= 4.0, (
            f"end-to-end speedup regressed: {speedups['e2e-ghb']:.1f}x"
        )
