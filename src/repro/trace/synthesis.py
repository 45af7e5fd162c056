"""Vectorised synthetic address-pattern generators.

These are the primitive building blocks the workload models compose into
benchmark-like memory behaviour.  Every generator returns a 1-D ``int64``
array of byte addresses computed without Python-level per-event loops.

Patterns
--------
``stream_pattern``
    Pure sequential streaming (libquantum-, lbm-like inner loops).
``strided_pattern``
    Constant-stride access with optional wrap-around, covering both unit
    and large strides (leslie3d, GemsFDTD, milc array sweeps).
``chase_pattern``
    Pointer chasing along a random permutation cycle — irregular,
    stride-free traffic (omnetpp, xalan, mcf's list walks).
``random_pattern``
    Uniform random accesses inside a region.
``gather_pattern``
    Indirect gather with tunable locality via a bounded random walk.
``burst_strided_pattern``
    Many short strided bursts at random bases — the access shape that
    "tricks" hardware stride prefetchers on cigar (paper §VII-A).
``csr_pattern``
    CSR edge-array traversal: variable-length sequential runs at
    scattered row offsets (sparse matrix / adjacency sweeps).
``bfs_frontier_pattern``
    Breadth-first visitation order over a seeded random graph.
``hash_probe_pattern``
    Uniform-hashed bucket starts with short linear-probe runs.
``index_array_values`` / ``indexed_pattern``
    The ``A[B[i]]`` pair: a seeded index array (program *input data*,
    reconstructible from its seed alone) and the gather it drives.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import TraceError

__all__ = [
    "stream_pattern",
    "strided_pattern",
    "chase_pattern",
    "random_pattern",
    "gather_pattern",
    "burst_strided_pattern",
    "csr_pattern",
    "bfs_frontier_pattern",
    "hash_probe_pattern",
    "index_array_values",
    "indexed_pattern",
]


def _check_count(n: int) -> None:
    if n < 0:
        raise TraceError("pattern length must be non-negative")


def stream_pattern(base: int, n: int, elem_bytes: int = 8) -> np.ndarray:
    """Sequential addresses ``base, base+e, base+2e, ...``."""
    _check_count(n)
    if elem_bytes <= 0:
        raise TraceError("elem_bytes must be positive")
    return base + elem_bytes * np.arange(n, dtype=np.int64)


def strided_pattern(
    base: int,
    n: int,
    stride_bytes: int,
    wrap_bytes: int | None = None,
) -> np.ndarray:
    """Constant-stride addresses, optionally wrapping inside a region.

    ``wrap_bytes`` bounds the touched region: offsets are taken modulo
    ``wrap_bytes`` so long runs re-sweep the same array, creating reuse at
    region granularity (how dense numeric kernels revisit their data).
    """
    _check_count(n)
    if stride_bytes == 0:
        raise TraceError("stride_bytes must be non-zero")
    offsets = stride_bytes * np.arange(n, dtype=np.int64)
    if wrap_bytes is not None:
        if wrap_bytes <= 0:
            raise TraceError("wrap_bytes must be positive")
        offsets %= wrap_bytes
    return base + offsets


def chase_pattern(
    rng: np.random.Generator,
    base: int,
    n_nodes: int,
    n: int,
    node_bytes: int = 64,
) -> np.ndarray:
    """Pointer-chase addresses along one random permutation cycle.

    A random visiting order over ``n_nodes`` nodes is fixed once, then
    followed (wrapping) for ``n`` steps — exactly the address stream of a
    linked-list traversal whose nodes were shuffled in memory.  The
    resulting stride distribution has no dominant group, so stride
    prefetching cannot cover it.
    """
    _check_count(n)
    if n_nodes <= 0:
        raise TraceError("n_nodes must be positive")
    if node_bytes <= 0:
        raise TraceError("node_bytes must be positive")
    order = rng.permutation(n_nodes).astype(np.int64)
    idx = order[np.arange(n, dtype=np.int64) % n_nodes]
    return base + idx * node_bytes


def random_pattern(
    rng: np.random.Generator,
    base: int,
    region_bytes: int,
    n: int,
    align: int = 8,
) -> np.ndarray:
    """Uniform random addresses inside ``[base, base+region_bytes)``."""
    _check_count(n)
    if region_bytes <= 0:
        raise TraceError("region_bytes must be positive")
    if align <= 0:
        raise TraceError("align must be positive")
    slots = max(1, region_bytes // align)
    idx = rng.integers(0, slots, size=n, dtype=np.int64)
    return base + idx * align


def gather_pattern(
    rng: np.random.Generator,
    base: int,
    region_bytes: int,
    n: int,
    locality: float = 0.0,
    elem_bytes: int = 8,
) -> np.ndarray:
    """Indirect gather with tunable spatial locality.

    ``locality`` in ``[0, 1)`` blends a bounded random walk (local) with
    uniform jumps (global): 0 is fully random, values near 1 mostly step
    to nearby elements.  Models index-array driven accesses (soplex's
    sparse matrices, astar's grid neighbourhoods).
    """
    _check_count(n)
    if not 0.0 <= locality < 1.0:
        raise TraceError("locality must be in [0, 1)")
    if region_bytes <= 0 or elem_bytes <= 0:
        raise TraceError("region_bytes and elem_bytes must be positive")
    slots = max(1, region_bytes // elem_bytes)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    jumps = rng.integers(0, slots, size=n, dtype=np.int64)
    steps = rng.integers(-4, 5, size=n, dtype=np.int64)
    local_mask = rng.random(n) < locality
    # A vectorised blend: positions follow the cumulative local walk but
    # are re-anchored at every global jump.  Computing "last jump before
    # i" with maximum.accumulate keeps this loop-free.
    event_idx = np.arange(n, dtype=np.int64)
    jump_idx = np.where(~local_mask, event_idx, -1)
    np.maximum.accumulate(jump_idx, out=jump_idx)
    first = jump_idx < 0
    jump_idx[first] = 0
    walk = np.cumsum(np.where(local_mask, steps, 0), dtype=np.int64)
    anchor_val = jumps[jump_idx]
    anchor_val[first] = jumps[0]
    rel_walk = walk - walk[jump_idx]
    pos = (anchor_val + rel_walk) % slots
    return base + pos * elem_bytes


def sweep_pattern(
    base: int,
    n: int,
    pass_bytes: tuple[int, ...],
    stride_bytes: int = 64,
) -> np.ndarray:
    """Nested re-sweeps of cycling lengths over one region.

    Pass *j* strides over ``[base, base + pass_bytes[j mod k])``; passes
    share the region's start, so short passes re-touch data long passes
    covered.  The resulting reuse-distance distribution has one mode per
    pass length — choosing lengths that straddle the LLC size creates
    data that is evicted by co-resident pollution but retained when the
    polluting streams bypass the cache, the retention mechanism behind
    the paper's below-baseline traffic results (Fig. 5).
    """
    _check_count(n)
    if not pass_bytes:
        raise TraceError("pass_bytes must be non-empty")
    if stride_bytes <= 0:
        raise TraceError("stride_bytes must be positive")
    if any(p < stride_bytes for p in pass_bytes):
        raise TraceError("every pass must cover at least one stride")
    lengths = [p // stride_bytes for p in pass_bytes]
    chunks: list[np.ndarray] = []
    total = 0
    j = 0
    while total < n:
        length = lengths[j % len(lengths)]
        chunks.append(np.arange(length, dtype=np.int64))
        total += length
        j += 1
    offsets = np.concatenate(chunks)[:n]
    return base + offsets * stride_bytes


def burst_strided_pattern(
    rng: np.random.Generator,
    base: int,
    region_bytes: int,
    n: int,
    burst_len: int,
    stride_bytes: int = 8,
) -> np.ndarray:
    """Short strided bursts at random bases.

    Each burst of ``burst_len`` accesses walks with a constant stride from
    a random start, then jumps.  Bursts are long enough to *train* a
    hardware stride prefetcher yet end before its prefetches become
    useful, which is why the AMD prefetcher slows cigar down by >11 %
    (paper §VII-A).  Software prefetching with a correct, short distance
    still covers the intra-burst misses.
    """
    _check_count(n)
    if burst_len <= 0:
        raise TraceError("burst_len must be positive")
    if region_bytes <= burst_len * abs(stride_bytes):
        raise TraceError("region_bytes too small for burst extent")
    n_bursts = -(-n // burst_len)
    span = region_bytes - burst_len * abs(stride_bytes)
    starts = rng.integers(0, max(1, span), size=n_bursts, dtype=np.int64)
    within = stride_bytes * np.arange(burst_len, dtype=np.int64)
    addrs = (starts[:, None] + within[None, :]).reshape(-1)[:n]
    return base + addrs


def _expand_runs(starts: np.ndarray, lengths: np.ndarray, n: int) -> np.ndarray:
    """Element positions of variable-length sequential runs, truncated.

    Run *k* contributes ``starts[k], starts[k]+1, ...`` for ``lengths[k]``
    elements; runs are concatenated (cycling if they cover fewer than
    ``n`` elements) and the first ``n`` positions returned — all without
    per-element Python loops.  Only the runs the first ``n`` positions
    reach are expanded.
    """
    total = int(lengths.sum())
    if total <= 0:
        raise TraceError("runs must cover at least one element")
    reps = -(-n // total)
    if reps > 1:
        starts = np.tile(starts, reps)
        lengths = np.tile(lengths, reps)
    ends = np.cumsum(lengths)
    # The first run whose end reaches n holds position n - 1.
    reached = int(np.searchsorted(ends, n)) + 1
    starts, lengths, ends = starts[:reached], lengths[:reached], ends[:reached]
    run_id = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    offsets = np.arange(len(run_id), dtype=np.int64) - (ends - lengths)[run_id]
    return (starts[run_id] + offsets)[:n]


def csr_pattern(
    rng: np.random.Generator,
    base: int,
    n_nodes: int,
    avg_degree: int,
    n: int,
    elem_bytes: int = 8,
) -> np.ndarray:
    """CSR edge-array traversal in a shuffled node order.

    A compressed-sparse-row graph is fixed once: node degrees are drawn
    geometrically (mean ``avg_degree``) and row pointers are their prefix
    sums.  Nodes are then visited in a random permutation, each visit
    scanning its edge run sequentially — short sequential runs (the
    degree) at irregular row offsets, the signature shape of sparse
    matvec and adjacency sweeps.  Stride prefetchers train on the runs
    but overshoot every row boundary.
    """
    _check_count(n)
    if n_nodes <= 0 or avg_degree <= 0:
        raise TraceError("n_nodes and avg_degree must be positive")
    if elem_bytes <= 0:
        raise TraceError("elem_bytes must be positive")
    degrees = rng.geometric(1.0 / avg_degree, size=n_nodes).astype(np.int64)
    row_ptr = np.concatenate(([0], np.cumsum(degrees)))
    order = rng.permutation(n_nodes).astype(np.int64)
    pos = _expand_runs(row_ptr[order], degrees[order], n)
    return base + pos * elem_bytes


def bfs_frontier_pattern(
    rng: np.random.Generator,
    base: int,
    n_nodes: int,
    avg_degree: int,
    n: int,
    node_bytes: int = 64,
) -> np.ndarray:
    """Node-data addresses in breadth-first visitation order.

    A random directed graph (``avg_degree`` out-edges per node) is fixed
    once; a BFS from node 0 — restarting at the lowest unvisited node for
    disconnected components — yields the frontier-expansion visit order,
    which is then followed (wrapping) for ``n`` accesses.  Early levels
    visit hub-adjacent nodes in near-random order, so the stream has no
    dominant stride yet strong graph-structured reuse.
    """
    _check_count(n)
    if n_nodes <= 0 or avg_degree <= 0:
        raise TraceError("n_nodes and avg_degree must be positive")
    if node_bytes <= 0:
        raise TraceError("node_bytes must be positive")
    nbrs = rng.integers(0, n_nodes, size=(n_nodes, avg_degree), dtype=np.int64)
    visited = np.zeros(n_nodes, dtype=bool)
    order = np.empty(n_nodes, dtype=np.int64)
    out = 0
    next_root = 0
    queue: deque[int] = deque()
    while out < n_nodes:
        while next_root < n_nodes and visited[next_root]:
            next_root += 1
        visited[next_root] = True
        queue.append(next_root)
        while queue:
            u = queue.popleft()
            order[out] = u
            out += 1
            for v in nbrs[u]:
                if not visited[v]:
                    visited[v] = True
                    queue.append(int(v))
    idx = order[np.arange(n, dtype=np.int64) % n_nodes]
    return base + idx * node_bytes


def hash_probe_pattern(
    rng: np.random.Generator,
    base: int,
    n_buckets: int,
    n: int,
    avg_probe: int = 2,
    bucket_bytes: int = 64,
) -> np.ndarray:
    """Open-addressing hash probes: random bucket, short linear run.

    Each probe hashes to a uniform bucket and walks ``~avg_probe``
    consecutive buckets (geometric run lengths, wrapping modulo the
    table) — the hash-join / hash-aggregation access shape: random at
    table granularity, sequential within a probe.
    """
    _check_count(n)
    if n_buckets <= 0 or avg_probe <= 0:
        raise TraceError("n_buckets and avg_probe must be positive")
    if bucket_bytes <= 0:
        raise TraceError("bucket_bytes must be positive")
    n_probes = max(1, -(-n // avg_probe))
    starts = rng.integers(0, n_buckets, size=n_probes, dtype=np.int64)
    lengths = rng.geometric(1.0 / avg_probe, size=n_probes).astype(np.int64)
    pos = _expand_runs(starts, lengths, n) % n_buckets
    return base + pos * bucket_bytes


def index_array_values(
    index_seed: int, n_indices: int, n_slots: int
) -> np.ndarray:
    """The contents of a seeded ``B`` index array for ``A[B[i]]``.

    The index array is program *input data*: it is a pure function of
    ``index_seed``, independent of any execution seed, so every consumer
    — the interpreter generating the demand stream, and a hardware
    observer modelling reads of filled ``B`` lines — reconstructs the
    identical values.
    """
    if n_indices <= 0:
        raise TraceError("n_indices must be positive")
    if n_slots <= 0:
        raise TraceError("n_slots must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(index_seed))
    return rng.integers(0, n_slots, size=n_indices, dtype=np.int64)


def indexed_pattern(
    base: int,
    n: int,
    values: np.ndarray,
    elem_bytes: int = 8,
) -> np.ndarray:
    """Gather addresses ``base + values[i mod len] * elem_bytes``.

    The data-dependent half of the ``A[B[i]]`` pair; ``values`` comes
    from :func:`index_array_values` and is cycled when the trip count
    exceeds the index array length.
    """
    _check_count(n)
    if len(values) == 0:
        raise TraceError("values must be non-empty")
    if elem_bytes <= 0:
        raise TraceError("elem_bytes must be positive")
    idx = np.asarray(values, dtype=np.int64)[np.arange(n, dtype=np.int64) % len(values)]
    return base + idx * elem_bytes
