"""Parametric synthetic workload generation.

Beyond the 12 hand-built benchmark models, downstream users (and our
own property tests) need arbitrary workloads with controlled
characteristics: "60 % streaming, 30 % pointer chasing, 50 MB
footprint".  :func:`generate_workload` builds a mini-IR program from a
:class:`WorkloadRecipe`, deterministically from a seed — the fuzzing
surface for the whole analysis pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.isa.instructions import (
    BFSAccess,
    BurstAccess,
    ChaseAccess,
    CSRAccess,
    GatherAccess,
    HashProbeAccess,
    IndexedAccess,
    Load,
    Store,
    StridedAccess,
)
from repro.isa.program import Kernel, Program

__all__ = ["WorkloadRecipe", "generate_workload"]

MB = 1024 * 1024

#: Address window reserved for generated workloads, far above both the
#: built-in benchmarks and the parallel suites.
_GENERATOR_BASE = 128 << 30


@dataclass(frozen=True)
class WorkloadRecipe:
    """Mixture weights and sizing for a generated workload.

    Weights need not sum to one; they are normalised.  Each non-zero
    component contributes at least one instruction.

    The graph family (``csr``/``bfs``/``hash``/``indirect`` weights)
    adds graph-analytics shapes.  An ``indirect`` slot emits the two
    instructions of an ``A[B[i]]`` pair — the strided index walk *and*
    the data gather — so the generated body holds one extra instruction
    per indirect slot beyond ``n_instructions``.
    """

    stream_weight: float = 1.0
    chase_weight: float = 0.0
    gather_weight: float = 0.0
    burst_weight: float = 0.0
    store_weight: float = 0.0
    csr_weight: float = 0.0
    bfs_weight: float = 0.0
    hash_weight: float = 0.0
    indirect_weight: float = 0.0
    footprint_bytes: int = 16 * MB
    n_instructions: int = 6
    trips: int = 50_000
    stride_bytes: int = 16
    gather_locality: float = 0.5
    burst_len: int = 8
    avg_degree: int = 8
    work_per_memop: float = 5.0
    mlp: float = 4.0

    def __post_init__(self) -> None:
        weights = (
            self.stream_weight,
            self.chase_weight,
            self.gather_weight,
            self.burst_weight,
            self.store_weight,
            self.csr_weight,
            self.bfs_weight,
            self.hash_weight,
            self.indirect_weight,
        )
        if any(w < 0 for w in weights):
            raise WorkloadError("mixture weights must be non-negative")
        if sum(weights) <= 0:
            raise WorkloadError("at least one mixture weight must be positive")
        if self.n_instructions <= 0:
            raise WorkloadError("n_instructions must be positive")
        if self.trips <= 0:
            raise WorkloadError("trips must be positive")
        if self.footprint_bytes < 64 * 1024:
            raise WorkloadError("footprint must be at least 64 kB")
        if self.stride_bytes == 0:
            raise WorkloadError("stride_bytes must be non-zero")
        if not 0.0 <= self.gather_locality < 1.0:
            raise WorkloadError("gather_locality must be in [0, 1)")
        if self.burst_len <= 0:
            raise WorkloadError("burst_len must be positive")
        if self.avg_degree <= 0:
            raise WorkloadError("avg_degree must be positive")


def _allocate(weights: dict[str, float], slots: int) -> dict[str, int]:
    """Largest-remainder apportionment of instruction slots."""
    total = sum(weights.values())
    shares = {k: w / total * slots for k, w in weights.items() if w > 0}
    counts = {k: int(v) for k, v in shares.items()}
    # every positive component gets at least one slot if room remains
    for k in shares:
        if counts[k] == 0:
            counts[k] = 1
    while sum(counts.values()) > slots:
        biggest = max(counts, key=lambda k: counts[k])
        counts[biggest] -= 1
    remainders = sorted(
        shares, key=lambda k: shares[k] - counts[k], reverse=True
    )
    i = 0
    while sum(counts.values()) < slots:
        counts[remainders[i % len(remainders)]] += 1
        i += 1
    return {k: v for k, v in counts.items() if v > 0}


def generate_workload(
    recipe: WorkloadRecipe,
    seed: int = 0,
    name: str = "generated",
) -> Program:
    """Build a program realising ``recipe``, deterministically from ``seed``."""
    rng = np.random.default_rng(seed)
    counts = _allocate(
        {
            "stream": recipe.stream_weight,
            "chase": recipe.chase_weight,
            "gather": recipe.gather_weight,
            "burst": recipe.burst_weight,
            "store": recipe.store_weight,
            "csr": recipe.csr_weight,
            "bfs": recipe.bfs_weight,
            "hash": recipe.hash_weight,
            "indirect": recipe.indirect_weight,
        },
        recipe.n_instructions,
    )

    base = _GENERATOR_BASE + (seed % 4096) * (64 << 30)
    region = recipe.footprint_bytes
    body = []
    slot = 0

    def arr() -> int:
        nonlocal slot
        addr = base + slot * (2 * region + 20_544)
        slot += 1
        return addr

    for i in range(counts.get("stream", 0)):
        body.append(
            Load(f"stream{i}", StridedAccess(arr(), recipe.stride_bytes, wrap_bytes=region))
        )
    for i in range(counts.get("chase", 0)):
        nodes = max(64, region // 64)
        body.append(Load(f"chase{i}", ChaseAccess(arr(), nodes, 64)))
    for i in range(counts.get("gather", 0)):
        body.append(
            Load(f"gather{i}", GatherAccess(arr(), region, locality=recipe.gather_locality))
        )
    for i in range(counts.get("burst", 0)):
        burst_region = max(region, recipe.burst_len * abs(recipe.stride_bytes) * 4)
        body.append(
            Load(
                f"burst{i}",
                BurstAccess(arr(), burst_region, recipe.burst_len, recipe.stride_bytes),
            )
        )
    for i in range(counts.get("store", 0)):
        body.append(
            Store(f"store{i}", StridedAccess(arr(), recipe.stride_bytes, wrap_bytes=region))
        )
    # Graph components append after the legacy ones and draw from the
    # rng only when present, so recipes without graph weights generate
    # bit-identical programs to earlier releases.
    for i in range(counts.get("csr", 0)):
        nodes = max(64, region // (recipe.avg_degree * 8))
        body.append(Load(f"csr{i}", CSRAccess(arr(), nodes, recipe.avg_degree, 8)))
    for i in range(counts.get("bfs", 0)):
        nodes = max(64, min(region // 64, 8192))
        body.append(Load(f"bfs{i}", BFSAccess(arr(), nodes, max(2, recipe.avg_degree // 2), 64)))
    for i in range(counts.get("hash", 0)):
        buckets = max(64, region // 64)
        body.append(Load(f"hash{i}", HashProbeAccess(arr(), buckets, 2, 64)))
    for i in range(counts.get("indirect", 0)):
        idx_base = arr()
        n_indices = max(64, region // 16)
        index_seed = int(rng.integers(0, 2**31 - 1))
        body.append(
            Load(f"bidx{i}", StridedAccess(idx_base, 8, wrap_bytes=n_indices * 8))
        )
        body.append(
            Load(
                f"aval{i}",
                IndexedAccess(arr(), region, idx_base, n_indices, index_seed),
            )
        )

    # deterministic shuffle so component ordering is not systematic
    order = rng.permutation(len(body))
    body = tuple(body[int(j)] for j in order)

    return Program(
        name,
        (
            Kernel(
                "main",
                body,
                trips=recipe.trips,
                work_per_memop=recipe.work_per_memop,
                mlp=recipe.mlp,
            ),
        ),
    )
