"""Multi-threaded workload models (paper §VII-E, Fig. 12).

The paper evaluates the NAS and SPEC OMP suites and plots four of them:
``swim*`` and ``cg*`` (the two highest off-chip-bandwidth programs,
8 GB/s and 14 GB/s at four threads on the Intel machine) plus the
ordinary ``fma3d`` and ``dc``.  The finding: software prefetching only
beats hardware prefetching where threads *saturate* bandwidth (cg), and
is comparable elsewhere — streaming parallel workloads contend less than
mixed ones because threads run the same phase.

A parallel workload here is one program template instantiated per
thread with disjoint data partitions (SPMD).  Thread 0's profile drives
the prefetch plan for every thread, as the threads share their code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import WorkloadError
from repro.isa.instructions import GatherAccess, Load, Store, StridedAccess
from repro.isa.program import Kernel, Program

__all__ = ["ParallelWorkloadSpec", "get_parallel_workload", "PARALLEL_BENCHMARKS"]

MB = 1024 * 1024
KB = 1024

#: Address windows above the single-core benchmarks' (slots 16+).
_PARALLEL_BASE = 64 << 30
_THREAD_STRIDE = 1 << 30


def _tbase(slot: int, thread: int) -> int:
    return _PARALLEL_BASE + slot * (8 << 30) + thread * _THREAD_STRIDE


def _arr(base: int, k: int) -> int:
    return base + k * (64 * MB + 20_544)


def _swim(thread: int, threads: int, input_set: str, scale: float) -> Program:
    """Shallow-water stencil: wide 8 B streams, ~2 GB/s per thread."""
    region = {"ref": 16 * MB, "train": 6 * MB, "alt": 24 * MB}[input_set]
    b = _tbase(0, thread)
    body = (
        Load("u", StridedAccess(_arr(b, 0), 8, wrap_bytes=region)),
        Load("v", StridedAccess(_arr(b, 1), 8, wrap_bytes=region)),
        Load("p", StridedAccess(_arr(b, 2), 8, wrap_bytes=region)),
        Store("unew", StridedAccess(_arr(b, 3), 8, wrap_bytes=region)),
        Load("hot0", GatherAccess(_arr(b, 6), 16 * KB, locality=0.0)),
    )
    return Program(
        f"swim.t{thread}",
        (Kernel("stencil", body, max(16, int(70_000 * scale)), work_per_memop=7.0, mlp=9.0),),
    )


def _cg(thread: int, threads: int, input_set: str, scale: float) -> Program:
    """Conjugate gradient: sparse matvec, the bandwidth hog (≈3.5 GB/s/thread)."""
    region = {"ref": 20 * MB, "train": 8 * MB, "alt": 28 * MB}[input_set]
    vec = {"ref": 3 * MB, "train": 1 * MB, "alt": 4 * MB}[input_set]
    b = _tbase(1, thread)
    body = (
        Load("aval", StridedAccess(_arr(b, 0), 8, wrap_bytes=region)),
        Load("acol", StridedAccess(_arr(b, 1), 8, wrap_bytes=region)),
        Load("x", GatherAccess(_arr(b, 2), vec, locality=0.55)),
        Store("y", StridedAccess(_arr(b, 3), 8, wrap_bytes=4 * MB)),
    )
    return Program(
        f"cg.t{thread}",
        (Kernel("matvec", body, max(16, int(80_000 * scale)), work_per_memop=3.0, mlp=8.0),),
    )


def _fma3d(thread: int, threads: int, input_set: str, scale: float) -> Program:
    """Crash simulation: compute-bound, modest strided traffic."""
    region = {"ref": 8 * MB, "train": 3 * MB, "alt": 12 * MB}[input_set]
    b = _tbase(2, thread)
    body = (
        Load("elem", StridedAccess(_arr(b, 0), 16, wrap_bytes=region)),
        Load("node", GatherAccess(_arr(b, 1), 2 * MB, locality=0.88)),
        Store("force", StridedAccess(_arr(b, 2), 16, wrap_bytes=region)),
        Load("hot0", GatherAccess(_arr(b, 6), 16 * KB, locality=0.0)),
        Load("hot1", GatherAccess(_arr(b, 7), 16 * KB, locality=0.0)),
    )
    return Program(
        f"fma3d.t{thread}",
        (Kernel("solve", body, max(16, int(60_000 * scale)), work_per_memop=14.0, mlp=5.0),),
    )


def _dc(thread: int, threads: int, input_set: str, scale: float) -> Program:
    """Data-cube aggregation: gather-heavy, mostly cache-resident."""
    cube = {"ref": 4 * MB, "train": 2 * MB, "alt": 6 * MB}[input_set]
    b = _tbase(3, thread)
    body = (
        Load("tuple", StridedAccess(_arr(b, 0), 32, wrap_bytes=8 * MB)),
        Load("dim", GatherAccess(_arr(b, 1), cube, locality=0.75)),
        Store("agg", GatherAccess(_arr(b, 2), cube, locality=0.75)),
        Load("hot0", GatherAccess(_arr(b, 6), 16 * KB, locality=0.0)),
        Load("hot1", GatherAccess(_arr(b, 7), 16 * KB, locality=0.0)),
    )
    return Program(
        f"dc.t{thread}",
        (Kernel("aggregate", body, max(16, int(60_000 * scale)), work_per_memop=9.0, mlp=4.0),),
    )


@dataclass(frozen=True)
class ParallelWorkloadSpec:
    """A multi-threaded benchmark template.

    ``high_bandwidth`` marks the ``*``-suffixed programs of paper
    Fig. 12 (the two with the highest off-chip demand).
    """

    name: str
    thread_builder: Callable[[int, int, str, float], Program]
    description: str
    high_bandwidth: bool = False
    inputs: tuple[str, ...] = ("ref", "train", "alt")

    def build(
        self, threads: int, input_set: str = "ref", scale: float = 1.0
    ) -> list[Program]:
        """One program per thread, on disjoint data partitions."""
        if threads <= 0:
            raise WorkloadError("threads must be positive")
        if input_set not in self.inputs:
            raise WorkloadError(
                f"workload {self.name!r} has no input set {input_set!r}"
            )
        if scale <= 0:
            raise WorkloadError("scale must be positive")
        return [
            self.thread_builder(t, threads, input_set, scale) for t in range(threads)
        ]


PARALLEL_BENCHMARKS = (
    ParallelWorkloadSpec("swim", _swim, "shallow water stencil streams", high_bandwidth=True),
    ParallelWorkloadSpec("cg", _cg, "sparse conjugate gradient (bandwidth hog)", high_bandwidth=True),
    ParallelWorkloadSpec("fma3d", _fma3d, "crash simulation, compute bound"),
    ParallelWorkloadSpec("dc", _dc, "data-cube aggregation"),
)

_PARALLEL_REGISTRY = {spec.name: spec for spec in PARALLEL_BENCHMARKS}


def get_parallel_workload(name: str) -> ParallelWorkloadSpec:
    """Look up a parallel workload by name."""
    try:
        return _PARALLEL_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_PARALLEL_REGISTRY))
        raise WorkloadError(f"unknown parallel workload {name!r}; known: {known}") from None
