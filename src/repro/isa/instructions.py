"""Mini-IR instruction set and access patterns.

The paper inserts prefetches "at the assembler level"; this package is
the equivalent layer of the reproduction.  A program is a list of loop
kernels, each with a body of memory instructions; every memory
instruction carries a declarative *access pattern* describing the
address sequence it produces across loop iterations.  The interpreter
(:mod:`repro.isa.interpreter`) expands kernels into memory traces fully
vectorised, and the rewriter (:mod:`repro.isa.rewriter`) splices
``prefetch``/``prefetchnta`` instructions after target loads exactly the
way the paper's framework patches assembly:

    A: load  (base), dst
       prefetch[nta]  distance(base)
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import Any, Callable, ClassVar, NamedTuple

import numpy as np

from repro.errors import ProgramError
from repro.trace import synthesis

__all__ = [
    "AccessPattern",
    "StreamAccess",
    "StridedAccess",
    "ChaseAccess",
    "RandomAccess",
    "GatherAccess",
    "BurstAccess",
    "SweepAccess",
    "FixedAccess",
    "CSRAccess",
    "BFSAccess",
    "HashProbeAccess",
    "IndexedAccess",
    "Load",
    "Store",
    "Prefetch",
    "IndirectPrefetch",
    "Instruction",
]


def _read_int(text: str) -> int:
    return int(text, 0)


def _hex(value: int) -> str:
    return f"{value:#x}"


def _slashed(values: tuple[int, ...]) -> str:
    return "/".join(str(v) for v in values)


def _read_slashed(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split("/"))


class _TextField(NamedTuple):
    """One ``key=value`` field of a pattern's assembly text.

    ``write`` renders attribute ``attr`` and ``read`` parses it back; an
    ``optional`` field is written only when it differs from its default.
    """

    key: str
    attr: str
    write: Callable[[Any], str] = str
    read: Callable[[str], Any] = _read_int
    optional: bool = False


_BASE = _TextField("base", "base", _hex)


class AccessPattern(ABC):
    """Generator of one instruction's address sequence.

    A concrete pattern declares its assembly text once: ``kind`` names
    it and ``text_fields`` lists its fields in text order.
    :meth:`describe` writes them and :func:`repro.isa.assembly.parse`
    reads them back, so the two cannot drift apart.
    """

    kind: ClassVar[str]
    text_fields: ClassVar[tuple[_TextField, ...]]

    @abstractmethod
    def generate(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Addresses for ``n`` consecutive loop iterations."""

    def describe(self) -> str:
        """Compact textual form used by the assembly emitter."""
        defaults = {f.name: f.default for f in fields(self)}
        parts = [
            f"{f.key}={f.write(getattr(self, f.attr))}"
            for f in self.text_fields
            if not (f.optional and getattr(self, f.attr) == defaults[f.attr])
        ]
        return f"{self.kind}({', '.join(parts)})"


@dataclass(frozen=True)
class StreamAccess(AccessPattern):
    """Sequential streaming from ``base`` with element size ``elem_bytes``."""

    kind = "stream"
    text_fields = (_BASE, _TextField("elem", "elem_bytes"))

    base: int
    elem_bytes: int = 8

    def generate(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return synthesis.stream_pattern(self.base, n, self.elem_bytes)


@dataclass(frozen=True)
class StridedAccess(AccessPattern):
    """Constant stride, optionally wrapping inside a region (re-sweeps)."""

    kind = "strided"
    text_fields = (
        _BASE,
        _TextField("stride", "stride_bytes"),
        _TextField("wrap", "wrap_bytes", optional=True),
    )

    base: int
    stride_bytes: int
    wrap_bytes: int | None = None

    def generate(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return synthesis.strided_pattern(self.base, n, self.stride_bytes, self.wrap_bytes)


@dataclass(frozen=True)
class ChaseAccess(AccessPattern):
    """Pointer chase over a shuffled node pool."""

    kind = "chase"
    text_fields = (_BASE, _TextField("nodes", "n_nodes"), _TextField("node", "node_bytes"))

    base: int
    n_nodes: int
    node_bytes: int = 64

    def generate(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return synthesis.chase_pattern(rng, self.base, self.n_nodes, n, self.node_bytes)


@dataclass(frozen=True)
class RandomAccess(AccessPattern):
    """Uniform random access inside a region."""

    kind = "random"
    text_fields = (
        _BASE,
        _TextField("region", "region_bytes"),
        _TextField("align", "align", optional=True),
    )

    base: int
    region_bytes: int
    align: int = 8

    def generate(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return synthesis.random_pattern(rng, self.base, self.region_bytes, n, self.align)


@dataclass(frozen=True)
class GatherAccess(AccessPattern):
    """Indirect gather with tunable locality."""

    kind = "gather"
    text_fields = (
        _BASE,
        _TextField("region", "region_bytes"),
        _TextField("locality", "locality", read=float),
        _TextField("elem", "elem_bytes", optional=True),
    )

    base: int
    region_bytes: int
    locality: float = 0.0
    elem_bytes: int = 8

    def generate(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return synthesis.gather_pattern(
            rng, self.base, self.region_bytes, n, self.locality, self.elem_bytes
        )


@dataclass(frozen=True)
class BurstAccess(AccessPattern):
    """Short strided bursts at random bases (the cigar-defeating shape)."""

    kind = "burst"
    text_fields = (
        _BASE,
        _TextField("region", "region_bytes"),
        _TextField("len", "burst_len"),
        _TextField("stride", "stride_bytes"),
    )

    base: int
    region_bytes: int
    burst_len: int
    stride_bytes: int = 8

    def generate(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return synthesis.burst_strided_pattern(
            rng, self.base, self.region_bytes, n, self.burst_len, self.stride_bytes
        )


@dataclass(frozen=True)
class SweepAccess(AccessPattern):
    """Nested re-sweeps with cycling pass lengths (LLC-straddling reuse)."""

    kind = "sweep"
    text_fields = (
        _BASE,
        _TextField("passes", "pass_bytes", _slashed, _read_slashed),
        _TextField("stride", "stride_bytes"),
    )

    base: int
    pass_bytes: tuple[int, ...]
    stride_bytes: int = 64

    def generate(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return synthesis.sweep_pattern(self.base, n, self.pass_bytes, self.stride_bytes)


@dataclass(frozen=True)
class CSRAccess(AccessPattern):
    """CSR edge-array traversal in shuffled node order (sparse matvec)."""

    kind = "csr"
    text_fields = (
        _BASE,
        _TextField("nodes", "n_nodes"),
        _TextField("degree", "avg_degree"),
        _TextField("elem", "elem_bytes", optional=True),
    )

    base: int
    n_nodes: int
    avg_degree: int = 8
    elem_bytes: int = 8

    def generate(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return synthesis.csr_pattern(
            rng, self.base, self.n_nodes, self.avg_degree, n, self.elem_bytes
        )


@dataclass(frozen=True)
class BFSAccess(AccessPattern):
    """Breadth-first frontier expansion over a seeded random graph."""

    kind = "bfs"
    text_fields = (
        _BASE,
        _TextField("nodes", "n_nodes"),
        _TextField("degree", "avg_degree"),
        _TextField("node", "node_bytes", optional=True),
    )

    base: int
    n_nodes: int
    avg_degree: int = 4
    node_bytes: int = 64

    def generate(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return synthesis.bfs_frontier_pattern(
            rng, self.base, self.n_nodes, self.avg_degree, n, self.node_bytes
        )


@dataclass(frozen=True)
class HashProbeAccess(AccessPattern):
    """Uniform-hashed bucket starts with short linear-probe runs."""

    kind = "hash"
    text_fields = (
        _BASE,
        _TextField("buckets", "n_buckets"),
        _TextField("probe", "avg_probe"),
        _TextField("bucket", "bucket_bytes", optional=True),
    )

    base: int
    n_buckets: int
    avg_probe: int = 2
    bucket_bytes: int = 64

    def generate(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return synthesis.hash_probe_pattern(
            rng, self.base, self.n_buckets, n, self.avg_probe, self.bucket_bytes
        )


@dataclass(frozen=True)
class IndexedAccess(AccessPattern):
    """Index-array indirection ``A[B[i]]`` driven by a seeded index array.

    The ``B`` array's contents are input data: they are a pure function
    of ``index_seed`` (via :func:`repro.trace.synthesis.index_array_values`),
    *not* of the interpreter's execution RNG.  That makes the indices
    reconstructible by anything that legitimately reads the array — the
    iteration-``i`` address is ``base + B[i mod n_indices] * elem_bytes``
    for both the demand stream and a cross-core observer resolving
    ``B``-line fills into ``A``-line prefetches.

    ``index_base``/``index_elem_bytes`` locate the companion ``B`` array
    in the address space; the matching index *load* is a plain
    :class:`StridedAccess` at that base, and the pairing is recovered
    structurally (see ``Program.indirect_pairs``).
    """

    kind = "indexed"
    text_fields = (
        _BASE,
        _TextField("region", "region_bytes"),
        _TextField("idx", "index_base", _hex),
        _TextField("indices", "n_indices"),
        _TextField("seed", "index_seed"),
        _TextField("idx_elem", "index_elem_bytes", optional=True),
        _TextField("elem", "elem_bytes", optional=True),
    )

    base: int
    region_bytes: int
    index_base: int
    n_indices: int
    index_seed: int
    index_elem_bytes: int = 8
    elem_bytes: int = 8

    def __post_init__(self) -> None:
        if self.region_bytes <= 0:
            raise ProgramError("region_bytes must be positive")
        if self.n_indices <= 0:
            raise ProgramError("n_indices must be positive")
        if self.index_elem_bytes <= 0 or self.elem_bytes <= 0:
            raise ProgramError("element sizes must be positive")

    @property
    def n_slots(self) -> int:
        return max(1, self.region_bytes // self.elem_bytes)

    def index_values(self) -> np.ndarray:
        """The ``B`` array contents (pure function of ``index_seed``)."""
        return synthesis.index_array_values(
            self.index_seed, self.n_indices, self.n_slots
        )

    def generate(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return synthesis.indexed_pattern(
            self.base, n, self.index_values(), self.elem_bytes
        )


@dataclass(frozen=True)
class FixedAccess(AccessPattern):
    """Same address every iteration (a scalar in memory)."""

    kind = "fixed"
    text_fields = (_TextField("addr", "addr", _hex),)

    addr: int

    def generate(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.addr, dtype=np.int64)


@dataclass(frozen=True)
class Load:
    """A load instruction with a symbolic label."""

    label: str
    pattern: AccessPattern

    def __post_init__(self) -> None:
        if not self.label:
            raise ProgramError("load label must be non-empty")


@dataclass(frozen=True)
class Store:
    """A store instruction with a symbolic label.

    ``nt=True`` marks a non-temporal (streaming) store — x86 ``MOVNT*``
    — produced by the NT-store transformation.
    """

    label: str
    pattern: AccessPattern
    nt: bool = False

    def __post_init__(self) -> None:
        if not self.label:
            raise ProgramError("store label must be non-empty")


@dataclass(frozen=True)
class Prefetch:
    """A software prefetch covering the load labelled ``target``.

    The prefetch reuses the target's base register: its address per
    iteration is the target's address plus ``distance_bytes``.
    """

    target: str
    distance_bytes: int
    nta: bool = False

    def __post_init__(self) -> None:
        if not self.target:
            raise ProgramError("prefetch target must be non-empty")
        if self.distance_bytes == 0:
            raise ProgramError("prefetch distance must be non-zero")


@dataclass(frozen=True)
class IndirectPrefetch:
    """A software prefetch of ``A[B[i+ahead]]`` covering an indexed load.

    The second half of the paper-style indirect rewrite: after a
    ``prefetch distance(B)`` brings the future index line in, this
    instruction prefetches the *data* line the future index points at.
    Its iteration-``i`` address is the target load's address ``ahead``
    iterations later (the last iteration's address past the end), which
    is exactly ``A[B[i+ahead]]`` for an :class:`IndexedAccess` target —
    computable because the index array is seeded input data.
    """

    target: str
    ahead: int
    nta: bool = False

    def __post_init__(self) -> None:
        if not self.target:
            raise ProgramError("indirect prefetch target must be non-empty")
        if self.ahead <= 0:
            raise ProgramError("indirect prefetch ahead must be positive")


Instruction = Load | Store | Prefetch | IndirectPrefetch
