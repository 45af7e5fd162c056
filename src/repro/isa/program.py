"""Programs and loop kernels of the mini-IR.

A :class:`Program` is an ordered list of :class:`Kernel` loops.  Each
kernel runs its body for ``trips`` iterations; the bodies are memory
instructions (plus inserted prefetches).  Non-memory work is modelled in
aggregate by ``work_per_memop`` — the average number of arithmetic/branch
instructions per memory operation, which the timing model charges at the
machine's base CPI.

Static memory instructions receive globally unique integer PCs in
program order (:meth:`Program.pc_map`), the identifiers all samplers and
analyses key on — the moral equivalent of instruction addresses in the
paper's binaries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ProgramError
from repro.isa.instructions import (
    IndexedAccess,
    IndirectPrefetch,
    Instruction,
    Load,
    Prefetch,
    Store,
    StreamAccess,
    StridedAccess,
)

__all__ = ["Kernel", "Program"]


@dataclass(frozen=True)
class Kernel:
    """One loop: a body of instructions executed ``trips`` times.

    Attributes
    ----------
    name:
        Loop identifier (unique within the program).
    body:
        Instructions in program order.
    trips:
        Iteration count.
    work_per_memop:
        Non-memory instructions per memory operation in this loop.
    mlp:
        Memory-level parallelism the loop's address streams expose
        (dependent chases: ~1; wide unrolled streams: 4–8).
    """

    name: str
    body: tuple[Instruction, ...]
    trips: int
    work_per_memop: float = 2.0
    mlp: float = 2.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ProgramError("kernel name must be non-empty")
        if self.trips < 0:
            raise ProgramError("trips must be non-negative")
        if not self.body:
            raise ProgramError(f"kernel {self.name!r}: empty body")
        if self.work_per_memop < 0:
            raise ProgramError("work_per_memop must be non-negative")
        if self.mlp < 1:
            raise ProgramError("mlp must be >= 1")
        object.__setattr__(self, "body", tuple(self.body))
        labels = [i.label for i in self.body if isinstance(i, (Load, Store))]
        if len(labels) != len(set(labels)):
            raise ProgramError(f"kernel {self.name!r}: duplicate labels")
        for instr in self.body:
            if (
                isinstance(instr, (Prefetch, IndirectPrefetch))
                and instr.target not in labels
            ):
                raise ProgramError(
                    f"kernel {self.name!r}: prefetch targets unknown label "
                    f"{instr.target!r}"
                )

    @property
    def mem_instructions(self) -> list[Load | Store]:
        """The demand memory instructions of the body, in order."""
        return [i for i in self.body if isinstance(i, (Load, Store))]

    def with_body(self, body: tuple[Instruction, ...]) -> "Kernel":
        """Copy of this kernel with a rewritten body."""
        return replace(self, body=body)


@dataclass(frozen=True)
class Program:
    """An ordered sequence of loop kernels with global PC assignment."""

    name: str
    kernels: tuple[Kernel, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ProgramError("program name must be non-empty")
        object.__setattr__(self, "kernels", tuple(self.kernels))
        if not self.kernels:
            raise ProgramError("program must contain at least one kernel")
        names = [k.name for k in self.kernels]
        if len(names) != len(set(names)):
            raise ProgramError("kernel names must be unique")

    # ------------------------------------------------------------------
    # PC assignment
    # ------------------------------------------------------------------

    def pc_map(self) -> dict[tuple[str, str], int]:
        """(kernel, label) → global PC for every demand instruction."""
        mapping: dict[tuple[str, str], int] = {}
        pc = 0
        for kernel in self.kernels:
            for instr in kernel.mem_instructions:
                mapping[(kernel.name, instr.label)] = pc
                pc += 1
        return mapping

    @property
    def n_static_mem_instructions(self) -> int:
        return sum(len(k.mem_instructions) for k in self.kernels)

    @property
    def n_dynamic_refs(self) -> int:
        """Total demand references the program will issue."""
        return sum(k.trips * len(k.mem_instructions) for k in self.kernels)

    def store_pcs(self) -> set[int]:
        """Global PCs of all store instructions."""
        mapping = self.pc_map()
        return {
            mapping[(kernel.name, instr.label)]
            for kernel in self.kernels
            for instr in kernel.mem_instructions
            if isinstance(instr, Store)
        }

    def refs_per_pc(self) -> dict[int, int]:
        """Dynamic reference count of each PC (the loop's ``R``)."""
        out: dict[int, int] = {}
        mapping = self.pc_map()
        for kernel in self.kernels:
            for instr in kernel.mem_instructions:
                out[mapping[(kernel.name, instr.label)]] = kernel.trips
        return out

    def indirect_pairs(self) -> dict[int, tuple[int, int]]:
        """Indexed-load PC → (index-load PC, index stride) per kernel.

        An ``A[B[i]]`` pair is recovered structurally: a load whose
        pattern is :class:`IndexedAccess` is paired with the load in the
        *same kernel* whose stream/strided pattern starts at the indexed
        pattern's ``index_base`` — the ``B[i]`` walk.  Pairs whose index
        walk is missing (or not sequentially strided) are omitted: with
        no resolvable future index there is nothing to run ahead on.
        """
        mapping = self.pc_map()
        pairs: dict[int, tuple[int, int]] = {}
        for kernel in self.kernels:
            index_loads: dict[int, tuple[int, int]] = {}
            for instr in kernel.mem_instructions:
                if not isinstance(instr, Load):
                    continue
                pat = instr.pattern
                if isinstance(pat, StreamAccess):
                    index_loads[pat.base] = (
                        mapping[(kernel.name, instr.label)],
                        pat.elem_bytes,
                    )
                elif isinstance(pat, StridedAccess) and pat.stride_bytes > 0:
                    index_loads[pat.base] = (
                        mapping[(kernel.name, instr.label)],
                        pat.stride_bytes,
                    )
            for instr in kernel.mem_instructions:
                if isinstance(instr, Load) and isinstance(
                    instr.pattern, IndexedAccess
                ):
                    entry = index_loads.get(instr.pattern.index_base)
                    if entry is not None:
                        pairs[mapping[(kernel.name, instr.label)]] = entry
        return pairs

    def with_kernels(self, kernels: tuple[Kernel, ...]) -> "Program":
        """Copy with replaced kernels (used by the rewriter)."""
        return Program(self.name, kernels)
