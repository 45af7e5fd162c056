"""Vectorised execution of mini-IR programs into memory traces.

A kernel's body of ``b`` instructions over ``t`` trips is laid out as a
``(t, b)`` row-major block of the program's trace, column by column
from each instruction's address column, with no Python loop over
iterations.  Every kernel is written straight into one preallocated set
of ``pc``/``addr``/``op`` arrays (:func:`_assemble`).  Prefetch
instructions derive their column from their target load's column plus
the prefetch distance, mirroring the ``prefetch distance(base)``
addressing of the inserted assembly.  A prefetch whose target falls
below address 0 is dropped: a prefetch is a hint, and a hint to an
unmapped address does nothing (:func:`repro.core.insertion.apply_prefetch_plan`
applies the same rule to a bare trace).

The interpreter is deterministic given its seed.  **Pattern RNG
discipline:** every demand instruction gets its own child generator
seeded from (seed, kernel index, demand ordinal), so inserting a
prefetch, which consumes no randomness, never perturbs the addresses of
other instructions.  The optimised program therefore touches exactly
the same demand addresses as the original, as binary rewriting would,
and :func:`splice_execution` decodes a rewritten program by taking its
demand columns from the original's trace instead of generating them
again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

import numpy as np

from repro.errors import ProgramError
from repro.isa.instructions import IndirectPrefetch, Load, Store
from repro.isa.program import Kernel, Program
from repro.trace.events import MemOp, MemoryTrace

__all__ = ["ExecutionResult", "execute_program", "execute_kernel", "splice_execution"]


@dataclass(frozen=True)
class ExecutionResult:
    """A program's trace plus per-kernel execution metadata."""

    trace: MemoryTrace
    work_per_memop: float
    mlp: float
    kernel_slices: dict[str, slice]

    def kernel_trace(self, name: str) -> MemoryTrace:
        """Sub-trace of one kernel."""
        try:
            sl = self.kernel_slices[name]
        except KeyError:
            raise ProgramError(f"unknown kernel {name!r}") from None
        return self.trace[sl]


#: Demand address columns of one kernel, keyed by label, from the
#: kernel's index in its program and the kernel itself.
DemandColumns = Callable[[int, Kernel], dict[str, np.ndarray]]


def _instruction_rng(seed: int, kernel_idx: int, instr_idx: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(kernel_idx, instr_idx))
    )


def _generated(seed: int) -> DemandColumns:
    """Demand columns drawn from each instruction's pattern.

    Child generators are keyed by the instruction's *demand ordinal*,
    not its body position: inserted prefetches consume no randomness,
    so rewriting must not shift any other instruction's addresses.
    """

    def columns(kernel_idx: int, kernel: Kernel) -> dict[str, np.ndarray]:
        out = {}
        for demand_idx, instr in enumerate(kernel.mem_instructions):
            rng = _instruction_rng(seed, kernel_idx, demand_idx)
            col = instr.pattern.generate(rng, kernel.trips)
            if len(col) != kernel.trips:
                raise ProgramError(
                    f"pattern for {instr.label!r} yielded {len(col)} addresses, "
                    f"expected {kernel.trips}"
                )
            out[instr.label] = col
        return out

    return columns


def _assemble(
    kernels: tuple[Kernel, ...],
    pc_map: dict[tuple[str, str], int],
    demand_columns: DemandColumns,
) -> tuple[MemoryTrace, dict[str, slice]]:
    """Lay ``kernels`` out in order as one trace; returns it and each kernel's slice."""
    bounds = list(accumulate((k.trips * len(k.body) for k in kernels), initial=0))
    n = bounds[-1]
    pc = np.empty(n, dtype=np.int64)
    addr = np.empty(n, dtype=np.int64)
    op = np.empty(n, dtype=np.uint8)
    keep: np.ndarray | None = None  # allocated at the first dropped prefetch
    slices: dict[str, slice] = {}
    for k_idx, kernel in enumerate(kernels):
        start, end = bounds[k_idx], bounds[k_idx + 1]
        slices[kernel.name] = slice(start, end)
        t, b = kernel.trips, len(kernel.body)
        if t == 0:
            continue
        block = addr[start:end].reshape(t, b)
        cols = demand_columns(k_idx, kernel)
        pc_row: list[int] = []
        op_row: list[int] = []
        for p, instr in enumerate(kernel.body):
            if isinstance(instr, (Load, Store)):
                block[:, p] = cols[instr.label]
                pc_row.append(pc_map[(kernel.name, instr.label)])
                if isinstance(instr, Store):
                    op_row.append(int(MemOp.STORE_NT) if instr.nt else int(MemOp.STORE))
                else:
                    op_row.append(int(MemOp.LOAD))
                continue
            target = cols[instr.target]
            if isinstance(instr, IndirectPrefetch):
                # A[B[i+ahead]]: the target's own address ``ahead``
                # iterations later, tail clamped to the final iteration.
                ahead = min(instr.ahead, t)
                block[: t - ahead, p] = target[ahead:]
                block[t - ahead :, p] = target[-1]
            else:
                np.add(target, instr.distance_bytes, out=block[:, p])
                if instr.distance_bytes < 0:
                    below = block[:, p] < 0
                    if below.any():
                        if keep is None:
                            keep = np.ones(n, dtype=bool)
                        keep[start:end].reshape(t, b)[:, p] = ~below
            # The prefetch shares its target's PC, exactly like the
            # paper's `prefetch distance(base)` which reuses the load's
            # base register and is attributed to the same source line.
            pc_row.append(pc_map[(kernel.name, instr.target)])
            op_row.append(int(MemOp.PREFETCH_NTA) if instr.nta else int(MemOp.PREFETCH))
        pc[start:end].reshape(t, b)[:] = pc_row
        op[start:end].reshape(t, b)[:] = op_row
    if keep is not None:
        kept = np.concatenate(([0], np.cumsum(keep)))
        slices = {
            name: slice(int(kept[s.start]), int(kept[s.stop])) for name, s in slices.items()
        }
        pc, addr, op = pc[keep], addr[keep], op[keep]
    return MemoryTrace(pc, addr, op), slices


def _execute(program: Program, demand_columns: DemandColumns) -> ExecutionResult:
    trace, slices = _assemble(program.kernels, program.pc_map(), demand_columns)
    # Aggregate work/MLP parameters are reference-weighted over kernels.
    total_refs = 0
    work_sum = 0.0
    mlp_sum = 0.0
    for kernel in program.kernels:
        refs = kernel.trips * len(kernel.mem_instructions)
        total_refs += refs
        work_sum += kernel.work_per_memop * refs
        mlp_sum += kernel.mlp * refs
    if total_refs:
        work = work_sum / total_refs
        mlp = max(1.0, mlp_sum / total_refs)
    else:
        work, mlp = 0.0, 1.0
    return ExecutionResult(trace=trace, work_per_memop=work, mlp=mlp, kernel_slices=slices)


def execute_kernel(
    kernel: Kernel,
    pc_map: dict[tuple[str, str], int],
    seed: int,
    kernel_idx: int = 0,
) -> MemoryTrace:
    """Expand one kernel into its event block."""
    columns = _generated(seed)
    trace, _ = _assemble((kernel,), pc_map, lambda _, k: columns(kernel_idx, k))
    return trace


def execute_program(program: Program, seed: int = 0) -> ExecutionResult:
    """Run a whole program; kernels execute in order."""
    return _execute(program, _generated(seed))


def _demand_signature(kernel: Kernel) -> tuple:
    """What fixes a kernel's demand columns (a store's NT flag does not)."""
    return (
        kernel.name,
        kernel.trips,
        tuple((isinstance(i, Load), i.label, i.pattern) for i in kernel.mem_instructions),
    )


def splice_execution(
    rewritten: Program, original: Program, execution: ExecutionResult
) -> ExecutionResult:
    """Decode ``rewritten`` from ``execution``, the trace of ``original``.

    Equal to ``execute_program(rewritten, seed)`` when ``execution`` is
    ``execute_program(original, seed)`` and ``rewritten`` differs from
    ``original`` only by inserted prefetches and NT stores, as
    :func:`~repro.isa.rewriter.insert_prefetches` and
    :func:`~repro.isa.rewriter.convert_nt_stores` produce: each kernel's
    demand columns are views of its block in ``execution`` and its
    prefetch columns derive from them, so no pattern runs again.

    Raises :class:`~repro.errors.ProgramError` when a kernel of
    ``rewritten`` has demand instructions other than ``original``'s, or
    when ``execution`` does not lay ``original``'s kernels out.
    """
    if rewritten is original:
        return execution
    if len(rewritten.kernels) != len(original.kernels):
        raise ProgramError(
            f"rewritten program has {len(rewritten.kernels)} kernels, "
            f"the profiled one {len(original.kernels)}"
        )
    sources: list[dict[str, np.ndarray]] = []
    for kernel, source in zip(rewritten.kernels, original.kernels):
        if kernel is not source and _demand_signature(kernel) != _demand_signature(source):
            raise ProgramError(
                f"kernel {kernel.name!r}: demand instructions differ from the "
                f"profiled kernel {source.name!r}"
            )
        t, b = source.trips, len(source.body)
        sl = execution.kernel_slices.get(source.name)
        if sl is None or sl.stop - sl.start != t * b:
            raise ProgramError(
                f"execution does not hold kernel {source.name!r} as "
                f"{t} trips of {b} events"
            )
        block = execution.trace.addr[sl].reshape(t, b)
        sources.append(
            {
                instr.label: block[:, p]
                for p, instr in enumerate(source.body)
                if isinstance(instr, (Load, Store))
            }
        )
    return _execute(rewritten, lambda k_idx, _: sources[k_idx])
