"""Textual assembly form of mini-IR programs.

The paper's framework "automatically inserts the optimizations at the
assembler level"; this module provides the equivalent human-readable
surface for the reproduction — programs round-trip through a small
assembly dialect, and rewritten programs show their inserted
``prefetch``/``prefetchnta`` lines inline::

    .program libquantum
    .kernel gates trips=500000 work=6.0 mlp=6.0
      Lq: load stream(base=0x10000000, elem=16)
          prefetchnta +1024(Lq)
      Sq: store stream(base=0x30000000, elem=16)
    .end

An indirect prefetch of ``A[B[i+4]]`` covering the indexed load ``La``
reads ``prefetch La[i+4]``.  :func:`emit` renders a program and
:func:`parse` reads it back: ``parse(emit(p)) == p``.  Each pattern's
text comes from its one declaration
(:attr:`~repro.isa.instructions.AccessPattern.text_fields`).
"""

from __future__ import annotations

import re

from repro.errors import ProgramError
from repro.isa.instructions import (
    AccessPattern,
    BFSAccess,
    BurstAccess,
    ChaseAccess,
    CSRAccess,
    FixedAccess,
    GatherAccess,
    HashProbeAccess,
    IndexedAccess,
    IndirectPrefetch,
    Load,
    Prefetch,
    RandomAccess,
    Store,
    SweepAccess,
    StreamAccess,
    StridedAccess,
)
from repro.isa.program import Kernel, Program

__all__ = ["emit", "parse"]

_INT = r"[+-]?(?:0x[0-9a-fA-F]+|\d+)"

#: Pattern classes by the kind their text starts with.
_PATTERNS: dict[str, type[AccessPattern]] = {
    cls.kind: cls
    for cls in (
        StreamAccess,
        StridedAccess,
        ChaseAccess,
        RandomAccess,
        GatherAccess,
        BurstAccess,
        SweepAccess,
        CSRAccess,
        BFSAccess,
        HashProbeAccess,
        IndexedAccess,
        FixedAccess,
    )
}


def _parse_kwargs(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ProgramError(f"malformed pattern argument {part!r}")
        key, value = part.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _parse_pattern(text: str) -> AccessPattern:
    """Read a pattern back from the text its ``describe`` wrote."""
    m = re.fullmatch(r"(\w+)\((.*)\)", text.strip())
    if not m:
        raise ProgramError(f"malformed pattern {text!r}")
    kind, argtext = m.group(1), m.group(2)
    cls = _PATTERNS.get(kind)
    if cls is None:
        raise ProgramError(f"unknown pattern kind {kind!r}")
    args = _parse_kwargs(argtext)
    values = {}
    for field in cls.text_fields:
        if field.key in args:
            try:
                values[field.attr] = field.read(args[field.key])
            except ValueError:
                raise ProgramError(
                    f"pattern {kind!r}: malformed {field.key}={args[field.key]!r}"
                ) from None
        elif not field.optional:
            raise ProgramError(f"pattern {kind!r} missing argument {field.key!r}")
    return cls(**values)


def emit(program: Program) -> str:
    """Render a program in the assembly dialect."""
    lines = [f".program {program.name}"]
    for kernel in program.kernels:
        lines.append(
            f".kernel {kernel.name} trips={kernel.trips} "
            f"work={kernel.work_per_memop} mlp={kernel.mlp}"
        )
        for instr in kernel.body:
            if isinstance(instr, Load):
                lines.append(f"  {instr.label}: load {instr.pattern.describe()}")
            elif isinstance(instr, Store):
                op = "storent" if instr.nt else "store"
                lines.append(f"  {instr.label}: {op} {instr.pattern.describe()}")
            elif isinstance(instr, Prefetch):
                op = "prefetchnta" if instr.nta else "prefetch"
                lines.append(
                    f"      {op} {instr.distance_bytes:+d}({instr.target})"
                )
            elif isinstance(instr, IndirectPrefetch):
                op = "prefetchnta" if instr.nta else "prefetch"
                lines.append(f"      {op} {instr.target}[i+{instr.ahead}]")
        lines.append(".end")
    return "\n".join(lines) + "\n"


_KERNEL_RE = re.compile(
    r"\.kernel\s+(\w+)\s+trips=(\d+)\s+work=([\d.eE+-]+)\s+mlp=([\d.eE+-]+)"
)
_MEM_RE = re.compile(r"(\w+):\s+(load|store|storent)\s+(.*)")
_PF_RE = re.compile(rf"(prefetchnta|prefetch)\s+({_INT})\((\w+)\)")
_IPF_RE = re.compile(r"(prefetchnta|prefetch)\s+(\w+)\[i\+(\d+)\]")


def parse(text: str) -> Program:
    """Parse assembly text back into a :class:`Program`."""
    program_name: str | None = None
    kernels: list[Kernel] = []
    current: dict | None = None

    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith(".program"):
            parts = line.split()
            if len(parts) != 2:
                raise ProgramError(f"malformed .program line: {line!r}")
            program_name = parts[1]
            continue
        if line.startswith(".kernel"):
            m = _KERNEL_RE.fullmatch(line)
            if not m:
                raise ProgramError(f"malformed .kernel line: {line!r}")
            current = {
                "name": m.group(1),
                "trips": int(m.group(2)),
                "work": float(m.group(3)),
                "mlp": float(m.group(4)),
                "body": [],
            }
            continue
        if line == ".end":
            if current is None:
                raise ProgramError(".end without .kernel")
            kernels.append(
                Kernel(
                    name=current["name"],
                    body=tuple(current["body"]),
                    trips=current["trips"],
                    work_per_memop=current["work"],
                    mlp=current["mlp"],
                )
            )
            current = None
            continue
        if current is None:
            raise ProgramError(f"instruction outside kernel: {line!r}")
        m = _MEM_RE.fullmatch(line)
        if m:
            pattern = _parse_pattern(m.group(3))
            if m.group(2) == "load":
                current["body"].append(Load(m.group(1), pattern))
            else:
                current["body"].append(
                    Store(m.group(1), pattern, nt=m.group(2) == "storent")
                )
            continue
        m = _PF_RE.fullmatch(line)
        if m:
            current["body"].append(
                Prefetch(
                    target=m.group(3),
                    distance_bytes=int(m.group(2), 0),
                    nta=m.group(1) == "prefetchnta",
                )
            )
            continue
        m = _IPF_RE.fullmatch(line)
        if m:
            current["body"].append(
                IndirectPrefetch(
                    target=m.group(2),
                    ahead=int(m.group(3)),
                    nta=m.group(1) == "prefetchnta",
                )
            )
            continue
        raise ProgramError(f"unparseable line: {line!r}")

    if program_name is None:
        raise ProgramError("missing .program header")
    if current is not None:
        raise ProgramError(f"kernel {current['name']!r} missing .end")
    return Program(program_name, tuple(kernels))
