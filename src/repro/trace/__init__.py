"""Memory-trace containers and synthetic access-pattern generators."""

from repro.trace.characterize import PCCharacter, TraceCharacter, characterize_trace
from repro.trace.events import MemOp, MemoryTrace, TraceBuilder
from repro.trace.synthesis import (
    burst_strided_pattern,
    chase_pattern,
    gather_pattern,
    random_pattern,
    stream_pattern,
    strided_pattern,
    sweep_pattern,
)

__all__ = [
    "MemOp",
    "MemoryTrace",
    "TraceBuilder",
    "stream_pattern",
    "strided_pattern",
    "chase_pattern",
    "random_pattern",
    "gather_pattern",
    "burst_strided_pattern",
    "sweep_pattern",
    "characterize_trace",
    "TraceCharacter",
    "PCCharacter",
]
