"""Mini instruction set: programs, interpreter, assembler, rewriter."""

from repro.isa.assembly import emit, parse
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
from repro.isa.interpreter import (
    ExecutionResult,
    execute_program,
    splice_execution,
)
from repro.isa.program import Kernel, Program
from repro.isa.rewriter import convert_nt_stores, insert_prefetches

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
    "Kernel",
    "Program",
    "ExecutionResult",
    "execute_program",
    "splice_execution",
    "insert_prefetches",
    "convert_nt_stores",
    "emit",
    "parse",
]
