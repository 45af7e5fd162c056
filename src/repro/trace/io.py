"""The plain-JSON trace codec of the committed fuzz fixtures.

The shrunk fuzz repros the conformance harness commits as regression
fixtures must be human-auditable: :func:`trace_to_dict` /
:func:`trace_from_dict` write and read a trace's three event arrays as
JSON numbers under a format tag.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceError
from repro.trace.events import MemoryTrace

__all__ = ["trace_to_dict", "trace_from_dict"]

_JSON_FORMAT = "repro-trace-json-v1"


def trace_to_dict(trace: MemoryTrace) -> dict:
    """Convert a trace to JSON-serialisable primitives.

    Intended for small fixture traces: every event becomes three JSON
    numbers.
    """
    return {
        "format": _JSON_FORMAT,
        "pc": trace.pc.tolist(),
        "addr": trace.addr.tolist(),
        "op": trace.op.tolist(),
    }


def trace_from_dict(data: dict) -> MemoryTrace:
    """Rebuild a trace from :func:`trace_to_dict` output."""
    if data.get("format") != _JSON_FORMAT:
        raise TraceError(f"unsupported trace format {data.get('format')!r}")
    return MemoryTrace(
        np.asarray(data["pc"], dtype=np.int64),
        np.asarray(data["addr"], dtype=np.int64),
        np.asarray(data["op"], dtype=np.uint8),
    )
