"""Exporters: Chrome ``trace_event`` JSON and a flat metrics dump.

The trace format is the ``chrome://tracing`` / Perfetto JSON object
format (https://ui.perfetto.dev loads these directly): complete events
(``"ph": "X"``) with microsecond timestamps, one track per
(process, thread), plus metadata records naming the parent and worker
processes.  The metrics dump is a single JSON object keyed by metric
name — trivially diffable and machine-parseable.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable

from repro.obs.metrics import metrics
from repro.obs.tracer import get_tracer

__all__ = [
    "chrome_trace",
    "metrics_dump",
    "write_chrome_trace",
    "write_metrics",
]


def chrome_trace(events: Iterable[dict], epoch: float | None = None) -> dict:
    """Build the Chrome ``trace_event`` object for finished span dicts."""
    events = list(events)
    trace_events = []
    pids = sorted({e["pid"] for e in events})
    parent_pid = os.getpid()
    for pid in pids:
        name = "repro" if pid == parent_pid else f"repro-worker-{pid}"
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
        )
    for event in events:
        trace_events.append(
            {
                "name": event["name"],
                "cat": event["name"].split(".", 1)[0],
                "ph": "X",
                "ts": event["ts"],
                "dur": event["dur"],
                "pid": event["pid"],
                "tid": event["tid"],
                "args": event["attrs"],
            }
        )
    out = {"traceEvents": trace_events, "displayTimeUnit": "ms"}
    if epoch is not None:
        out["otherData"] = {"epoch_unix_seconds": epoch}
    return out


def write_chrome_trace(path: str | Path) -> Path:
    """Write the process-wide tracer's spans as a Chrome-trace JSON file.

    An empty (or absent) tracer still produces a valid, loadable trace
    with zero events.
    """
    tracer = get_tracer()
    events = list(tracer.finished) if tracer is not None else []
    epoch = tracer.epoch if tracer is not None else None
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(events, epoch=epoch), indent=1) + "\n")
    return path


def metrics_dump() -> dict:
    """The flat JSON object for the process-wide metrics registry."""
    return {"format": "repro-metrics-v1", "metrics": metrics().as_dict()}


def write_metrics(path: str | Path) -> Path:
    """Write the process-wide registry's metrics as a JSON file."""
    path = Path(path)
    path.write_text(json.dumps(metrics_dump(), indent=1, sort_keys=True) + "\n")
    return path
