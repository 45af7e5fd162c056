"""Observability: tracing spans, a metrics registry, and exporters.

Zero-dependency instrumentation for the experiment pipeline.  Three
pieces:

* :mod:`repro.obs.tracer` — nestable, thread- and process-aware spans
  (``with obs.span("statstack.solve"): ...``) that cost one module
  truth test when disabled;
* :mod:`repro.obs.metrics` — named counters/gauges/histograms
  (cache hits, retries, bisections, simulated bandwidth …);
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (open in
  ``chrome://tracing`` or https://ui.perfetto.dev) and a flat JSON
  metrics dump.

Enable through :func:`obs.enable(...) <repro.obs.tracer.enable>` (the
engine's worker processes follow it) or any CLI subcommand's
``--trace-out``/``--metrics-out``; see
``docs/observability.md`` for span naming conventions and formats.
"""

from repro.obs.export import (
    chrome_trace,
    metrics_dump,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.log import get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics,
)
from repro.obs.tracer import (
    NOOP_SPAN,
    Span,
    Tracer,
    add_span_listener,
    disable,
    drain_spans,
    enable,
    enabled,
    get_tracer,
    remove_span_listener,
    span,
)

__all__ = [
    "ENABLED",
    "NOOP_SPAN",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "add_span_listener",
    "chrome_trace",
    "disable",
    "drain_spans",
    "enable",
    "enabled",
    "get_logger",
    "get_tracer",
    "metrics",
    "metrics_dump",
    "remove_span_listener",
    "span",
    "write_chrome_trace",
    "write_metrics",
]


def __getattr__(name: str):
    # ``ENABLED`` is rebound inside repro.obs.tracer by enable()/disable();
    # the from-import above froze the value at import time.  Resolve the
    # live flag dynamically so ``obs.ENABLED`` is always current.
    if name == "ENABLED":
        from repro.obs import tracer

        return tracer.ENABLED
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
