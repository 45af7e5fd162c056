"""Prefetch-advisor serving layer (``repro serve``).

Turns the one-shot experiment pipeline into a long-lived, multi-tenant
daemon: clients submit :class:`~repro.api.AdvisorRequest` documents (a
workload spec or a small inline trace plus a machine config) over a
newline-delimited JSON socket protocol (``repro-advisor-v1``) and get
back the profile → MDDLI plan → rewrite decisions — and, for workload
requests, full simulated statistics — as
:class:`~repro.api.AdvisorResponse` documents that are byte-identical to
the one-shot :func:`repro.api.advise` path.

Pieces (see ``docs/serving.md`` for the protocol and deployment story):

* :mod:`repro.serve.protocol` — wire framing: hello/request/event/
  response lines, canonical JSON encoding;
* :mod:`repro.serve.advisor` — the pure request → response compute
  kernel shared by the daemon and :func:`repro.api.advise`;
* :mod:`repro.serve.tenancy` — per-tenant namespaced
  :class:`~repro.cache.ResultCache` views with quota/LRU eviction;
* :mod:`repro.serve.pool` — the engine pool: batches of requests
  grouped per tenant and resolved in turn through one reusable
  :class:`~repro.experiments.engine.ExperimentEngine`;
* :mod:`repro.serve.daemon` — the asyncio intake loop: bounded queue,
  batching, backpressure (429-style rejection with ``retry_after``),
  streaming progress events over the obs layer, graceful SIGTERM drain;
* :mod:`repro.serve.client` — a small blocking client used by the
  tests, the load benchmark and the CI smoke check.
"""

from repro.serve.advisor import compute_advice
from repro.serve.client import AdvisorClient
from repro.serve.daemon import AdvisorServer, ServeOptions, serve_forever
from repro.serve.pool import EnginePool
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL,
    ProtocolError,
    decode_line,
    decode_request,
    encode_event,
    encode_hello,
    encode_message,
    encode_request,
    encode_response,
)
from repro.serve.tenancy import TenantCaches

__all__ = [
    "MAX_LINE_BYTES",
    "PROTOCOL",
    "AdvisorClient",
    "AdvisorServer",
    "EnginePool",
    "ProtocolError",
    "ServeOptions",
    "TenantCaches",
    "compute_advice",
    "decode_line",
    "decode_request",
    "encode_event",
    "encode_hello",
    "encode_message",
    "encode_request",
    "encode_response",
    "serve_forever",
]
