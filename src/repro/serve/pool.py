"""The engine pool: request batches → responses.

The runner layer keeps process-global state (the in-process memo), and
the engine's cache view is swapped per tenant, so the daemon resolves
every batch from **one dispatcher thread** on one reusable engine —
concurrency lives above it (the asyncio intake queue) and below it (the
engine's worker process pool).

Resolution of one batch:

1. group the requests by tenant, preserving arrival order;
2. for each tenant group, swap that tenant's namespaced cache view onto
   the engine and resolve all stats-bearing workload specs
   through :meth:`ExperimentEngine.run_with_report` (parallel across
   profile groups, best-effort — one poisoned request must not sink its
   neighbours); the engine is the only writer of the view, so a group
   persists its ``stats`` entries and nothing else;
3. answer every request through :func:`repro.serve.advisor.compute_advice`
   — workload cells are now warm in the runner memo, so this is a pure
   lookup and the response document is byte-identical to the one-shot
   :func:`repro.api.advise` path; plan-only and trace requests profile
   and plan in-process and write nothing;
4. enforce per-tenant cache quotas.
"""

from __future__ import annotations

from repro import obs
from repro.api import AdvisorRequest, AdvisorResponse
from repro.errors import ReproError
from repro.experiments.engine import ExperimentEngine
from repro.retry import RetryPolicy
from repro.serve.advisor import compute_advice
from repro.serve.tenancy import TenantCaches

__all__ = ["EnginePool"]


class EnginePool:
    """One reusable :class:`ExperimentEngine` serving every tenant in turn.

    Parameters
    ----------
    jobs:
        Worker processes for cold cells (the process-wide compute width).
    tenants:
        Per-tenant cache namespaces; ``None`` serves everything
        memo-only (no persistent cache).
    retry:
        Per-cell retry policy handed to the engine.
    """

    def __init__(
        self,
        jobs: int | None = None,
        tenants: TenantCaches | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.tenants = tenants
        self._engine = ExperimentEngine(jobs=jobs, retry=retry, strict=False)
        self.batches = 0
        self.requests = 0

    def resolve(self, requests: list[AdvisorRequest]) -> list[AdvisorResponse]:
        """Answer one batch of requests, preserving input order.

        Never raises for per-request trouble: compute failures come back
        as ``status="error"`` responses.  Must be called from a single
        thread at a time (the daemon's dispatcher executor guarantees
        this).
        """
        self.batches += 1
        self.requests += len(requests)
        with obs.span("serve.batch", requests=len(requests)):
            by_tenant: dict[str, list[int]] = {}
            for index, request in enumerate(requests):
                by_tenant.setdefault(request.tenant, []).append(index)

            responses: list[AdvisorResponse | None] = [None] * len(requests)
            engine = self._engine
            for tenant, indices in by_tenant.items():
                engine.cache = (
                    self.tenants.get(tenant) if self.tenants is not None else None
                )
                group = [requests[i] for i in indices]
                self._prefill(engine, group)
                for i, request in zip(indices, group):
                    responses[i] = compute_advice(request)
            if self.tenants is not None:
                self.tenants.enforce_quotas()
        if obs.enabled():
            reg = obs.metrics()
            reg.counter("serve.batches").inc()
            reg.counter("serve.requests.resolved").inc(len(requests))
        return [r for r in responses if r is not None]

    def _prefill(self, engine: ExperimentEngine, group: list[AdvisorRequest]) -> None:
        """Warm the runner memo for the group's stats-bearing specs.

        Best-effort: a cell that fails permanently here is simply left
        cold, and :func:`compute_advice` turns the recompute's exception
        into that request's error response without touching the others.
        """
        specs = []
        for request in group:
            if request.workload is None or not request.want_stats:
                continue
            try:
                specs.append(request.spec)
            except ReproError:
                continue
        if specs:
            engine.run_with_report(specs)
