"""Per-tenant cache namespaces for the advisor daemon.

Every tenant the daemon serves gets an isolated
:class:`~repro.cache.ResultCache` view rooted at
``<cache-root>/tenants/<tenant>`` (see
:meth:`~repro.cache.ResultCache.tenant_view`) with its own quota.
Isolation is the point: one tenant filling its budget evicts only its
own entries, a corrupt entry quarantines inside its namespace, and a
hostile tenant can learn nothing about another's workloads from cache
timing because it can never address their files.

Results themselves are pure functions of the request (the content
address includes the machine fingerprint and profile rate), so the
*in-process* runner memo is deliberately shared across tenants — it
holds no per-tenant state, only physics.  Only the persistent layer is
namespaced.
"""

from __future__ import annotations

import threading
from pathlib import Path

from repro import obs
from repro.api import validate_tenant
from repro.cache import ResultCache

__all__ = ["TenantCaches"]


class TenantCaches:
    """Lazily-built map of tenant name → namespaced cache view.

    Thread-safe: views are created under a lock (requests for a new
    tenant can arrive on the intake loop while the dispatcher resolves
    a batch), and quota enforcement runs against each tenant's own view
    so tenants never contend on eviction.
    """

    def __init__(self, root: str | Path, quota_bytes: int | None = None) -> None:
        self.root = Path(root)
        self.quota_bytes = quota_bytes
        self._parent = ResultCache(self.root)
        self._views: dict[str, ResultCache] = {}
        self._lock = threading.Lock()

    def get(self, tenant: str) -> ResultCache:
        """The (cached) namespace view for ``tenant``; creates it lazily."""
        validate_tenant(tenant)
        with self._lock:
            view = self._views.get(tenant)
            if view is None:
                view = self._parent.tenant_view(tenant, quota_bytes=self.quota_bytes)
                self._views[tenant] = view
                if obs.enabled():
                    obs.metrics().counter("serve.tenants.created").inc()
            return view

    def enforce_quotas(self) -> int:
        """Run LRU quota eviction on every live tenant view.

        Called by the dispatcher after each batch; returns the total
        number of evicted entries (0 when no quota is configured).
        """
        if self.quota_bytes is None:
            return 0
        with self._lock:
            views = list(self._views.values())
        evicted = 0
        for view in views:
            evicted += view.enforce_quota()
        if evicted and obs.enabled():
            obs.metrics().counter("serve.tenants.evictions").inc(evicted)
        return evicted

    def known(self) -> list[str]:
        """Tenants seen by this process (sorted)."""
        with self._lock:
            return sorted(self._views)
