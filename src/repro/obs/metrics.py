"""Named counters, gauges and histograms for the experiment pipeline.

The paper's evaluation is about *resources* — SLLC space, off-chip
bandwidth, profiling cost — so the reproduction needs first-class
numbers, not just log lines.  A :class:`MetricsRegistry` holds three
metric kinds under dotted names (``engine.cache.disk_hits``,
``sim.bandwidth_gbs`` …):

* :class:`Counter` — monotonically increasing totals (cache hits,
  retries, bisections);
* :class:`Gauge` — last-value instruments (worker count, cells/sec);
* :class:`Histogram` — bounded summaries (count/sum/min/max/mean) of
  per-event observations (per-cell simulated bandwidth, span counts);
  bounded because grids run to thousands of cells and the registry must
  never grow with the workload.

Instrumented sites guard updates with ``if obs.ENABLED:`` so the
disabled pipeline pays one truth test.  Worker processes accumulate into
their own registry and ship :meth:`MetricsRegistry.snapshot` back with
their results; :meth:`MetricsRegistry.merge` folds the snapshot into the
parent's registry (counters and histograms add, gauges take the
incoming value).
"""

from __future__ import annotations

import threading

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "metrics"]


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def as_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    def merge(self, other: dict) -> None:
        self.value += other["value"]


class Gauge:
    """A last-value instrument."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    def merge(self, other: dict) -> None:
        self.value = other["value"]


class Histogram:
    """A bounded summary (count/sum/min/max) of observations."""

    __slots__ = ("name", "count", "total", "min", "max")
    kind = "histogram"

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
        }

    def merge(self, other: dict) -> None:
        if not other["count"]:
            return
        self.count += other["count"]
        self.total += other["sum"]
        if other["min"] is not None and other["min"] < self.min:
            self.min = other["min"]
        if other["max"] is not None and other["max"] > self.max:
            self.max = other["max"]


_KINDS = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}


class MetricsRegistry:
    """Get-or-create registry of named metrics (thread-safe)."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name)
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"requested {cls.kind}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def as_dict(self) -> dict[str, dict]:
        """Every metric's plain-primitive form, sorted by name."""
        with self._lock:
            return {
                name: self._metrics[name].as_dict()
                for name in sorted(self._metrics)
            }

    # Snapshots are just as_dict(); the alias marks shipping intent.
    snapshot = as_dict

    def merge(self, snapshot: dict[str, dict]) -> None:
        """Fold a shipped snapshot into this registry."""
        for name, payload in snapshot.items():
            self._get(name, _KINDS[payload["kind"]]).merge(payload)

    def reset(self) -> None:
        """Drop every metric (tests and benchmark hygiene)."""
        with self._lock:
            self._metrics.clear()


# -- process-wide default registry --------------------------------------

_REGISTRY = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process-wide metrics registry (always available)."""
    return _REGISTRY
