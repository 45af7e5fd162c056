"""Nestable tracing spans with statically-zero disabled overhead.

The tracer answers the question the paper's resource-efficiency story
keeps asking of us: *where did the time go?*  Every stage of the
pipeline — engine dispatch, workload profiling, the StatStack solve, the
prefetch analysis, the cache simulation — wraps its work in a named
span::

    from repro import obs

    with obs.span("statstack.solve", samples=len(samples)):
        ...

Design constraints, in priority order:

* **Zero cost disabled.**  Like :data:`repro.faults.ACTIVE`, a single
  module flag (:data:`ENABLED`) guards the hot path.  When tracing is
  off, :func:`span` returns one shared no-op context manager — no
  :class:`Span` object is ever allocated, no clock is read, no lock is
  taken.  (:attr:`Span.allocated` counts constructions so tests can
  assert this statically.)
* **Nestable and thread-aware.**  Spans form a stack per thread; each
  finished span records its depth, thread id and process id, so a
  Chrome-trace viewer reconstructs the flame graph per track.
* **Process-pool friendly.**  Worker processes trace into their own
  tracer and ship finished spans back to the parent as plain dicts
  (picklable); :func:`Tracer.ingest` merges them, preserving the
  worker's pid/tid so worker tracks render separately.
* **Deterministic when seeded.**  ``Tracer(deterministic=True)`` swaps
  the wall clock for a virtual microsecond counter, making the exported
  trace byte-stable — tests diff traces instead of eyeballing them.

Span names follow ``<category>.<operation>`` (see
``docs/observability.md``); the category (text before the first dot)
feeds the per-phase breakdown in ``EngineStats.format``.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Iterable

__all__ = [
    "ENABLED",
    "NOOP_SPAN",
    "Span",
    "Tracer",
    "add_span_listener",
    "disable",
    "drain_spans",
    "enable",
    "enabled",
    "get_tracer",
    "remove_span_listener",
    "span",
]

#: Fast-path guard read by every instrumented site (``if obs.ENABLED``).
#: True exactly while a tracer is installed via :func:`enable`.
ENABLED = False


class _NoopSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


class Span:
    """One timed, named, attributed region of execution.

    Context-manager protocol: timing starts at ``__enter__`` and the
    span is recorded into its tracer at ``__exit__``.  ``set(**attrs)``
    attaches structured attributes at any point while open.
    """

    __slots__ = ("tracer", "name", "attrs", "t0", "dur", "pid", "tid", "depth", "cat_root")

    #: Class-wide construction counter; the disabled-overhead test
    #: asserts it does not move while tracing is off.
    allocated = 0

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        Span.allocated += 1
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.t0 = 0.0
        self.dur = 0.0
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self.depth = 0
        self.cat_root = True

    @property
    def category(self) -> str:
        """Text before the first dot — the pipeline stage this span belongs to."""
        return self.name.split(".", 1)[0]

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = self.tracer._stack()
        self.depth = len(stack)
        cat = self.category
        self.cat_root = not any(s.category == cat for s in stack)
        stack.append(self)
        self.t0 = self.tracer._now()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.dur = self.tracer._now() - self.t0
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        stack = self.tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        else:  # tolerate out-of-order exits instead of corrupting the stack
            try:
                stack.remove(self)
            except ValueError:
                pass
        self.tracer._record(self)
        return False

    def as_dict(self) -> dict:
        """Plain-primitive form: picklable, JSON-able, mergeable."""
        return {
            "name": self.name,
            "ts": self.t0,
            "dur": self.dur,
            "pid": self.pid,
            "tid": self.tid,
            "depth": self.depth,
            "cat_root": self.cat_root,
            "attrs": dict(self.attrs),
        }


class Tracer:
    """Collects finished spans; one per process (plus one per worker).

    Parameters
    ----------
    deterministic:
        Replace the wall clock with a virtual counter advancing one
        microsecond per reading, so repeated runs produce identical
        timestamps (and exported traces compare equal).
    """

    def __init__(self, deterministic: bool = False) -> None:
        self.deterministic = deterministic
        self.finished: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tick = 0
        #: Live span listeners (see :meth:`add_listener`).
        self._listeners: list = []
        #: Wall-clock time of tracer creation (trace metadata only).
        self.epoch = time.time()

    # -- clock ----------------------------------------------------------

    def _now(self) -> float:
        """Current trace time in microseconds."""
        if self.deterministic:
            with self._lock:
                self._tick += 1
                return float(self._tick)
        return time.perf_counter() * 1e6

    # -- span lifecycle -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs) -> Span:
        """A new span (enter it with ``with``)."""
        return Span(self, name, attrs)

    def _record(self, span: Span) -> None:
        event = span.as_dict()
        with self._lock:
            self.finished.append(event)
            listeners = list(self._listeners)
        for listener in listeners:
            try:
                listener(event)
            except Exception:
                # A broken listener must never sink the traced work;
                # listeners are observers, not participants.
                pass

    # -- live listeners -------------------------------------------------

    def add_listener(self, listener) -> None:
        """Call ``listener(event_dict)`` on every span finished hereafter.

        Listeners run on the thread that finishes the span, outside the
        tracer lock; exceptions they raise are swallowed.  The serve
        daemon uses this to stream progress events to clients while a
        batch resolves.
        """
        with self._lock:
            if listener not in self._listeners:
                self._listeners.append(listener)

    def remove_listener(self, listener) -> None:
        """Detach a listener; unknown listeners are ignored."""
        with self._lock:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

    def ingest(self, events: Iterable[dict]) -> None:
        """Merge finished spans shipped from another process."""
        with self._lock:
            self.finished.extend(events)

    def drain(self) -> list[dict]:
        """Pop every span finished *by this process* (worker shipping).

        Spans inherited through ``fork`` from the parent's tracer are
        discarded, not re-shipped — the parent already has them.
        """
        pid = os.getpid()
        with self._lock:
            mine = [e for e in self.finished if e["pid"] == pid]
            self.finished = []
        return mine

    def clear(self) -> None:
        """Drop every recorded span (open spans are unaffected)."""
        with self._lock:
            self.finished = []

    # -- analysis -------------------------------------------------------

    def phase_totals(self) -> dict[str, float]:
        """Inclusive seconds per category (stage), deterministically ordered.

        Only *category-root* spans (spans with no enclosing span of the
        same category) contribute, so nesting within a stage does not
        double count; nesting across stages is inclusive by design — the
        StatStack solve inside the analysis pass counts towards both.
        """
        totals: dict[str, float] = {}
        with self._lock:
            events = list(self.finished)
        for event in events:
            if not event.get("cat_root", True):
                continue
            cat = event["name"].split(".", 1)[0]
            totals[cat] = totals.get(cat, 0.0) + event["dur"] / 1e6
        return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


# -- process-wide default tracer ----------------------------------------

_TRACER: Tracer | None = None


def span(name: str, **attrs):
    """A span on the process-wide tracer, or the shared no-op when disabled.

    This is *the* instrumentation entry point; call sites pay one module
    attribute truth test when tracing is off.
    """
    if not ENABLED:
        return NOOP_SPAN
    return _TRACER.span(name, **attrs)


def enable(deterministic: bool = False) -> Tracer:
    """Install (or reuse) the process-wide tracer and turn tracing on."""
    global _TRACER, ENABLED
    if _TRACER is None or _TRACER.deterministic != deterministic:
        _TRACER = Tracer(deterministic=deterministic)
    ENABLED = True
    return _TRACER


def disable() -> None:
    """Turn tracing off and forget the process-wide tracer."""
    global _TRACER, ENABLED
    ENABLED = False
    _TRACER = None


def enabled() -> bool:
    """Whether the process-wide tracer is active."""
    return ENABLED


def get_tracer() -> Tracer | None:
    """The process-wide tracer, if tracing is enabled."""
    return _TRACER


def add_span_listener(listener) -> bool:
    """Attach a live span listener to the process tracer.

    Returns ``False`` (and does nothing) when tracing is disabled —
    there is no tracer to observe, and callers are expected to cope.
    """
    if _TRACER is None:
        return False
    _TRACER.add_listener(listener)
    return True


def remove_span_listener(listener) -> None:
    """Detach a live span listener, if a tracer is installed."""
    if _TRACER is not None:
        _TRACER.remove_listener(listener)


def drain_spans() -> list[dict]:
    """Pop this process's finished spans (worker → parent shipping)."""
    if _TRACER is None:
        return []
    return _TRACER.drain()
