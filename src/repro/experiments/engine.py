"""Parallel, fault-tolerant experiment engine.

The paper's evaluation is a grid of (workload × machine × config ×
input-set × scale) cells, and — as PPT-Multicore observes for
reuse-profile-driven models — the cells are embarrassingly parallel:
each one is a pure function of its :class:`~repro.api.ExperimentSpec`.
The engine exploits that twice over:

* **fan-out** — cold cells are grouped by profile (cells sharing a
  workload build/execution land in one task so profiling runs once per
  group) and dispatched over a :class:`~concurrent.futures.ProcessPoolExecutor`;
* **reuse** — before anything is dispatched, every cell is resolved
  against the in-process memo and, when enabled, the persistent
  :class:`~repro.cache.ResultCache`, so repeated figure regeneration is
  near-instant and different experiments share each other's cells.

Results are **identical** to a serial run: the compute kernel is
deterministic and workers return plain :class:`RunStats` that the parent
installs into the same memo the serial path uses.

Long grids must also *survive partial failure*; the engine degrades
gracefully instead of discarding a batch:

* failed groups are retried under a :class:`~repro.retry.RetryPolicy`
  with **bisection** — a failing 8-cell group re-dispatches as two
  4-cell groups, down to the single poison cell, so one bad spec costs
  ``O(log n)`` extra dispatches instead of the whole batch;
* each dispatched group gets a **deadline** (``RetryPolicy.timeout``);
  a hung worker is abandoned (the pool is replaced) and its group is
  bisected like any other failure;
* a ``BrokenProcessPool`` (OOM-killed child, crashed fork) triggers
  automatic **fallback to in-process serial execution** for everything
  still outstanding — the engine never re-raises it;
* in ``strict`` mode (default) permanent failures raise
  :class:`~repro.errors.EngineError` carrying a :class:`FailureReport`;
  in best-effort mode (``strict=False``) :meth:`ExperimentEngine.run`
  returns the surviving cells and leaves the report on
  :attr:`ExperimentEngine.last_failures`;
* cache IO errors degrade to misses (recompute), never aborts.

Killed *processes* are survivable too, when a run journal is attached
(see :mod:`repro.experiments.journal`): every dispatched batch and every
completed or failed cell is appended to a checksummed, fsync'd JSONL
journal, so ``repro run --resume <run-id>`` / :func:`repro.api.resume_run`
replays the journal, skips the completed cells, and re-dispatches only
what the crash interrupted — with bit-identical final results.  A
journaled run also installs SIGINT/SIGTERM handlers that *drain*
in-flight work under a deadline, terminate the pool, flush the journal,
and raise :class:`~repro.errors.RunInterrupted` (CLI exit code 75) so
wrappers can auto-resume; a bare :class:`KeyboardInterrupt` mid-dispatch
still terminates the pool and leaves every already-journaled cell
recoverable.

The CLI installs one process-wide default engine through
:func:`repro.api.configure` (``--jobs``, ``--cache-dir``, ``--no-cache``,
``--retries``, ``--cell-timeout``, ``--best-effort``); experiment drivers
pick it up through :func:`repro.api.current_engine`, so library callers
that never think about engines transparently inherit the CLI's
parallelism, cache, and fault tolerance.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro import faults, obs
from repro.api import CONFIGS, ExperimentSpec
from repro.cache import ResultCache, default_cache_dir
from repro.cachesim.options import SimOptions, get_default_options
from repro.cachesim.stats import RunStats
from repro.errors import CellFailure, EngineError, RunInterrupted
from repro.experiments import runner
from repro.experiments.journal import RunJournal, default_runs_dir
from repro.retry import RetryPolicy

__all__ = [
    "EngineStats",
    "ExperimentEngine",
    "FailureReport",
]

#: Environment variable providing the default worker count.
JOBS_ENV = "REPRO_JOBS"

#: How long a graceful shutdown waits for in-flight groups before
#: terminating the pool.
DRAIN_SECONDS = 5.0

_LOG = obs.get_logger("repro.engine")


def _default_jobs() -> int:
    try:
        return max(1, int(os.environ.get(JOBS_ENV, "1")))
    except ValueError:
        return 1


@dataclass
class EngineStats:
    """Cumulative accounting of every cell the engine resolved.

    ``memo_hits`` were free (already resident in-process), ``disk_hits``
    cost one JSON read, ``computed`` cost a full simulation, ``failed``
    exhausted their retry budget.  The four always sum to ``cells``.
    ``retries`` counts extra dispatches (re-attempts and bisection
    splits); ``fallbacks`` counts pool abandonments (broken pool →
    serial, hung group → fresh pool); ``interrupted`` counts batches
    truncated by a shutdown signal or :class:`KeyboardInterrupt` (their
    resolved cells are still accounted — the four sources sum to
    ``cells``, which is then less than the batch's request).
    """

    cells: int = 0
    computed: int = 0
    memo_hits: int = 0
    disk_hits: int = 0
    failed: int = 0
    retries: int = 0
    fallbacks: int = 0
    interrupted: int = 0
    batches: int = 0
    wall_seconds: float = 0.0

    def merge_batch(
        self,
        computed: int,
        memo_hits: int,
        disk_hits: int,
        wall: float,
        failed: int = 0,
        retries: int = 0,
        fallbacks: int = 0,
    ) -> None:
        self.cells += computed + memo_hits + disk_hits + failed
        self.computed += computed
        self.memo_hits += memo_hits
        self.disk_hits += disk_hits
        self.failed += failed
        self.retries += retries
        self.fallbacks += fallbacks
        self.batches += 1
        self.wall_seconds += wall

    def format(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        tracer: obs.Tracer | None = None,
    ) -> str:
        """Human-readable summary line (the CLI prints this to stderr).

        With a tracer (defaulting to the process-wide one when tracing
        is enabled) a per-phase wall-time breakdown is appended, built
        from the inclusive span totals of each pipeline stage.
        """
        parts = [
            f"{self.cells} cells",
            f"{self.computed} computed",
            f"{self.memo_hits} memo hits",
            f"{self.disk_hits} disk hits",
            f"{jobs} job{'s' if jobs != 1 else ''}",
            f"{self.wall_seconds:.2f}s",
        ]
        if self.failed:
            parts.insert(4, f"{self.failed} failed")
        if self.retries:
            parts.insert(-2, f"{self.retries} retries")
        if self.interrupted:
            parts.insert(-2, f"{self.interrupted} interrupted")
        line = "engine: " + " | ".join(parts)
        if tracer is None:
            tracer = obs.get_tracer()
        if tracer is not None:
            totals = tracer.phase_totals()
            if totals:
                line += "\nphases: " + " | ".join(
                    f"{phase} {seconds:.2f}s" for phase, seconds in totals.items()
                )
        if cache is not None:
            line += f"\n{cache.describe()}"
        return line


@dataclass
class FailureReport:
    """Structured account of every cell a batch lost permanently.

    ``failures`` holds one :class:`~repro.errors.CellFailure` per poison
    cell (spec, attempts, elapsed, cause); ``fallbacks`` counts pool
    abandonments the batch survived.  Truthy iff any cell failed.
    """

    failures: list[CellFailure] = field(default_factory=list)
    fallbacks: int = 0

    def __bool__(self) -> bool:
        return bool(self.failures)

    def __len__(self) -> int:
        return len(self.failures)

    def add(self, failure: CellFailure) -> None:
        self.failures.append(failure)

    def specs(self) -> list[ExperimentSpec]:
        """The poisoned specs, in failure order."""
        return [f.spec for f in self.failures]

    def format_table(self) -> str:
        """Per-cell failure table (the CLI prints this to stderr)."""
        from repro.experiments.tables import render_table

        rows = [
            (
                f.spec.label() if f.spec is not None else "?",
                f.attempts,
                f"{f.elapsed:.2f}s",
                type(f.cause).__name__ if f.cause is not None else "Timeout",
                str(f.cause) if f.cause is not None else str(f),
            )
            for f in self.failures
        ]
        return render_table(
            ("cell", "attempts", "elapsed", "error", "detail"),
            rows,
            title=f"{len(self.failures)} cell(s) failed permanently",
        )


@dataclass
class _Batch:
    """Bookkeeping for one :meth:`ExperimentEngine.run` invocation."""

    total: int = 0
    done: int = 0
    computed: int = 0
    memo_hits: int = 0
    disk_hits: int = 0
    retries: int = 0
    bisections: int = 0
    started: float = field(default_factory=time.perf_counter)


@dataclass
class _Task:
    """One dispatched unit of work: a group of cells plus retry state."""

    specs: tuple[ExperimentSpec, ...]
    attempt: int = 1
    started: float = 0.0


def _compute_group(
    specs: tuple[ExperimentSpec, ...],
    trace: bool = False,
    deterministic: bool = False,
    sim_options: SimOptions | None = None,
) -> tuple[list[tuple[ExperimentSpec, RunStats]], list[dict], dict]:
    """Worker entry point: simulate one batch of grid cells.

    Runs in a separate process; ``runner``'s in-process caches make the
    shared profiling pass, the plans *and* the rewritten-program decode
    compute once per batch — cells differing only in configuration or
    simulation options reuse them all.  When the parent traces, the
    worker traces too and ships its finished spans and metrics snapshot
    back alongside the results — the parent ingests them so one Chrome
    trace shows every process's track.  The parent's simulation options
    ship the same way (spawn-based pools don't inherit them).
    """
    faults.mark_worker()
    if sim_options is not None:
        from repro.cachesim.options import set_default_options

        set_default_options(sim_options)
    if trace:
        tracer = obs.enable(deterministic=deterministic)
        tracer.clear()  # drop spans inherited from the parent via fork
        obs.metrics().reset()
    payload = [(spec, runner.compute_run(spec)) for spec in specs]
    if not trace:
        return payload, [], {}
    return payload, obs.drain_spans(), obs.metrics().snapshot()


class ExperimentEngine:
    """Resolves grids of experiment cells with parallelism and caching.

    Parameters
    ----------
    jobs:
        Worker processes for cold cells.  ``1`` (default) computes
        serially in-process; higher values fan profile groups out over a
        process pool.  ``None`` reads ``$REPRO_JOBS`` (default 1).
    cache_dir:
        Directory of the persistent result cache.  ``None`` with
        ``use_cache=True`` selects :func:`repro.cache.default_cache_dir`.
    use_cache:
        Whether to read/write the persistent cache at all.
    progress:
        Per-cell progress reporting: ``True`` prints one line per cell to
        stderr, a callable receives ``(done, total, spec, source)`` with
        ``source`` in {"memo", "disk", "computed", "failed"};
        ``None``/``False`` disables reporting.
    retry:
        :class:`~repro.retry.RetryPolicy` bounding per-cell attempts,
        backoff, and the per-group deadline.  ``None`` uses the policy's
        defaults (3 attempts, no deadline).
    strict:
        ``True`` (default): permanent cell failures raise
        :class:`~repro.errors.EngineError` carrying the
        :class:`FailureReport`.  ``False``: :meth:`run` returns the
        surviving cells and leaves the report on :attr:`last_failures`.
    journal:
        Optional :class:`~repro.experiments.journal.RunJournal`.  When
        attached, every dispatched group and every resolved cell is
        journaled durably, and the run installs SIGINT/SIGTERM handlers
        for graceful, resumable shutdown (see :mod:`journal`).  Also
        assignable after construction (``engine.journal = …``).
    cache_quota:
        Size budget in bytes for the persistent cache; enforced with
        LRU eviction at engine start (``None`` — no limit).

    :attr:`cache` is assignable between batches: the serve dispatcher
    swaps per-tenant :class:`~repro.cache.ResultCache` views onto one
    engine this way, and owns their sweeping and quota enforcement.
    """

    def __init__(
        self,
        jobs: int | None = None,
        cache_dir: str | Path | None = None,
        use_cache: bool = False,
        progress: bool | Callable[[int, int, ExperimentSpec, str], None] | None = None,
        retry: RetryPolicy | None = None,
        strict: bool = True,
        journal: RunJournal | None = None,
        cache_quota: int | None = None,
    ) -> None:
        self.jobs = _default_jobs() if jobs is None else max(1, int(jobs))
        self.cache: ResultCache | None = None
        if use_cache:
            self.cache = ResultCache(
                cache_dir or default_cache_dir(), quota_bytes=cache_quota
            )
            # Reclaim temp files orphaned by killed writers of past runs
            # (cache entries, interrupted quarantine moves, journal
            # temps) and enforce the size budget, if one is set.
            self.cache.sweep_stale_tmp(runs_dir=default_runs_dir())
            self.cache.enforce_quota()
        self.progress = progress
        self.retry = retry if retry is not None else RetryPolicy()
        self.strict = strict
        self.journal = journal
        self.stats = EngineStats()
        #: FailureReport of the most recent :meth:`run` (empty when the
        #: batch was clean).
        self.last_failures = FailureReport()
        #: Name of the signal a graceful shutdown is honouring, if any.
        self._shutdown_signal: str | None = None
        self._handlers_installed = False

    # -- public API ----------------------------------------------------

    def run(
        self, specs: Iterable[ExperimentSpec]
    ) -> dict[ExperimentSpec, RunStats]:
        """Resolve every cell, in parallel where profitable.

        Returns a mapping from each distinct requested spec to its
        :class:`RunStats`; results are bit-identical to calling
        :func:`repro.experiments.runner.run_spec` serially.  In strict
        mode permanent cell failures raise
        :class:`~repro.errors.EngineError`; in best-effort mode failed
        cells are simply absent from the mapping and described by
        :attr:`last_failures`.
        """
        results, report = self.run_with_report(specs)
        if report and self.strict:
            raise EngineError(
                f"{len(report)} of {len(results) + len(report)} cells failed "
                "permanently",
                report=report,
            )
        return results

    def run_with_report(
        self, specs: Iterable[ExperimentSpec]
    ) -> tuple[dict[ExperimentSpec, RunStats], FailureReport]:
        """Resolve every cell; never raises for per-cell failures.

        Returns ``(results, report)``: the surviving cells and the
        structured account of permanent failures (empty when clean).
        """
        ordered = list(dict.fromkeys(specs))
        batch = _Batch(total=len(ordered))
        results: dict[ExperimentSpec, RunStats] = {}
        report = FailureReport()
        self.last_failures = report
        cold: list[ExperimentSpec] = []

        previous_cache = runner.set_cache(self.cache)
        previous_handlers = self._install_signal_handlers()
        if self.journal is not None:
            self.journal.start(ordered)
        batch_span = obs.span("engine.batch", cells=len(ordered), jobs=self.jobs)
        batch_span.__enter__()
        try:
            for spec in ordered:
                if runner.memo_contains(spec):
                    stats = runner.run_spec(spec)
                    results[spec] = stats
                    # A cell computed before the cache was active may be
                    # memo-only; make sure it reaches disk too.
                    if self.cache is not None and not self._cache_has(spec):
                        self._cache_put(spec, stats)
                    batch.memo_hits += 1
                    self._report(batch, spec, "memo", stats)
                    continue
                if self.cache is not None:
                    stats = self._cache_get(spec)
                    if stats is not None:
                        runner.seed_memo(spec, stats)
                        results[spec] = stats
                        batch.disk_hits += 1
                        self._report(batch, spec, "disk", stats)
                        continue
                cold.append(spec)

            if cold:
                self._run_cold(cold, results, batch, report)
        except (RunInterrupted, KeyboardInterrupt):
            # The batch was truncated; everything resolved so far is
            # journaled and accounted, the rest resumes from the journal.
            self.stats.interrupted += 1
            raise
        finally:
            # Account the batch even when resolution raises mid-way, so
            # partial batches still appear in summary().
            runner.set_cache(previous_cache)
            self._restore_signal_handlers(previous_handlers)
            wall = time.perf_counter() - batch.started
            self.stats.merge_batch(
                batch.computed,
                batch.memo_hits,
                batch.disk_hits,
                wall,
                failed=len(report),
                retries=batch.retries,
                fallbacks=report.fallbacks,
            )
            batch_span.set(
                computed=batch.computed,
                memo_hits=batch.memo_hits,
                disk_hits=batch.disk_hits,
                failed=len(report),
                retries=batch.retries,
            )
            batch_span.__exit__(None, None, None)
            if obs.enabled():
                reg = obs.metrics()
                reg.counter("engine.cells").inc(batch.done)
                reg.counter("engine.cells.computed").inc(batch.computed)
                reg.counter("engine.cache.memo_hits").inc(batch.memo_hits)
                reg.counter("engine.cache.disk_hits").inc(batch.disk_hits)
                reg.counter("engine.cells.failed").inc(len(report))
                reg.counter("engine.retries").inc(batch.retries)
                reg.counter("engine.bisections").inc(batch.bisections)
                reg.counter("engine.fallbacks").inc(report.fallbacks)
                reg.gauge("engine.workers").set(self.jobs)
                if wall > 0:
                    reg.gauge("engine.cells_per_sec").set(batch.done / wall)
        return results, report

    def run_grid(
        self,
        workloads: Sequence[str],
        machines: Sequence[str],
        configs: Sequence[str] = CONFIGS,
        input_sets: Sequence[str] = ("ref",),
        scales: Sequence[float] = (1.0,),
    ) -> dict[ExperimentSpec, RunStats]:
        """Convenience wrapper: build the cross product and run it."""
        return self.run(
            ExperimentSpec.grid(workloads, machines, configs, input_sets, scales)
        )

    def summary(self) -> str:
        """Cumulative cell/cache accounting across every batch so far."""
        return self.stats.format(jobs=self.jobs, cache=self.cache)

    # -- graceful shutdown ----------------------------------------------

    # A journaled run owns SIGINT/SIGTERM for its duration: the first
    # signal requests a drain (finish in-flight groups under
    # ``DRAIN_SECONDS``, journal them, terminate the pool, raise
    # RunInterrupted); a second signal restores the default disposition
    # so a third kills the process the ordinary way.

    def _install_signal_handlers(self):
        if self.journal is None:
            return None
        if threading.current_thread() is not threading.main_thread():
            return None  # signal.signal is main-thread-only

        def _handler(signum, frame):
            if self._shutdown_signal is not None:
                for sig, previous in (previous_handlers or {}).items():
                    signal.signal(sig, previous)
                return
            self._shutdown_signal = signal.Signals(signum).name
            _LOG.warning(
                "[engine] %s received; draining in-flight work "
                "(signal again to force)",
                self._shutdown_signal,
            )

        previous_handlers = {}
        self._shutdown_signal = None
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous_handlers[sig] = signal.signal(sig, _handler)
            except (ValueError, OSError):  # pragma: no cover - exotic platforms
                pass
        self._handlers_installed = bool(previous_handlers)
        return previous_handlers

    def _restore_signal_handlers(self, previous_handlers) -> None:
        if not previous_handlers:
            return
        for sig, previous in previous_handlers.items():
            try:
                signal.signal(sig, previous)
            except (ValueError, OSError):  # pragma: no cover
                pass
        self._handlers_installed = False

    def _interrupted(self, batch: _Batch) -> RunInterrupted:
        self._flush_journal()
        run_id = self.journal.run_id if self.journal is not None else None
        if obs.enabled():
            obs.metrics().counter("engine.shutdown.interrupted").inc()
        return RunInterrupted(
            f"run interrupted by {self._shutdown_signal} after "
            f"{batch.done}/{batch.total} cells"
            + (f"; resume with --resume {run_id}" if run_id else ""),
            run_id=run_id,
            done=batch.done,
            total=batch.total,
        )

    def _flush_journal(self) -> None:
        if self.journal is not None:
            self.journal.close()

    # -- journal hooks --------------------------------------------------

    def _journal_cell(self, spec: ExperimentSpec, stats: RunStats | None, source: str) -> None:
        if self.journal is None or stats is None or source == "failed":
            return
        with obs.span("journal.append", cell=spec.label()):
            self.journal.record_cell(spec, stats, source)

    def _journal_failure(self, failure: CellFailure) -> None:
        if self.journal is None or failure.spec is None:
            return
        self.journal.record_failure(
            failure.spec, str(failure.cause or failure), failure.attempts
        )

    def _journal_dispatch(self, specs: Sequence[ExperimentSpec], attempt: int) -> None:
        if self.journal is not None:
            self.journal.record_dispatch(specs, attempt)

    # -- cache guards ---------------------------------------------------

    # The persistent cache is an optimisation; IO trouble (corrupt entry,
    # full disk, injected fault) must degrade to a miss or a skipped
    # store, never abort a batch.

    def _cache_get(self, spec: ExperimentSpec) -> RunStats | None:
        with obs.span("engine.cache.get", cell=spec.label()):
            try:
                return self.cache.get_stats(spec)
            except Exception:
                return None

    def _cache_has(self, spec: ExperimentSpec) -> bool:
        try:
            return self.cache.has_stats(spec)
        except Exception:
            return True  # don't try to re-persist through a failing cache

    def _cache_put(self, spec: ExperimentSpec, stats: RunStats) -> None:
        with obs.span("engine.cache.put", cell=spec.label()):
            try:
                self.cache.put_stats(spec, stats)
            except Exception:
                pass

    # -- internals -----------------------------------------------------

    def _run_cold(
        self,
        cold: list[ExperimentSpec],
        results: dict[ExperimentSpec, RunStats],
        batch: _Batch,
        report: FailureReport,
    ) -> None:
        """Compute the cells no cache could serve, tolerating failures."""
        groups: dict[tuple, list[ExperimentSpec]] = {}
        for spec in cold:
            groups.setdefault(spec.profile_key, []).append(spec)
        group_list = [tuple(g) for g in groups.values()]

        if self.jobs > 1 and len(group_list) > 1:
            self._run_parallel(group_list, results, batch, report)
        else:
            # One profile group gains nothing from a pool (the group is
            # the unit of dispatch); avoid the fork + pickle overhead.
            for group in group_list:
                self._run_serial_group(group, results, batch, report)

    def _run_serial_group(
        self,
        specs: Sequence[ExperimentSpec],
        results: dict[ExperimentSpec, RunStats],
        batch: _Batch,
        report: FailureReport,
    ) -> None:
        """In-process execution with per-cell retries (no group ambiguity,
        so failures need no bisection; deadlines cannot be enforced)."""
        self._journal_dispatch(specs, attempt=1)
        for spec in specs:
            if self._shutdown_signal is not None:
                raise self._interrupted(batch)
            attempt = 0
            while True:
                attempt += 1
                started = time.perf_counter()
                try:
                    with obs.span("engine.cell", cell=spec.label(), attempt=attempt):
                        stats = runner.run_spec(spec)
                except Exception as exc:
                    elapsed = time.perf_counter() - started
                    if self.retry.retriable(attempt):
                        batch.retries += 1
                        _sleep(self.retry.delay(attempt, spec.label()))
                        continue
                    failure = CellFailure(
                        f"cell {spec.label()} failed after {attempt} "
                        f"attempt(s): {exc}",
                        spec=spec,
                        attempts=attempt,
                        elapsed=elapsed,
                        cause=exc,
                    )
                    report.add(failure)
                    self._journal_failure(failure)
                    self._report(batch, spec, "failed")
                    break
                results[spec] = stats
                batch.computed += 1
                self._report(batch, spec, "computed", stats)
                break

    def _run_parallel(
        self,
        group_list: list[tuple[ExperimentSpec, ...]],
        results: dict[ExperimentSpec, RunStats],
        batch: _Batch,
        report: FailureReport,
    ) -> None:
        """Fan profile-sharing groups out over processes, with deadlines,
        retry-by-bisection, and serial fallback on a broken pool."""
        workers = min(self.jobs, len(group_list))
        queue: deque[_Task] = deque(_Task(g) for g in group_list)
        pending: dict[Future, _Task] = {}
        pool: ProcessPoolExecutor | None = ProcessPoolExecutor(max_workers=workers)
        deadline = self.retry.timeout
        tracing = obs.enabled()
        deterministic = tracing and obs.get_tracer().deterministic
        sim_options = get_default_options()
        dispatch_span = obs.span(
            "engine.dispatch", groups=len(group_list), workers=workers
        )
        dispatch_span.__enter__()
        try:
            while queue or pending:
                if self._shutdown_signal is not None:
                    # Graceful shutdown: give in-flight groups a drain
                    # deadline, journal whatever they finish, terminate
                    # the rest, and surface the resumable interruption.
                    self._drain_pending(pending, results, batch, tracing)
                    _abandon_pool(pool)
                    pool = None
                    raise self._interrupted(batch)
                while queue and pool is not None:
                    task = queue.popleft()
                    task.started = time.perf_counter()
                    self._journal_dispatch(task.specs, task.attempt)
                    pending[
                        pool.submit(
                            _compute_group,
                            task.specs,
                            tracing,
                            deterministic,
                            sim_options,
                        )
                    ] = task

                wait_timeout = None
                if deadline is not None and pending:
                    now = time.perf_counter()
                    earliest = min(t.started + deadline for t in pending.values())
                    wait_timeout = max(0.0, earliest - now)
                if self._handlers_installed:
                    # Signals only set a flag; bound the wait so a
                    # drain request is noticed promptly even when no
                    # future completes for a while.
                    wait_timeout = min(wait_timeout or 0.5, 0.5)
                with obs.span("engine.wait", pending=len(pending)):
                    done, _ = wait(
                        set(pending), timeout=wait_timeout, return_when=FIRST_COMPLETED
                    )

                if not done:
                    if deadline is not None:
                        pool = self._expire_hung_groups(
                            pool, pending, queue, batch, report, workers
                        )
                    continue

                broken = False
                for future in done:
                    task = pending.pop(future)
                    try:
                        payload, spans, worker_metrics = future.result()
                    except BrokenProcessPool:
                        broken = True
                        queue.append(task)
                    except Exception as exc:
                        self._bisect_or_fail(task, exc, queue, batch, report)
                    else:
                        self._install_payload(
                            payload, spans, worker_metrics, tracing, results, batch
                        )

                if broken:
                    # The pool is unusable and every in-flight future is
                    # lost with it; finish everything outstanding
                    # in-process instead of aborting the batch.
                    report.fallbacks += 1
                    queue.extend(pending.values())
                    pending.clear()
                    _abandon_pool(pool)
                    pool = None
                    while queue:
                        self._run_serial_group(
                            queue.popleft().specs, results, batch, report
                        )
        except KeyboardInterrupt:
            # Ctrl-C without installed handlers (non-journaled run, or a
            # second impatient signal): terminate the pool so no orphan
            # workers linger, flush what the journal has, and propagate.
            if pool is not None:
                _abandon_pool(pool)
                pool = None
            pending.clear()
            self._flush_journal()
            raise
        finally:
            dispatch_span.__exit__(None, None, None)
            if pool is not None:
                if pending:
                    # An exception escaped with work in flight (possibly
                    # hung); don't block on it.
                    _abandon_pool(pool)
                else:
                    pool.shutdown(wait=True, cancel_futures=True)

    def _install_payload(
        self,
        payload: list[tuple[ExperimentSpec, RunStats]],
        spans: list[dict],
        worker_metrics: dict,
        tracing: bool,
        results: dict[ExperimentSpec, RunStats],
        batch: _Batch,
    ) -> None:
        """Absorb one worker future's results into memo/cache/journal."""
        if tracing:
            if spans:
                obs.get_tracer().ingest(spans)
            if worker_metrics:
                obs.metrics().merge(worker_metrics)
        for spec, stats in payload:
            runner.seed_memo(spec, stats, persist=True)
            results[spec] = stats
            batch.computed += 1
            self._report(batch, spec, "computed", stats)

    def _drain_pending(
        self,
        pending: dict[Future, _Task],
        results: dict[ExperimentSpec, RunStats],
        batch: _Batch,
        tracing: bool,
    ) -> None:
        """Give in-flight futures ``DRAIN_SECONDS`` to finish, absorb the
        finishers (journaled like any completion), drop the rest — they
        re-dispatch deterministically on resume."""
        if not pending:
            return
        done, _ = wait(set(pending), timeout=DRAIN_SECONDS)
        drained = 0
        for future in done:
            pending.pop(future)
            try:
                payload, spans, worker_metrics = future.result()
            except Exception:
                continue  # failed mid-shutdown: resume recomputes it
            self._install_payload(payload, spans, worker_metrics, tracing, results, batch)
            drained += 1
        if obs.enabled():
            reg = obs.metrics()
            reg.counter("engine.shutdown.drained_groups").inc(drained)
            reg.counter("engine.shutdown.dropped_groups").inc(len(pending))
        pending.clear()

    def _expire_hung_groups(
        self,
        pool: ProcessPoolExecutor,
        pending: dict[Future, _Task],
        queue: deque[_Task],
        batch: _Batch,
        report: FailureReport,
        workers: int,
    ) -> ProcessPoolExecutor:
        """Handle a deadline expiry: abandon the pool (hung workers can't
        be interrupted), bisect the expired groups, requeue the rest."""
        deadline = self.retry.timeout
        now = time.perf_counter()
        expired = [t for t in pending.values() if now - t.started >= deadline]
        if not expired:
            return pool  # spurious wake-up; deadlines recomputed next loop
        survivors = [t for t in pending.values() if now - t.started < deadline]
        pending.clear()
        report.fallbacks += 1
        _abandon_pool(pool)
        # Innocent in-flight groups lost with the pool rerun at the same
        # attempt; the expired ones count a failed attempt.
        queue.extend(survivors)
        for task in expired:
            timeout_exc = TimeoutError(
                f"group of {len(task.specs)} cell(s) exceeded the "
                f"{deadline:g}s deadline"
            )
            self._bisect_or_fail(task, timeout_exc, queue, batch, report)
        return ProcessPoolExecutor(max_workers=workers)

    def _bisect_or_fail(
        self,
        task: _Task,
        exc: BaseException,
        queue: deque[_Task],
        batch: _Batch,
        report: FailureReport,
    ) -> None:
        """Retry a failed group: split multi-cell groups to isolate the
        poison cell, re-attempt singles up to the retry budget."""
        specs = task.specs
        if len(specs) > 1:
            mid = len(specs) // 2
            batch.retries += 1
            batch.bisections += 1
            with obs.span(
                "engine.bisect", cells=len(specs), error=type(exc).__name__
            ):
                queue.append(_Task(specs[:mid], attempt=task.attempt))
                queue.append(_Task(specs[mid:], attempt=task.attempt))
            return
        spec = specs[0]
        elapsed = time.perf_counter() - task.started if task.started else 0.0
        if self.retry.retriable(task.attempt):
            batch.retries += 1
            _sleep(self.retry.delay(task.attempt, spec.label()))
            queue.append(_Task(specs, attempt=task.attempt + 1))
            return
        failure = CellFailure(
            f"cell {spec.label()} failed after {task.attempt} "
            f"attempt(s): {exc}",
            spec=spec,
            attempts=task.attempt,
            elapsed=elapsed,
            cause=None if isinstance(exc, TimeoutError) else exc,
        )
        report.add(failure)
        self._journal_failure(failure)
        self._report(batch, spec, "failed")

    def _report(
        self,
        batch: _Batch,
        spec: ExperimentSpec,
        source: str,
        stats: RunStats | None = None,
    ) -> None:
        self._journal_cell(spec, stats, source)
        batch.done += 1
        if not self.progress:
            return
        if callable(self.progress):
            self.progress(batch.done, batch.total, spec, source)
            return
        # Diagnostics go through the logging tree (stderr), never stdout:
        # rendered tables and JSON exports must stay machine-parseable.
        _LOG.info(
            "[engine] %d/%d %s: %s", batch.done, batch.total, spec.label(), source
        )


def _sleep(seconds: float) -> None:
    if seconds > 0:
        time.sleep(seconds)


def _abandon_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a (possibly hung or broken) pool down without waiting.

    Hung workers cannot be interrupted cooperatively, so after the
    non-blocking shutdown their processes are terminated best-effort —
    otherwise an abandoned sleeper would delay interpreter exit.
    """
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:
            pass

