"""Durable run journal (write-ahead log) for resumable experiment runs.

The engine survives *in-process* failures (retries, bisection, serial
fallback), but a killed process — SIGKILL, power cut, OOM reaper — used
to lose the whole batch: every result not yet persisted to the cache was
gone and the run had to start over.  The journal closes that gap.  A
journaled run appends one checksummed record to
``<runs_dir>/<run_id>/journal.jsonl`` for every dispatched batch and
every completed or failed cell, fsync'd before the engine moves on, so
the on-disk journal is always a consistent prefix of the run.  Replaying
it (``repro run --resume <run-id>`` / :func:`repro.api.resume_run`)
seeds the completed cells back into the runner memo and re-runs the
original spec list — only the cells the crash interrupted are
re-dispatched, and because the compute kernel is deterministic the final
results are bit-identical to an uninterrupted run.

File format (``repro-journal-v1``) — one record per line::

    <crc32-hex8> <canonical-json>\n

The CRC covers the canonical JSON bytes.  A record that fails its CRC
(or does not parse) is *tolerated*: a torn final line is the expected
signature of a killed writer and replay simply stops trusting the tail;
a corrupt interior line is skipped and counted.  Record types:

* ``run.start`` — run id, journal version, the full ordered spec list,
  the profiling rate and stats codec format (so replay refuses to seed
  results produced under an incompatible codec);
* ``batch.dispatch`` — the cell labels of one dispatched group
  (advisory: replay derives pending work from ``run.start`` minus the
  completed cells, so dispatch records need no fsync of their own);
* ``cell.done`` — one completed cell: its spec, the serialised
  :class:`~repro.cachesim.stats.RunStats` payload and how it resolved;
* ``cell.failed`` — one permanently failed cell (re-dispatched on
  resume);
* ``run.end`` — the run settled; a journal with this record replays to
  its final results without touching the engine.

Fault points: ``journal.partial_append`` (a ``corrupt`` fault tears the
record mid-line, modelling a crash between ``write`` and completing the
line) and ``disk.enospc`` (the append raises ``ENOSPC``); see
:mod:`repro.faults`.  Journal IO trouble never aborts a run — the
journal goes read-only, the failure is counted and logged, and the run
merely loses resumability for the affected cells.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import uuid
import zlib
from pathlib import Path

from repro import faults, obs
from repro.api import ExperimentSpec
from repro.core import serialization
from repro.errors import ExperimentError

__all__ = [
    "JOURNAL_FORMAT",
    "JOURNAL_VERSION",
    "RUNS_DIR_ENV",
    "JournalError",
    "JournalReplay",
    "RunJournal",
    "default_runs_dir",
    "list_runs",
    "new_run_id",
    "replay_journal",
]

JOURNAL_FORMAT = "repro-journal-v1"
JOURNAL_VERSION = 1

#: Environment variable overriding the default run-directory root.
RUNS_DIR_ENV = "REPRO_RUNS_DIR"

_LOG = obs.get_logger("repro.journal")


class JournalError(ExperimentError):
    """A run journal is missing, unreadable, or incompatible."""


def default_runs_dir() -> Path:
    """``$REPRO_RUNS_DIR`` if set, else ``./.repro-runs``."""
    env = os.environ.get(RUNS_DIR_ENV)
    return Path(env) if env else Path(".repro-runs")


def new_run_id() -> str:
    """A fresh, sortable run identifier (UTC timestamp + random suffix)."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return f"{stamp}-{uuid.uuid4().hex[:8]}"


def _encode(record: dict) -> bytes:
    body = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return b"%08x " % crc + body + b"\n"


def _decode(line: bytes) -> dict | None:
    """Parse one journal line; ``None`` if the checksum or JSON is bad."""
    if len(line) < 10 or line[8:9] != b" ":
        return None
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    body = line[9:].rstrip(b"\n")
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        return None
    try:
        record = json.loads(body)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    return record if isinstance(record, dict) else None


@dataclasses.dataclass
class JournalReplay:
    """Everything replaying one journal recovers.

    ``specs`` is the original ordered cell list; ``completed`` maps each
    journaled spec to its serialised stats payload; ``failed`` lists the
    cells recorded as permanently failed (resume re-dispatches them);
    ``finished`` is true iff ``run.end`` was journaled.  ``torn_tail``
    flags a final record that failed its checksum (the killed-writer
    signature); ``corrupt_records`` counts interior records that had to
    be skipped.
    """

    run_id: str
    specs: list[ExperimentSpec] = dataclasses.field(default_factory=list)
    completed: dict[ExperimentSpec, dict] = dataclasses.field(default_factory=dict)
    failed: list[ExperimentSpec] = dataclasses.field(default_factory=list)
    dispatched: int = 0
    finished: bool = False
    torn_tail: bool = False
    corrupt_records: int = 0
    records: int = 0

    @property
    def pending(self) -> list[ExperimentSpec]:
        """The cells the interrupted run still owes, in original order."""
        return [s for s in self.specs if s not in self.completed]


def replay_journal(path: str | Path, run_id: str = "?") -> JournalReplay:
    """Replay one journal file into a :class:`JournalReplay`.

    Raises :class:`JournalError` if the file is missing or its
    ``run.start`` record is absent/incompatible; *tolerates* torn and
    corrupt records (counted, never raised) so the journal of a killed
    writer always replays.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from exc
    replay = JournalReplay(run_id=run_id)
    lines = raw.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    for index, line in enumerate(lines):
        record = _decode(line)
        if record is None:
            if index == len(lines) - 1:
                replay.torn_tail = True
            else:
                replay.corrupt_records += 1
            continue
        replay.records += 1
        kind = record.get("type")
        if kind == "run.start":
            if record.get("format") != JOURNAL_FORMAT:
                raise JournalError(
                    f"journal {path} has format {record.get('format')!r}; "
                    f"this build reads {JOURNAL_FORMAT!r}"
                )
            if record.get("stats_format") != serialization.STATS_FORMAT:
                raise JournalError(
                    f"journal {path} carries stats format "
                    f"{record.get('stats_format')!r}; this build speaks "
                    f"{serialization.STATS_FORMAT!r} — results cannot be reused"
                )
            replay.run_id = record.get("run_id", run_id)
            try:
                replay.specs = [ExperimentSpec(**d) for d in record["specs"]]
            except (KeyError, TypeError, ExperimentError) as exc:
                raise JournalError(f"journal {path} has an unusable spec list: {exc}") from exc
        elif kind == "cell.done":
            try:
                spec = ExperimentSpec(**record["spec"])
            except (KeyError, TypeError, ExperimentError):
                replay.corrupt_records += 1
                continue
            payload = record.get("stats")
            if isinstance(payload, dict):
                replay.completed[spec] = payload
        elif kind == "cell.failed":
            try:
                replay.failed.append(ExperimentSpec(**record["spec"]))
            except (KeyError, TypeError, ExperimentError):
                replay.corrupt_records += 1
        elif kind == "batch.dispatch":
            replay.dispatched += 1
        elif kind == "run.end":
            replay.finished = True
    if not replay.specs:
        raise JournalError(f"journal {path} has no run.start record; nothing to resume")
    return replay


class RunJournal:
    """Append-only, checksummed, fsync'd journal of one experiment run.

    Create with :meth:`create` (new run) or :meth:`open` (resume).  The
    engine appends through :meth:`record_dispatch` / :meth:`record_cell`
    / :meth:`record_failure`; cells already journaled (seeded by a
    resume) are skipped, so a resumed journal stays duplicate-free.

    Every durable record is fsync'd before the append returns.
    ``write_seconds`` accumulates the wall time of every append + fsync —
    the recovery-overhead benchmark gates it against total run time.
    """

    def __init__(self, run_dir: str | Path, run_id: str) -> None:
        self.run_dir = Path(run_dir)
        self.run_id = run_id
        self.path = self.run_dir / "journal.jsonl"
        self.done: set[ExperimentSpec] = set()
        self.appended = 0
        self.skipped = 0
        self.write_errors = 0
        self.write_seconds = 0.0
        self.broken = False
        self._handle = None
        self._torn = False

    # -- construction ---------------------------------------------------

    @classmethod
    def create(
        cls, run_id: str | None = None, runs_dir: str | Path | None = None
    ) -> "RunJournal":
        """Start a fresh journal under ``<runs_dir>/<run_id>/``."""
        run_id = run_id or new_run_id()
        root = Path(runs_dir) if runs_dir is not None else default_runs_dir()
        run_dir = root / run_id
        run_dir.mkdir(parents=True, exist_ok=True)
        journal = cls(run_dir, run_id)
        if journal.path.exists():
            raise JournalError(
                f"run {run_id!r} already has a journal at {journal.path}; "
                "resume it or pick another --run-id"
            )
        return journal

    @classmethod
    def open(
        cls, run_id: str, runs_dir: str | Path | None = None
    ) -> tuple["RunJournal", JournalReplay]:
        """Replay an existing run's journal and reopen it for appending."""
        root = Path(runs_dir) if runs_dir is not None else default_runs_dir()
        path = root / run_id / "journal.jsonl"
        if not path.is_file():
            known = ", ".join(list_runs(root)) or "none"
            raise JournalError(f"no journal for run {run_id!r} under {root} (known runs: {known})")
        replay = replay_journal(path, run_id)
        journal = cls(root / run_id, run_id)
        journal.done = set(replay.completed)
        # A torn tail means the file may end mid-line; start the next
        # record on a fresh line so it stays parseable.
        journal._torn = replay.torn_tail
        return journal, replay

    # -- records --------------------------------------------------------

    def start(self, specs: list[ExperimentSpec], resumed_from: int = 0) -> None:
        """Journal the ``run.start`` record (skipped when resuming)."""
        if self.done or self.path.exists():
            return
        self._append(
            {
                "type": "run.start",
                "format": JOURNAL_FORMAT,
                "version": JOURNAL_VERSION,
                "run_id": self.run_id,
                "stats_format": serialization.STATS_FORMAT,
                "specs": [s.as_dict() for s in specs],
                "resumed_from": resumed_from,
            },
            durable=True,
        )

    def record_dispatch(self, specs, attempt: int = 1) -> None:
        """Journal one dispatched group (advisory; no fsync of its own)."""
        self._append(
            {
                "type": "batch.dispatch",
                "cells": [s.label() for s in specs],
                "attempt": attempt,
            },
            durable=False,
        )

    def record_cell(self, spec: ExperimentSpec, stats, source: str) -> None:
        """Journal one completed cell with its serialised result."""
        if spec in self.done:
            self.skipped += 1
            return
        self._append(
            {
                "type": "cell.done",
                "spec": spec.as_dict(),
                "source": source,
                "stats": serialization.stats_to_dict(stats),
            },
            durable=True,
        )
        self.done.add(spec)

    def record_failure(self, spec: ExperimentSpec, error: str, attempts: int) -> None:
        """Journal one permanently failed cell."""
        self._append(
            {
                "type": "cell.failed",
                "spec": spec.as_dict(),
                "error": error,
                "attempts": attempts,
            },
            durable=True,
        )

    def finish(self, cells: int, failed: int = 0) -> None:
        """Journal the ``run.end`` record: the run settled."""
        self._append(
            {"type": "run.end", "cells": cells, "failed": failed},
            durable=True,
        )

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    # -- plumbing -------------------------------------------------------

    def _append(self, record: dict, durable: bool) -> None:
        """Append one checksummed record; IO failure degrades, never raises.

        A journal that cannot be written (full disk, revoked permissions)
        goes read-only: the run continues, the loss is counted and logged
        once, and only resumability of the affected cells is forfeited.
        """
        if self.broken:
            self.write_errors += 1
            return
        started = time.perf_counter()
        try:
            if faults.ACTIVE:
                faults.check("disk.enospc", "journal")
            line = _encode(record)
            if self._torn:
                line = b"\n" + line
                self._torn = False
            if faults.ACTIVE and faults.should_corrupt(
                "journal.partial_append", record.get("type")
            ):
                line = line[: max(1, len(line) // 2)]
                self._torn = True
            handle = self._handle
            if handle is None:
                handle = self._handle = open(self.path, "ab")
            handle.write(line)
            handle.flush()
            if durable:
                os.fsync(handle.fileno())
        except OSError as exc:
            self.broken = True
            self.write_errors += 1
            _LOG.warning(
                "[journal] %s: append failed (%s); journal is now read-only — "
                "cells completed from here on will be recomputed on resume",
                self.run_id,
                exc,
            )
            if obs.enabled():
                obs.metrics().counter("journal.write_errors").inc()
        else:
            self.appended += 1
            if obs.enabled():
                obs.metrics().counter("journal.records").inc()
        finally:
            self.write_seconds += time.perf_counter() - started


def list_runs(runs_dir: str | Path | None = None) -> list[str]:
    """Run ids with a journal under ``runs_dir``, newest-id first."""
    root = Path(runs_dir) if runs_dir is not None else default_runs_dir()
    if not root.is_dir():
        return []
    return sorted(
        (p.name for p in root.iterdir() if (p / "journal.jsonl").is_file()),
        reverse=True,
    )
