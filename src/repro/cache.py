"""Content-addressed persistent result cache.

The evaluation grid is a pure function of its inputs: every cell is
deterministic given the :class:`~repro.api.ExperimentSpec`, the machine
model and the profiling rate (sampling is the pipeline's only stochastic
step and it is seeded from the spec).  That makes results safe to cache
on disk across processes and across invocations — regenerating a paper
figure a second time should cost file reads, not hours of simulation.

Keys are *content addresses*: the SHA-256 of a canonical JSON document
containing the spec fields **and everything the result depends on** —
the full machine configuration, the profiling rate, the serialisation
format version and a cache epoch.  Changing any of those (resizing a
cache level, bumping the sampling rate, revising the simulator's cache
format) silently invalidates stale entries instead of replaying them.

Two artefact kinds are stored, both as JSON via
:mod:`repro.core.serialization`:

* ``stats`` — :class:`~repro.cachesim.stats.RunStats`, one per grid cell;
* ``sampling`` — :class:`~repro.sampling.sampler.SamplingResult`, one per
  (workload, input_set, scale) profiling pass.

Durability and self-healing
---------------------------

Every entry is stored as its payload JSON plus a **length + SHA-256
footer** (``#repro-cache-entry-v1 len=… sha256=…``) verified on read.
Torn writes, truncation and bit flips are therefore *detected*, and a
bad entry is **quarantined** (moved under ``<root>/quarantine/``),
counted, and served as a miss — never crashed on and never silently
replayed.  Writes are atomic (private temp file, ``fsync``, then
``os.replace``); a full disk (``ENOSPC``/``EDQUOT``) or a cross-device
rename downgrades the cache to **read-only** with a counted warning
instead of failing the run.  ``verify()`` audits every entry on demand,
``gc()`` reclaims quarantine/temp debris, and ``enforce_quota()`` gives
the store a size budget with least-recently-used eviction (read hits
bump an entry's mtime) — the quota machinery the serve daemon reuses
per tenant.  The ``repro cache verify|gc|stats`` subcommands surface
all three.
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import json
import os
import tempfile
import time
from pathlib import Path

from repro import faults, obs
from repro.api import ExperimentSpec, validate_tenant
from repro.config import get_machine
from repro.errors import AnalysisError, ConfigError

__all__ = [
    "ResultCache",
    "CacheCounters",
    "IntegrityCounters",
    "VerifyReport",
    "default_cache_dir",
    "CACHE_EPOCH",
    "ENTRY_FORMAT",
    "PROFILE_RATE",
]

#: Sampling rate of every profiling pass (``repro.experiments.runner``
#: samples at it; both key documents record it).  The paper samples
#: 1/100k over full SPEC runs (~1e11 references → ~1e6 samples); our
#: traces are ~5e5 references, so an equivalent *sample count density
#: per static instruction* needs a proportionally higher rate.
PROFILE_RATE = 2e-3

#: Bump to invalidate every existing cache entry (e.g. after a change to
#: the simulator or analysis pipeline that alters results without
#: touching any keyed setting).  Epoch 2: checksummed entry footers.
CACHE_EPOCH = 2

#: On-disk entry envelope version (the footer line's leading token).
ENTRY_FORMAT = "#repro-cache-entry-v1"

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Errnos that flip the cache read-only instead of failing the run.
_READONLY_ERRNOS = frozenset(
    {errno.ENOSPC, errno.EDQUOT, errno.EXDEV, errno.EROFS, errno.EACCES, errno.EPERM}
)

_LOG = obs.get_logger("repro.cache")


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``./.repro-cache``."""
    env = os.environ.get(CACHE_DIR_ENV)
    return Path(env) if env else Path(".repro-cache")


@dataclasses.dataclass
class CacheCounters:
    """Hit/miss/store counters for one artefact kind."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.hits, self.misses, self.stores)


@dataclasses.dataclass
class IntegrityCounters:
    """Self-healing accounting: what the cache detected and did about it.

    ``corrupt`` entries failed their footer/CRC check on read or during
    ``verify()``; every one of them is ``quarantined`` (or unlinked when
    the move itself fails).  ``evicted`` counts quota evictions,
    ``write_errors`` the stores that were downgraded after IO trouble
    (the read-only transition logs once).
    """

    corrupt: int = 0
    quarantined: int = 0
    evicted: int = 0
    write_errors: int = 0

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class VerifyReport:
    """Outcome of one :meth:`ResultCache.verify` audit."""

    checked: int = 0
    ok: int = 0
    corrupt: int = 0
    quarantined: list[str] = dataclasses.field(default_factory=list)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def render(self) -> str:
        verdict = "clean" if self.corrupt == 0 else f"{self.corrupt} corrupt entr(y/ies)"
        line = f"cache verify: {self.checked} checked | {self.ok} ok | {verdict}"
        if self.quarantined:
            line += "\nquarantined:\n" + "\n".join(f"  {name}" for name in self.quarantined)
        return line


class ResultCache:
    """Directory-backed cache of simulation results and profiles.

    Parameters
    ----------
    root:
        Cache directory; created lazily on first store.  Layout is
        ``root/<kind>/<key[:2]>/<key>.json`` plus ``root/quarantine/``
        for entries that failed their integrity check.
    quota_bytes:
        Optional size budget for :meth:`enforce_quota` (least-recently
        used entries are evicted first; ``None`` disables eviction).
    """

    KINDS = ("stats", "sampling")

    def __init__(self, root: str | Path, quota_bytes: int | None = None) -> None:
        self.root = Path(root)
        self.quota_bytes = quota_bytes
        self.stats = CacheCounters()
        self.sampling = CacheCounters()
        self.integrity = IntegrityCounters()
        #: Per-class sweep counters (see :meth:`sweep_stale_tmp`).
        self.swept: dict[str, int] = {"tmp": 0, "quarantine": 0, "journal": 0}
        #: Set after an ``ENOSPC``-class store failure: reads keep
        #: working, writes are skipped (and counted) from then on.
        self.read_only = False

    # -- keys ----------------------------------------------------------

    def _machine_fingerprint(self, machine_name: str) -> dict:
        """Everything about the machine model a result depends on."""
        try:
            return dataclasses.asdict(get_machine(machine_name))
        except ConfigError:
            # Unknown machines still key deterministically (the compute
            # layer will raise for them anyway).
            return {"name": machine_name}

    def stats_key(self, spec: ExperimentSpec) -> str:
        """Content address of one grid cell's :class:`RunStats`."""
        from repro.core import serialization

        document = {
            "kind": "stats",
            "epoch": CACHE_EPOCH,
            "format": serialization.STATS_FORMAT,
            "spec": spec.as_dict(),
            "machine": self._machine_fingerprint(spec.machine),
            "profile_rate": PROFILE_RATE,
        }
        return _digest(document)

    def sampling_key(self, workload: str, input_set: str, scale: float) -> str:
        """Content address of one profiling pass's :class:`SamplingResult`."""
        from repro.core import serialization

        document = {
            "kind": "sampling",
            "epoch": CACHE_EPOCH,
            "format": serialization.SAMPLING_FORMAT,
            "workload": workload,
            "input_set": input_set,
            "scale": float(scale),
            "rate": PROFILE_RATE,
        }
        return _digest(document)

    # -- stats ---------------------------------------------------------

    def has_stats(self, spec: ExperimentSpec) -> bool:
        """Whether a cell is plausibly present on disk (no counters, no
        decode).

        An existing but unreadable or zero-length entry (torn write from
        a killed process) counts as *absent* — otherwise a memo-only
        cell would never be re-persisted and could never be read back.
        """
        path = self._path("stats", self.stats_key(spec))
        try:
            return path.stat().st_size > 0
        except OSError:
            return False

    def get_stats(self, spec: ExperimentSpec):
        """Cached :class:`RunStats` for ``spec``, or ``None`` on a miss."""
        from repro.core import serialization

        data = self._read("stats", self.stats_key(spec))
        if data is None:
            self.stats.misses += 1
            return None
        try:
            stats = serialization.stats_from_dict(data)
        except (AnalysisError, KeyError, TypeError, ValueError):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return stats

    def put_stats(self, spec: ExperimentSpec, stats) -> None:
        """Store one grid cell's result."""
        from repro.core import serialization

        if self._write("stats", self.stats_key(spec), serialization.stats_to_dict(stats)):
            self.stats.stores += 1

    # -- sampling ------------------------------------------------------

    def get_sampling(self, workload: str, input_set: str, scale: float):
        """Cached :class:`SamplingResult`, or ``None`` on a miss."""
        from repro.core import serialization

        key = self.sampling_key(workload, input_set, scale)
        data = self._read("sampling", key)
        if data is None:
            self.sampling.misses += 1
            return None
        try:
            sampling = serialization.sampling_from_dict(data)
        except (AnalysisError, KeyError, TypeError, ValueError):
            self.sampling.misses += 1
            return None
        self.sampling.hits += 1
        return sampling

    def put_sampling(self, workload: str, input_set: str, scale: float, sampling) -> None:
        """Store one profiling pass's sampling result."""
        from repro.core import serialization

        key = self.sampling_key(workload, input_set, scale)
        if self._write("sampling", key, serialization.sampling_to_dict(sampling)):
            self.sampling.stores += 1

    # -- file plumbing -------------------------------------------------

    def _path(self, kind: str, key: str) -> Path:
        return self.root / kind / key[:2] / f"{key}.json"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def _read(self, kind: str, key: str) -> dict | None:
        path = self._path(kind, key)
        if faults.ACTIVE:
            faults.check("cache.read", key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        data = _verify_entry(raw)
        if data is None:
            # Torn, truncated, or bit-flipped entry: quarantine it so it
            # stops costing a parse attempt and stays inspectable.
            self._quarantine(path, kind)
            return None
        # LRU recency for quota eviction: a hit makes the entry young.
        try:
            os.utime(path)
        except OSError:
            pass
        return data

    def _write(self, kind: str, key: str, data: dict) -> bool:
        """Durably publish one entry; returns whether the store happened.

        The payload and its integrity footer land in a private temp
        file, which is ``fsync``'d *before* the atomic rename — a crash
        at any point leaves either the old entry or the complete new
        one, never a torn file that parses.  ``ENOSPC``-class failures
        (full disk, quota, read-only or cross-device target) downgrade
        the cache to read-only with a counted warning: the run keeps
        computing, it just stops persisting.
        """
        if self.read_only:
            self.integrity.write_errors += 1
            return False
        path = self._path(kind, key)
        if faults.ACTIVE:
            faults.check("cache.write", key)
        tmp_name = None
        try:
            if faults.ACTIVE:
                faults.check("disk.enospc", key)
            path.parent.mkdir(parents=True, exist_ok=True)
            # Atomic publish: concurrent writers (parallel engine
            # workers, parallel CLI invocations) each rename a private
            # temp file into place; last writer wins with an identical
            # document.
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
            )
            with os.fdopen(fd, "wb") as handle:
                handle.write(_encode_entry(data))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
            tmp_name = None
        except OSError as exc:
            if exc.errno not in _READONLY_ERRNOS:
                raise
            self._downgrade_to_read_only(exc)
            return False
        finally:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
        if faults.ACTIVE:
            if faults.should_corrupt("cache.write", key):
                path.write_text("")  # simulate a torn write surviving on disk
            if faults.should_corrupt("cache.torn_write", key):
                # Simulate a write torn mid-entry: keep only the first half
                # of the bytes, which the footer check must catch on read.
                raw = path.read_bytes()
                path.write_bytes(raw[: len(raw) // 2])
        return True

    def _downgrade_to_read_only(self, exc: OSError) -> None:
        self.integrity.write_errors += 1
        if not self.read_only:
            self.read_only = True
            _LOG.warning(
                "[cache] %s: store failed (%s); cache is now read-only for "
                "this process — results keep computing, they just stop "
                "persisting",
                self.root,
                exc,
            )
        if obs.enabled():
            obs.metrics().counter("cache.integrity.write_errors").inc()

    def _quarantine(self, path: Path, kind: str) -> None:
        """Move one corrupt entry out of the addressable tree; count it."""
        self.integrity.corrupt += 1
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_dir / f"{kind}-{path.name}")
            self.integrity.quarantined += 1
        except OSError:
            # Quarantine itself failed (read-only fs?); at least try to
            # stop the entry from being re-parsed forever.
            try:
                path.unlink()
            except OSError:
                pass
        if obs.enabled():
            reg = obs.metrics()
            reg.counter("cache.integrity.corrupt").inc()
            reg.counter("cache.integrity.quarantined").inc()

    # -- tenancy -------------------------------------------------------

    def tenant_view(self, tenant: str, quota_bytes: int | None = None) -> "ResultCache":
        """An isolated per-tenant namespace of this cache.

        The view is a full :class:`ResultCache` rooted at
        ``<root>/tenants/<tenant>`` with its own counters, quarantine
        and quota — one tenant's evictions, corruption or disk-full
        downgrade never touch another's entries.  Tenant names are
        validated by :func:`repro.api.validate_tenant`, so a view can
        never escape the ``tenants/`` subtree (which sits outside the
        parent's addressable ``<kind>/`` dirs and is therefore invisible
        to its quota, verify and gc sweeps).
        """
        validate_tenant(tenant)
        return ResultCache(self.root / "tenants" / tenant, quota_bytes=quota_bytes)

    def tenants(self) -> list[str]:
        """Names of the tenant namespaces that exist under this cache."""
        base = self.root / "tenants"
        if not base.is_dir():
            return []
        return sorted(p.name for p in base.iterdir() if p.is_dir())

    # -- maintenance ---------------------------------------------------

    def _entries(self):
        for kind in self.KINDS:
            base = self.root / kind
            if not base.is_dir():
                continue
            yield from ((kind, p) for p in sorted(base.glob("*/*.json")))

    def verify(self) -> VerifyReport:
        """Audit every entry's integrity footer; quarantine the corrupt.

        Returns a :class:`VerifyReport`; never raises for a bad entry —
        detection *is* the healing (the entry becomes a future miss).
        """
        report = VerifyReport()
        with obs.span("cache.verify"):
            for kind, path in self._entries():
                report.checked += 1
                try:
                    raw = path.read_bytes()
                except OSError:
                    continue
                if _verify_entry(raw) is None:
                    report.corrupt += 1
                    report.quarantined.append(f"{kind}/{path.name}")
                    self._quarantine(path, kind)
                else:
                    report.ok += 1
        if obs.enabled():
            obs.metrics().counter("cache.integrity.verified").inc(report.checked)
        return report

    def entry_stats(self) -> dict:
        """Size accounting: entries and bytes per kind, quarantine, quota."""
        kinds: dict[str, dict[str, int]] = {}
        total_bytes = 0
        for kind, path in self._entries():
            bucket = kinds.setdefault(kind, {"entries": 0, "bytes": 0})
            try:
                size = path.stat().st_size
            except OSError:
                continue
            bucket["entries"] += 1
            bucket["bytes"] += size
            total_bytes += size
        quarantined = 0
        if self.quarantine_dir.is_dir():
            quarantined = sum(1 for _ in self.quarantine_dir.iterdir())
        return {
            "root": str(self.root),
            "kinds": kinds,
            "total_bytes": total_bytes,
            "quarantined": quarantined,
            "quota_bytes": self.quota_bytes,
        }

    def enforce_quota(self, quota_bytes: int | None = None) -> int:
        """Evict least-recently-used entries until under budget.

        Recency is the entry's mtime (reads bump it), so cold entries
        go first.  Returns the number of evictions; a ``None`` budget
        (both here and on the instance) is a no-op.
        """
        quota = self.quota_bytes if quota_bytes is None else quota_bytes
        if quota is None:
            return 0
        entries = []
        total = 0
        for _kind, path in self._entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        evicted = 0
        for _mtime, size, path in sorted(entries):
            if total <= quota:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
        self.integrity.evicted += evicted
        if evicted and obs.enabled():
            obs.metrics().counter("cache.integrity.evicted").inc(evicted)
        return evicted

    def gc(self, older_than: float = 600.0, runs_dir: str | Path | None = None) -> dict:
        """Reclaim debris: quarantined entries, stale temps, quota excess.

        Returns ``{"quarantine_removed": …, "swept": …, "evicted": …}``.
        """
        quarantine_removed = 0
        if self.quarantine_dir.is_dir():
            for entry in list(self.quarantine_dir.iterdir()):
                try:
                    entry.unlink()
                    quarantine_removed += 1
                except OSError:
                    continue
        swept = self.sweep_stale_tmp(older_than, runs_dir=runs_dir)
        evicted = self.enforce_quota()
        return {
            "quarantine_removed": quarantine_removed,
            "swept": swept,
            "evicted": evicted,
        }

    def sweep_stale_tmp(
        self, older_than: float = 600.0, runs_dir: str | Path | None = None
    ) -> int:
        """Remove temp files orphaned by killed writers; returns the count.

        A writer that dies between ``mkstemp`` and ``os.replace`` leaves
        a private ``.<key>-*.tmp`` behind forever.  Anything older than
        ``older_than`` seconds cannot belong to a live writer (writes
        take milliseconds) and is reclaimed; younger files are left alone
        so concurrent runs are never disturbed.  Three orphan classes are
        swept and counted separately in :attr:`swept` (surfaced by
        :meth:`describe`): cache-entry temps (``tmp``), interrupted
        quarantine moves (``quarantine``), and — when ``runs_dir`` is
        given — journal temps under the run directories (``journal``).
        """
        removed = 0
        cutoff = time.time() - older_than
        sweeps: list[tuple[str, object]] = []
        if self.root.is_dir():
            sweeps.append(("tmp", self.root.glob("*/*/.*.tmp")))
            sweeps.append(("quarantine", self.quarantine_dir.glob(".*.tmp")))
        if runs_dir is not None and Path(runs_dir).is_dir():
            sweeps.append(("journal", Path(runs_dir).glob("*/.*.tmp")))
        for label, candidates in sweeps:
            for tmp in candidates:
                try:
                    if tmp.stat().st_mtime <= cutoff:
                        tmp.unlink()
                        self.swept[label] += 1
                        removed += 1
                except OSError:
                    continue
        return removed

    # -- reporting -----------------------------------------------------

    def counters(self) -> dict[str, tuple[int, int, int]]:
        """{kind: (hits, misses, stores)} across this cache's lifetime."""
        return {
            "stats": self.stats.as_tuple(),
            "sampling": self.sampling.as_tuple(),
        }

    def describe(self) -> str:
        """One-line summary for engine/CLI diagnostics."""
        s, p = self.stats, self.sampling
        line = (
            f"cache {self.root}: stats {s.hits} hit/{s.misses} miss/"
            f"{s.stores} stored, sampling {p.hits} hit/{p.misses} miss/"
            f"{p.stores} stored"
        )
        i = self.integrity
        if i.corrupt or i.quarantined or i.evicted or i.write_errors:
            line += (
                f", integrity {i.corrupt} corrupt/{i.quarantined} quarantined/"
                f"{i.evicted} evicted/{i.write_errors} write errors"
            )
        if any(self.swept.values()):
            line += ", swept " + "/".join(
                f"{count} {label}" for label, count in self.swept.items() if count
            )
        if self.read_only:
            line += " [read-only]"
        return line


def _encode_entry(data: dict) -> bytes:
    """Payload JSON plus the length + SHA-256 integrity footer."""
    body = json.dumps(data, separators=(",", ":")).encode()
    digest = hashlib.sha256(body).hexdigest()
    footer = f"\n{ENTRY_FORMAT} len={len(body)} sha256={digest}\n".encode()
    return body + footer


def _verify_entry(raw: bytes) -> dict | None:
    """Decode one entry's bytes, or ``None`` if integrity checks fail."""
    lines = raw.rsplit(b"\n", 2)
    if len(lines) != 3 or lines[2] != b"":
        return None
    body, footer = lines[0], lines[1]
    try:
        token, len_field, sha_field = footer.decode().split(" ")
        if token != ENTRY_FORMAT:
            return None
        expected_len = int(len_field.removeprefix("len="))
        expected_sha = sha_field.removeprefix("sha256=")
    except (UnicodeDecodeError, ValueError):
        return None
    if len(body) != expected_len or hashlib.sha256(body).hexdigest() != expected_sha:
        return None
    try:
        data = json.loads(body)
    except json.JSONDecodeError:
        return None
    return data if isinstance(data, dict) else None


def _digest(document: dict) -> str:
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
