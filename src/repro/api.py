"""Unified experiment API.

Every run the framework can perform — profile a workload, derive a
prefetch plan, simulate one prefetching configuration — is identified by
one frozen, hashable request object, :class:`ExperimentSpec`.  The spec
replaces the historical stringly-typed five-positional-argument call
sites scattered across the experiment drivers, the CLI and the
benchmarks: every layer (the parallel engine, the persistent disk
cache, the legacy ``runner`` shims) now speaks this one type.

The module is a *facade*: it owns the spec type and the canonical
configuration vocabulary, and lazily dispatches to the compute layers so
that ``repro.api`` can be imported from anywhere (including worker
processes) without import cycles.

Typical use::

    from repro.api import ExperimentSpec, run, run_many

    spec = ExperimentSpec("libquantum", "amd-phenom-ii", "swnt", scale=0.3)
    stats = run(spec)                      # memoised single cell
    grid = ExperimentSpec.grid(
        workloads=("mcf", "lbm"),
        machines=("amd-phenom-ii",),
        configs=("baseline", "hw", "swnt"),
        scales=(0.3,),
    )
    results = run_many(grid)               # parallel + disk-cached
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import ExperimentError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cachesim.options import SimOptions
    from repro.cachesim.stats import RunStats
    from repro.core.report import OptimizationReport
    from repro.experiments.engine import ExperimentEngine
    from repro.experiments.runner import WorkloadProfile

__all__ = [
    "PrefetchConfig",
    "PREFETCH_CONFIGS",
    "CONFIGS",
    "PLAN_KINDS",
    "DEFAULT_MACHINE",
    "ADVISOR_PROTOCOL",
    "ADVISOR_STATUSES",
    "ExperimentSpec",
    "AdvisorRequest",
    "AdvisorResponse",
    "validate_tenant",
    "SimOptions",
    "profile",
    "plan",
    "run",
    "run_many",
    "run_journaled",
    "resume_run",
    "advise",
    "configure",
    "current_engine",
    "reset_default_engine",
    "ExperimentEngine",
    "EngineStats",
    "FailureReport",
    "RetryPolicy",
]


@dataclass(frozen=True)
class PrefetchConfig:
    """One prefetching configuration: what a cell under it runs.

    ``plan`` is the software plan kind the program is rewritten with
    (``None``: the original program runs).  ``hw`` is the hardware
    prefetcher on each core: ``None``, ``"machine"`` (the machine's own
    model) or ``"xcore"`` (the cross-core helper LLC prefetcher of
    :mod:`repro.hwpref.xcore`).  ``coordinator`` is the multicore
    policy of :mod:`repro.multicore.coordinator` (``None``,
    ``"heuristic"`` or ``"rl"``); it acts only where cores share a chip.
    ``label`` is the config's column header in every figure.
    """

    name: str
    label: str
    plan: str | None = None
    hw: str | None = None
    coordinator: str | None = None


#: Every prefetching configuration, declared once.  The paper's §VII
#: grid (Baseline, Hardware Pref., Software Pref., Soft.Pref.+NT,
#: Stride-centric), §VIII-B's combined HW+SW (Lee et al.'s observation,
#: which the paper confirms: combining the two can hurt), coordinated
#: hardware prefetching (after arXiv 2509.10719) and the irregular
#: frontier: the indirect ``prefetch B[i+d]; prefetch A[B[i+d]]``
#: rewrite and the cross-core helper prefetcher (after Pickle, arXiv
#: 2511.19973).  Adding a config is adding a row.
PREFETCH_CONFIGS: dict[str, PrefetchConfig] = {
    row.name: row
    for row in (
        PrefetchConfig("baseline", "Baseline"),
        PrefetchConfig("hw", "Hardware Pref.", hw="machine"),
        PrefetchConfig("sw", "Software Pref.", plan="sw"),
        PrefetchConfig("swnt", "Soft.Pref.+NT", plan="swnt"),
        PrefetchConfig("stride", "Stride-centric", plan="stride"),
        PrefetchConfig("hwsw", "HW+SW", plan="swnt", hw="machine"),
        PrefetchConfig("hwcoord", "HW+Coord", hw="machine", coordinator="heuristic"),
        PrefetchConfig("hwrl", "HW+RL", hw="machine", coordinator="rl"),
        PrefetchConfig("swi", "Soft.Pref.+Indirect", plan="swi"),
        PrefetchConfig("hwx", "Cross-core HW", hw="xcore"),
    )
}

#: Config names, in table order.
CONFIGS = tuple(PREFETCH_CONFIGS)

#: Software plan kinds some config rewrites with.
PLAN_KINDS = tuple(dict.fromkeys(r.plan for r in PREFETCH_CONFIGS.values() if r.plan))

#: Machine used when a spec is only a carrier for machine-independent
#: work (profiling); any valid machine name would do.
DEFAULT_MACHINE = "amd-phenom-ii"


@dataclass(frozen=True)
class ExperimentSpec:
    """One cell of the paper's evaluation grid.

    Attributes
    ----------
    workload:
        Benchmark model name (``repro workloads`` lists them).
    machine:
        Target machine model name (key of :data:`repro.config.MACHINES`).
    config:
        Prefetching configuration, a key of :data:`PREFETCH_CONFIGS`.
    input_set:
        Input set the *evaluated* run uses; profiling always uses
        ``"ref"`` (the paper's single-profile methodology).
    scale:
        Trip-count multiplier applied to the workload model.
    """

    workload: str
    machine: str
    config: str = "baseline"
    input_set: str = "ref"
    scale: float = 1.0

    def __post_init__(self) -> None:
        for name in ("workload", "machine", "config", "input_set"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise ExperimentError(f"{name} must be a non-empty string, got {value!r}")
        if self.config not in PREFETCH_CONFIGS:
            raise ExperimentError(
                f"unknown config {self.config!r}; valid: {CONFIGS}"
            )
        if not isinstance(self.scale, (int, float)) or isinstance(self.scale, bool):
            raise ExperimentError(f"scale must be a number, got {self.scale!r}")
        if not math.isfinite(self.scale) or self.scale <= 0:
            raise ExperimentError(f"scale must be positive and finite, got {self.scale}")
        # Normalise so ExperimentSpec(..., scale=1) and scale=1.0 are one
        # cache key / one dict entry.
        object.__setattr__(self, "scale", float(self.scale))

    # -- derived views -------------------------------------------------

    @property
    def profile_key(self) -> tuple[str, str, float]:
        """The (workload, input_set, scale) triple one profiling pass covers.

        Cells sharing this key share a workload build/execution, so the
        engine groups them into one worker task.
        """
        return (self.workload, self.input_set, self.scale)

    @property
    def plan_kind(self) -> str | None:
        """Plan kind the program is rewritten with (``None``: it is not)."""
        return PREFETCH_CONFIGS[self.config].plan

    def with_config(self, config: str) -> "ExperimentSpec":
        """Copy of this spec under another prefetching configuration."""
        return replace(self, config=config)

    def as_dict(self) -> dict:
        """Plain-primitive mapping (stable field order) for hashing/JSON."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def label(self) -> str:
        """Compact human-readable cell label for progress output."""
        extra = "" if self.input_set == "ref" else f"/{self.input_set}"
        return f"{self.workload}/{self.machine}/{self.config}{extra}@{self.scale:g}"

    # -- grid construction ---------------------------------------------

    @classmethod
    def grid(
        cls,
        workloads: Sequence[str],
        machines: Sequence[str],
        configs: Sequence[str] = CONFIGS,
        input_sets: Sequence[str] = ("ref",),
        scales: Sequence[float] = (1.0,),
    ) -> list["ExperimentSpec"]:
        """The full cross product of the given axes, in deterministic order."""
        return [
            cls(w, m, c, i, s)
            for w in workloads
            for m in machines
            for c in configs
            for i in input_sets
            for s in scales
        ]


# -- advisor request/response API ---------------------------------------
#
# The serving layer (``repro serve``, docs/serving.md) speaks one frozen
# request/response pair over the ``repro-advisor-v1`` wire protocol.
# Like ExperimentSpec, both types are part of the public API contract:
# their JSON codecs live in repro.core.serialization, are versioned, and
# are pinned byte-for-byte by golden fixtures — a serve daemon and its
# clients may be upgraded independently.

#: Wire-protocol identifier of the advisor service (see docs/serving.md).
ADVISOR_PROTOCOL = "repro-advisor-v1"

#: Tenant names become cache sub-directories; constrain them to a safe
#: slug so a request can never escape its namespace.
_TENANT_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)

#: Reserved namespace names that would collide with cache machinery.
_TENANT_RESERVED = frozenset({"quarantine", "stats", "sampling", "tenants"})


def validate_tenant(name: str) -> str:
    """Validate a tenant name; returns it unchanged.

    A tenant is a non-empty slug of ``[A-Za-z0-9._-]`` (max 64 chars)
    that does not start with a dot and is not a reserved cache
    directory name.  Raises :class:`ExperimentError` otherwise.
    """
    if not isinstance(name, str) or not name:
        raise ExperimentError(f"tenant must be a non-empty string, got {name!r}")
    if len(name) > 64 or name.startswith(".") or not set(name) <= _TENANT_OK:
        raise ExperimentError(
            f"invalid tenant {name!r}: use up to 64 chars of [A-Za-z0-9._-], "
            "not starting with '.'"
        )
    if name in _TENANT_RESERVED:
        raise ExperimentError(f"tenant name {name!r} is reserved")
    return name


@dataclass(frozen=True)
class AdvisorRequest:
    """One prefetch-advisor request: what to analyse, for whom.

    Exactly one of ``workload`` (a named benchmark model) or ``trace``
    (a small inline memory trace) must be given.

    Attributes
    ----------
    workload:
        Benchmark model name; the request resolves to the
        :class:`ExperimentSpec` cell ``(workload, machine, config,
        input_set, scale)`` and may carry full simulated statistics.
    trace:
        Inline trace as a tuple of ``(pc, addr, op)`` event triples
        (the JSON codec accepts lists).  Trace requests return the
        profile → MDDLI → rewrite-decision plan only (there is no
        program to rewrite and re-simulate), so ``want_stats`` must be
        ``False``.
    machine:
        Target machine model name (key of :data:`repro.config.MACHINES`).
    config:
        Prefetching configuration, a key of :data:`PREFETCH_CONFIGS`.
    input_set, scale:
        As on :class:`ExperimentSpec`.
    tenant:
        Cache namespace this request bills to (see docs/serving.md).
    request_id:
        Client-chosen correlation id echoed on every response/event.
    want_plan / want_stats:
        Select the artefacts to compute.  Plans exist only for configs
        whose :attr:`PrefetchConfig.plan` is set.
    stream:
        Ask the daemon to stream progress events before the response.
    """

    workload: str | None = None
    machine: str = DEFAULT_MACHINE
    config: str = "swnt"
    input_set: str = "ref"
    scale: float = 1.0
    trace: tuple[tuple[int, int, int], ...] | None = None
    tenant: str = "default"
    request_id: str = ""
    want_plan: bool = True
    want_stats: bool = True
    stream: bool = False

    def __post_init__(self) -> None:
        if (self.workload is None) == (self.trace is None):
            raise ExperimentError(
                "exactly one of workload= or trace= must be given"
            )
        if self.workload is not None and (
            not isinstance(self.workload, str) or not self.workload
        ):
            raise ExperimentError(
                f"workload must be a non-empty string, got {self.workload!r}"
            )
        if self.config not in PREFETCH_CONFIGS:
            raise ExperimentError(f"unknown config {self.config!r}; valid: {CONFIGS}")
        if not isinstance(self.scale, (int, float)) or isinstance(self.scale, bool):
            raise ExperimentError(f"scale must be a number, got {self.scale!r}")
        if not math.isfinite(self.scale) or self.scale <= 0:
            raise ExperimentError(f"scale must be positive and finite, got {self.scale}")
        object.__setattr__(self, "scale", float(self.scale))
        validate_tenant(self.tenant)
        if not isinstance(self.request_id, str):
            raise ExperimentError(
                f"request_id must be a string, got {self.request_id!r}"
            )
        if self.trace is not None:
            if self.want_stats:
                raise ExperimentError(
                    "inline-trace requests carry no executable program; "
                    "pass want_stats=False (plans only) or name a workload"
                )
            # Normalise to nested tuples so the request stays hashable
            # and equal regardless of how the events were spelled.
            try:
                events = tuple(
                    (int(pc), int(addr), int(op)) for pc, addr, op in self.trace
                )
            except (TypeError, ValueError):
                raise ExperimentError(
                    "trace must be an iterable of (pc, addr, op) integer triples"
                ) from None
            if not events:
                raise ExperimentError("inline trace must contain at least one event")
            object.__setattr__(self, "trace", events)

    @property
    def spec(self) -> ExperimentSpec:
        """The grid cell a workload-bearing request resolves to."""
        if self.workload is None:
            raise ExperimentError("inline-trace requests resolve to no grid cell")
        return ExperimentSpec(
            self.workload, self.machine, self.config, self.input_set, self.scale
        )

    def label(self) -> str:
        """Compact label for progress output and span attributes."""
        if self.workload is not None:
            return f"{self.tenant}:{self.spec.label()}"
        return f"{self.tenant}:trace[{len(self.trace)}]/{self.machine}/{self.config}"


#: Valid :attr:`AdvisorResponse.status` values.  ``ok`` carries the
#: requested artefacts; ``error`` a permanent per-request failure;
#: ``rejected`` a backpressure or drain refusal (retry after
#: ``retry_after`` seconds — the 429 of the wire protocol).
ADVISOR_STATUSES = ("ok", "error", "rejected")


@dataclass(frozen=True)
class AdvisorResponse:
    """The advisor's answer to one :class:`AdvisorRequest`.

    ``plan`` and ``stats`` are the *serialised* JSON documents of
    :class:`~repro.core.report.OptimizationReport` and
    :class:`~repro.cachesim.stats.RunStats` (``plan_to_dict`` /
    ``stats_to_dict`` output) — already wire-shaped, so a response
    served from cache is byte-identical to one computed fresh, and
    clients without this package can still read them.
    """

    status: str
    request_id: str = ""
    tenant: str = "default"
    spec: dict | None = None
    plan: dict | None = None
    stats: dict | None = None
    error: str | None = None
    retry_after: float | None = None

    def __post_init__(self) -> None:
        if self.status not in ADVISOR_STATUSES:
            raise ExperimentError(
                f"unknown status {self.status!r}; valid: {ADVISOR_STATUSES}"
            )
        if self.status == "error" and not self.error:
            raise ExperimentError("error responses must carry an error message")

    @property
    def ok(self) -> bool:
        return self.status == "ok"


# -- facade functions (lazy imports: keep repro.api dependency-free) ----


def profile(spec: ExperimentSpec) -> "WorkloadProfile":
    """Build, execute and sample ``spec``'s workload (cached).

    Only :attr:`ExperimentSpec.profile_key` matters; machine and config
    are ignored.
    """
    from repro.experiments import runner

    return runner.profile_for(spec.workload, spec.input_set, spec.scale)


def plan(spec: ExperimentSpec) -> "OptimizationReport":
    """Prefetch plan for ``spec`` (cached); requires a plan-bearing config."""
    from repro.experiments import runner

    return runner.plan_for_spec(spec)


def run(spec: ExperimentSpec) -> "RunStats":
    """Simulate one cell through the shared in-process memo (cached).

    The memo is the only cache it uses: it neither reads nor writes the
    persistent result cache.  Disk-cached, parallel runs go through
    :func:`run_many` and the engine :func:`configure` installs.
    """
    from repro.experiments import runner

    return runner.run_spec(spec)


def run_many(specs: Iterable[ExperimentSpec]) -> dict[ExperimentSpec, "RunStats"]:
    """Run many cells through the (possibly parallel, disk-cached) default engine."""
    return current_engine().run(specs)


def run_journaled(
    specs: Iterable[ExperimentSpec],
    run_id: str | None = None,
    runs_dir=None,
    engine: "ExperimentEngine | None" = None,
) -> tuple[str, dict[ExperimentSpec, "RunStats"]]:
    """Run many cells under a durable run journal; resumable if killed.

    Every dispatched group and completed cell is appended to a
    checksummed, fsync'd journal under ``<runs_dir>/<run_id>/`` (see
    :mod:`repro.experiments.journal`), so a SIGKILLed or power-cut run
    loses nothing already journaled: :func:`resume_run` replays the
    journal and re-dispatches only the missing cells, with bit-identical
    final results.  While the run is live, SIGINT/SIGTERM drain in-flight
    work and raise :class:`~repro.errors.RunInterrupted` (CLI exit 75).

    Returns ``(run_id, results)``.
    """
    from repro.experiments.journal import RunJournal

    specs = list(dict.fromkeys(specs))
    journal = RunJournal.create(run_id=run_id, runs_dir=runs_dir)
    eng = engine if engine is not None else current_engine()
    previous = eng.journal
    try:
        eng.journal = journal
        results = eng.run(specs)
        journal.finish(cells=len(results), failed=len(eng.last_failures))
        return journal.run_id, results
    finally:
        eng.journal = previous
        journal.close()


def resume_run(
    run_id: str,
    runs_dir=None,
    engine: "ExperimentEngine | None" = None,
) -> tuple[str, dict[ExperimentSpec, "RunStats"]]:
    """Resume an interrupted journaled run from its journal.

    Replays ``<runs_dir>/<run_id>/journal.jsonl`` (tolerating the torn
    tail a killed writer leaves), seeds every journaled result back into
    the runner memo, and re-runs the original spec list — completed
    cells resolve as memo hits, so only the interrupted remainder is
    re-dispatched, deterministically.  Raises
    :class:`~repro.experiments.journal.JournalError` for a missing or
    incompatible journal.  Returns ``(run_id, results)``.
    """
    from repro import obs
    from repro.core import serialization
    from repro.errors import AnalysisError
    from repro.experiments import runner
    from repro.experiments.journal import RunJournal

    journal, replay = RunJournal.open(run_id, runs_dir=runs_dir)
    eng = engine if engine is not None else current_engine()
    seeded = 0
    for spec, payload in replay.completed.items():
        try:
            stats = serialization.stats_from_dict(payload)
        except (AnalysisError, KeyError, TypeError, ValueError):
            # Unusable payload (codec drift mid-run?): recompute the cell
            # and let the journal re-record it.
            journal.done.discard(spec)
            continue
        runner.seed_memo(spec, stats)
        seeded += 1
    pending = len(replay.specs) - seeded
    if obs.enabled():
        reg = obs.metrics()
        reg.counter("engine.resume.runs").inc()
        reg.counter("engine.resume.seeded_cells").inc(seeded)
        reg.counter("engine.resume.pending_cells").inc(pending)
        if replay.torn_tail:
            reg.counter("engine.resume.torn_tails").inc()
        if replay.corrupt_records:
            reg.counter("engine.resume.corrupt_records").inc(replay.corrupt_records)
    previous = eng.journal
    try:
        with obs.span(
            "engine.resume", run_id=journal.run_id, seeded=seeded, pending=pending
        ):
            eng.journal = journal
            results = eng.run(replay.specs)
        if not replay.finished or len(results) > len(replay.completed):
            journal.finish(cells=len(results), failed=len(eng.last_failures))
        return journal.run_id, results
    finally:
        eng.journal = previous
        journal.close()


def advise(request: AdvisorRequest) -> AdvisorResponse:
    """Answer one advisor request in-process (the one-shot path).

    This is the reference semantics of the serving layer: ``repro
    serve`` answers every request through the same compute kernel, so a
    served response's ``plan``/``stats`` documents are byte-identical to
    this function's.  Results flow through the shared runner memo like
    :func:`run`'s; nothing is written to disk.
    """
    from repro.serve.advisor import compute_advice

    return compute_advice(request)


# -- engine surface ------------------------------------------------------
#
# Drivers, benchmarks and the CLI configure and fetch the process-wide
# engine through here, the only place it is held; the engine module
# stays an implementation detail.

_DEFAULT_ENGINE: "ExperimentEngine | None" = None


def configure(
    jobs=None,
    cache_dir=None,
    use_cache: bool = False,
    progress=None,
    retry=None,
    strict: bool = True,
    sim_options: SimOptions | None = None,
    cache_quota: int | None = None,
) -> "ExperimentEngine":
    """Install and return the process-wide default engine.

    Experiment drivers reach it through :func:`current_engine`.
    Parameters mirror :class:`ExperimentEngine`, plus a simulation knob
    (tracing is switched on by :func:`repro.obs.enable`, which the
    engine's worker processes follow):

    sim_options:
        :class:`SimOptions` installed as the process-wide default for
        every simulator in this process and the engine's workers (an
        explicit constructor argument still wins; see
        ``docs/simulators.md``).  ``None`` leaves the current default
        untouched.
    cache_quota:
        Size budget in bytes for the on-disk result cache; the engine
        evicts least-recently-used entries past it when it starts
        (``None`` = unbounded).  ``repro cache gc`` and the serve
        dispatcher, after each batch, evict the rest.
    """
    global _DEFAULT_ENGINE
    from repro.cachesim.options import set_default_options
    from repro.experiments.engine import ExperimentEngine

    if sim_options is not None:
        set_default_options(sim_options)
    _DEFAULT_ENGINE = ExperimentEngine(
        jobs=jobs,
        cache_dir=cache_dir,
        use_cache=use_cache,
        progress=progress,
        retry=retry,
        strict=strict,
        cache_quota=cache_quota,
    )
    return _DEFAULT_ENGINE


def current_engine() -> "ExperimentEngine":
    """The default engine, creating a serial, cache-less one on demand."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        from repro.experiments.engine import ExperimentEngine

        _DEFAULT_ENGINE = ExperimentEngine()
    return _DEFAULT_ENGINE


def reset_default_engine() -> None:
    """Forget the default engine (tests and benchmark harness hygiene)."""
    global _DEFAULT_ENGINE
    _DEFAULT_ENGINE = None


#: Engine types re-exported lazily so ``repro.api`` stays import-cheap
#: and cycle-free: resolving any of these triggers the engine import.
_ENGINE_TYPES = ("ExperimentEngine", "EngineStats", "FailureReport", "RetryPolicy")


def __getattr__(name: str):
    if name in _ENGINE_TYPES:
        from repro.experiments import engine as _engine

        return getattr(_engine, name)
    if name == "SimOptions":
        # Lazy for the same reason: ``repro.cachesim`` loads numpy.
        from repro.cachesim.options import SimOptions

        return SimOptions
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
