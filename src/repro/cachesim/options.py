"""Consolidated simulation options (:class:`SimOptions`).

Before this module, backend selection was scattered over four knobs —
``CacheConfig.backend``, ``MachineConfig.sim_backend``, the CLI's
``--sim-backend`` flag and :func:`repro.cachesim.backend.set_default_backend`
— each with its own plumbing.  :class:`SimOptions` is the single frozen
carrier for all of them, resolved with one documented precedence:

1. **explicit argument** — ``SimOptions`` (or a bare backend string)
   passed to a simulator constructor;
2. **spec** — the config object's field (``CacheConfig.backend`` /
   ``MachineConfig.sim_backend``) when not ``None``;
3. **process default** — :func:`set_default_options`, wired to
   ``repro.api.configure(sim_options=...)`` and the CLI, and shipped to
   engine worker processes.

Simulators resolve their options once, at construction: changing the
process default afterwards does not move a simulator that already
exists.

The migration is complete: the legacy :mod:`repro.cachesim.backend`
shim module and the ``repro.api.configure(sim_backend=...)`` kwarg are
gone, and the removed names raise :class:`~repro.errors.ExperimentError`
with a pointer here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError

__all__ = [
    "BACKENDS",
    "SimOptions",
    "validate_backend",
    "get_default_options",
    "set_default_options",
    "resolve_options",
]

#: Valid backend names.
BACKENDS = ("reference", "fast")


def validate_backend(name: str | None) -> None:
    """Raise :class:`~repro.errors.ConfigError` for unknown backend names.

    ``None`` is accepted and means "defer to the next precedence level".
    """
    if name is not None and name not in BACKENDS:
        raise ConfigError(f"unknown sim backend {name!r}; valid: {BACKENDS}")


@dataclass(frozen=True)
class SimOptions:
    """Frozen bundle of simulation-execution options.

    Parameters
    ----------
    backend:
        Cache-simulation backend: ``"reference"`` (dict-based oracle),
        ``"fast"`` (array-native, bit-identical), or ``None`` to defer
        to the spec / process default.  The backend is the only
        option: the fast backend picks its execution path per run (see
        :class:`~repro.cachesim.hierarchy.CacheHierarchy`).
    """

    backend: str | None = None

    def __post_init__(self) -> None:
        validate_backend(self.backend)

    def resolved_backend(self, spec_backend: str | None = None) -> str:
        """Resolve the backend by precedence (explicit > spec > default)."""
        validate_backend(spec_backend)
        if self.backend is not None:
            return self.backend
        if spec_backend is not None:
            return spec_backend
        return _DEFAULT.backend or "reference"


#: Process-wide default options (precedence level 3).
_DEFAULT = SimOptions(backend="reference")


def get_default_options() -> SimOptions:
    """The process-wide default :class:`SimOptions`."""
    return _DEFAULT


def set_default_options(options: SimOptions) -> SimOptions:
    """Install process-wide default options; returns the previous ones.

    A ``None`` backend in ``options`` is pinned to ``"reference"`` so
    the default is always fully resolved.
    """
    global _DEFAULT
    if not isinstance(options, SimOptions):
        raise ConfigError(f"expected SimOptions, got {type(options).__name__}")
    previous = _DEFAULT
    if options.backend is None:
        options = replace(options, backend="reference")
    _DEFAULT = options
    return previous


def resolve_options(
    explicit: "SimOptions | str | None",
    spec_backend: str | None = None,
) -> SimOptions:
    """Resolve an explicit argument against spec and process default.

    ``explicit`` may be a full :class:`SimOptions`, a bare backend name
    (the classic ``backend="fast"`` constructor argument), or ``None``.
    The result always carries a concrete backend name.
    """
    if explicit is None or isinstance(explicit, str):
        explicit = SimOptions(backend=explicit)
    elif not isinstance(explicit, SimOptions):
        raise ConfigError(
            f"expected SimOptions, backend name or None, got {type(explicit).__name__}"
        )
    return SimOptions(backend=explicit.resolved_backend(spec_backend))
