"""Consolidated simulation options (:class:`SimOptions`).

:class:`SimOptions` is the single frozen carrier of the simulation
options (today the backend only), resolved with one documented
precedence:

1. **explicit argument** — ``SimOptions`` (or a bare backend string)
   passed to a simulator constructor
   (``CacheHierarchy(..., options=...)``,
   ``FunctionalCacheSim(..., backend=...)``);
2. **process default** — :func:`set_default_options`, wired to
   ``repro.api.configure(sim_options=...)`` and the CLI's
   ``--sim-backend``, and shipped to engine worker processes.

Simulators resolve their options once, at construction: changing the
process default afterwards does not move a simulator that already
exists.
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
        to the process default.  The backend is the only option: the
        fast backend picks its execution path per run (see
        :class:`~repro.cachesim.hierarchy.CacheHierarchy`).
    """

    backend: str | None = None

    def __post_init__(self) -> None:
        validate_backend(self.backend)

    def resolved_backend(self) -> str:
        """Resolve the backend by precedence (explicit > default)."""
        if self.backend is not None:
            return self.backend
        return _DEFAULT.backend or "reference"


#: Process-wide default options (precedence level 2).
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


def resolve_options(explicit: "SimOptions | str | None") -> SimOptions:
    """Resolve an explicit argument against the process default.

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
    return SimOptions(backend=explicit.resolved_backend())
