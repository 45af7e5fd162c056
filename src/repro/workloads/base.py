"""Workload specifications and registry.

A *workload* is a named, parameterised generator of mini-IR programs
whose memory behaviour mimics one of the paper's benchmarks.  Builders
take an ``input set`` name (the paper's §VII-D varies inputs to test
profile robustness — different inputs change working-set sizes and
pattern mixtures, not the program structure) and a ``scale`` factor that
multiplies loop trip counts (full-size runs for experiments, small ones
for tests).

All randomness inside a workload derives from its name and input set, so
every trace in the repository is reproducible bit-for-bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Protocol

from repro.errors import WorkloadError
from repro.isa.program import Program

__all__ = [
    "WorkloadSpec",
    "register_workload",
    "get_workload",
    "list_workloads",
    "build_program",
    "workload_seed",
]


class ProgramBuilder(Protocol):
    def __call__(self, input_set: str, scale: float) -> Program: ...


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark model.

    Attributes
    ----------
    name:
        Benchmark name (``"libquantum"``, ``"mcf"``, ...).
    builder:
        Callable producing the program for an input set and scale.
    description:
        What real behaviour the model mimics.
    inputs:
        Valid input-set names; the first is the reference input used for
        profiling (the paper samples with one input and evaluates with
        others in §VII-D).
    suite:
        ``"spec2006"``, ``"other"`` or ``"parallel"``.
    """

    name: str
    builder: ProgramBuilder
    description: str
    inputs: tuple[str, ...] = ("ref", "train", "alt")
    suite: str = "spec2006"

    def build(self, input_set: str | None = None, scale: float = 1.0) -> Program:
        """Instantiate the program for one input set."""
        chosen = self.inputs[0] if input_set is None else input_set
        if chosen not in self.inputs:
            raise WorkloadError(
                f"workload {self.name!r} has no input set {chosen!r} "
                f"(valid: {', '.join(self.inputs)})"
            )
        if scale <= 0:
            raise WorkloadError("scale must be positive")
        return self.builder(chosen, scale)


_REGISTRY: dict[str, WorkloadSpec] = {}


def register_workload(spec: WorkloadSpec) -> WorkloadSpec:
    """Add a workload to the global registry (idempotent by name)."""
    if spec.name in _REGISTRY:
        raise WorkloadError(f"workload {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_workload(name: str) -> WorkloadSpec:
    """Look a workload up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise WorkloadError(f"unknown workload {name!r}; known: {known}") from None


def list_workloads(suite: str | None = None) -> list[str]:
    """Sorted names of registered workloads, optionally by suite."""
    return sorted(
        name
        for name, spec in _REGISTRY.items()
        if suite is None or spec.suite == suite
    )


def build_program(name: str, input_set: str | None = None, scale: float = 1.0) -> Program:
    """Shorthand: registry lookup + build."""
    return get_workload(name).build(input_set, scale)


def workload_seed(name: str, input_set: str, salt: int = 0) -> int:
    """Stable 63-bit seed derived from workload identity."""
    digest = hashlib.sha256(f"{name}/{input_set}/{salt}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1
