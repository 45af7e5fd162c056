"""Random mixed workloads (paper §VII-C).

The paper runs **180 randomly generated workload mixes**, each of four
randomly selected benchmarks on four cores.  Mix generation here is
deterministic: mix *i* of the canonical set is always the same four
benchmarks, so every experiment and test sees identical mixes.

For the varying-inputs study (§VII-D) each mix member is also assigned a
randomly selected *alternate* input set, again deterministically per
(mix id, slot).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.base import get_workload
from repro.workloads.spec2006 import ALL_SINGLE_CORE

__all__ = ["Mix", "generate_mixes", "PAPER_MIX_COUNT", "PAPER_MIX_SIZE", "fig8_mix"]

PAPER_MIX_COUNT = 180
PAPER_MIX_SIZE = 4

#: Seed of the canonical mix set; fixed so "mix 17" is stable forever.
_MIX_SEED = 0x5EED_2014


@dataclass(frozen=True)
class Mix:
    """One multiprogrammed workload: ``PAPER_MIX_SIZE`` benchmarks."""

    mix_id: int
    members: tuple[str, ...]
    inputs: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.members) != len(self.inputs):
            raise WorkloadError("one input set per member required")


def generate_mixes(
    count: int = PAPER_MIX_COUNT,
    size: int = PAPER_MIX_SIZE,
    pool: tuple[str, ...] | None = None,
    vary_inputs: bool = False,
) -> list[Mix]:
    """The canonical deterministic mix set.

    Parameters
    ----------
    count, size:
        Number of mixes and applications per mix (paper: 180 × 4).
    pool:
        Benchmarks to draw from; defaults to all 12 single-core models.
    vary_inputs:
        If True, each member runs a randomly selected *non-reference*
        input (paper §VII-D); otherwise everything uses ``"ref"``.

    The generator is seeded with ``_MIX_SEED``, so the default arguments
    yield the repository's canonical 180 mixes.
    """
    if count <= 0 or size <= 0:
        raise WorkloadError("count and size must be positive")
    names = tuple(pool) if pool is not None else ALL_SINGLE_CORE
    if size > len(names):
        raise WorkloadError("mix size exceeds benchmark pool")
    rng = np.random.default_rng(_MIX_SEED)
    mixes: list[Mix] = []
    for mix_id in range(count):
        picks = rng.choice(len(names), size=size, replace=False)
        members = tuple(names[i] for i in picks)
        if vary_inputs:
            inputs = []
            for name in members:
                alts = [s for s in get_workload(name).inputs if s != "ref"]
                inputs.append(alts[int(rng.integers(len(alts)))])
            inputs = tuple(inputs)
        else:
            inputs = tuple("ref" for _ in members)
        mixes.append(Mix(mix_id, members, inputs))
    return mixes


def fig8_mix() -> Mix:
    """The mix the paper examines in detail (Fig. 8): cigar, gcc, lbm, libquantum."""
    return Mix(-1, ("cigar", "gcc", "lbm", "libquantum"), ("ref",) * 4)
