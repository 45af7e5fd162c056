"""Machine and cache configuration objects.

The paper evaluates two commodity x86 multicores (paper Table II):

============== ======= ======= ====== ========
CPU             L1$     L2$     LLC    Freq.
============== ======= ======= ====== ========
AMD Phenom II   64 kB   512 kB  6 MB   2.8 GHz
Intel i7-2600K  32 kB   256 kB  8 MB   3.4 GHz
============== ======= ======= ====== ========

:func:`amd_phenom_ii` and :func:`intel_i7_2600k` build these machines with
latencies and bandwidth figures representative of the real parts.  All
simulators, models and analyses in this package take a
:class:`MachineConfig` so new machines can be described in one place.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = [
    "CacheConfig",
    "MachineConfig",
    "amd_phenom_ii",
    "intel_i7_2600k",
    "MACHINES",
    "get_machine",
]

KIB = 1024
MIB = 1024 * 1024


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of a single cache level.

    Parameters
    ----------
    name:
        Human-readable level name (``"L1"``, ``"L2"``, ``"LLC"``).
    size_bytes:
        Total capacity in bytes.  Must be a power of two multiple of
        ``line_bytes * ways``.
    ways:
        Associativity.  ``ways == num_lines`` gives a fully associative
        cache.
    line_bytes:
        Cache line size in bytes (64 on both evaluated machines).
    hit_latency:
        Load-to-use latency in core cycles for a hit in this level.
    """

    name: str
    size_bytes: int
    ways: int
    line_bytes: int = 64
    hit_latency: int = 4

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigError(f"{self.name}: size_bytes must be positive")
        if not _is_pow2(self.line_bytes):
            raise ConfigError(f"{self.name}: line_bytes must be a power of two")
        if self.ways <= 0:
            raise ConfigError(f"{self.name}: ways must be positive")
        if self.size_bytes % (self.line_bytes * self.ways):
            raise ConfigError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"line_bytes*ways ({self.line_bytes}*{self.ways})"
            )
        if not _is_pow2(self.num_sets):
            raise ConfigError(f"{self.name}: number of sets must be a power of two")
        if self.hit_latency < 0:
            raise ConfigError(f"{self.name}: hit_latency must be non-negative")

    @property
    def num_lines(self) -> int:
        """Total number of cache lines."""
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        """Number of sets (``num_lines / ways``)."""
        return self.num_lines // self.ways


@dataclass(frozen=True)
class MachineConfig:
    """A complete machine model: cache hierarchy, core and memory system.

    Attributes
    ----------
    name:
        Machine identifier, e.g. ``"amd-phenom-ii"``.
    l1, l2, llc:
        Per-level :class:`CacheConfig`.  The LLC is shared between all
        ``cores``; L1/L2 are private.
    cores:
        Number of cores (all experiments in the paper use 4).
    freq_ghz:
        Core clock frequency in GHz; converts cycles to seconds for
        bandwidth figures.
    dram_latency:
        Core cycles for an LLC miss serviced from DRAM (unloaded).
    peak_bandwidth_gbs:
        Achievable off-chip bandwidth in GB/s (the paper quotes
        15.6 GB/s for STREAM on the Intel machine).
    prefetch_cost:
        Cycles to execute one software prefetch instruction (paper: α = 1,
        measured with ineffective prefetches).
    cpi_base:
        Cycles per non-memory instruction when no stalls occur.
    cycles_per_memop:
        Δ in the paper — average cycles per memory operation, used to
        estimate loop iteration time ``d = recurrence × Δ``.
    """

    name: str
    l1: CacheConfig
    l2: CacheConfig
    llc: CacheConfig
    cores: int = 4
    freq_ghz: float = 3.0
    dram_latency: int = 200
    peak_bandwidth_gbs: float = 12.0
    prefetch_cost: float = 1.0
    cpi_base: float = 0.5
    cycles_per_memop: float = 2.0

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ConfigError("cores must be positive")
        if self.freq_ghz <= 0:
            raise ConfigError("freq_ghz must be positive")
        if self.peak_bandwidth_gbs <= 0:
            raise ConfigError("peak_bandwidth_gbs must be positive")
        if not (self.l1.line_bytes == self.l2.line_bytes == self.llc.line_bytes):
            raise ConfigError("all cache levels must share one line size")
        if not (self.l1.size_bytes < self.l2.size_bytes < self.llc.size_bytes):
            raise ConfigError("cache sizes must strictly increase with level")

    @property
    def line_bytes(self) -> int:
        """Cache line size shared by every level."""
        return self.l1.line_bytes

    @property
    def avg_memory_latency(self) -> float:
        """Unloaded average latency of an L1 miss, the paper's *l*.

        Used by the cost/benefit analysis and prefetch-distance formula.
        A simple weighted guess that most L1 misses on these machines hit
        in L2/LLC; experiments may override with measured values.
        """
        return 0.45 * self.l2.hit_latency + 0.30 * self.llc.hit_latency + 0.25 * self.dram_latency

    def bytes_per_cycle(self) -> float:
        """Peak off-chip bytes transferred per core cycle."""
        return self.peak_bandwidth_gbs * 1e9 / (self.freq_ghz * 1e9)


def amd_phenom_ii() -> MachineConfig:
    """AMD Phenom II X4 — paper Table II row 1.

    64 kB 2-way L1D, 512 kB 8-way L2, 6 MB 48-way shared L3 at 2.8 GHz.
    The hardware prefetcher on this part is a per-PC stride prefetcher.
    """
    return MachineConfig(
        name="amd-phenom-ii",
        l1=CacheConfig("L1", 64 * KIB, ways=2, hit_latency=3),
        l2=CacheConfig("L2", 512 * KIB, ways=8, hit_latency=15),
        llc=CacheConfig("LLC", 6 * MIB, ways=48, hit_latency=45),
        cores=4,
        freq_ghz=2.8,
        dram_latency=220,
        peak_bandwidth_gbs=11.0,
        prefetch_cost=1.0,
        cpi_base=0.6,
        cycles_per_memop=2.2,
    )


def intel_i7_2600k() -> MachineConfig:
    """Intel i7-2600K (Sandy Bridge) — paper Table II row 2.

    32 kB 8-way L1D, 256 kB 8-way L2, 8 MB 16-way shared LLC at 3.4 GHz.
    The hardware prefetcher is a streamer plus adjacent-line prefetcher.
    STREAM measures 15.6 GB/s on this machine (paper §VII-E).
    """
    return MachineConfig(
        name="intel-i7-2600k",
        l1=CacheConfig("L1", 32 * KIB, ways=8, hit_latency=4),
        l2=CacheConfig("L2", 256 * KIB, ways=8, hit_latency=12),
        llc=CacheConfig("LLC", 8 * MIB, ways=16, hit_latency=38),
        cores=4,
        freq_ghz=3.4,
        dram_latency=190,
        peak_bandwidth_gbs=15.6,
        prefetch_cost=1.0,
        cpi_base=0.45,
        cycles_per_memop=1.8,
    )


MACHINES = {
    "amd-phenom-ii": amd_phenom_ii,
    "intel-i7-2600k": intel_i7_2600k,
}


def get_machine(name: str) -> MachineConfig:
    """Look up one of the paper's machines by name.

    Raises :class:`~repro.errors.ConfigError` for unknown names so typos
    in experiment scripts fail loudly.
    """
    try:
        factory = MACHINES[name]
    except KeyError:
        known = ", ".join(sorted(MACHINES))
        raise ConfigError(f"unknown machine {name!r}; known: {known}") from None
    return factory()
