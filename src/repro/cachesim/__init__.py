"""Cache simulation substrate: LRU caches, hierarchies, bandwidth model."""

from repro.cachesim.bandwidth import BandwidthModel
from repro.cachesim.fastlru import FastLRUCache
from repro.cachesim.functional import FunctionalCacheSim, simulate_miss_ratios
from repro.cachesim.hierarchy import CacheHierarchy
from repro.cachesim.lru import (
    FLAG_DIRTY,
    FLAG_HW_PREFETCH,
    FLAG_NTA,
    FLAG_REFERENCED,
    FLAG_SW_PREFETCH,
    LRUCache,
)
from repro.cachesim.options import (
    BACKENDS,
    SimOptions,
    get_default_options,
    resolve_options,
    set_default_options,
)
from repro.cachesim.stats import LevelStats, PCStats, RunStats

__all__ = [
    "BACKENDS",
    "BandwidthModel",
    "CacheHierarchy",
    "FastLRUCache",
    "FunctionalCacheSim",
    "simulate_miss_ratios",
    "LRUCache",
    "LevelStats",
    "PCStats",
    "RunStats",
    "SimOptions",
    "get_default_options",
    "resolve_options",
    "set_default_options",
    "FLAG_DIRTY",
    "FLAG_HW_PREFETCH",
    "FLAG_NTA",
    "FLAG_REFERENCED",
    "FLAG_SW_PREFETCH",
]

