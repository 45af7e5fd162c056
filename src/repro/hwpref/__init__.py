"""Hardware prefetcher models (AMD-like stride, Intel-like streamer)."""

from repro.hwpref.base import (
    DEFAULT_TUNING,
    HardwarePrefetcher,
    NullPrefetcher,
    PrefetchTuning,
    throttle_factor,
)
from repro.hwpref.ghb import GHBPrefetcher
from repro.hwpref.nextline import AdjacentLinePrefetcher
from repro.hwpref.stride_pref import PCStridePrefetcher
from repro.hwpref.streamer import StreamerPrefetcher, amd_hw_prefetcher, intel_hw_prefetcher
from repro.hwpref.xcore import (
    CrossCoreLLCPrefetcher,
    IndexRegion,
    cross_core_prefetcher_for,
    index_directory_for,
)

__all__ = [
    "HardwarePrefetcher",
    "NullPrefetcher",
    "PrefetchTuning",
    "DEFAULT_TUNING",
    "throttle_factor",
    "PCStridePrefetcher",
    "GHBPrefetcher",
    "AdjacentLinePrefetcher",
    "StreamerPrefetcher",
    "amd_hw_prefetcher",
    "intel_hw_prefetcher",
    "CrossCoreLLCPrefetcher",
    "IndexRegion",
    "cross_core_prefetcher_for",
    "index_directory_for",
]
