"""Phase detection over memory traces.

The sampler the paper builds on is the *phase-guided* profiler of
Sembrant, Black-Schaffer & Hagersten (CGO'12): execution is split into
windows, each window gets a compact *access signature*, similar
signatures are clustered into **phases**, and expensive monitoring only
runs once per phase instead of continuously.  This module provides the
equivalent machinery:

* :func:`window_signatures` — random-projected footprint vectors per
  window (a vectorised stand-in for CGO'12's branch/working-set
  signatures);
* :class:`PhaseDetector` — online clustering by cosine similarity
  against per-phase centroids;
* :func:`phase_aware_sample` — sampling budget spent *per phase*, so a
  program that alternates A-B-A-B is profiled once per distinct phase
  and the samples are reweighted by phase residency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SamplingError
from repro.sampling.reuse import ReuseSampleSet
from repro.sampling.sampler import RuntimeSampler, SamplingResult
from repro.sampling.stridesampler import StrideSampleSet
from repro.trace.events import MemoryTrace

__all__ = ["window_signatures", "PhaseDetector", "phase_aware_sample", "PhaseProfile"]

#: Buckets of a window's footprint signature.
_SIGNATURE_BITS = 128


def window_signatures(
    trace: MemoryTrace,
    window_refs: int,
    line_bytes: int = 64,
) -> np.ndarray:
    """Per-window footprint signatures, shape ``(n_windows, _SIGNATURE_BITS)``.

    Each window's touched cache lines are hashed into a fixed-width
    histogram; two windows touching similar data have similar vectors.
    Fully vectorised (one pass of modular hashing + bincount per window).
    """
    if window_refs <= 0:
        raise SamplingError("window_refs must be positive")
    demand = trace.demand_only()
    lines = demand.line_addr(line_bytes)
    n = len(lines)
    if n == 0:
        return np.zeros((0, _SIGNATURE_BITS))
    # Working-set signature at 32 kB granularity: the granule id is
    # scrambled with a golden-ratio multiplier so distinct regions land
    # in uncorrelated buckets, while re-visits of the same data always
    # hit the same buckets (line-level hashing would saturate the
    # histogram for any large footprint and lose all discrimination).
    granules = lines >> 9
    multiplier = np.uint64(0x9E3779B97F4A7C15).astype(np.int64)
    with np.errstate(over="ignore"):
        hashed = np.abs((granules * multiplier) >> 17) % _SIGNATURE_BITS
    n_windows = -(-n // window_refs)
    out = np.zeros((n_windows, _SIGNATURE_BITS))
    for w in range(n_windows):
        chunk = hashed[w * window_refs : (w + 1) * window_refs]
        out[w] = np.bincount(chunk, minlength=_SIGNATURE_BITS)
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return out / norms


@dataclass
class _Phase:
    centroid: np.ndarray
    windows: int


class PhaseDetector:
    """Online phase clustering by cosine similarity to phase centroids."""

    def __init__(self, similarity_threshold: float = 0.85) -> None:
        if not 0.0 < similarity_threshold <= 1.0:
            raise SamplingError("similarity_threshold must be in (0, 1]")
        self.similarity_threshold = similarity_threshold
        self._phases: list[_Phase] = []

    def classify(self, signature: np.ndarray) -> int:
        """Assign one window signature to a phase (creating one if novel)."""
        best_id, best_sim = -1, -1.0
        for phase_id, phase in enumerate(self._phases):
            sim = float(signature @ phase.centroid)
            if sim > best_sim:
                best_id, best_sim = phase_id, sim
        if best_id >= 0 and best_sim >= self.similarity_threshold:
            phase = self._phases[best_id]
            # running centroid update, renormalised
            phase.centroid = phase.centroid * phase.windows + signature
            phase.windows += 1
            norm = np.linalg.norm(phase.centroid)
            phase.centroid = phase.centroid / (norm if norm else 1.0)
            return best_id
        self._phases.append(_Phase(centroid=signature.copy(), windows=1))
        return len(self._phases) - 1

    def classify_all(self, signatures: np.ndarray) -> np.ndarray:
        """Classify a whole run's windows in order."""
        return np.array([self.classify(sig) for sig in signatures], dtype=np.int64)

    @property
    def n_phases(self) -> int:
        return len(self._phases)


@dataclass(frozen=True)
class PhaseProfile:
    """Phase structure plus the phase-aware sampling result."""

    phase_of_window: np.ndarray
    sampled_windows: dict[int, int]
    sampling: SamplingResult

    @property
    def n_phases(self) -> int:
        return int(self.phase_of_window.max()) + 1 if len(self.phase_of_window) else 0


def phase_aware_sample(
    trace: MemoryTrace,
    window_refs: int = 50_000,
    rate: float = 5e-3,
) -> PhaseProfile:
    """Sample only the first window of each detected phase.

    Returns the merged samples of the representative windows.  For a
    program with few, long phases this cuts sampling work by the phase
    repetition factor at nearly no accuracy cost — the CGO'12 result the
    paper's "<30 % overhead" figure rests on.  Phases are detected with
    :class:`PhaseDetector`'s default threshold on 64-byte-line
    signatures, and window ``w`` is sampled with seed ``w``.
    """
    demand = trace.demand_only()
    signatures = window_signatures(demand, window_refs)
    detector = PhaseDetector()
    phase_of_window = detector.classify_all(signatures)

    sampled_windows: dict[int, int] = {}
    merged_reuse: ReuseSampleSet | None = None
    merged_strides: StrideSampleSet | None = None
    for w, phase in enumerate(phase_of_window.tolist()):
        if phase in sampled_windows:
            continue
        sampled_windows[phase] = w
        window = demand[w * window_refs : (w + 1) * window_refs]
        sampler = RuntimeSampler(rate=rate, seed=w, min_samples=32)
        result = sampler.sample(window)
        if merged_reuse is None:
            merged_reuse, merged_strides = result.reuse, result.strides
        else:
            merged_reuse = merged_reuse.merged_with(result.reuse)
            merged_strides = merged_strides.merged_with(result.strides)

    if merged_reuse is None:
        empty = np.empty(0, dtype=np.int64)
        merged_reuse = ReuseSampleSet(empty, empty.copy(), empty.copy(), 0)
        merged_strides = StrideSampleSet(empty, empty.copy(), empty.copy())
    sampling = SamplingResult(
        reuse=merged_reuse,
        strides=merged_strides,
        sample_rate=rate,
        n_refs=len(demand),
        overhead_estimate=rate * 12_000.0 * len(sampled_windows) / max(1, len(phase_of_window)),
    )
    return PhaseProfile(
        phase_of_window=phase_of_window,
        sampled_windows=sampled_windows,
        sampling=sampling,
    )
