"""Hardware prefetcher interface.

A hardware prefetcher observes the demand-access stream (program counter,
byte address, line number, and whether the access hit in L1) and returns
the cache lines it wants fetched, each as a plain ``(line, fill_l2,
llc_bypass)`` tuple: the target line (never negative), whether the fill
also goes into L2, and whether it skips the shared LLC.  The cache
hierarchy issues these fills and charges their off-chip traffic —
speculative fetches are exactly how the paper's hardware baselines waste
shared resources.

Prefetchers may be *throttled*: when constructed with a ``utilisation``
callback (typically :meth:`repro.cachesim.bandwidth.BandwidthModel.utilisation`),
implementations reduce their aggressiveness as off-chip utilisation
rises, mirroring how commodity parts back off under contention (and, as
the paper observes, still emit significant useless traffic).
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "PrefetchTuning",
    "DEFAULT_TUNING",
    "HardwarePrefetcher",
    "NullPrefetcher",
    "throttle_factor",
]

#: Empty batch result, shared by implementations with nothing to issue.
_EMPTY_BATCH = (
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=bool),
)


def throttle_factor(rho: float) -> float:
    """Aggressiveness kept by a hardware prefetcher at utilisation ``rho``.

    The one canonical back-off curve: full aggressiveness below 70 %
    controller utilisation, linear back-off to a 25 % floor at
    saturation.  Both the per-access prefetcher models (via
    :meth:`HardwarePrefetcher._throttle_factor`) and the analytic
    contention model (:mod:`repro.multicore.contention`) evaluate this
    same function, so the two paths cannot drift.
    """
    if rho <= 0.70:
        return 1.0
    span = (rho - 0.70) / 0.30
    return max(0.25, 1.0 - 0.75 * min(span, 1.0))


@dataclass(frozen=True)
class PrefetchTuning:
    """Dynamic reconfiguration knobs a coordinator can set per core.

    ``degree_scale`` multiplies the model's native degree/back-off
    factor (``0.0`` switches the prefetcher off: every model issues
    nothing at factor 0); ``nta_bypass`` makes issued fills skip the
    shared LLC.  The default tuning is a no-op: every model behaves
    bit-identically to an untuned prefetcher.
    """

    degree_scale: float = 1.0
    nta_bypass: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.degree_scale <= 1.0:
            raise ValueError("degree_scale must be in [0, 1]")


#: The identity tuning (see :class:`PrefetchTuning`).
DEFAULT_TUNING = PrefetchTuning()


class HardwarePrefetcher(ABC):
    """Base class for hardware prefetcher models."""

    #: name used in experiment reports
    name: str = "hw"

    #: Instance attributes that observing may change: the training state
    #: :meth:`checkpoint` copies.  Every subclass with such state lists it.
    _state_attrs: tuple[str, ...] = ()

    def __init__(self, utilisation: Callable[[], float] | None = None) -> None:
        self._utilisation = utilisation
        self._tuning = DEFAULT_TUNING

    @property
    def tuning(self) -> PrefetchTuning:
        """The currently applied dynamic tuning."""
        return self._tuning

    def apply_tuning(self, tuning: PrefetchTuning) -> None:
        """Reconfigure aggressiveness at a control-epoch boundary.

        Takes effect on the next :meth:`observe` call; composite models
        forward it to every component.
        """
        self._tuning = tuning

    def _request(self, line: int, fill_l2: bool = True) -> tuple[int, bool, bool]:
        """A ``(line, fill_l2, llc_bypass)`` request under the current tuning's NTA bypass."""
        return line, fill_l2, self._tuning.nta_bypass

    @abstractmethod
    def observe(self, pc: int, addr: int, line: int, l1_hit: bool) -> list[tuple[int, bool, bool]]:
        """React to one demand access; return ``(line, fill_l2, llc_bypass)`` requests."""

    def observe_batch(
        self,
        pcs: np.ndarray,
        addrs: np.ndarray,
        lines: np.ndarray,
        l1_hits: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Observe a run of demand accesses at once.

        Returns ``(ev, lines, fill_l2)``: for each issued request, the
        index of the triggering access within this batch (non-decreasing;
        requests for the same access appear in issue order), the target
        line, and whether it fills L2.  Must be equivalent to calling
        :meth:`observe` once per access in order while the throttle
        factor is 1.0 — this default calls it; subclasses override it
        with vectorized implementations.
        """
        ev: list[int] = []
        out_lines: list[int] = []
        fill: list[bool] = []
        observe = self.observe
        pcs_l = pcs.tolist()
        addrs_l = addrs.tolist()
        lines_l = lines.tolist()
        hits_l = l1_hits.tolist()
        for i in range(len(lines_l)):
            for req in observe(pcs_l[i], addrs_l[i], lines_l[i], hits_l[i]):
                ev.append(i)
                out_lines.append(req[0])
                fill.append(req[1])
        if not ev:
            return _EMPTY_BATCH
        return (
            np.asarray(ev, dtype=np.int64),
            np.asarray(out_lines, dtype=np.int64),
            np.asarray(fill, dtype=bool),
        )

    @property
    def batch_safe(self) -> bool:
        """Whether ``observe_batch`` is equivalent to an :meth:`observe` loop.

        The equivalence holds while the throttle factor is 1.0, the only
        factor a batched call applies: a throttled prefetcher stays
        batch-safe, and the caller must check that the utilisation it
        reads stayed at or below the 70 % knee (:func:`throttle_factor`).
        A coordinator-tuned prefetcher is not: the batched result tuple
        carries no bypass channel and tuning may change between epochs,
        so any non-default tuning forces the scalar path.
        """
        return self._tuning == DEFAULT_TUNING

    @property
    def throttled(self) -> bool:
        """Whether a utilisation callback scales this model's degree."""
        return self._utilisation is not None

    def throttled_only_by(self, utilisation: Callable[[], float]) -> bool:
        """Whether every utilisation callback this model reads is ``utilisation``.

        True for an unthrottled model.  Callbacks compare by ``==``, so
        two reads of one bound method (``bw.utilisation``) match.
        """
        return self._utilisation is None or self._utilisation == utilisation

    def checkpoint(self) -> list:
        """A deep copy of this model's training state, for :meth:`restore`."""
        # Attribute by attribute: reading ``vars(self)`` would cost every
        # later attribute access on this object (CPython then drops its
        # inline attribute values), and observe() reads several per call.
        return [copy.deepcopy(getattr(self, name)) for name in self._state_attrs]

    def restore(self, state: list) -> None:
        """Roll this model back to a :meth:`checkpoint`, in place.

        The checkpoint is consumed: restoring it twice is not supported.
        """
        for name, value in zip(self._state_attrs, state):
            setattr(self, name, value)

    def _throttle_factor(self) -> float:
        """Scale factor in [0, 1] applied to prefetch degree.

        Combines the shared utilisation back-off curve
        (:func:`throttle_factor`) with the coordinator's
        ``degree_scale``; at 0 models must issue nothing.  Without a
        utilisation callback or tuning it is always 1.
        """
        if self._utilisation is None:
            return self._tuning.degree_scale
        return self._tuning.degree_scale * throttle_factor(self._utilisation())


class NullPrefetcher(HardwarePrefetcher):
    """Hardware prefetching disabled (the paper's baseline)."""

    name = "none"

    def observe(self, pc: int, addr: int, line: int, l1_hit: bool) -> list[tuple[int, bool, bool]]:
        return []

    def observe_batch(
        self,
        pcs: np.ndarray,
        addrs: np.ndarray,
        lines: np.ndarray,
        l1_hits: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _EMPTY_BATCH
