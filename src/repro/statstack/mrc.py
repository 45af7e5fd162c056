"""Miss-ratio-curve objects built on top of the StatStack model.

A :class:`MissRatioCurve` is the paper's Figure 3 artefact: miss ratio as
a function of cache size, either for a whole application or for a single
instruction.  The bypass analysis (paper §VI-B) asks a *shape* question
of these curves — "does the curve drop between the L1 and LLC points?" —
so the class exposes interpolation and drop/flatness helpers rather than
raw arrays only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.config import MachineConfig
from repro.errors import ModelError
from repro.statstack.model import StatStackModel

__all__ = ["MissRatioCurve", "PerPCMissRatios", "default_size_grid"]


def default_size_grid(
    min_bytes: int = 8 * 1024,
    max_bytes: int = 8 * 1024 * 1024,
    points_per_octave: int = 1,
) -> np.ndarray:
    """Log-spaced cache sizes, 8 kB–8 MB by default (paper Fig. 3 x-axis)."""
    if min_bytes <= 0 or max_bytes < min_bytes:
        raise ModelError("invalid size-grid bounds")
    n_oct = int(np.log2(max_bytes / min_bytes) * points_per_octave)
    return (min_bytes * 2 ** (np.arange(n_oct + 1) / points_per_octave)).astype(np.int64)


@dataclass(frozen=True)
class MissRatioCurve:
    """Miss ratio sampled at a set of cache sizes.

    ``sizes_bytes`` must be strictly increasing; ``ratios`` are in
    ``[0, 1]`` and (for LRU) non-increasing, although small statistical
    wiggles from sampling are tolerated by consumers.
    """

    sizes_bytes: np.ndarray
    ratios: np.ndarray

    def __post_init__(self) -> None:
        sizes = np.asarray(self.sizes_bytes, dtype=np.int64)
        ratios = np.asarray(self.ratios, dtype=np.float64)
        if len(sizes) != len(ratios) or len(sizes) == 0:
            raise ModelError("curve needs equal-length, non-empty arrays")
        if np.any(np.diff(sizes) <= 0):
            raise ModelError("sizes must be strictly increasing")
        if ratios.min() < -1e-9 or ratios.max() > 1 + 1e-9:
            raise ModelError("ratios must lie in [0, 1]")
        object.__setattr__(self, "sizes_bytes", sizes)
        object.__setattr__(self, "ratios", ratios)

    def at(self, size_bytes: int) -> float:
        """Miss ratio at an arbitrary size (log-linear interpolation)."""
        if size_bytes <= 0:
            raise ModelError("size_bytes must be positive")
        return float(
            np.interp(
                np.log2(size_bytes),
                np.log2(self.sizes_bytes.astype(np.float64)),
                self.ratios,
            )
        )

    def doubling_gain(self, share_bytes: float) -> float:
        """Relative miss-ratio drop if a cache share of ``share_bytes`` doubled.

        A coordinator reads it as a core's LLC marginal utility.  The
        share is floored at 64 KiB, above the curve's grid floor, so a
        starved application still reads as cache-hungry rather than
        (spuriously) flat.
        """
        lo = max(int(share_bytes), 65536)
        return max(0.0, 1.0 - self.at(2 * lo) / max(self.at(lo), 1e-12))

    def drop_between(self, small_bytes: int, large_bytes: int) -> float:
        """Absolute miss-ratio drop from ``small`` to ``large`` size.

        Sampled curves can wiggle upward by a hair between sizes (the
        "small statistical wiggles" tolerated above), which would make
        the raw difference negative; a real LRU drop is never below
        zero, so the result is clamped at 0 — otherwise a noisy-but-flat
        curve could pass a ``drop > threshold`` test with the *sign* of
        the comparison flipped at call sites that negate it.
        """
        if large_bytes < small_bytes:
            raise ModelError("large_bytes must be >= small_bytes")
        return max(0.0, self.at(small_bytes) - self.at(large_bytes))

    def _aligned_ratios(self, other: "MissRatioCurve") -> np.ndarray:
        """``other``'s ratios sampled on this curve's size grid."""
        if np.array_equal(self.sizes_bytes, other.sizes_bytes):
            return other.ratios
        return np.array([other.at(int(s)) for s in self.sizes_bytes])

    def linf_distance(self, other: "MissRatioCurve") -> float:
        """Largest absolute miss-ratio gap to ``other`` over this grid.

        The conformance harness' headline number: how far the modelled
        curve strays from ground truth at its worst size (paper Fig. 3
        eyeballs exactly this).  ``other`` is interpolated onto this
        curve's size grid when the grids differ.
        """
        return float(np.max(np.abs(self.ratios - self._aligned_ratios(other))))

    def l1_distance(self, other: "MissRatioCurve") -> float:
        """Mean absolute miss-ratio gap to ``other`` over this grid."""
        return float(np.mean(np.abs(self.ratios - self._aligned_ratios(other))))

    def is_monotone_nonincreasing(self, tolerance: float = 1e-9) -> bool:
        """True when the curve never rises by more than ``tolerance``.

        An exact LRU miss-ratio curve is non-increasing in cache size
        (the stack property); sampled model curves may wiggle within
        ``tolerance``.
        """
        if len(self.ratios) < 2:
            return True
        return bool(np.all(np.diff(self.ratios) <= tolerance))

    def is_flat_between(
        self, small_bytes: int, large_bytes: int, tolerance: float = 0.05
    ) -> bool:
        """True when the curve barely drops between the two sizes.

        The bypass analysis uses this with (L1 size, LLC size): a flat
        curve means the instruction does not reuse data out of the outer
        cache levels, so its lines can bypass them.  ``tolerance`` is
        *relative* to the miss ratio at the small size (a curve going
        from 40 % to 38 % is flat; 2 % to 0 % is not).
        """
        small = self.at(small_bytes)
        if small <= 0.0:
            return True
        return self.drop_between(small_bytes, large_bytes) <= tolerance * small


class PerPCMissRatios:
    """Per-instruction miss ratio curves for one application.

    Built from a :class:`~repro.statstack.model.StatStackModel`; offers
    the queries the MDDLI and bypass passes need, including the paper's
    Fig. 3 per-size sweeps for any instruction.
    """

    def __init__(
        self,
        model: StatStackModel,
        machine: MachineConfig,
        size_grid: np.ndarray | None = None,
    ) -> None:
        self.model = model
        self.machine = machine
        self.size_grid = (
            size_grid if size_grid is not None else default_size_grid()
        )

    def application_curve(self) -> MissRatioCurve:
        """Whole-application miss ratio curve over the size grid."""
        with obs.span("statstack.mrc", sizes=len(self.size_grid)):
            ratios = np.array(
                [self.model.miss_ratio(int(s)) for s in self.size_grid]
            )
            return MissRatioCurve(self.size_grid, ratios)

    def pc_curve(self, pc: int) -> MissRatioCurve:
        """One instruction's miss ratio curve over the size grid."""
        ratios = np.array(
            [self.model.pc_miss_ratio(pc, int(s)) for s in self.size_grid]
        )
        return MissRatioCurve(self.size_grid, ratios)

    def pc_level_ratios(self, pc: int) -> tuple[float, float, float]:
        """(L1, L2, LLC) miss ratios of one instruction on this machine."""
        return (
            self.model.pc_miss_ratio(pc, self.machine.l1.size_bytes),
            self.model.pc_miss_ratio(pc, self.machine.l2.size_bytes),
            self.model.pc_miss_ratio(pc, self.machine.llc.size_bytes),
        )

    def modelled_pcs(self) -> list[int]:
        """All instructions with sample support."""
        return self.model.modelled_pcs()
