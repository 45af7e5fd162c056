"""StatStack: statistical LRU cache modelling from sparse reuse samples.

Implementation of the model of Eklov & Hagersten (ISPASS 2010) used by
the paper (§IV) to turn sparsely sampled *reuse distances* into miss
ratios for caches of arbitrary size.

Theory
------
The *reuse distance* of an access is the number of memory references
(not necessarily unique) since the previous access to its cache line;
the *stack distance* is the number of **unique** lines touched in that
window, which is what determines an LRU hit (``stack distance < C`` for
a cache of ``C`` lines).

StatStack estimates the expected stack distance of a reuse window of
length ``d`` by asking, for each of the ``d`` intervening accesses, the
probability that its *own* next reuse jumps past the end of the window —
if it does, that access touches a line not seen again inside the window,
i.e. one unique line:

    sd(d) = sum_{j=0}^{d-1} P(RD > j)

``P(RD > j)`` is read off the sampled reuse-distance distribution, with
*dangling* samples (lines never re-accessed) counted as infinite.  The
miss ratio of a cache with ``C`` lines is then the fraction of accesses
whose expected stack distance reaches ``C``; per-instruction miss ratios
restrict the sample population to samples *ending* at that instruction
(their reuse determines that access's hit/miss), plus dangling samples
*starting* there (stream-out/cold accesses whose next touch never came).

The distribution is represented sparsely (unique distances + counts), so
model construction and evaluation are O(m log m) in the number of
*samples*, never in trace length — this is what makes StatStack usable
where functional simulation is "prohibitively slow" (paper §VIII-A).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import ModelError
from repro.sampling.reuse import ReuseSampleSet

__all__ = ["StatStackModel"]


class _TailIntegral:
    """Piecewise-linear integral of the reuse-distance tail probability.

    Stores ``G(d) = sum_{j=0}^{d-1} P(RD > j)`` as segment breakpoints
    plus slopes so ``sd(d)`` is an O(log m) lookup (vectorised via
    ``searchsorted``).
    """

    __slots__ = ("starts", "g_at_start", "slope")

    def __init__(self, finite_sorted: np.ndarray, n_dangling: int) -> None:
        n_finite = len(finite_sorted)
        total = n_finite + n_dangling
        if total == 0:
            raise ModelError("cannot build StatStack from zero samples")
        uniq, counts = np.unique(finite_sorted, return_counts=True)
        cum = np.cumsum(counts)
        # Segment i covers j in [starts[i], starts[i+1]) with constant
        # tail probability slope[i] = P(RD > j) on that range.
        starts = np.concatenate(([0], uniq + 1)).astype(np.float64)
        tails = np.concatenate(
            ([float(total)], float(total) - cum.astype(np.float64))
        )
        # Tail before the first unique distance: samples with RD >= 0
        # minus those smaller than the segment — for j < uniq[0], all
        # finite samples exceed j unless uniq[0] == 0.
        slope = tails / total
        g = np.zeros(len(starts))
        if len(starts) > 1:
            seg_len = np.diff(starts)
            g[1:] = np.cumsum(seg_len * slope[:-1])
        self.starts = starts
        self.g_at_start = g
        self.slope = slope

    def stack_distance(self, d: np.ndarray) -> np.ndarray:
        """Expected stack distance for reuse distance(s) ``d``.

        The forward function :meth:`inverse` inverts; tests check the
        inverse against it.
        """
        d = np.asarray(d, dtype=np.float64)
        seg = np.searchsorted(self.starts, d, side="right") - 1
        seg = np.clip(seg, 0, len(self.starts) - 1)
        return self.g_at_start[seg] + (d - self.starts[seg]) * self.slope[seg]

    def inverse(self, target_sd: float) -> float:
        """Smallest reuse distance whose expected stack distance ≥ target.

        Returns ``inf`` when the tail flattens out (pure dangling mass)
        before reaching the target.
        """
        if target_sd <= 0:
            return 0.0
        idx = int(np.searchsorted(self.g_at_start, target_sd, side="left"))
        if idx == 0:
            idx = 1
        if idx >= len(self.starts):
            # Beyond the last breakpoint the slope is the dangling mass.
            last_slope = self.slope[-1]
            if last_slope <= 0:
                return np.inf
            return float(
                self.starts[-1] + (target_sd - self.g_at_start[-1]) / last_slope
            )
        s = self.slope[idx - 1]
        if s <= 0:
            return float(self.starts[idx])
        return float(self.starts[idx - 1] + (target_sd - self.g_at_start[idx - 1]) / s)


class StatStackModel:
    """Fast statistical cache model over one application's reuse samples.

    Parameters
    ----------
    samples:
        Output of the reuse sampler
        (:class:`~repro.sampling.reuse.ReuseSampleSet`).
    line_bytes:
        Cache line size; converts cache sizes in bytes to line counts.
    """

    def __init__(self, samples: ReuseSampleSet, line_bytes: int = 64) -> None:
        if len(samples) == 0:
            raise ModelError("StatStack needs at least one reuse sample")
        if line_bytes <= 0 or line_bytes & (line_bytes - 1):
            raise ModelError("line_bytes must be a positive power of two")
        with obs.span("statstack.solve", samples=len(samples)):
            self._build(samples, line_bytes)

    def _build(self, samples: ReuseSampleSet, line_bytes: int) -> None:
        self.line_bytes = line_bytes
        finite = samples.finite_mask
        self._finite_sorted = np.sort(samples.distance[finite])
        self._n_dangling = samples.n_dangling
        self._total = len(samples)
        self._tail = _TailIntegral(self._finite_sorted, self._n_dangling)

        # Per-PC populations: finite samples keyed by *ending* PC,
        # dangling counts keyed by *starting* PC.
        self._pc_distances: dict[int, np.ndarray] = {}
        end_pcs = samples.end_pc[finite]
        dists = samples.distance[finite]
        order = np.argsort(end_pcs, kind="stable")
        sorted_pcs = end_pcs[order]
        sorted_d = dists[order]
        bounds = np.flatnonzero(np.diff(sorted_pcs)) + 1
        for chunk_pc, chunk in zip(
            np.split(sorted_pcs, bounds), np.split(sorted_d, bounds)
        ):
            if len(chunk_pc):
                self._pc_distances[int(chunk_pc[0])] = np.sort(chunk)

        self._pc_dangling: dict[int, int] = {}
        dang_pcs, dang_counts = np.unique(
            samples.start_pc[~finite], return_counts=True
        )
        for pc, cnt in zip(dang_pcs.tolist(), dang_counts.tolist()):
            self._pc_dangling[pc] = cnt

    # ------------------------------------------------------------------
    # core queries
    # ------------------------------------------------------------------

    def _critical_reuse_distance(self, cache_bytes: int) -> float:
        """Reuse distance at which the expected stack distance fills the cache."""
        if cache_bytes <= 0:
            raise ModelError("cache_bytes must be positive")
        cache_lines = cache_bytes / self.line_bytes
        return self._tail.inverse(cache_lines)

    def miss_ratio(self, cache_bytes: int) -> float:
        """Modelled miss ratio of the whole application at ``cache_bytes``."""
        d_crit = self._critical_reuse_distance(cache_bytes)
        if np.isinf(d_crit):
            misses = self._n_dangling
        else:
            idx = int(np.searchsorted(self._finite_sorted, d_crit, side="left"))
            misses = (len(self._finite_sorted) - idx) + self._n_dangling
        return misses / self._total

    def pc_miss_ratio(self, pc: int, cache_bytes: int) -> float:
        """Modelled miss ratio of one instruction at ``cache_bytes``."""
        dists = self._pc_distances.get(pc)
        dangling = self._pc_dangling.get(pc, 0)
        n = (0 if dists is None else len(dists)) + dangling
        if n == 0:
            return 0.0
        d_crit = self._critical_reuse_distance(cache_bytes)
        if np.isinf(d_crit) or dists is None:
            misses = dangling
        else:
            idx = int(np.searchsorted(dists, d_crit, side="left"))
            misses = (len(dists) - idx) + dangling
        return misses / n

    # ------------------------------------------------------------------
    # populations
    # ------------------------------------------------------------------

    def modelled_pcs(self) -> list[int]:
        """PCs with at least one sample (sorted)."""
        pcs = set(self._pc_distances) | set(self._pc_dangling)
        return sorted(pcs)

    def pc_sample_count(self, pc: int) -> int:
        """Number of samples informing one PC's miss ratio."""
        dists = self._pc_distances.get(pc)
        return (0 if dists is None else len(dists)) + self._pc_dangling.get(pc, 0)

    def pc_sample_weight(self, pc: int) -> float:
        """Fraction of all samples attributed to ``pc``.

        Because sampling is uniform over references, this estimates the
        fraction of dynamic memory accesses issued by the instruction —
        used to scale per-PC miss ratios into absolute miss counts.
        """
        return self.pc_sample_count(pc) / self._total

    @property
    def n_samples(self) -> int:
        return self._total
