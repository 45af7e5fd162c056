"""Array-native exact set-associative LRU cache (the "fast" backend).

:class:`FastLRUCache` keeps the whole cache state in three NumPy
matrices of shape ``(num_sets, ways)``:

* ``tags``  — resident line number per way (``-1`` = empty);
* ``stamp`` — monotone access timestamp per way (``-1`` = empty), so the
  LRU victim of a set is simply ``argmin(stamp)`` over the row and
  empty ways are filled before anything is evicted;
* ``flags`` — the same per-line metadata bits as
  :class:`~repro.cachesim.lru.LRUCache`.

The cache has no per-access API: it is driven by batches only.
:meth:`access_batch` simulates a whole *array* of accesses under the
uniform "probe-and-promote, install on miss" semantics of the
functional simulator in one call, and :meth:`ops_batch` replays the
hierarchy's heterogeneous op streams.

Batch algorithm — set-wavefront
-------------------------------

Accesses to different sets are independent, and LRU order within a set
depends only on the *relative* order of that set's accesses.  So the
batch kernel groups the access stream by set (one stable ``argsort``)
and then processes *rounds*: round ``r`` handles the ``r``-th access of
every set simultaneously with a handful of vectorised operations
(an equality matrix against the gathered tag rows for hit detection, a
batched ``argmin`` over the stamp rows for eviction).  Timestamps are
the original trace positions, which preserves per-set access order, so
the result is bit-identical to the reference simulator — the
differential suite (``tests/test_sim_backend_diff.py``) enforces this.

A trace of ``n`` events over ``S`` populated sets costs ``O(n/S)``
rounds of ``O(S·W)`` array work.  Rounds run in bands of 256; when a
band would start with too few active sets for array work to pay off
(skewed traces, caches with few sets such as the Intel L1), the kernel
copies the remaining sets into a dict cache, replays the remaining ops
there with :meth:`LRUCache.ops_batch
<repro.cachesim.lru.LRUCache.ops_batch>` — the reference cache's own
loop — and writes the sets back.  Exactness is never traded for speed.
"""

from __future__ import annotations

import numpy as np

from repro.cachesim.lru import (
    FLAG_DIRTY,
    OP_DEMAND,
    OP_FILL,
    OP_INVAL,
    OP_LOOKUP,
    OP_PFILL,
    OP_PROBE,
    OP_TOUCH,
    LRUCache,
)
from repro.config import CacheConfig
from repro.errors import SimulationError

__all__ = [
    "FastLRUCache",
    "OP_DEMAND",
    "OP_FILL",
    "OP_PFILL",
    "OP_PROBE",
    "OP_TOUCH",
    "OP_LOOKUP",
    "OP_INVAL",
]

#: Tag value marking an empty way.
EMPTY = -1

#: Per-kind behaviour on a hit, indexed by op kind.
_PROMOTES = np.array([1, 0, 1, 0, 0, 1, 0], dtype=bool)
_ORS_FLAGS = np.array([1, 0, 0, 0, 1, 0, 0], dtype=bool)

#: Minimum number of active sets at the start of a 256-round band for
#: the band to run as wavefront rounds; below it the batch kernel
#: finishes on dict sets (:meth:`FastLRUCache._dict_tail`).  A round
#: costs a roughly fixed ~25 numpy dispatches regardless of width, so it
#: only amortises when it retires at least ~100 ops; skewed workloads (a
#: few hot sets absorbing most accesses) otherwise drag the wavefront
#: through thousands of narrow rounds that the dict loop handles at
#: ~1 µs/op.  Rounds that narrow below it inside a band still stay
#: vector rounds: cutting at the first narrow round instead moved 19,630
#: of the 408,767 ops of a seed-0 ``sw-rewrite`` cell-benchmark pass to
#: the dict loop and raised its ``ops_batch`` CPU from 0.18 to 0.26 s
#: (``docs/performance.md``, "The dict tail").  A level with fewer sets
#: (the Intel L1's 64) can never start a band, so both kernels send its
#: whole batch to the dict tail without sorting it by set first.
MIN_WAVEFRONT_SETS = 128


class FastLRUCache:
    """Exact set-associative LRU over NumPy state matrices.

    Batch counterpart of :class:`~repro.cachesim.lru.LRUCache`: its
    :meth:`ops_batch` gives the same hit/miss decisions, eviction
    victims and flags as ``LRUCache.ops_batch`` on the same stream, and
    :meth:`access_batch` serves the functional simulator's fast
    backend.  A level that must run per access moves into an
    ``LRUCache`` first (:meth:`to_lru`).
    """

    __slots__ = ("config", "ways", "tags", "stamp", "flags", "_set_mask", "_clock")

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.ways = config.ways
        n_sets = config.num_sets
        self.tags = np.full((n_sets, config.ways), EMPTY, dtype=np.int64)
        self.stamp = np.full((n_sets, config.ways), EMPTY, dtype=np.int64)
        self.flags = np.zeros((n_sets, config.ways), dtype=np.int64)
        self._set_mask = n_sets - 1
        self._clock = 0

    # ------------------------------------------------------------------
    # batch kernel
    # ------------------------------------------------------------------

    def access_batch(
        self, lines: np.ndarray, collect_victims: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Simulate an ordered stream of accesses in one call.

        Every access probes its set; a hit promotes the line to MRU, a
        miss installs it (evicting the LRU way of a full set).  This is
        the access semantics of the functional simulator for both
        demand and (post prefetch-recency fix) prefetch events.

        A 2-way cache (the AMD L1) takes a round-free closed form
        (:meth:`_access_batch_2way`); every other geometry, direct-mapped
        included, runs set-wavefront rounds and the dict tail, or only
        the dict tail when it has too few sets for a band.

        Returns ``(miss, victims)``: a boolean per-access miss vector
        and, when ``collect_victims``, the evicted line numbers in
        program order (empty array otherwise).
        """
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        n = len(lines)
        miss = np.zeros(n, dtype=bool)
        if n == 0:
            return miss, np.empty(0, dtype=np.int64)
        sets = lines & self._set_mask
        if self.ways == 2:
            return self._access_batch_2way(lines, sets, miss, collect_victims)
        if self.config.num_sets < MIN_WAVEFRONT_SETS:
            # Too few sets for any band (the Intel L1): all on dict sets.
            hit, _, _, vic_line, _ = self._dict_tail(
                np.arange(n),
                lines,
                np.full(n, OP_DEMAND, dtype=np.uint8),
                np.zeros(n, dtype=np.int64),
                self._clock + n,
            )
            self._clock += n
            return ~hit, vic_line if collect_victims else np.empty(0, dtype=np.int64)
        # Set indices fit in 16 bits for every realistic geometry; the
        # narrower key radix-sorts in half the passes.
        key = sets.astype(np.uint16) if self._set_mask < (1 << 16) else sets
        order = np.argsort(key, kind="stable")
        sorted_sets = sets[order]
        uniq, start, counts = np.unique(
            sorted_sets, return_index=True, return_counts=True
        )
        clock = self._clock
        vic_pos: list[np.ndarray] = []
        vic_line: list[np.ndarray] = []

        # Touched sets become *columns*, ordered by access count
        # descending, so the sets still active at round ``r`` are always
        # a prefix — every per-round operand is a contiguous slice.
        n_groups = len(uniq)
        gorder = np.argsort(-counts, kind="stable")
        uniq_d = uniq[gorder]
        counts_d = counts[gorder]
        max_rounds = int(counts_d[0])
        # Active-column count per round: counts_d > r, prefix length.
        ks = np.searchsorted(-counts_d, -np.arange(1, max_rounds + 1), side="right")
        # Per-event round number and column, in sorted-by-set order.
        ranks = np.arange(n) - np.repeat(start, counts)
        inv = np.empty(n_groups, dtype=np.int64)
        inv[gorder] = np.arange(n_groups)
        col_sorted = np.repeat(inv, counts)

        # Working copy of the touched sets' state, in column order, so
        # round bodies index it directly instead of gathering rows.
        wtags = self.tags[uniq_d]
        wstamp = self.stamp[uniq_d]
        # A miss installs with flags 0 and a hit keeps the line's own, so
        # rounds over flag-free sets (every functional run) skip them.
        wflags = self.flags[uniq_d]
        flagged = bool(wflags.any())

        r_stop = 0
        band = 256
        while r_stop < max_rounds:
            k0 = int(ks[r_stop])
            if k0 < MIN_WAVEFRONT_SETS:
                break
            depth = min(band, max_rounds - r_stop)
            in_band = (ranks >= r_stop) & (ranks < r_stop + depth)
            rows = ranks[in_band] - r_stop
            cols = col_sorted[in_band]
            pos_band = order[in_band]
            posm = np.full((depth, k0), -1, dtype=np.int64)
            linesm = np.empty((depth, k0), dtype=np.int64)
            hitm = np.zeros((depth, k0), dtype=bool)
            posm[rows, cols] = pos_band
            linesm[rows, cols] = lines[pos_band]
            stampm = posm + clock
            ar = np.arange(k0)
            for r, k in enumerate(ks[r_stop:r_stop + depth].tolist()):
                line_r = linesm[r, :k]
                eq = wtags[:k] == line_r[:, None]
                way = eq.argmax(axis=1)
                hit = eq[ar[:k], way]
                vway = wstamp[:k].argmin(axis=1)
                fway = np.where(hit, way, vway)
                if collect_victims:
                    displaced = wtags[ar[:k], fway]
                    evict = ~hit & (displaced != EMPTY)
                    if evict.any():
                        vic_pos.append(posm[r, :k][evict])
                        vic_line.append(displaced[evict])
                # On a hit the selected way already holds the line, so
                # the tag write is an unconditional no-op there.
                wtags[ar[:k], fway] = line_r
                wstamp[ar[:k], fway] = stampm[r, :k]
                if flagged:
                    wflags[ar[:k], fway] *= hit
                hitm[r, :k] = hit
            miss[pos_band] = ~hitm[rows, cols]
            r_stop += depth

        self.tags[uniq_d] = wtags
        self.stamp[uniq_d] = wstamp
        if flagged:
            self.flags[uniq_d] = wflags
        if r_stop < max_rounds:
            pos = np.sort(order[ranks >= r_stop])
            demand = np.full(len(pos), OP_DEMAND, dtype=np.uint8)
            t_hit, _, t_pos, t_line, _ = self._dict_tail(
                pos, lines[pos], demand, np.zeros(len(pos), dtype=np.int64), clock + n
            )
            miss[pos] = ~t_hit
            vic_pos.append(t_pos)
            vic_line.append(t_line)

        self._clock = clock + n
        if not collect_victims or not vic_pos:
            return miss, np.empty(0, dtype=np.int64)
        pos_all = np.concatenate(vic_pos)
        line_all = np.concatenate(vic_line)
        return miss, line_all[np.argsort(pos_all, kind="stable")]

    def _access_batch_2way(
        self,
        lines: np.ndarray,
        sets: np.ndarray,
        miss: np.ndarray,
        collect_victims: bool,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Round-free batch path for 2-way caches (the AMD L1 geometry).

        With two ways and promote-on-hit LRU, the state of a set before
        access ``i`` of its subsequence is fully determined by the line
        stream: the MRU line is the previous access's line, and the LRU
        line is the most recent *differing* line (or the pre-batch
        residents near the front of the subsequence).  Run boundaries
        (``maximum.accumulate`` over change points) give the "most
        recent differing line" for every access at once, so the whole
        batch collapses to ~30 O(n) vector passes — no rounds.
        """
        n = len(lines)
        key = sets.astype(np.uint16) if self._set_mask < (1 << 16) else sets
        order = np.argsort(key, kind="stable")
        ss = sets[order]
        ls = lines[order]
        idx = np.arange(n)
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(ss[1:], ss[:-1], out=first[1:])
        ls_prev = np.empty(n, dtype=np.int64)
        ls_prev[0] = EMPTY
        ls_prev[1:] = ls[:-1]
        # Group starts and line-run starts, per sorted position.
        gs = np.maximum.accumulate(np.where(first, idx, 0))
        change = first | (ls != ls_prev)
        rs = np.maximum.accumulate(np.where(change, idx, 0))

        # Pre-batch (MRU, LRU) residents of every touched set, spread to
        # per-access arrays through the group-start index.
        sets_f = ss[first]
        t0 = self.tags[sets_f, 0]
        t1 = self.tags[sets_f, 1]
        s0 = self.stamp[sets_f, 0]
        s1 = self.stamp[sets_f, 1]
        one_is_mru = s1 > s0
        mru0 = np.where(one_is_mru, t1, t0)
        lru0 = np.where(one_is_mru, t0, t1)
        # LRU resident after the group's *first* access: a hit on the
        # old MRU leaves the old LRU in place; anything else (hit on the
        # old LRU, or a miss evicting / filling past it) demotes the old
        # MRU.
        l0 = ls[first]
        pre_lru = np.where(l0 == mru0, lru0, mru0)
        spread = np.empty(n, dtype=np.int64)
        spread[first] = pre_lru
        pre_lru_acc = spread[gs]

        # State before access i: MRU = previous access's line, LRU = the
        # line of the run preceding i-1's run (i.e. the most recent line
        # that differs from the MRU), falling back to the pre-batch
        # residents when the whole group prefix is one run.
        rs_prev = np.empty(n, dtype=np.int64)
        rs_prev[0] = 0
        rs_prev[1:] = rs[:-1]
        has_diff = rs_prev > gs
        last_diff = ls[np.maximum(rs_prev - 1, 0)]
        mru_b = ls_prev.copy()
        mru_b[first] = mru0
        lru_b = np.where(has_diff, last_diff, pre_lru_acc)
        lru_b[first] = lru0
        hit = (ls == mru_b) | (ls == lru_b)
        miss[order] = ~hit
        victims = np.empty(0, dtype=np.int64)
        if collect_victims:
            # A miss evicts the LRU resident (when the set is full): for
            # a full 2-way set that is exactly ``lru_b``.
            evict = ~hit & (lru_b != EMPTY) & (mru_b != EMPTY)
            vpos = order[evict]
            victims = lru_b[evict][np.argsort(vpos, kind="stable")]

        # Write back the final state of every touched set.
        last = np.empty(n, dtype=bool)
        last[:-1] = first[1:]
        last[-1] = True
        e = idx[last]
        sets_l = ss[last]
        mru_f = ls[last]
        rs_l = rs[last]
        has_diff_f = rs_l > gs[last]
        q_e = np.maximum(rs_l - 1, 0)
        lru_f = np.where(has_diff_f, ls[q_e], pre_lru)
        old_lru_stamp = np.where(l0 == mru0, np.minimum(s0, s1), np.maximum(s0, s1))
        clock = self._clock
        lru_f_stamp = np.where(has_diff_f, clock + order[q_e], old_lru_stamp)
        self.tags[sets_l, 0] = mru_f
        self.stamp[sets_l, 0] = clock + order[e]
        self.tags[sets_l, 1] = lru_f
        self.stamp[sets_l, 1] = lru_f_stamp
        f_pre = self.flags[sets_f]
        if f_pre.any():
            # A miss installs with flags 0, so a final resident keeps its
            # own flags only if it was a pre-batch resident none of whose
            # accesses missed (one that was evicted must miss to return).
            missed = ~hit
            gid = (np.cumsum(first) - 1)[missed]
            ml = ls[missed]
            lost_mru = np.zeros(len(sets_f), dtype=bool)
            lost_lru = np.zeros(len(sets_f), dtype=bool)
            lost_mru[gid[ml == mru0[gid]]] = True
            lost_lru[gid[ml == lru0[gid]]] = True
            kept_mru = np.where(lost_mru, 0, np.where(one_is_mru, f_pre[:, 1], f_pre[:, 0]))
            kept_lru = np.where(lost_lru, 0, np.where(one_is_mru, f_pre[:, 0], f_pre[:, 1]))
            for way, line in enumerate((mru_f, lru_f)):
                self.flags[sets_l, way] = np.where(
                    line == mru0, kept_mru, np.where(line == lru0, kept_lru, 0)
                )
        self._clock = clock + n
        return miss, victims

    # ------------------------------------------------------------------
    # heterogeneous-op batch kernel (cache-hierarchy fast path)
    # ------------------------------------------------------------------

    def ops_batch(
        self,
        lines: np.ndarray,
        kinds: np.ndarray,
        oflags: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Apply an ordered stream of heterogeneous cache operations.

        Generalisation of :meth:`access_batch` for the hierarchy's fast
        path: every element of the stream carries an op kind (see
        :data:`~repro.cachesim.lru.OP_DEMAND` …) and a flags word, so one
        call replays the exact scalar sequence a cache level sees — demand lookups,
        prefetch fills and lookups, residency probes, dirty touches and
        invalidations — with the same set-wavefront rounds and the same
        dict tail (:meth:`_dict_tail`) as the homogeneous kernel.

        Returns ``(hit, prior, vic_idx, vic_line, vic_flags)``:

        * ``hit``      — per-op residency at probe time;
        * ``prior``    — the line's flags word *before* the op (0 on
          miss), for useful-prefetch accounting;
        * ``vic_idx`` / ``vic_line`` / ``vic_flags`` — evictions in
          stream order: the index of the op that installed over the
          victim, the victim line, and its flags at eviction.
        """
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        kinds = np.ascontiguousarray(kinds, dtype=np.uint8)
        oflags = np.ascontiguousarray(oflags, dtype=np.int64)
        n = len(lines)
        hit = np.zeros(n, dtype=bool)
        prior = np.zeros(n, dtype=np.int64)
        empty_i = np.empty(0, dtype=np.int64)
        if n == 0:
            return hit, prior, empty_i, empty_i, empty_i
        if self.ways == 2 and n > 2 and not (kinds > OP_FILL).any():
            # Demand and fill stream on a 2-way cache (the L1 geometry of
            # the paper's AMD machine): round-free run-level algorithm.
            return self._ops_demand_2way(lines, kinds, oflags, hit, prior)
        if self.config.num_sets < MIN_WAVEFRONT_SETS:
            # Too few sets for any band (the Intel L1): all on dict sets.
            result = self._dict_tail(np.arange(n), lines, kinds, oflags, self._clock + n)
            self._clock += n
            return result
        sets = lines & self._set_mask
        key = sets.astype(np.uint16) if self._set_mask < (1 << 16) else sets
        order = np.argsort(key, kind="stable")
        sorted_sets = sets[order]
        uniq, start, counts = np.unique(
            sorted_sets, return_index=True, return_counts=True
        )
        clock = self._clock
        vic_i: list[np.ndarray] = []
        vic_l: list[np.ndarray] = []
        vic_f: list[np.ndarray] = []

        n_groups = len(uniq)
        gorder = np.argsort(-counts, kind="stable")
        uniq_d = uniq[gorder]
        counts_d = counts[gorder]
        max_rounds = int(counts_d[0])
        ks = np.searchsorted(-counts_d, -np.arange(1, max_rounds + 1), side="right")
        ranks = np.arange(n) - np.repeat(start, counts)
        inv = np.empty(n_groups, dtype=np.int64)
        inv[gorder] = np.arange(n_groups)
        col_sorted = np.repeat(inv, counts)

        wtags = self.tags[uniq_d]
        wstamp = self.stamp[uniq_d]
        wflags = self.flags[uniq_d]
        any_inval = bool((kinds == OP_INVAL).any())

        r_stop = 0
        band = 256
        while r_stop < max_rounds:
            k0 = int(ks[r_stop])
            if k0 < MIN_WAVEFRONT_SETS:
                break
            depth = min(band, max_rounds - r_stop)
            in_band = (ranks >= r_stop) & (ranks < r_stop + depth)
            rows = ranks[in_band] - r_stop
            cols = col_sorted[in_band]
            pos_band = order[in_band]
            posm = np.full((depth, k0), -1, dtype=np.int64)
            linesm = np.empty((depth, k0), dtype=np.int64)
            # Inactive cells default to a pure probe of an impossible
            # line, so round bodies need no activity masking.
            kindm = np.full((depth, k0), OP_PROBE, dtype=np.uint8)
            flagm = np.zeros((depth, k0), dtype=np.int64)
            hitm = np.zeros((depth, k0), dtype=bool)
            priorm = np.zeros((depth, k0), dtype=np.int64)
            posm[rows, cols] = pos_band
            linesm[rows, cols] = lines[pos_band]
            kindm[rows, cols] = kinds[pos_band]
            flagm[rows, cols] = oflags[pos_band]
            stampm = posm + clock
            ar = np.arange(k0)
            for r, k in enumerate(ks[r_stop:r_stop + depth].tolist()):
                a = ar[:k]
                line_r = linesm[r, :k]
                kind_r = kindm[r, :k]
                of_r = flagm[r, :k]
                eq = wtags[:k] == line_r[:, None]
                way = eq.argmax(axis=1)
                h = eq[a, way]
                hitm[r, :k] = h
                if h.any():
                    hv = a[h]
                    hw = way[h]
                    priorm[r, :k][h] = wflags[hv, hw]
                    orm = h & _ORS_FLAGS[kind_r]
                    if orm.any():
                        ov = a[orm]
                        ow = way[orm]
                        wflags[ov, ow] |= of_r[orm]
                    prom = h & _PROMOTES[kind_r]
                    if prom.any():
                        pv = a[prom]
                        wstamp[pv, way[prom]] = stampm[r, :k][prom]
                    if any_inval:
                        inv = h & (kind_r == OP_INVAL)
                        xv = a[inv]
                        xw = way[inv]
                        wtags[xv, xw] = EMPTY
                        wstamp[xv, xw] = EMPTY
                        wflags[xv, xw] = 0
                inst = ~h & (kind_r <= OP_PFILL)
                if inst.any():
                    vway = wstamp[:k].argmin(axis=1)
                    iv = a[inst]
                    ivw = vway[inst]
                    displaced = wtags[iv, ivw]
                    evict = displaced != EMPTY
                    if evict.any():
                        vic_i.append(posm[r, :k][inst][evict])
                        vic_l.append(displaced[evict])
                        vic_f.append(wflags[iv, ivw][evict])
                    wtags[iv, ivw] = line_r[inst]
                    wflags[iv, ivw] = of_r[inst]
                    wstamp[iv, ivw] = stampm[r, :k][inst]
            hit[pos_band] = hitm[rows, cols]
            prior[pos_band] = priorm[rows, cols]
            r_stop += depth

        self.tags[uniq_d] = wtags
        self.stamp[uniq_d] = wstamp
        self.flags[uniq_d] = wflags
        if r_stop < max_rounds:
            pos = np.sort(order[ranks >= r_stop])
            hit[pos], prior[pos], t_idx, t_line, t_flags = self._dict_tail(
                pos, lines[pos], kinds[pos], oflags[pos], clock + n
            )
            vic_i.append(t_idx)
            vic_l.append(t_line)
            vic_f.append(t_flags)

        self._clock = clock + n
        if not vic_i:
            return hit, prior, empty_i, empty_i, empty_i
        idx_all = np.concatenate(vic_i)
        line_all = np.concatenate(vic_l)
        flag_all = np.concatenate(vic_f)
        vorder = np.argsort(idx_all, kind="stable")
        return hit, prior, idx_all[vorder], line_all[vorder], flag_all[vorder]

    def _ops_demand_2way(
        self,
        lines: np.ndarray,
        kinds: np.ndarray,
        oflags: np.ndarray,
        hit: np.ndarray,
        prior: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Round-free ``OP_DEMAND``/``OP_FILL`` kernel for 2-way caches.

        Extends the :meth:`_access_batch_2way` run decomposition to the
        full :meth:`ops_batch` contract.  Group each set's accesses into
        *runs* of equal consecutive lines; then, before run ``j`` of a
        group, the MRU line is run ``j-1``'s line and the LRU line is
        run ``j-2``'s (with the pre-batch residents seeding ``j < 2``).
        Hence every non-first access of a run hits, a run's first access
        hits iff its line equals run ``j-2``'s, and a miss evicts run
        ``j-2``'s line.

        Flag words ride along *survival chains*: a hit at run ``j``
        continues the line's flags from run ``j-2``, a miss restarts
        them at the installing op's flags.  Chains therefore live inside
        the even/odd run subsequences of each group, and each flag bit
        reduces to a ``maximum.accumulate`` reachability scan at run
        level — no sequential rounds anywhere.

        A fill that hits is a no-op: inside a run, or on the pre-batch
        MRU line, the run view already holds, so only its flags are left
        out.  A fill that misses installs like a demand miss.  A fill
        that hits the LRU way does not promote it, which the run view
        cannot express; every op of such a set before its first such
        fill ran on exact state, so the first one is always detected.
        Those sets skip the write-back and are replayed from their
        pre-batch rows on dict sets (:meth:`_dict_tail`).
        """
        n = len(lines)
        sets = lines & self._set_mask
        key = sets.astype(np.uint16) if self._set_mask < (1 << 16) else sets
        order = np.argsort(key, kind="stable")
        ss = sets[order]
        ls = lines[order]
        of = oflags[order]
        idx = np.arange(n)
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(ss[1:], ss[:-1], out=first[1:])
        ls_prev = np.empty(n, dtype=np.int64)
        ls_prev[0] = EMPTY
        ls_prev[1:] = ls[:-1]
        change = first | (ls != ls_prev)
        rs = np.maximum.accumulate(np.where(change, idx, 0))

        # ---- run-level view ------------------------------------------
        rsi = np.nonzero(change)[0]
        n_runs = len(rsi)
        run_line = ls[rsi]
        run_first = first[rsi]
        run_pos0 = order[rsi]
        run_ar = np.arange(n_runs)
        gfr = np.maximum.accumulate(np.where(run_first, run_ar, 0))
        rj = run_ar - gfr

        # ---- pre-batch residents per group ---------------------------
        sets_f = ss[first]
        t0 = self.tags[sets_f, 0]
        t1 = self.tags[sets_f, 1]
        s0 = self.stamp[sets_f, 0]
        s1 = self.stamp[sets_f, 1]
        f0 = self.flags[sets_f, 0]
        f1 = self.flags[sets_f, 1]
        one_is_mru = s1 > s0
        mru0 = np.where(one_is_mru, t1, t0)
        lru0 = np.where(one_is_mru, t0, t1)
        f_mru0 = np.where(one_is_mru, f1, f0)
        f_lru0 = np.where(one_is_mru, f0, f1)
        l0 = run_line[run_first]
        hit_mru0 = l0 == mru0
        pre_lru = np.where(hit_mru0, lru0, mru0)
        f_pre = np.where(hit_mru0, f_lru0, f_mru0)
        old_lru_stamp = np.where(hit_mru0, np.minimum(s0, s1), np.maximum(s0, s1))

        # ---- run hit/miss, base seeds and victims --------------------
        gmap = np.cumsum(run_first) - 1  # run -> group
        run_hit = np.empty(n_runs, dtype=bool)
        seed_base = np.zeros(n_runs, dtype=np.int64)
        vic_line_r = np.full(n_runs, EMPTY, dtype=np.int64)
        vic_flags_r = np.zeros(n_runs, dtype=np.int64)

        b0 = rj == 0
        g_b0 = gmap[b0]
        l_b0 = run_line[b0]
        h_mru = l_b0 == mru0[g_b0]
        h_lru = l_b0 == lru0[g_b0]
        run_hit[b0] = h_mru | h_lru
        seed_base[b0] = np.where(h_mru, f_mru0[g_b0], np.where(h_lru, f_lru0[g_b0], 0))
        vic_line_r[b0] = lru0[g_b0]
        vic_flags_r[b0] = f_lru0[g_b0]

        b1 = rj == 1
        g_b1 = gmap[b1]
        h1 = run_line[b1] == pre_lru[g_b1]
        run_hit[b1] = h1
        seed_base[b1] = np.where(h1, f_pre[g_b1], 0)
        vic_line_r[b1] = pre_lru[g_b1]
        vic_flags_r[b1] = f_pre[g_b1]

        # rj >= 2: LRU before run j is run j-2's line, and chains link
        # even/odd run subsequences of each group.
        b2 = rj >= 2
        prev2_line = np.empty(n_runs, dtype=np.int64)
        prev2_line[2:] = run_line[:-2]
        prev2_line[:2] = EMPTY
        cont = b2 & (run_line == prev2_line)
        run_hit[b2] = cont[b2]
        vic_line_r[b2] = prev2_line[b2]

        # ---- fills: no-op hits, and the sets the run view cannot hold -
        hit_sorted = ~change
        hit_sorted[rsi] = run_hit
        bad_run = None
        if kinds.any():
            fill = kinds[order] == OP_FILL
            of = np.where(fill & hit_sorted, 0, of)
            lru_fill = fill[rsi] & run_hit
            lru_fill[b0] &= ~h_mru
            if lru_fill.any():
                bad_group = np.zeros(len(sets_f), dtype=bool)
                bad_group[gmap[lru_fill]] = True
                bad_run = bad_group[gmap]
        run_of = np.bitwise_or.reduceat(of, rsi)

        # ---- flag chains via per-bit reachability scans --------------
        g_flags = np.empty(n_runs, dtype=np.int64)
        prev_g = np.zeros(n_runs, dtype=np.int64)
        all_bits = int(np.bitwise_or.reduce(run_of)) | int(
            np.bitwise_or.reduce(seed_base) if n_runs else 0
        )
        for p in (0, 1):
            sel = np.nonzero((rj & 1) == p)[0]
            if not len(sel):
                continue
            m = len(sel)
            cont_s = cont[sel]
            st = ~cont_s
            contrib = np.where(st, run_of[sel] | seed_base[sel], run_of[sel])
            kidx = np.arange(m)
            segstart = np.maximum.accumulate(np.where(st, kidx, 0))
            g_s = np.zeros(m, dtype=np.int64)
            bits = all_bits
            while bits:
                b = bits & -bits
                bits ^= b
                val = np.where((contrib & b) != 0, kidx, -1)
                acc = np.maximum.accumulate(val)
                g_s |= np.where(acc >= segstart, b, 0)
                # A hit's seed may carry bits the chain scan only sees
                # from the start element; reachability over the segment
                # covers them because seeds are injected at starts.
            g_flags[sel] = g_s
            pg = np.empty(m, dtype=np.int64)
            pg[0] = 0
            pg[1:] = g_s[:-1]
            prev_g[sel] = pg
        vic_flags_r[b2] = prev_g[b2]
        seed_eff = np.where(
            run_hit, np.where(b2, prev_g, seed_base), 0
        )

        # ---- per-access outputs --------------------------------------
        ob = int(np.bitwise_or.reduce(of))
        prior_part = np.zeros(n, dtype=np.int64)
        accp = np.empty(n, dtype=np.int64)
        bits = ob
        while bits:
            b = bits & -bits
            bits ^= b
            acc = np.maximum.accumulate(np.where((of & b) != 0, idx, -1))
            accp[0] = -1
            accp[1:] = acc[:-1]
            prior_part |= np.where(accp >= rs, b, 0)
        gmap_acc = np.cumsum(change) - 1
        prior_sorted = seed_eff[gmap_acc] | prior_part
        hit[order] = hit_sorted
        prior[order] = prior_sorted

        # ---- victims --------------------------------------------------
        vmask = ~run_hit & (vic_line_r != EMPTY)
        if bad_run is not None:
            vmask &= ~bad_run
        vic_idx = run_pos0[vmask]
        vic_line = vic_line_r[vmask]
        vic_flags = vic_flags_r[vmask]

        # ---- state write-back ----------------------------------------
        clock = self._clock
        gstart = np.nonzero(run_first)[0]
        glast = np.empty(len(gstart), dtype=np.int64)
        glast[:-1] = gstart[1:] - 1
        glast[-1] = n_runs - 1
        run_end = np.empty(n_runs, dtype=np.int64)
        run_end[:-1] = rsi[1:] - 1
        run_end[-1] = n - 1
        two = glast > gstart
        glast_m1 = np.maximum(glast - 1, 0)
        mru_line_f = run_line[glast]
        mru_stamp_f = clock + order[run_end[glast]]
        mru_flags_f = g_flags[glast]
        lru_line_f = np.where(two, run_line[glast_m1], pre_lru)
        lru_stamp_f = np.where(
            two, clock + order[np.maximum(rsi[glast] - 1, 0)], old_lru_stamp
        )
        lru_flags_f = np.where(two, g_flags[glast_m1], f_pre)
        lru_empty = lru_line_f == EMPTY
        # The sets replayed on dict sets below keep their pre-batch rows.
        keep = slice(None) if bad_run is None else ~bad_group
        rows = sets_f[keep]
        self.tags[rows, 0] = mru_line_f[keep]
        self.stamp[rows, 0] = mru_stamp_f[keep]
        self.flags[rows, 0] = mru_flags_f[keep]
        self.tags[rows, 1] = lru_line_f[keep]
        self.stamp[rows, 1] = np.where(lru_empty, EMPTY, lru_stamp_f)[keep]
        self.flags[rows, 1] = np.where(lru_empty, 0, lru_flags_f)[keep]
        if bad_run is not None:
            pos = np.sort(order[bad_run[gmap_acc]])
            hit[pos], prior[pos], t_idx, t_line, t_flags = self._dict_tail(
                pos, lines[pos], kinds[pos], oflags[pos], clock + n
            )
            vic_idx = np.concatenate((vic_idx, t_idx))
            vic_line = np.concatenate((vic_line, t_line))
            vic_flags = np.concatenate((vic_flags, t_flags))
        self._clock = clock + n
        vo = np.argsort(vic_idx, kind="stable")
        return hit, prior, vic_idx[vo], vic_line[vo], vic_flags[vo]

    def _dict_tail(
        self,
        pos: np.ndarray,
        lines: np.ndarray,
        kinds: np.ndarray,
        oflags: np.ndarray,
        top: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Finish a batch on dict sets: the ops at stream positions ``pos``.

        ``lines``, ``kinds`` and ``oflags`` are those ops, in program
        order.  The sets they touch are copied into an
        :class:`LRUCache` (:meth:`to_lru`), the ops are replayed there
        with :meth:`LRUCache.ops_batch
        <repro.cachesim.lru.LRUCache.ops_batch>`, and each set is
        written back in LRU order with stamps just below ``top``, the
        next batch's first stamp.  Returns ``ops_batch``'s results, the
        victims indexed by stream position.
        """
        sets = np.unique(lines & self._set_mask)
        cache = self.to_lru(sets)
        hit, prior, vic_idx, vic_line, vic_flags = cache.ops_batch(lines, kinds, oflags)
        tags = np.fromiter(cache.resident_lines(), dtype=np.int64)
        flags = np.array([cache.peek_flags(line) for line in tags.tolist()], dtype=np.int64)
        # resident_lines() walks the sets in index order, LRU first.
        row = tags & self._set_mask
        first = np.searchsorted(row, row)
        way = np.arange(len(tags)) - first
        size = np.searchsorted(row, row, side="right") - first
        self.tags[sets] = EMPTY
        self.stamp[sets] = EMPTY
        self.flags[sets] = 0
        self.tags[row, way] = tags
        self.stamp[row, way] = top - size + way
        self.flags[row, way] = flags
        return hit, prior, pos[vic_idx], vic_line, vic_flags

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return int(np.count_nonzero(self.tags != EMPTY))

    def dirty_lines(self) -> np.ndarray:
        """Resident line numbers carrying ``FLAG_DIRTY`` (any order)."""
        return self.tags[((self.flags & FLAG_DIRTY) != 0) & (self.tags != EMPTY)]

    def snapshot(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copies of the state matrices, for :meth:`restore_sets`."""
        return self.tags.copy(), self.stamp.copy(), self.flags.copy()

    def restore_sets(
        self, snap: tuple[np.ndarray, np.ndarray, np.ndarray], sets: np.ndarray
    ) -> None:
        """Roll the given sets back to their state in ``snap``.

        The clock is left alone: ops replayed afterwards get stamps
        above every stamp in the snapshot, so LRU order stays exact.
        """
        tags, stamp, flags = snap
        self.tags[sets] = tags[sets]
        self.stamp[sets] = stamp[sets]
        self.flags[sets] = flags[sets]

    def to_lru(self, sets: np.ndarray | None = None) -> LRUCache:
        """The same contents in a dict-backed :class:`LRUCache`.

        Each set's lines are installed least recently used first, with
        their flags, so the dict cache promotes and evicts exactly as
        this one would from here on.  With ``sets``, only those sets
        are copied and the others start empty.
        """
        cache = LRUCache(self.config)
        rows = slice(None) if sets is None else sets
        order = np.argsort(self.stamp[rows], axis=1, kind="stable")
        tags = np.take_along_axis(self.tags[rows], order, axis=1).ravel()
        flags = np.take_along_axis(self.flags[rows], order, axis=1).ravel()
        valid = tags != EMPTY
        install = cache.install
        for line, f in zip(tags[valid].tolist(), flags[valid].tolist()):
            install(line, f)
        return cache

    def check_invariants(self) -> None:
        """Verify structural invariants (test helper)."""
        for s in range(self.tags.shape[0]):
            row = self.tags[s]
            valid = row != EMPTY
            if (self.stamp[s][valid] < 0).any() or (
                self.stamp[s][~valid] != EMPTY
            ).any():
                raise SimulationError(f"set {s} has inconsistent stamps")
            resident = row[valid]
            if len(np.unique(resident)) != len(resident):
                raise SimulationError(f"set {s} holds a duplicate line")
            if ((resident & self._set_mask) != s).any():
                raise SimulationError(f"set {s} holds a line of another set")
            stamps = self.stamp[s][valid]
            if len(np.unique(stamps)) != len(stamps):
                raise SimulationError(f"set {s} has duplicate LRU stamps")
