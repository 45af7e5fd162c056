"""Set-associativity correction for StatStack miss ratios.

StatStack (like stack-distance analysis generally) models a
fully-associative LRU cache; real caches are set-associative, and a
2-way L1 misses somewhat more than the fully-associative model
predicts.  A. J. Smith's classic set-refinement model closes the gap:
assume lines map to the ``s`` sets uniformly at random.  An access with
stack distance ``d`` (i.e. ``d`` distinct lines touched since its last
use) misses in an ``a``-way cache iff at least ``a`` of those ``d``
lines fell into *its* set — a Binomial tail:

    P(miss | d) = P( Binomial(d, 1/s) >= a )

:func:`set_associative_miss_ratio` evaluates this against the model's
expected stack distances, vectorised over the unique sampled reuse
distances (``scipy.stats.binom`` supplies the tail).  The fully
associative result is the ``s = 1`` … ``a = C`` limit.

Validated against the exact set-associative functional simulator in
``tests/test_setassoc.py``; the correction matters most exactly where
the paper's Table I is measured — the 2-way AMD L1.
"""

from __future__ import annotations

import numpy as np

from repro.config import CacheConfig
from repro.errors import ModelError
from repro.statstack.model import StatStackModel

__all__ = ["set_associative_miss_ratio", "associativity_penalty"]


def set_associative_miss_ratio(
    model: StatStackModel,
    cache: CacheConfig,
    pc: int | None = None,
) -> float:
    """Miss ratio of a set-associative cache via Smith's refinement.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.statstack.model.StatStackModel`.
    cache:
        Target geometry (sets and ways are taken from it).
    pc:
        Restrict to one instruction's sample population (as in
        :meth:`StatStackModel.pc_miss_ratio`); whole application when
        omitted.
    """
    if cache.line_bytes != model.line_bytes:
        raise ModelError(
            f"cache line size {cache.line_bytes} differs from the model's "
            f"{model.line_bytes}"
        )
    if pc is None:
        distances = model._finite_sorted
        dangling = model._n_dangling
    else:
        distances = model._pc_distances.get(pc)
        dangling = model._pc_dangling.get(pc, 0)
        if distances is None:
            distances = np.empty(0, dtype=np.int64)
    total = len(distances) + dangling
    if total == 0:
        return 0.0

    sets = cache.num_sets
    ways = cache.ways
    if sets == 1:
        # fully associative: fall back to the plain threshold rule
        finite_misses = int(
            np.count_nonzero(
                model.expected_stack_distance(distances) >= cache.num_lines
            )
        )
        return (finite_misses + dangling) / total

    from scipy import stats  # here: ~1.4 s and 67 MB that no plan or simulation needs

    # One Binomial-tail evaluation per *unique* reuse distance.
    uniq, counts = np.unique(distances, return_counts=True)
    if len(uniq):
        sd = model.expected_stack_distance(uniq)
        # P(X >= ways) with X ~ Binomial(floor(sd), 1/sets)
        p_miss = stats.binom.sf(ways - 1, np.floor(sd).astype(np.int64), 1.0 / sets)
        finite_miss_mass = float(np.sum(p_miss * counts))
    else:
        finite_miss_mass = 0.0
    return (finite_miss_mass + dangling) / total


def associativity_penalty(model: StatStackModel, cache: CacheConfig) -> float:
    """How much the real geometry misses beyond the fully-associative model.

    Returns ``mr_setassoc − mr_fullyassoc`` (non-negative up to sampling
    noise); large values flag workloads whose conflict misses the plain
    model under-estimates.
    """
    fa = model.miss_ratio(cache.size_bytes)
    sa = set_associative_miss_ratio(model, cache)
    return sa - fa
