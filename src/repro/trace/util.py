"""Dependency-free array utilities shared by trace and sampling code."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["WINDOW", "NextSameValue", "next_same_value_index", "next_same_value_query"]

#: Events after each query that the forward scan compares before the
#: query falls back to the sorted keys.
WINDOW = 32

#: Queries scanned together; a block's scan holds ``_BLOCK * WINDOW``
#: gathered values.
_BLOCK = 4096

_INT64_MAX = int(np.iinfo(np.int64).max)


class NextSameValue(NamedTuple):
    """Answers to next-equal-value queries, and how they were found."""

    #: Per query, the next position holding the same value, or -1.
    index: np.ndarray
    #: Queries the forward window answered.
    window_resolved: int
    #: Key sorts run (0 or 1).
    sorts: int


def next_same_value_index(values, at=None) -> np.ndarray:
    """Per position (or per position in ``at``), the index of the next equal value, or -1.

    Used with line numbers (reuse sampling, characterisation) and with
    PCs (stride sampling).  ``at=None`` answers every position; otherwise
    only the positions in ``at`` (any order, repeats allowed, each in
    ``[0, len(values))``) are answered, as :func:`next_same_value_query`
    describes.
    """
    return next_same_value_query(values, at).index


def next_same_value_query(values, at=None) -> NextSameValue:
    """:func:`next_same_value_index` with how its answers were found.

    Every value is encoded as the composite key ``code·n + position``,
    where ``code`` is ``value − min`` (or the value's rank when that key
    would overflow int64).  The keys are distinct, so one plain sort
    orders them by value and then by position, and a key's successor in
    that order is the next position holding its value.

    Sparse queries (``len(at)·WINDOW ≤ n``, as a sampler's are) are
    first scanned forward over the next :data:`WINDOW` events, blocks of
    queries at a time; the first equal value a scan meets is the
    answer.  Only the queries the window missed sort the keys, and each
    finds its successor with one ``searchsorted``.  Dense queries (and
    ``at=None``) sort the keys and read every successor off at once: a
    scan reads ``WINDOW`` values per query, and past ``n`` of them one
    pass over the sorted keys is cheaper.
    """
    values = np.asarray(values)
    n = len(values)
    if at is None:
        return NextSameValue(_successors(values), 0, int(n > 0))
    at = np.asarray(at, dtype=np.int64)
    if len(at) and (at.min() < 0 or at.max() >= n):
        raise IndexError("query position out of range")
    if len(at) * WINDOW > n:
        return NextSameValue(_successors(values)[at], 0, 1)

    out = np.full(len(at), -1, dtype=np.int64)
    steps = np.arange(1, WINDOW + 1)
    for start in range(0, len(at), _BLOCK):
        query = at[start : start + _BLOCK]
        ahead = query[:, None] + steps
        hit = values[np.minimum(ahead, n - 1)] == values[query][:, None]
        hit &= ahead < n  # steps past the end read the last value
        first = hit.argmax(axis=1)
        found = hit[np.arange(len(query)), first]
        out[start : start + len(query)][found] = ahead[found, first[found]]
    missed = np.flatnonzero(out < 0)
    if not len(missed):
        return NextSameValue(out, len(at), 0)

    keys = _keys(values)
    wanted = keys[at[missed]]
    keys.sort()
    succ = np.searchsorted(keys, wanted, side="right")
    nxt = keys[np.minimum(succ, n - 1)]
    same = (succ < n) & (nxt // n == wanted // n)
    out[missed[same]] = nxt[same] % n
    return NextSameValue(out, len(at) - len(missed), 1)


def _keys(values: np.ndarray) -> np.ndarray:
    """The composite keys ``code·n + position``, in position order.

    ``code`` is ``value − min``, or the value's rank among the distinct
    values when ``(max − min)·n`` would overflow int64.
    """
    n = len(values)
    if (
        np.can_cast(values.dtype, np.int64)
        and (int(values.max()) - int(values.min())) * n + n - 1 <= _INT64_MAX
    ):
        keys = values.astype(np.int64)
        keys -= keys.min()
    else:
        keys = np.unique(values, return_inverse=True)[1].astype(np.int64)
    keys *= n
    keys += np.arange(n)
    return keys


def _successors(values: np.ndarray) -> np.ndarray:
    """Every position's next position with the same value, read off the sorted keys."""
    n = len(values)
    out = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return out
    keys = _keys(values)
    keys.sort()
    codes, positions = np.divmod(keys, n)
    same = codes[:-1] == codes[1:]
    out[positions[:-1][same]] = positions[1:][same]
    return out
