"""Set operations on sorted edge keys.

The overlap path (§4.1) names every edge by its flat ``row * n_cols + col``
key and keeps each snapshot's key set as a sorted ``int64`` array without
duplicates.  NumPy's ``intersect1d``/``union1d``/``setdiff1d`` sort their
operands again on every call; the helpers below instead merge through
``searchsorted``, so an operation on sorted sets never sorts.  Every helper
returns exactly what the NumPy counterpart would (same elements, order and
dtype), but may return an operand itself when the result equals it: callers
must treat key arrays as immutable.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def is_sorted_unique(keys: np.ndarray) -> bool:
    """Whether ``keys`` is strictly increasing (sorted, no duplicates)."""
    return len(keys) < 2 or not (keys[1:] <= keys[:-1]).any()


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)``, skipping the sort when ``keys`` is already a set."""
    return keys if is_sorted_unique(keys) else np.unique(keys)


def locate(keys: np.ndarray, sorted_set: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Insertion positions of ``keys`` in ``sorted_set`` and which are present."""
    at = np.searchsorted(sorted_set, keys)
    if not len(sorted_set):
        return at, np.zeros(len(keys), dtype=bool)
    return at, sorted_set[np.minimum(at, len(sorted_set) - 1)] == keys


def member(keys: np.ndarray, sorted_set: np.ndarray) -> np.ndarray:
    """Boolean mask: which of ``keys`` (any order) occur in ``sorted_set``."""
    return locate(keys, sorted_set)[1]


def intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.intersect1d(a, b, assume_unique=True)`` for sorted sets."""
    if len(a) > len(b):
        a, b = b, a
    return a[member(a, b)]


def difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.setdiff1d(a, b, assume_unique=True)`` for sorted sets."""
    if not len(a) or not len(b):
        return a
    if len(b) < len(a):
        # Locate the few members of b inside a instead of probing all of a.
        at, found = locate(b, a)
        if not found.any():
            return a
        keep = np.ones(len(a), dtype=bool)
        keep[at[found]] = False
        return a[keep]
    return a[~member(a, b)]


def union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.union1d(a, b)`` for sorted sets: insert ``b``'s new keys into ``a``."""
    if len(b) > len(a):
        a, b = b, a
    at, found = locate(b, a)
    if found.all():
        return a
    fresh = ~found
    return np.insert(a, at[fresh], b[fresh])


def readonly(keys: np.ndarray) -> np.ndarray:
    """A read-only view of ``keys``, so a stray in-place write raises."""
    if not keys.flags.writeable:
        return keys
    view = keys.view()
    view.setflags(write=False)
    return view
