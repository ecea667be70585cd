"""Property tests for the sorted edge-key set operations.

Each helper must return exactly what the NumPy set routine it replaces
returns — same elements, order and dtype — for sorted, duplicate-free key
arrays.  Cases come from seeded :mod:`repro.utils.rng` streams and always
include the empty, disjoint and identical operand pairs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.keys import (
    difference,
    intersect,
    is_sorted_unique,
    member,
    readonly,
    sorted_unique,
    union,
)
from repro.utils.rng import as_rng

NUM_SEEDS = 30


def random_set(rng: np.random.Generator, high: int, max_size: int) -> np.ndarray:
    return np.unique(rng.integers(0, high, size=int(rng.integers(0, max_size + 1))))


def operand_pairs(seed: int):
    """Random overlapping, empty, disjoint and identical sorted-set pairs."""
    rng = as_rng(seed)
    high = int(rng.integers(4, 400))
    a = random_set(rng, high, 120)
    b = random_set(rng, high, 120)
    empty = np.zeros(0, dtype=np.int64)
    return [
        (a, b),
        (b, a),
        (a, empty),
        (empty, b),
        (empty, empty),
        (a, a.copy()),
        (a, a + high),  # disjoint: every b lies above a
        (a + high, a),
        (a[: len(a) // 2], a),  # subset
    ]


def _assert_identical(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_set_operations_match_numpy(seed):
    for a, b in operand_pairs(seed):
        _assert_identical(intersect(a, b), np.intersect1d(a, b, assume_unique=True))
        _assert_identical(difference(a, b), np.setdiff1d(a, b, assume_unique=True))
        _assert_identical(union(a, b), np.union1d(a, b))
        np.testing.assert_array_equal(member(a, b), np.isin(a, b))


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_sorted_unique_matches_numpy(seed):
    rng = as_rng(seed)
    raw = rng.integers(0, 50, size=int(rng.integers(0, 80)))
    for keys in (raw, np.sort(raw), np.unique(raw), raw[:0]):
        _assert_identical(sorted_unique(keys), np.unique(keys))
        assert is_sorted_unique(sorted_unique(keys))


def test_sorted_unique_returns_a_set_unchanged():
    keys = np.array([1, 4, 9], dtype=np.int64)
    assert sorted_unique(keys) is keys
    assert not is_sorted_unique(np.array([1, 1, 2]))
    assert not is_sorted_unique(np.array([2, 1]))


def test_readonly_view_blocks_writes_without_touching_the_input():
    keys = np.arange(4, dtype=np.int64)
    frozen = readonly(keys)
    assert keys.flags.writeable and not frozen.flags.writeable
    assert readonly(frozen) is frozen
    with pytest.raises(ValueError):
        frozen[0] = 7
