"""Tests for COO / CSR / sliced CSR sparse formats."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import COOMatrix, CSRMatrix, SlicedCSRMatrix


def random_edges(seed: int, n: int, m: int):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, size=m)
    cols = rng.integers(0, n, size=m)
    mask = rows != cols
    return rows[mask], cols[mask]


class TestCOO:
    def test_from_edges_deduplicates(self):
        coo = COOMatrix.from_edges([0, 0, 1], [1, 1, 2], (3, 3))
        assert coo.nnz == 2

    def test_to_dense_matches_entries(self):
        coo = COOMatrix.from_edges([0, 2], [1, 0], (3, 3))
        dense = coo.to_dense()
        assert dense[0, 1] == 1.0 and dense[2, 0] == 1.0
        assert dense.sum() == 2.0

    def test_nbytes_formula(self):
        coo = COOMatrix.from_edges([0, 2], [1, 0], (3, 3))
        assert coo.nbytes == 3 * coo.nnz * 4

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            COOMatrix(
                rows=np.array([5]), cols=np.array([0]),
                values=np.array([1.0], dtype=np.float32), shape=(3, 3),
            )

    @pytest.mark.parametrize("field", ["rows", "cols"])
    def test_negative_coordinate_rejected(self, field):
        coords = {"rows": np.array([0, 1]), "cols": np.array([1, 0])}
        coords[field] = np.array([0, -1])
        with pytest.raises(ValueError, match=field):
            COOMatrix(**coords, values=np.ones(2, dtype=np.float32), shape=(2, 2))

    def test_roundtrip_through_csr(self):
        rows, cols = random_edges(0, 20, 60)
        coo = COOMatrix.from_edges(rows, cols, (20, 20))
        assert np.allclose(coo.to_csr().to_dense(), coo.to_dense())

    def test_edge_keys_sorted(self):
        rows, cols = random_edges(1, 15, 40)
        keys = COOMatrix.from_edges(rows, cols, (15, 15)).edge_keys()
        assert np.all(np.diff(keys) > 0)


class TestCSR:
    def test_from_edges_matches_scipy(self, random_csr):
        dense = random_csr.to_dense()
        assert dense.shape == (30, 30)
        assert random_csr.nnz == int(dense.sum())

    def test_row_nnz_sums_to_nnz(self, random_csr):
        assert int(random_csr.row_nnz().sum()) == random_csr.nnz

    def test_matmul_dense_matches_numpy(self, random_csr):
        x = np.random.default_rng(0).random((30, 5)).astype(np.float32)
        expected = random_csr.to_dense() @ x
        assert np.allclose(random_csr.matmul_dense(x), expected, atol=1e-5)

    def test_matmul_dimension_mismatch(self, random_csr):
        with pytest.raises(ValueError):
            random_csr.matmul_dense(np.zeros((5, 5), dtype=np.float32))

    def test_transpose_is_involution(self, random_csr):
        assert np.allclose(random_csr.transpose().transpose().to_dense(), random_csr.to_dense())

    def test_empty_matrix(self):
        empty = CSRMatrix.empty((4, 4))
        assert empty.nnz == 0
        assert np.allclose(empty.matmul_dense(np.ones((4, 2), dtype=np.float32)), 0.0)

    def test_nbytes_formula(self, random_csr):
        assert random_csr.nbytes == (2 * random_csr.nnz + random_csr.num_rows + 1) * 4

    def test_from_edge_keys_roundtrip(self, random_csr):
        rebuilt = CSRMatrix.from_edge_keys(random_csr.edge_keys(), random_csr.shape)
        assert np.allclose(rebuilt.to_dense(), random_csr.to_dense())

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            CSRMatrix(
                indptr=np.array([0, 2]), indices=np.array([0]),
                data=np.array([1.0], dtype=np.float32), shape=(1, 3),
            )

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="indices"):
            CSRMatrix(
                indptr=np.array([0, 1, 2]), indices=np.array([-1, 0]),
                data=np.ones(2, dtype=np.float32), shape=(2, 2),
            )

    def test_with_values_preserves_pattern(self, random_csr):
        new = random_csr.with_values(np.full(random_csr.nnz, 2.0, dtype=np.float32))
        assert np.allclose(new.to_dense(), 2.0 * random_csr.to_dense())


def _oracle_csr(keys: np.ndarray, shape) -> CSRMatrix:
    """The scipy round trip ``from_edge_keys`` replaced: COO -> scipy -> CSR."""
    rows, cols = np.divmod(np.asarray(keys, dtype=np.int64), shape[1])
    return COOMatrix.from_edges(rows, cols, shape).to_csr()


def _assert_same_csr(got: CSRMatrix, want: CSRMatrix) -> None:
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


class TestFromEdgeKeysOracle:
    """The NumPy builder against the scipy path it replaced, array for array."""

    @pytest.mark.parametrize("seed", range(12))
    def test_unsorted_duplicated_keys_on_rectangular_shapes(self, seed):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 25)), int(rng.integers(1, 25)))
        size = int(rng.integers(0, 3 * shape[0] * shape[1]))
        keys = rng.integers(0, shape[0] * shape[1], size=size)
        _assert_same_csr(CSRMatrix.from_edge_keys(keys, shape), _oracle_csr(keys, shape))
        sorted_keys = np.unique(keys)
        _assert_same_csr(
            CSRMatrix.from_edge_keys(sorted_keys, shape), _oracle_csr(sorted_keys, shape)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_from_edges_matches_oracle(self, seed):
        rows, cols = random_edges(seed, 17, 80)
        _assert_same_csr(
            CSRMatrix.from_edges(rows, cols, (17, 17)),
            COOMatrix.from_edges(rows, cols, (17, 17)).to_csr(),
        )

    def test_empty_keys(self):
        keys = np.zeros(0, dtype=np.int64)
        _assert_same_csr(CSRMatrix.from_edge_keys(keys, (3, 5)), _oracle_csr(keys, (3, 5)))

    def test_trailing_empty_rows(self):
        keys = np.array([0, 4, 7, 9], dtype=np.int64)  # rows 0..2 of a (8, 4) matrix
        built = CSRMatrix.from_edge_keys(keys, (8, 4))
        _assert_same_csr(built, _oracle_csr(keys, (8, 4)))
        assert built.row_nnz()[3:].sum() == 0

    def test_last_valid_key(self):
        shape = (6, 7)
        keys = np.array([0, shape[0] * shape[1] - 1], dtype=np.int64)
        built = CSRMatrix.from_edge_keys(keys, shape)
        _assert_same_csr(built, _oracle_csr(keys, shape))
        assert built.to_dense()[-1, -1] == 1.0

    @pytest.mark.parametrize("bad", [-1, 6 * 7])
    def test_key_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            CSRMatrix.from_edge_keys(np.array([3, bad], dtype=np.int64), (6, 7))

    @pytest.mark.parametrize("rows, cols", [([0, -1], [1, 1]), ([0, 1], [2, 1])])
    def test_from_edges_coordinate_out_of_range_rejected(self, rows, cols):
        with pytest.raises(ValueError):
            CSRMatrix.from_edges(np.array(rows), np.array(cols), (2, 2))


class TestSlicedCSR:
    @pytest.mark.parametrize("capacity", [1, 2, 4, 32])
    def test_roundtrip(self, random_csr, capacity):
        sliced = SlicedCSRMatrix.from_csr(random_csr, slice_capacity=capacity)
        assert np.allclose(sliced.to_csr().to_dense(), random_csr.to_dense())

    def test_slice_capacity_respected(self, random_csr):
        sliced = SlicedCSRMatrix.from_csr(random_csr, slice_capacity=3)
        assert sliced.slice_nnz().max() <= 3

    def test_num_slices_lower_bound(self, random_csr):
        sliced = SlicedCSRMatrix.from_csr(random_csr, slice_capacity=4)
        expected = int(np.sum(-(-random_csr.row_nnz() // 4)))
        assert sliced.num_slices == expected

    def test_empty_rows_have_no_slices(self):
        csr = CSRMatrix.from_edges(np.array([0, 0]), np.array([1, 2]), (5, 5))
        sliced = SlicedCSRMatrix.from_csr(csr, slice_capacity=1)
        assert set(sliced.row_indices.tolist()) == {0}

    def test_space_formula(self, random_csr):
        sliced = SlicedCSRMatrix.from_csr(random_csr, slice_capacity=2)
        assert sliced.nbytes == (2 * sliced.nnz + 2 * sliced.num_slices + 1) * 4

    def test_space_between_csr_and_coo_for_default_capacity(self, random_csr):
        sliced = SlicedCSRMatrix.from_csr(random_csr)
        assert random_csr.nbytes <= sliced.nbytes <= random_csr.to_coo().nbytes + 4

    def test_matmul_matches_csr(self, random_csr):
        x = np.random.default_rng(1).random((30, 3)).astype(np.float32)
        sliced = SlicedCSRMatrix.from_csr(random_csr, slice_capacity=2)
        assert np.allclose(sliced.matmul_dense(x), random_csr.matmul_dense(x), atol=1e-5)

    def test_empty_matrix(self):
        sliced = SlicedCSRMatrix.from_csr(CSRMatrix.empty((3, 3)))
        assert sliced.num_slices == 0 and sliced.nnz == 0

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        capacity=st.integers(1, 8),
        n=st.integers(2, 25),
        m=st.integers(0, 80),
    )
    def test_property_roundtrip_and_capacity(self, seed, capacity, n, m):
        """Slicing any CSR matrix is lossless and respects the capacity bound."""
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, n, size=m)
        cols = rng.integers(0, n, size=m)
        csr = CSRMatrix.from_edges(rows, cols, (n, n))
        sliced = SlicedCSRMatrix.from_csr(csr, slice_capacity=capacity)
        assert np.allclose(sliced.to_csr().to_dense(), csr.to_dense())
        if sliced.num_slices:
            assert sliced.slice_nnz().max() <= capacity
            assert sliced.slice_nnz().min() >= 1
