"""Tests for Vandermonde utilities and the MDS submatrix property."""

from itertools import combinations

import numpy as np
import pytest

from repro.ff import PrimeField, gauss_rank, vandermonde_matrix

F = PrimeField(7919)


class TestMatrix:
    def test_shape_and_values(self):
        v = vandermonde_matrix(F, np.array([2, 3]), 4)
        np.testing.assert_array_equal(v, [[1, 2, 4, 8], [1, 3, 9, 27]])

    def test_requires_1d(self):
        with pytest.raises(ValueError):
            vandermonde_matrix(F, np.ones((2, 2), dtype=np.int64), 3)

    def test_every_square_submatrix_invertible(self):
        """The MDS property: any K rows of a K-column Vandermonde matrix
        on distinct points form an invertible matrix."""
        k, n = 3, 6
        v = vandermonde_matrix(F, F.distinct_points(n), k)
        for rows in combinations(range(n), k):
            assert gauss_rank(F, v[list(rows)]) == k

