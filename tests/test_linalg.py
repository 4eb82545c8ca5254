import numpy as np
import pytest
import scipy.sparse as sp

from graphcompose.errors import UsageError
from graphcompose.linalg import row_unit_normalize, spmm, spmm_transposed

from .conftest import dense


def random_sparse(rng, rows, cols, density=0.3):
    mask = rng.random((rows, cols)) < density
    a = np.where(mask, rng.normal(size=(rows, cols)), 0.0)
    return sp.csr_matrix(a), a


class TestProducts:
    def test_spmm_matches_dense(self):
        rng = np.random.default_rng(1)
        for rows, cols, k in [(6, 4, 3), (1, 5, 2), (8, 8, 8)]:
            s, a = random_sparse(rng, rows, cols)
            x = rng.normal(size=(cols, k))
            np.testing.assert_allclose(spmm(s, x), a @ x, rtol=0, atol=1e-14)

    def test_spmm_transposed_matches_dense(self):
        rng = np.random.default_rng(2)
        s, a = random_sparse(rng, 6, 4)
        x = rng.normal(size=(6, 3))
        np.testing.assert_allclose(spmm_transposed(s, x), a.T @ x, rtol=0, atol=1e-14)

    def test_spmm_deterministic(self):
        rng = np.random.default_rng(3)
        s, _ = random_sparse(rng, 50, 50, density=0.1)
        x = rng.normal(size=(50, 7))
        first = spmm(s, x)
        for _ in range(5):
            np.testing.assert_array_equal(spmm(s, x), first)

    def test_shape_mismatch_raises(self):
        s = sp.identity(3, format="csr")
        with pytest.raises(UsageError):
            spmm(s, np.zeros((4, 2)))
        with pytest.raises(UsageError):
            spmm_transposed(s, np.zeros((4, 2)))

    def test_rejects_non_2d(self):
        with pytest.raises(UsageError):
            spmm(sp.identity(3, format="csr"), np.zeros(3))
        with pytest.raises(UsageError):
            spmm_transposed(sp.identity(3, format="csr"), np.zeros(3))


class TestRowUnitNormalize:
    def test_nonzero_rows_get_unit_norm(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(9, 4))
        out = row_unit_normalize(x)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), np.ones(9), atol=1e-12)

    def test_zero_rows_pass_through(self):
        x = np.array([[3.0, 4.0], [0.0, 0.0]])
        out = row_unit_normalize(x)
        np.testing.assert_allclose(out, [[0.6, 0.8], [0.0, 0.0]], atol=1e-15)

    def test_input_unchanged(self):
        x = np.array([[2.0, 0.0]])
        row_unit_normalize(x)
        np.testing.assert_array_equal(x, [[2.0, 0.0]])


def test_dense_helper_roundtrip():
    rng = np.random.default_rng(6)
    s, a = random_sparse(rng, 5, 6)
    np.testing.assert_array_equal(dense(s), a)
