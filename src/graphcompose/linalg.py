"""Dense and sparse matrix kernels.

Dense matrices are plain 2-D numpy arrays (row-major, float64 for all oracle
and gradient-check paths; float32 is permitted for training runs). Sparse
matrices use validated CSR storage backed by scipy's sequential kernels, so
products are bitwise deterministic for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import DataError, UsageError

__all__ = [
    "SparseMatrix",
    "spmm",
    "spmm_transposed",
    "row_unit_normalize",
]


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """Immutable CSR matrix: row_offsets has length rows+1, col_indices are
    strictly increasing within each row (which also rules out duplicates)."""

    rows: int
    cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        offsets = np.asarray(self.row_offsets, dtype=np.int64)
        indices = np.asarray(self.col_indices, dtype=np.int64)
        values = np.asarray(self.values)
        object.__setattr__(self, "row_offsets", offsets)
        object.__setattr__(self, "col_indices", indices)
        object.__setattr__(self, "values", values)
        if self.rows < 0 or self.cols < 0:
            raise DataError(f"negative sparse shape ({self.rows}, {self.cols})")
        if offsets.shape != (self.rows + 1,):
            raise DataError(
                f"row_offsets length {offsets.shape[0]} does not match rows {self.rows} + 1"
            )
        if offsets[0] != 0:
            raise DataError("row_offsets must start at 0")
        if np.any(np.diff(offsets) < 0):
            raise DataError("row_offsets must be nondecreasing")
        nnz = int(offsets[-1])
        if indices.shape != (nnz,) or values.shape != (nnz,):
            raise DataError(
                f"stored entry count mismatch: offsets say {nnz}, "
                f"got {indices.shape[0]} indices and {values.shape[0]} values"
            )
        if nnz > 0:
            if indices.min() < 0 or indices.max() >= self.cols:
                raise DataError(f"column index out of range for {self.cols} columns")
            row_of = np.repeat(np.arange(self.rows), np.diff(offsets))
            same_row = row_of[1:] == row_of[:-1]
            if np.any(np.diff(indices)[same_row] <= 0):
                raise DataError("column indices must be strictly increasing within each row")

    @cached_property
    def _csr(self) -> sp.csr_matrix:
        # Shares the three arrays; scipy validation is skipped (done above).
        m = sp.csr_matrix(
            (self.values, self.col_indices, self.row_offsets),
            shape=(self.rows, self.cols),
        )
        return m

    @property
    def nnz(self) -> int:
        return int(self.row_offsets[-1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @classmethod
    def from_scipy(cls, m: sp.spmatrix) -> "SparseMatrix":
        csr = m.tocsr()
        csr.sum_duplicates()
        csr.sort_indices()
        return cls(
            rows=csr.shape[0],
            cols=csr.shape[1],
            row_offsets=csr.indptr.astype(np.int64),
            col_indices=csr.indices.astype(np.int64),
            values=np.asarray(csr.data, dtype=np.float64),
        )

    @classmethod
    def from_coo(cls, rows, cols, row_idx, col_idx, vals) -> "SparseMatrix":
        """Build from coordinate triplets; duplicate coordinates are summed."""
        row_idx = np.asarray(row_idx, dtype=np.int64)
        col_idx = np.asarray(col_idx, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (row_idx.shape == col_idx.shape == vals.shape):
            raise DataError("coordinate arrays must have identical lengths")
        if row_idx.size and (row_idx.min() < 0 or row_idx.max() >= rows):
            raise DataError(f"row index out of range for {rows} rows")
        if col_idx.size and (col_idx.min() < 0 or col_idx.max() >= cols):
            raise DataError(f"column index out of range for {cols} columns")
        coo = sp.coo_matrix((vals, (row_idx, col_idx)), shape=(rows, cols))
        return cls.from_scipy(coo)

    @classmethod
    def from_dense(cls, a) -> "SparseMatrix":
        return cls.from_scipy(sp.csr_matrix(np.asarray(a, dtype=np.float64)))

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls.from_scipy(sp.identity(n, format="csr"))

    def to_dense(self) -> np.ndarray:
        return np.asarray(self._csr.todense())

    def with_values(self, values: np.ndarray) -> "SparseMatrix":
        """Same sparsity pattern with replaced (possibly recast) values."""
        return SparseMatrix(self.rows, self.cols, self.row_offsets, self.col_indices, values)


def _check_2d(x, name: str) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 2:
        raise UsageError(f"{name} must be 2-D, got shape {x.shape}")
    return x


def spmm(s: SparseMatrix, x):
    """Product S @ X: dense for a dense X, scipy CSR for a scipy sparse X.
    Deterministic for fixed inputs."""
    if not sp.issparse(x):
        x = _check_2d(x, "dense operand")
    if s.cols != x.shape[0]:
        raise UsageError(f"spmm shape mismatch: sparse {s.shape} @ operand {x.shape}")
    return s._csr @ x


def spmm_transposed(s: SparseMatrix, x) -> np.ndarray:
    """Product S.T @ X computed through a CSC view, without materializing S.T."""
    x = _check_2d(x, "dense operand")
    if s.rows != x.shape[0]:
        raise UsageError(f"spmm_transposed shape mismatch: sparse {s.shape}.T @ dense {x.shape}")
    return s._csr.T @ x


def row_unit_normalize(x) -> np.ndarray:
    """Scale each nonzero row to Euclidean norm 1; all-zero rows pass through."""
    x = _check_2d(x, "matrix")
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.where(norms == 0.0, 1.0, norms)
