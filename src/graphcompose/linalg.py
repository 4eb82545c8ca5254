"""Dense and sparse matrix kernels.

Dense matrices are plain 2-D numpy arrays (row-major, float64 for all oracle
and gradient-check paths; float32 is permitted for training runs). Sparse
matrices are scipy CSR matrices in canonical form (sorted column indices, no
duplicates); scipy's sequential kernels make products bitwise deterministic
for fixed inputs.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import UsageError

__all__ = [
    "spmm",
    "spmm_transposed",
    "row_unit_normalize",
]


def _check_2d(x, name: str) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 2:
        raise UsageError(f"{name} must be 2-D, got shape {x.shape}")
    return x


def spmm(s: sp.csr_matrix, x):
    """Product S @ X: dense for a dense X, scipy CSR for a scipy sparse X.
    Deterministic for fixed inputs."""
    if not sp.issparse(x):
        x = _check_2d(x, "dense operand")
    if s.shape[1] != x.shape[0]:
        raise UsageError(f"spmm shape mismatch: sparse {s.shape} @ operand {x.shape}")
    return s @ x


def spmm_transposed(s: sp.csr_matrix, x) -> np.ndarray:
    """Product S.T @ X computed through a CSC view, without materializing S.T."""
    x = _check_2d(x, "dense operand")
    if s.shape[0] != x.shape[0]:
        raise UsageError(f"spmm_transposed shape mismatch: sparse {s.shape}.T @ dense {x.shape}")
    return s.T @ x


def row_unit_normalize(x) -> np.ndarray:
    """Scale each nonzero row to Euclidean norm 1; all-zero rows pass through."""
    x = _check_2d(x, "matrix")
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.where(norms == 0.0, 1.0, norms)
