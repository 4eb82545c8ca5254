"""Differentiable layer primitives.

Each primitive is a pure forward function paired with a vector-Jacobian
product (vjp). Smoothing is the sparse product in linalg (spmm, with
spmm_transposed as its vjp). The softmax vjp applies the full Jacobian rather than assuming
a fused cross-entropy, because smoothing layers may follow the softmax.

Dropout and the linear map also accept a scipy CSR input (a sparse folded
input matrix): dropout then masks only the stored entries, and the linear map
and its weight vjp use sparse-dense products.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import UsageError

__all__ = [
    "linear_forward",
    "linear_vjp",
    "relu_forward",
    "relu_vjp",
    "softmax_rows_forward",
    "softmax_rows_vjp",
    "dropout_forward",
    "dropout_vjp",
]


def linear_forward(x, w) -> np.ndarray:
    if not sp.issparse(x):
        x = np.asarray(x)
    w = np.asarray(w)
    if x.shape[1] != w.shape[0]:
        raise UsageError(f"linear shape mismatch: input {x.shape} @ weight {w.shape}")
    return x @ w


def linear_vjp(x, w, upstream, input_grad: bool = True):
    """Returns (d_input, d_weight) for the cached forward input; d_input is
    None when input_grad is false."""
    upstream = np.asarray(upstream)
    if not sp.issparse(x):
        x = np.asarray(x)
    d_input = upstream @ np.asarray(w).T if input_grad else None
    return d_input, x.T @ upstream


def relu_forward(x) -> np.ndarray:
    return np.maximum(np.asarray(x), 0.0)


def relu_vjp(x, upstream) -> np.ndarray:
    """Subgradient at exactly zero input is taken as zero."""
    return np.asarray(upstream) * (np.asarray(x) > 0.0)


def softmax_rows_forward(z) -> np.ndarray:
    z = np.asarray(z)
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_rows_vjp(p, upstream) -> np.ndarray:
    """Full per-row softmax Jacobian product: p * (u - (u . p))."""
    p = np.asarray(p)
    upstream = np.asarray(upstream)
    dot = (upstream * p).sum(axis=1, keepdims=True)
    return p * (upstream - dot)


def dropout_forward(x, rate: float, rng, training: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout: survivors are scaled by 1/(1-rate) so inference needs
    no rescaling. Inference mode is the identity and returns no mask.

    A CSR input draws one uniform per stored entry and returns a CSR output
    with the same pattern (dropped entries stored as zeros); its mask covers
    the stored entries only.
    """
    if not sp.issparse(x):
        x = np.asarray(x)
    if not (0.0 <= rate < 1.0):
        raise UsageError(f"dropout rate must lie in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x, None
    if rng is None:
        raise UsageError("training-mode dropout requires an explicit rng stream")
    if sp.issparse(x):
        x = x.tocsr()
        mask = rng.random(x.nnz) >= rate
        values = x.data * mask / (1.0 - rate)
        return sp.csr_matrix((values, x.indices, x.indptr), shape=x.shape), mask
    mask = rng.random(x.shape) >= rate
    return x * mask / (1.0 - rate), mask


def dropout_vjp(mask, rate: float, upstream) -> np.ndarray:
    if mask is None:
        return np.asarray(upstream)
    return np.asarray(upstream) * mask / (1.0 - rate)
