"""Graph topology and normalized propagation operators.

Every operator comes from one formula: a self/neighbor mix A~ = a*I + b*A of
the undirected adjacency, normalized by its row-sum degrees as
D^-alpha A~ D^-beta. The default mix (1, 1) is the self-loop augmented
adjacency. Named kinds fix the exponents: symmetric (1/2, 1/2) for feature
smoothing, and row (1, 0), which is row-stochastic and therefore safe to
apply to probability rows; general takes them from the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DataError, UsageError

__all__ = [
    "GraphTopology",
    "PropagationOperator",
    "mix_self_neighbor",
    "normalize",
    "build_operator",
]


@dataclass(frozen=True, eq=False)
class GraphTopology:
    """Undirected graph from (u, v) pairs or an (E, 2) integer array, stored as a
    read-only (E, 2) int64 array of sorted, distinct u < v pairs. Self-loops
    are refused; they enter later, through the self/neighbor mix."""

    num_nodes: int
    edges: np.ndarray

    def __post_init__(self) -> None:
        n = self.num_nodes
        if n < 1:
            raise DataError(f"graph needs at least one node, got {n}")
        try:
            e = np.asarray(self.edges)  # object dtype holds ids past int64
        except ValueError:
            raise DataError("edges must be (u, v) pairs, got a ragged sequence") from None
        e = e.reshape(0, 2) if e.size == 0 else e
        if e.ndim != 2 or e.shape[1] != 2:
            raise DataError(f"edges must be (u, v) pairs, got shape {e.shape}")
        if e.dtype.kind not in "iu":  # an object array of ids past int64 may pass
            for pair in self.edges:
                if not all(isinstance(x, (int, np.integer)) and type(x) is not bool for x in pair):
                    pair = tuple(np.asarray(pair, dtype=object).tolist())
                    raise DataError(f"edge {pair} has a non-integer node id")
        lo, hi = e.min(axis=1), e.max(axis=1)
        bad = (lo == hi) | (lo < 0) | (hi >= n)
        if bad.any():
            u, v = (int(x) for x in e[np.argmax(bad)])
            if u == v:
                raise DataError(f"self-loop edge ({u}, {v}) is not allowed")
            raise DataError(f"edge ({u}, {v}) has a node id outside [0, {n})")
        keys = np.unique(lo.astype(np.int64) * n + hi.astype(np.int64))
        edges = np.column_stack([keys // n, keys % n])
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)

    @property
    def num_edges(self) -> int:
        return len(self.edges)


@dataclass(frozen=True, eq=False)
class PropagationOperator:
    """A normalized square operator held as canonical scipy CSR, and the
    normalization that produced it: "symmetric", "row", or "general"."""

    matrix: sp.csr_matrix
    kind: str

    def __post_init__(self) -> None:
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise DataError(f"propagation operator must be square, got {self.matrix.shape}")
        if self.kind not in ("symmetric", "row", "general"):
            raise UsageError(f"unknown normalization kind {self.kind!r}")

    @property
    def num_nodes(self) -> int:
        return self.matrix.shape[0]


# The degree exponents (alpha, beta) of the named normalization kinds.
_EXPONENTS = {"symmetric": (0.5, 0.5), "row": (1.0, 0.0)}


def mix_self_neighbor(g: GraphTopology, alpha: float, beta: float) -> sp.csr_matrix:
    """alpha*I + beta*A. Entries with a zero coefficient are not stored, so a
    zero alpha plus an isolated node yields an empty row that the normalization
    step rejects by name."""
    if not (0.0 <= alpha <= 1.0) or not (0.0 <= beta <= 1.0):
        raise UsageError(f"mix coefficients must lie in [0, 1], got ({alpha}, {beta})")
    n = g.num_nodes
    u, v = g.edges.T
    diag = np.arange(n, dtype=np.int64)
    vals = np.concatenate([np.full(2 * u.shape[0], beta), np.full(n, alpha)])
    rows, cols = np.concatenate([u, v, diag]), np.concatenate([v, u, diag])
    m = sp.coo_matrix((vals, (rows, cols)), shape=(n, n), dtype=np.float64).tocsr()
    m.eliminate_zeros()
    return m


def normalize(
    a_tilde, kind: str, alpha: float | None = None, beta: float | None = None
) -> PropagationOperator:
    """Normalize a nonnegative square scipy sparse matrix by its row-sum
    degrees; the operator keeps the input's pattern in canonical CSR form.

    symmetric: D^-1/2 A D^-1/2 (input must be symmetric);
    row: D^-1 A, every row sums to 1;
    general: D^-alpha A D^-beta, with (0, 0) returning the input unchanged.
    """
    a = sp.csr_matrix(a_tilde, dtype=np.float64, copy=True)
    a.sum_duplicates()
    if a.shape[0] != a.shape[1]:
        raise DataError(f"normalization needs a square matrix, got {a.shape}")
    if np.any(a.data < 0):
        raise DataError("normalization needs a nonnegative matrix")
    if kind == "general":
        if alpha is None or beta is None:
            raise UsageError("general normalization requires alpha and beta exponents")
        if not (np.isfinite(alpha) and np.isfinite(beta)):
            raise UsageError(f"general normalization exponents must be finite, got {alpha}, {beta}")
    elif kind in _EXPONENTS:
        if alpha is not None or beta is not None:
            raise UsageError(f"{kind} normalization takes no exponents")
        alpha, beta = _EXPONENTS[kind]
    else:
        raise UsageError(f"unknown normalization kind {kind!r}")

    degrees = np.asarray(a.sum(axis=1)).ravel()
    zero_rows = np.flatnonzero(degrees == 0.0)
    if zero_rows.size:
        raise DataError(
            f"cannot normalize: node {int(zero_rows[0])} has an all-zero row "
            "(isolated node with no self weight)"
        )
    if kind == "symmetric":
        asym = abs(a - a.T)
        if asym.nnz and asym.max() > 1e-12:
            raise DataError("symmetric normalization needs a symmetric matrix")

    left = degrees ** -float(alpha)
    right = degrees ** -float(beta)
    row_of = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    a.data = a.data * left[row_of] * right[a.indices]
    return PropagationOperator(matrix=a, kind=kind)


def build_operator(
    g: GraphTopology,
    kind: str = "symmetric",
    *,
    mix: tuple[float, float] | None = None,
    alpha: float | None = None,
    beta: float | None = None,
) -> PropagationOperator:
    """Mix the topology's self and neighbor weights (default (1, 1), the
    self-loop augmented adjacency) and normalize the result."""
    return normalize(mix_self_neighbor(g, *(mix or (1.0, 1.0))), kind, alpha, beta)
