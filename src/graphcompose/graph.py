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
from .linalg import csr_from_coo

__all__ = [
    "GraphTopology",
    "PropagationOperator",
    "mix_self_neighbor",
    "normalize",
    "build_operator",
]


@dataclass(frozen=True)
class GraphTopology:
    """Undirected graph as canonical edges: (u, v) with u < v, strictly sorted,
    no self-loops. Self-loops enter later through the self/neighbor mix."""

    num_nodes: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = self.num_nodes
        if n < 1:
            raise DataError(f"graph needs at least one node, got {n}")
        u, v = np.asarray(self.edges).reshape(len(self.edges), 2).T  # object dtype past int64
        bad = (u == v) | (u < 0) | (u >= v) | (v >= n)
        bad[1:] |= u[1:] * n + v[1:] <= u[:-1] * n + v[:-1]
        if bad.any():
            i = int(np.argmax(bad))
            edge = (int(u[i]), int(v[i]))
            if edge[0] == edge[1]:
                raise DataError(f"self-loop edge {edge} is not allowed")
            if not (0 <= edge[0] < edge[1] < n):
                raise DataError(
                    f"edge {edge} out of range for {n} nodes or not in canonical (u < v) order"
                )
            prev = (int(u[i - 1]), int(v[i - 1]))
            raise DataError(f"edges must be strictly sorted, got {prev} then {edge}")

    @classmethod
    def from_edge_list(cls, num_nodes: int, pairs) -> "GraphTopology":
        """Canonicalize (u, v) pairs or an (E, 2) int array: symmetrize,
        deduplicate, and name the first self-loop or out-of-range pair."""
        e = np.asarray(pairs).reshape(-1, 2)  # object dtype holds ids past int64
        lo, hi = e.min(axis=1), e.max(axis=1)
        bad = (lo == hi) | (lo < 0) | (hi >= num_nodes)
        if bad.any():
            u, v = (int(x) for x in e[np.argmax(bad)])
            if u == v:
                raise DataError(f"self-loop edge ({u}, {v}) is not allowed")
            raise DataError(f"edge ({u}, {v}) has a node id outside [0, {num_nodes})")
        keys = np.unique(lo.astype(np.int64) * num_nodes + hi)
        edges = zip((keys // num_nodes).tolist(), (keys % num_nodes).tolist())
        return cls(num_nodes=num_nodes, edges=tuple(edges))

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


def _edge_arrays(g: GraphTopology) -> tuple[np.ndarray, np.ndarray]:
    e = np.asarray(g.edges, dtype=np.int64).reshape(g.num_edges, 2)
    return e[:, 0], e[:, 1]


def mix_self_neighbor(g: GraphTopology, alpha: float, beta: float) -> sp.csr_matrix:
    """alpha*I + beta*A. Entries with a zero coefficient are not stored, so a
    zero alpha plus an isolated node yields an empty row that the normalization
    step rejects by name."""
    if not (0.0 <= alpha <= 1.0) or not (0.0 <= beta <= 1.0):
        raise UsageError(f"mix coefficients must lie in [0, 1], got ({alpha}, {beta})")
    n = g.num_nodes
    u, v = _edge_arrays(g)
    diag = np.arange(n, dtype=np.int64)
    vals = np.concatenate([np.full(2 * u.shape[0], beta), np.full(n, alpha)])
    m = csr_from_coo(n, n, np.concatenate([u, v, diag]), np.concatenate([v, u, diag]), vals)
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
