"""Graph topology and normalized propagation operators.

build_operator is the one function from a GraphTopology to a
PropagationOperator. It mixes the undirected adjacency's self and neighbor
weights, A~ = a*I + b*A, and normalizes the mix by its row-sum degrees as
D^-alpha A~ D^-beta, in one pass. The default mix (1, 1) is the self-loop
augmented adjacency. Named kinds fix the exponents: symmetric (1/2, 1/2) for
feature smoothing, and row (1, 0), which is row-stochastic and therefore safe
to apply to probability rows; general takes them from the caller, and (0, 0)
gives the mix itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DataError, UsageError, _is_int

__all__ = ["GraphTopology", "PropagationOperator", "build_operator"]


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
                if not all(map(_is_int, pair)):
                    pair = tuple(np.asarray(pair, dtype=object).tolist())
                    raise DataError(f"edge {pair} has a non-integer node id")
        # Column-wise, not a reduce over axis 1: numpy's loop over two-entry rows is slow.
        lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
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
    """A normalized square operator held as canonical float64 scipy CSR, and
    the normalization that produced it: "symmetric", "row", or "general".
    build_operator is the only function that makes one."""

    matrix: sp.csr_matrix
    kind: str

    @property
    def num_nodes(self) -> int:
        return self.matrix.shape[0]


# The degree exponents (alpha, beta) of the named normalization kinds.
_EXPONENTS = {"symmetric": (0.5, 0.5), "row": (1.0, 0.0)}


def build_operator(
    g: GraphTopology,
    kind: str = "symmetric",
    *,
    mix: tuple[float, float] | None = None,
    alpha: float | None = None,
    beta: float | None = None,
) -> PropagationOperator:
    """The operator of the mix (a, b) under the kind's exponents, as canonical
    CSR. Entries with a zero coefficient are not stored, so a zero self weight
    plus an isolated node leaves an empty row, refused by the node's id."""
    a, b = mix or (1.0, 1.0)
    if not (0.0 <= a <= 1.0) or not (0.0 <= b <= 1.0):
        raise UsageError(f"mix coefficients must lie in [0, 1], got ({a}, {b})")
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

    n = g.num_nodes
    u, v = g.edges.T
    diag = np.arange(n, dtype=np.int64)
    vals = np.concatenate([np.full(2 * u.shape[0], b), np.full(n, a)])
    rows, cols = np.concatenate([u, v, diag]), np.concatenate([v, u, diag])
    m = sp.coo_matrix((vals, (rows, cols)), shape=(n, n), dtype=np.float64).tocsr()
    del vals, rows, cols  # freed before the normalization allocates its arrays
    m.eliminate_zeros()

    degrees = np.asarray(m.sum(axis=1)).ravel()
    zero_rows = np.flatnonzero(degrees == 0.0)
    if zero_rows.size:
        raise DataError(
            f"cannot normalize: node {int(zero_rows[0])} has an all-zero row "
            "(isolated node with no self weight)"
        )
    left = degrees ** -float(alpha)
    right = degrees ** -float(beta)
    row_of = np.repeat(diag, np.diff(m.indptr))
    m.data = m.data * left[row_of] * right[m.indices]
    return PropagationOperator(matrix=m, kind=kind)
