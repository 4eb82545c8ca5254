import numpy as np
import pytest
import scipy.sparse as sp

from graphcompose.errors import DataError, UsageError
from graphcompose.graph import (
    GraphTopology,
    build_operator,
    mix_self_neighbor,
    normalize,
)

from .conftest import dense, ring_topology

S6 = 1.0 / np.sqrt(6.0)

# Path 0-1-2 with self-loops: degrees (2, 3, 2).
PATH3_SYMMETRIC = np.array(
    [
        [0.5, S6, 0.0],
        [S6, 1.0 / 3.0, S6],
        [0.0, S6, 0.5],
    ]
)
PATH3_ROW = np.array(
    [
        [0.5, 0.5, 0.0],
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        [0.0, 0.5, 0.5],
    ]
)


def reference_operator(topology, kind, alpha=None, beta=None, mix=None):
    """Dense re-derivation of the normalized operator, used as the oracle."""
    n = topology.num_nodes
    a = np.zeros((n, n))
    for u, v in topology.edges:
        a[u, v] = a[v, u] = 1.0
    if mix is None:
        m = np.eye(n) + a
    else:
        m = mix[0] * np.eye(n) + mix[1] * a
    deg = m.sum(axis=1)
    if kind == "symmetric":
        scale = deg**-0.5
        return scale[:, None] * m * scale[None, :]
    if kind == "row":
        return m / deg[:, None]
    return (deg ** -float(alpha))[:, None] * m * (deg ** -float(beta))[None, :]


class TestGraphTopology:
    def test_from_edge_list_canonicalizes(self):
        g = GraphTopology.from_edge_list(4, [(2, 1), (1, 2), (3, 0), (0, 3)])
        assert g.edges == ((0, 3), (1, 2))
        assert g.num_edges == 2

    def test_rejects_self_loop(self):
        with pytest.raises(DataError):
            GraphTopology.from_edge_list(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(DataError, match=r"outside \[0, 3\)"):
            GraphTopology.from_edge_list(3, [(0, 3)])
        with pytest.raises(DataError, match=r"outside \[0, 3\)"):
            GraphTopology.from_edge_list(3, [(-1, 2)])

    def test_from_edge_list_takes_tuples_or_an_int_array(self):
        pairs = [(4, 1), (0, 2), (1, 4), (2, 0), (3, 1), (0, 2)]
        from_tuples = GraphTopology.from_edge_list(5, pairs)
        from_array = GraphTopology.from_edge_list(5, np.array(pairs, dtype=np.int64))
        assert from_tuples.edges == from_array.edges == ((0, 2), (1, 3), (1, 4))
        assert all(type(x) is int for edge in from_array.edges for x in edge)
        assert GraphTopology.from_edge_list(2, np.empty((0, 2), dtype=np.int64)).edges == ()
        assert GraphTopology.from_edge_list(2, []).edges == ()
        wide = GraphTopology.from_edge_list(70000, np.array([[69999, 50000]], dtype=np.int32))
        assert wide.edges == ((50000, 69999),)

    @pytest.mark.parametrize("as_array", [False, True])
    def test_from_edge_list_names_the_first_bad_pair_in_input_order(self, as_array):
        def build(pairs):
            return GraphTopology.from_edge_list(4, np.array(pairs) if as_array else pairs)

        with pytest.raises(DataError, match=r"^edge \(5, 0\) has a node id outside \[0, 4\)$"):
            build([(0, 1), (5, 0), (2, 2), (-1, 3)])
        with pytest.raises(DataError, match=r"^self-loop edge \(2, 2\) is not allowed$"):
            build([(0, 1), (2, 2), (5, 0)])
        with pytest.raises(DataError, match=r"^edge \(-1, 3\) has a node id outside"):
            build([(3, 1), (-1, 3), (0, 0)])
        if not as_array:
            with pytest.raises(DataError, match=r"^edge \(0, 1180591620717411303424\) has"):
                build([(0, 1), (0, 2**70)])

    def test_direct_constructor_names_the_first_bad_edge(self):
        with pytest.raises(DataError, match=r"^self-loop edge \(1, 1\) is not allowed$"):
            GraphTopology(3, ((0, 1), (1, 1), (2, 0)))
        with pytest.raises(DataError, match=r"^edge \(2, 0\) out of range for 3 nodes"):
            GraphTopology(3, ((0, 1), (2, 0), (1, 1)))
        with pytest.raises(DataError, match=r"^edge \(0, 1180591620717411303424\) out of range"):
            GraphTopology(3, ((0, 1), (0, 2**70)))
        with pytest.raises(DataError, match=r"^edges must be strictly sorted, got \(0, 2\) then"):
            GraphTopology(3, ((0, 2), (0, 1), (0, 3)))

    def test_direct_constructor_requires_canonical_order(self):
        with pytest.raises(DataError):
            GraphTopology(3, ((1, 0),))
        with pytest.raises(DataError):
            GraphTopology(3, ((0, 1), (0, 1)))

    def test_rejects_empty_graph(self):
        with pytest.raises(DataError):
            GraphTopology(0, ())

    def test_isolated_nodes_allowed(self):
        g = GraphTopology.from_edge_list(5, [(0, 1)])
        assert g.num_nodes == 5


class TestAugment:
    def test_path3(self, path3):
        expected = np.array(
            [
                [1.0, 1.0, 0.0],
                [1.0, 1.0, 1.0],
                [0.0, 1.0, 1.0],
            ]
        )
        np.testing.assert_array_equal(dense(mix_self_neighbor(path3, 1.0, 1.0)), expected)

    def test_edgeless_graph_is_identity(self):
        g = GraphTopology(4, ())
        np.testing.assert_array_equal(dense(mix_self_neighbor(g, 1.0, 1.0)), np.eye(4))


class TestMixSelfNeighbor:
    def test_default_operator_is_the_unit_mix(self):
        g = ring_topology(15, extra_edges=6, seed=9)
        for kind in ("symmetric", "row"):
            default = build_operator(g, kind).matrix
            unit = build_operator(g, kind, mix=(1.0, 1.0)).matrix
            for field in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(default, field), getattr(unit, field))

    def test_weights_scale_parts(self, path3):
        m = dense(mix_self_neighbor(path3, 0.25, 0.75))
        a = dense(mix_self_neighbor(path3, 1.0, 1.0)) - np.eye(3)
        np.testing.assert_allclose(m, 0.25 * np.eye(3) + 0.75 * a, atol=1e-15)

    def test_zero_neighbor_weight_drops_edges(self, path3):
        m = mix_self_neighbor(path3, 1.0, 0.0)
        np.testing.assert_array_equal(dense(m), np.eye(3))
        assert m.nnz == 3

    def test_zero_self_weight_keeps_only_edges(self, path3):
        m = dense(mix_self_neighbor(path3, 0.0, 1.0))
        np.testing.assert_array_equal(np.diag(m), np.zeros(3))

    def test_rejects_out_of_range_weights(self, path3):
        with pytest.raises(UsageError):
            mix_self_neighbor(path3, -0.1, 0.5)
        with pytest.raises(UsageError):
            mix_self_neighbor(path3, 0.5, 1.5)


class TestNormalize:
    def test_path3_symmetric_values(self, path3):
        op = build_operator(path3, "symmetric")
        np.testing.assert_allclose(dense(op.matrix), PATH3_SYMMETRIC, atol=1e-15)
        assert op.kind == "symmetric"

    def test_path3_row_values(self, path3):
        op = build_operator(path3, "row")
        np.testing.assert_allclose(dense(op.matrix), PATH3_ROW, atol=1e-15)

    def test_row_is_stochastic_on_random_graphs(self):
        for seed in range(8):
            g = ring_topology(12 + seed, extra_edges=6, seed=seed)
            op = build_operator(g, "row")
            sums = dense(op.matrix).sum(axis=1)
            np.testing.assert_allclose(sums, np.ones(g.num_nodes), atol=1e-12)

    def test_matches_dense_reference(self):
        g = ring_topology(10, extra_edges=5, seed=3)
        for kind, alpha, beta in [
            ("symmetric", None, None),
            ("row", None, None),
            ("general", 0.3, 0.7),
            ("general", 1.0, 0.25),
        ]:
            op = build_operator(g, kind, alpha=alpha, beta=beta)
            ref = reference_operator(g, kind, alpha, beta)
            np.testing.assert_allclose(dense(op.matrix), ref, atol=1e-13)

    def test_general_half_half_equals_symmetric(self, path3):
        sym = build_operator(path3, "symmetric")
        gen = build_operator(path3, "general", alpha=0.5, beta=0.5)
        np.testing.assert_allclose(dense(gen.matrix), dense(sym.matrix), atol=1e-14)

    def test_general_one_zero_equals_row(self, path3):
        row = build_operator(path3, "row")
        gen = build_operator(path3, "general", alpha=1.0, beta=0.0)
        np.testing.assert_allclose(dense(gen.matrix), dense(row.matrix), atol=1e-14)

    def test_general_zero_zero_is_unnormalized(self, path3):
        gen = build_operator(path3, "general", alpha=0.0, beta=0.0)
        np.testing.assert_array_equal(dense(gen.matrix), dense(mix_self_neighbor(path3, 1.0, 1.0)))

    def test_general_requires_exponents(self, path3):
        with pytest.raises(UsageError):
            build_operator(path3, "general")
        with pytest.raises(UsageError):
            build_operator(path3, "general", alpha=0.5)

    def test_plain_kinds_reject_exponents(self, path3):
        with pytest.raises(UsageError):
            build_operator(path3, "symmetric", alpha=0.5, beta=0.5)

    def test_unknown_kind(self, path3):
        with pytest.raises(UsageError):
            build_operator(path3, "colwise")

    def test_zero_row_rejected_by_node_id(self):
        # Isolated node 2 with no self weight has an empty row.
        g = GraphTopology.from_edge_list(3, [(0, 1)])
        with pytest.raises(DataError, match="node 2"):
            build_operator(g, "row", mix=(0.0, 1.0))

    def test_symmetric_requires_symmetric_input(self):
        m = sp.csr_matrix(np.array([[1.0, 2.0], [0.5, 1.0]]))
        with pytest.raises(DataError):
            normalize(m, "symmetric")

    def test_rejects_negative_entries(self):
        m = sp.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        with pytest.raises(DataError):
            normalize(m, "row")

    def test_accepts_any_scipy_sparse_input(self, path3):
        a = mix_self_neighbor(path3, 1.0, 1.0)
        before = a.data.copy()
        # Every entry split in two halves, in reverse order: duplicate and
        # unsorted coordinates in COO form.
        coo = a.tocoo()
        rows = np.concatenate([coo.row, coo.row])[::-1]
        cols = np.concatenate([coo.col, coo.col])[::-1]
        vals = np.concatenate([coo.data, coo.data])[::-1] / 2
        op = normalize(sp.coo_matrix((vals, (rows, cols)), shape=a.shape), "symmetric")
        assert isinstance(op.matrix, sp.csr_matrix) and op.matrix.has_canonical_format
        np.testing.assert_allclose(dense(op.matrix), PATH3_SYMMETRIC, atol=1e-15)
        np.testing.assert_array_equal(a.data, before)

    def test_mix_recorded_on_operator(self, path3):
        op = build_operator(path3, "row", mix=(0.4, 0.6))
        ref = reference_operator(path3, "row", mix=(0.4, 0.6))
        np.testing.assert_allclose(dense(op.matrix), ref, atol=1e-14)

    def test_mix_identity_row_normalizes_to_identity(self, path3):
        op = build_operator(path3, "row", mix=(1.0, 0.0))
        np.testing.assert_array_equal(dense(op.matrix), np.eye(3))
