import numpy as np
import pytest
import scipy.sparse as sp

from graphcompose.errors import DataError, UsageError
from graphcompose.graph import GraphTopology, build_operator

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


def unnormalized(g, a, b):
    """The mix a*I + b*A itself: the general kind at exponents (0, 0)."""
    return build_operator(g, "general", mix=(a, b), alpha=0.0, beta=0.0).matrix


class TestGraphTopology:
    def test_constructor_canonicalizes(self):
        # Reversed, duplicated and unsorted pairs all give one sorted u < v array.
        g = GraphTopology(4, [(2, 1), (1, 2), (3, 0), (0, 3)])
        np.testing.assert_array_equal(g.edges, [[0, 3], [1, 2]])
        assert g.num_edges == 2

    def test_constructor_accepts_reversed_and_duplicate_pairs(self):
        # A reversed or repeated pair is stored once in u < v order, not refused.
        for pairs, canonical in [
            (((1, 0),), [[0, 1]]),
            (((0, 1), (0, 1)), [[0, 1]]),
            (((0, 2), (0, 1), (1, 2)), [[0, 1], [0, 2], [1, 2]]),
        ]:
            edges = GraphTopology(3, pairs).edges
            np.testing.assert_array_equal(edges, canonical)
            assert edges.dtype == np.int64 and not edges.flags.writeable

    def test_rejects_self_loop(self):
        with pytest.raises(DataError):
            GraphTopology(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(DataError, match=r"outside \[0, 3\)"):
            GraphTopology(3, [(0, 3)])
        with pytest.raises(DataError, match=r"outside \[0, 3\)"):
            GraphTopology(3, [(-1, 2)])

    def test_takes_tuples_or_an_int_array(self):
        pairs = [(4, 1), (0, 2), (1, 4), (2, 0), (3, 1), (0, 2)]
        from_tuples = GraphTopology(5, pairs)
        from_array = GraphTopology(5, np.array(pairs, dtype=np.int64))
        for g in (from_tuples, from_array):
            np.testing.assert_array_equal(g.edges, [[0, 2], [1, 3], [1, 4]])
            assert g.edges.dtype == np.int64 and not g.edges.flags.writeable
        for empty in (np.empty((0, 2), dtype=np.int64), np.empty((0, 2)), []):
            edges = GraphTopology(2, empty).edges
            assert edges.shape == (0, 2) and edges.dtype == np.int64
        wide = GraphTopology(70000, np.array([[69999, 50000]], dtype=np.int32))
        np.testing.assert_array_equal(wide.edges, [[50000, 69999]])
        unsigned = GraphTopology(70000, np.array([[69999, 50000]], dtype=np.uint64))
        np.testing.assert_array_equal(unsigned.edges, wide.edges)
        assert unsigned.edges.dtype == np.int64

    @pytest.mark.parametrize("as_array", [False, True])
    def test_names_the_first_bad_pair_in_input_order(self, as_array):
        def build(pairs):
            return GraphTopology(4, np.array(pairs) if as_array else pairs)

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
        with pytest.raises(DataError, match=r"^self-loop edge \(1, 1\) is not allowed$"):
            GraphTopology(3, ((0, 1), (2, 0), (1, 1)))
        with pytest.raises(DataError, match=r"^edge \(0, 1180591620717411303424\) has a node id"):
            GraphTopology(3, ((0, 1), (0, 2**70)))
        with pytest.raises(DataError, match=r"^edge \(0, 3\) has a node id outside \[0, 3\)$"):
            GraphTopology(3, ((0, 2), (0, 1), (0, 3)))

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([(0.5, 2), (1.9, 0)], r"^edge \(0\.5, 2\) has a non-integer node id$"),
            (np.array([[0.0, 1.0]]), r"^edge \(0\.0, 1\.0\) has a non-integer node id$"),
            ([(0, 1), (0, 1.5)], r"^edge \(0, 1\.5\) has a non-integer node id$"),
            ([(0, 1), (2**70, 0.5)], r"^edge \(1180591620717411303424, 0\.5\) has a non-integer"),
            ([(0, 1), (1, "2")], r"^edge \(1, '2'\) has a non-integer node id$"),
            (np.array([[True, False]]), r"^edge \(True, False\) has a non-integer node id$"),
            ([(0, 1, 2)], r"^edges must be \(u, v\) pairs, got shape \(1, 3\)$"),
            ([0, 1], r"^edges must be \(u, v\) pairs, got shape \(2,\)$"),
            ([(0, 1), (2,)], r"^edges must be \(u, v\) pairs"),
        ],
        ids=["floats", "float-array", "one-float", "float-past-int64", "text", "bool",
             "triple", "flat", "ragged"],
    )
    def test_rejects_input_that_is_not_integer_pairs(self, pairs, message):
        with pytest.raises(DataError, match=message):
            GraphTopology(3, pairs)

    def test_rejects_empty_graph(self):
        with pytest.raises(DataError):
            GraphTopology(0, ())

    def test_isolated_nodes_allowed(self):
        g = GraphTopology(5, [(0, 1)])
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
        np.testing.assert_array_equal(dense(unnormalized(path3, 1.0, 1.0)), expected)
        for kind, alpha, beta in [
            ("symmetric", None, None),
            ("row", None, None),
            ("general", 0.0, 0.0),
            ("general", 0.3, 0.7),
        ]:
            m = build_operator(path3, kind, alpha=alpha, beta=beta).matrix
            assert isinstance(m, sp.csr_matrix)
            assert m.dtype == np.float64 and m.has_canonical_format

    def test_edgeless_graph_is_identity(self):
        g = GraphTopology(4, ())
        np.testing.assert_array_equal(dense(unnormalized(g, 1.0, 1.0)), np.eye(4))


class TestMixSelfNeighbor:
    def test_default_operator_is_the_unit_mix(self):
        g = ring_topology(15, extra_edges=6, seed=9)
        for kind in ("symmetric", "row"):
            default = build_operator(g, kind).matrix
            unit = build_operator(g, kind, mix=(1.0, 1.0)).matrix
            for field in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(default, field), getattr(unit, field))

    def test_weights_scale_parts(self, path3):
        m = dense(unnormalized(path3, 0.25, 0.75))
        a = dense(unnormalized(path3, 1.0, 1.0)) - np.eye(3)
        np.testing.assert_allclose(m, 0.25 * np.eye(3) + 0.75 * a, atol=1e-15)

    def test_zero_neighbor_weight_drops_edges(self, path3):
        m = unnormalized(path3, 1.0, 0.0)
        np.testing.assert_array_equal(dense(m), np.eye(3))
        assert m.nnz == 3

    def test_zero_self_weight_keeps_only_edges(self, path3):
        m = unnormalized(path3, 0.0, 1.0)
        np.testing.assert_array_equal(np.diag(dense(m)), np.zeros(3))
        assert m.nnz == 4

    def test_rejects_out_of_range_weights(self, path3):
        with pytest.raises(UsageError, match=r"mix coefficients must lie in \[0, 1\]"):
            build_operator(path3, "row", mix=(-0.1, 0.5))
        with pytest.raises(UsageError, match=r"mix coefficients must lie in \[0, 1\]"):
            build_operator(path3, "general", mix=(0.5, 1.5), alpha=0.0, beta=0.0)
        # The mix is checked before the kind and its exponents.
        with pytest.raises(UsageError, match="mix coefficients"):
            build_operator(path3, "colwise", mix=(2.0, 1.0))


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
        ref = reference_operator(path3, "general", 0.0, 0.0)
        np.testing.assert_array_equal(dense(gen.matrix), ref)

    def test_general_requires_exponents(self, path3):
        with pytest.raises(UsageError):
            build_operator(path3, "general")
        with pytest.raises(UsageError):
            build_operator(path3, "general", alpha=0.5)

    @pytest.mark.parametrize("alpha, beta", [(np.nan, 0.5), (0.5, np.inf), (-np.inf, 0.5)])
    def test_general_rejects_non_finite_exponents(self, path3, alpha, beta):
        with pytest.raises(UsageError, match="exponents must be finite"):
            build_operator(path3, "general", alpha=alpha, beta=beta)

    def test_plain_kinds_reject_exponents(self, path3):
        with pytest.raises(UsageError):
            build_operator(path3, "symmetric", alpha=0.5, beta=0.5)

    def test_unknown_kind(self, path3):
        with pytest.raises(UsageError):
            build_operator(path3, "colwise")

    def test_zero_row_rejected_by_node_id(self):
        # Isolated node 2 with no self weight has an empty row.
        g = GraphTopology(3, [(0, 1)])
        with pytest.raises(DataError, match="node 2"):
            build_operator(g, "row", mix=(0.0, 1.0))

    def test_mix_recorded_on_operator(self, path3):
        op = build_operator(path3, "row", mix=(0.4, 0.6))
        ref = reference_operator(path3, "row", mix=(0.4, 0.6))
        np.testing.assert_allclose(dense(op.matrix), ref, atol=1e-14)

    def test_mix_identity_row_normalizes_to_identity(self, path3):
        op = build_operator(path3, "row", mix=(1.0, 0.0))
        np.testing.assert_array_equal(dense(op.matrix), np.eye(3))
