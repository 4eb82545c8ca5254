import dataclasses
import hashlib
import json
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given
from hypothesis import strategies as st

from graphcompose import networks
from graphcompose.data import load_dataset, load_standard_split
from graphcompose.errors import DataError, UsageError
from graphcompose.graph import GraphTopology, build_operator
from graphcompose.lpnn import G_SPEC
from graphcompose.networks import (
    Fp,
    GcnBlock,
    LinearClassifier,
    Lp,
    Mlp,
    NetworkSpec,
    PRESET_NAMES,
    Softmax,
    backward,
    compile_network,
    estimate_cost,
    forward,
    init_params,
    linear_vjp,
    preset,
    restrict,
    spec_from_dict,
    spec_to_dict,
    validate_spec,
)

from .conftest import (
    dense,
    entry_kinds,
    make_synthetic,
    ring_topology,
    sparse_planted_dataset,
    whole,
)
from .reference import rows_read, run, unroll


@pytest.fixture(scope="module")
def ops():
    g = ring_topology(14, extra_edges=6, seed=7)
    return {
        "symmetric": build_operator(g, "symmetric"),
        "row": build_operator(g, "row"),
    }


@pytest.fixture(scope="module")
def x14():
    return np.random.default_rng(21).normal(size=(14, 5))


class TestStageValidation:
    def test_exactly_one_softmax(self):
        with pytest.raises(UsageError):
            validate_spec(NetworkSpec("bad", (LinearClassifier(),)))
        with pytest.raises(UsageError):
            validate_spec(
                NetworkSpec("bad", (LinearClassifier(), Softmax(), Softmax()))
            )

    def test_lp_only_after_softmax(self):
        with pytest.raises(UsageError):
            validate_spec(
                NetworkSpec("bad", (Lp(1), LinearClassifier(), Softmax()))
            )

    def test_nothing_but_lp_after_softmax(self):
        with pytest.raises(UsageError):
            validate_spec(
                NetworkSpec("bad", (LinearClassifier(), Softmax(), LinearClassifier()))
            )

    def test_fp_must_precede_parameterized_stages(self):
        with pytest.raises(UsageError):
            validate_spec(
                NetworkSpec("bad", (Mlp((8,)), Fp(1), LinearClassifier(), Softmax()))
            )

    def test_gcn_block_dims_must_match_layers(self):
        with pytest.raises(UsageError):
            GcnBlock(layers=3, hidden_dims=(16,))

    def test_gcn_block_smoothings_bounded(self):
        with pytest.raises(UsageError):
            GcnBlock(layers=2, hidden_dims=(16,), smoothings=3)

    # A count that is not an integer is refused before any use, never
    # truncated or left to fail inside compile.
    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Fp(1.5), "fp layers must be an integer, got 1.5"),
            (lambda: Lp(1.5), "lp layers must be an integer, got 1.5"),
            (lambda: preset("sgcn", depth=2.0), "network depth must be an integer, got 2.0"),
            (lambda: preset("gcn", hidden_dim=1.5), "hidden width must be an integer, got 1.5"),
            (lambda: Mlp((2.9,)), "mlp hidden width must be an integer, got 2.9"),
            (lambda: GcnBlock(2, (True,)), "gcn hidden width must be an integer, got True"),
            (lambda: GcnBlock(2, (16,), smoothings=1.5),
             "gcn block smoothings must lie in [0, 2], got 1.5"),
        ],
        ids=["fp", "lp", "preset-depth", "preset-hidden", "mlp-width", "gcn-width", "smoothings"],
    )
    def test_non_integer_counts_refused(self, make, message):
        with pytest.raises(UsageError) as info:
            make()
        assert str(info.value) == message

    def test_numpy_integer_counts_become_python_ints(self):
        stages = [Fp(np.int64(2)), Mlp((np.int64(8),)),
                  GcnBlock(np.int64(2), (np.int32(4),), smoothings=np.int8(1)), Lp(np.uint8(1))]
        doc = spec_to_dict(NetworkSpec("n", stages + [Softmax()]))
        assert json.loads(json.dumps(doc)) == doc
        assert [type(s.layers) for s in (stages[0], stages[2], stages[3])] == [int] * 3
        assert Mlp(d for d in (4, 5)).hidden_dims == (4, 5)


class TestPresets:
    def test_all_names_build_and_validate(self):
        for name in PRESET_NAMES:
            validate_spec(preset(name))

    def test_unknown_name(self):
        with pytest.raises(UsageError):
            preset("resnet")

    def test_lp_zero_reduces_split_variants(self):
        assert preset("sgcn-lp", lp_layers=0).stages == preset("sgcn").stages
        assert preset("gcn-lp", lp_layers=0).stages == preset("gcn").stages

    def test_budget_split(self):
        spec = preset("sgcn-lp", depth=4, lp_layers=3)
        fp = [s for s in spec.stages if isinstance(s, Fp)]
        lp = [s for s in spec.stages if isinstance(s, Lp)]
        assert fp[0].layers == 1 and lp[0].layers == 3

    def test_lp_can_consume_whole_budget(self):
        spec = preset("sgcn-lp", depth=2, lp_layers=4)
        assert not any(isinstance(s, Fp) for s in spec.stages)
        assert spec.stages[-1].layers == 4

    def test_gcn_lp_splits_smoothings(self):
        spec = preset("gcn-lp", depth=3, lp_layers=1, hidden_dim=8)
        block = spec.stages[0]
        assert isinstance(block, GcnBlock)
        assert block.layers == 3 and block.effective_smoothings == 2

    def test_depth_one_gcn(self):
        spec = preset("gcn", depth=1)
        assert spec.stages[0].hidden_dims == ()

    def test_linear_lp_defaults_lp_to_depth(self):
        spec = preset("linear-lp", depth=3)
        assert spec.stages[-1].layers == 3

    def test_depth_below_one_rejected(self):
        with pytest.raises(UsageError):
            preset("gcn", depth=0)

    def test_grid_matches_the_hand_written_presets(self):
        # Every preset at every depth, lp count (past the depth too) and width
        # gives the specs the per-name constructions gave; the digest was taken
        # from those constructions over this same grid.
        docs = [
            spec_to_dict(preset(name, hidden_dim=hidden, depth=depth, lp_layers=ll))
            for name in PRESET_NAMES
            for depth in (1, 2, 3, 4, 6)
            for ll in (None, 0, 1, 2, 3, 5)
            for hidden in (8, 16)
        ]
        digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
        assert digest == "715e1dcc5f9c506244dd59b10e0c0f3a36d0515df401647b6442cc2d3115a901"


class TestSpecSerialization:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_roundtrip(self, name):
        spec = preset(name, hidden_dim=32, depth=3, lp_layers=1)
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_omitted_fields_take_defaults(self):
        kinds = ("fp", "mlp", "linear_classifier", "gcn_block", "softmax", "lp")
        spec = spec_from_dict({"name": "d", "stages": [{"kind": k} for k in kinds]})
        assert spec.stages == (
            Fp(2, "symmetric"),
            Mlp((16,), "relu"),
            LinearClassifier(),
            GcnBlock(2, (16,), "symmetric", None),
            Softmax(),
            Lp(1, "row"),
        )

    def test_bad_document(self):
        with pytest.raises(UsageError):
            spec_from_dict({"stages": []})
        with pytest.raises(UsageError):
            spec_from_dict({"name": "x", "stages": [{"kind": "conv2d"}]})

    @pytest.mark.parametrize(
        "stage, accepted",
        [
            ({"kind": "gcn_block", "smoothings": None}, True),
            ({"kind": "gcn_block", "smoothings": 1}, True),
            ({"kind": "gcn_block", "smoothings": 1.0}, False),
            ({"kind": "gcn_block", "smoothings": False}, False),
            ({"kind": "mlp", "hidden_dims": [8, True]}, False),
            ({"kind": "lp", "operator": 1}, False),
            ({"kind": ["fp"]}, False),
        ],
    )
    def test_field_types_follow_the_annotations(self, stage, accepted):
        doc = {"name": "x", "stages": [stage]}
        if accepted:
            assert spec_from_dict(doc).stages[0].smoothings == stage["smoothings"]
        else:
            with pytest.raises(UsageError, match="stage|kind"):
                spec_from_dict(doc)


class TestCompile:
    def test_sgcn_folds_to_linear_softmax(self, ops, x14):
        net = compile_network(preset("sgcn"), ops, 5, 3, features=x14)
        assert entry_kinds(net) == ("linear", "softmax")
        unfolded = entry_kinds(compile_network(preset("sgcn"), ops, 5, 3))
        assert unfolded == ("smooth", "smooth", "linear", "softmax")
        s = dense(ops["symmetric"].matrix)
        np.testing.assert_allclose(whole(net).x_bar, s @ (s @ x14), atol=1e-12)

    def test_gcn_chain_without_features(self, ops):
        net = compile_network(preset("gcn"), ops, 5, 3)
        assert entry_kinds(net) == ("smooth", "linear", "relu", "smooth", "linear", "softmax")
        assert net.param_shapes == ((5, 16), (16, 3))

    def test_gcn_folds_only_leading_smoothing(self, ops, x14):
        net = compile_network(preset("gcn"), ops, 5, 3, features=x14)
        assert entry_kinds(net) == ("linear", "relu", "smooth", "linear", "softmax")
        assert entry_kinds(compile_network(preset("gcn"), ops, 5, 3))[:2] == ("smooth", "linear")

    def test_dropout_precedes_every_linear(self, ops):
        net = compile_network(preset("mlp-lp", lp_layers=2), ops, 5, 3, dropout=0.5)
        assert entry_kinds(net) == (
            "dropout",
            "linear",
            "relu",
            "dropout",
            "linear",
            "softmax",
            "lp",
            "lp",
        )

    def test_zero_dropout_inserts_nothing(self, ops):
        net = compile_network(preset("mlp-lp"), ops, 5, 3, dropout=0.0)
        assert "dropout" not in entry_kinds(net)

    def test_lp_requires_row_operator(self, ops):
        spec = NetworkSpec(
            "bad-lp", (LinearClassifier(), Softmax(), Lp(1, operator="symmetric"))
        )
        with pytest.raises(UsageError, match="row-normalized"):
            compile_network(spec, ops, 5, 3)

    def test_lp_accepts_general_operator(self):
        g = ring_topology(14, extra_edges=6, seed=7)
        ops = {"general": build_operator(g, "general", alpha=0.5, beta=0.5)}
        spec = NetworkSpec("general-lp", (LinearClassifier(), Softmax(), Lp(1, operator="general")))
        net = compile_network(spec, ops, 5, 3)
        assert entry_kinds(net)[-1] == "lp"

    def test_missing_operator_name(self, ops):
        spec = NetworkSpec("missing", (Fp(1, "colwise"), LinearClassifier(), Softmax()))
        with pytest.raises(UsageError, match="colwise"):
            compile_network(spec, ops, 5, 3)

    def test_sizes_must_be_positive(self, ops):
        with pytest.raises(UsageError, match=r"need positive input_dim and num_classes, got 0, 3$"):
            compile_network(preset("sgcn"), ops, 0, 3)

    def test_operators_must_share_a_node_count(self, ops):
        other = {**ops, "row": build_operator(ring_topology(9, seed=1), "row")}
        with pytest.raises(UsageError, match=r"operators disagree on node count: 14 vs 9$"):
            compile_network(preset("sgcn-lp"), other, 5, 3)

    def test_softmax_dimension_check(self, ops):
        spec = NetworkSpec("dim", (Mlp((16,)), Softmax()))
        with pytest.raises(UsageError):
            compile_network(spec, ops, 5, 3)

    def test_feature_row_count_checked(self, ops):
        with pytest.raises(UsageError):
            compile_network(preset("sgcn"), ops, 5, 3, features=np.zeros((9, 5)))

    def test_feature_width_checked(self, ops, x14):
        with pytest.raises(UsageError):
            compile_network(preset("sgcn"), ops, 7, 3, features=x14)

    def test_one_dimensional_features_refused(self, ops):
        with pytest.raises(UsageError, match=r"features must be 2-D, got shape \(14,\)"):
            compile_network(preset("sgcn"), ops, 5, 3, features=np.zeros(14))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("form", ["dense", "csr"])
    def test_non_finite_features_refused(self, ops, x14, value, form):
        # A canonical float64 CSR matrix skips conversion, not the check.
        x = x14.copy()
        x[3, 1] = value
        features = sp.csr_matrix(x) if form == "csr" else x
        with pytest.raises(DataError, match=rf"node 3 feature 1 has non-finite value {value}$"):
            compile_network(preset("sgcn"), ops, 5, 3, features=features)

    def test_csr_features_converted_without_change(self, ops, x14):
        # Stored zeros, unsorted indices and float32 values: copied to
        # canonical float64 CSR, folding as the dense features do.
        given = sp.csr_matrix(x14.astype(np.float32))
        given.data[0] = 0.0
        given.indices[:2] = given.indices[1::-1].copy()
        given.data[:2] = given.data[1::-1].copy()
        before = [a.copy() for a in (given.data, given.indices, given.indptr)]
        net = compile_network(preset("sgcn"), ops, 5, 3, features=given)
        for old, new in zip(before, (given.data, given.indices, given.indptr)):
            assert old.tobytes() == new.tobytes()
        ref = compile_network(preset("sgcn"), ops, 5, 3, features=dense(given))
        assert whole(net).x_bar.tobytes() == whole(ref).x_bar.tobytes()

    def test_param_count(self, ops):
        net = compile_network(preset("fp-mlp", hidden_dim=8), ops, 5, 3)
        assert net.param_shapes == ((5, 8), (8, 3))
        assert sum(r * c for r, c in net.param_shapes) == 5 * 8 + 8 * 3


class TestForwardBackward:
    def test_train_mode_returns_states_infer_does_not(self, ops, x14):
        net = compile_network(preset("gcn"), ops, 5, 3, features=x14)
        params = init_params(net, np.random.default_rng(5))
        _, states = forward(whole(net), params, mode="train")
        assert states is not None and len(states) == len(net.layers)
        _, none_states = forward(whole(net), params, mode="infer")
        assert none_states is None

    def test_dropout_train_differs_infer_matches_expectation(self, ops, x14):
        net = compile_network(preset("sgcn"), ops, 5, 3, features=x14, dropout=0.5)
        params = init_params(net, np.random.default_rng(6))
        out_infer, _ = forward(whole(net), params)
        out_train, _ = forward(whole(net), params, mode="train", rng=np.random.default_rng(7))
        assert not np.allclose(out_infer, out_train)

    def test_forward_without_input(self, ops):
        net = compile_network(preset("gcn"), ops, 5, 3)
        with pytest.raises(UsageError):
            forward(net, init_params(net, np.random.default_rng(8)))

    def test_forward_refuses_a_compiled_network(self, ops, x14):
        net = compile_network(preset("gcn"), ops, 5, 3, features=x14)
        with pytest.raises(UsageError, match="only a copy made by restrict"):
            forward(net, init_params(net, np.random.default_rng(8)))

    def test_backward_refuses_a_compiled_network(self, ops, x14):
        net = compile_network(preset("gcn"), ops, 5, 3, features=x14)
        _, states = forward(whole(net), init_params(net, np.random.default_rng(8)), mode="train")
        with pytest.raises(UsageError, match="only a copy made by restrict"):
            backward(net, states, np.ones((14, 3)))

    def test_forward_refuses_an_unknown_mode(self, ops, x14):
        net = compile_network(preset("gcn"), ops, 5, 3, features=x14)
        params = init_params(net, np.random.default_rng(8))
        with pytest.raises(UsageError, match="forward mode must be 'train' or 'infer', got 'eval'"):
            forward(whole(net), params, mode="eval")

    def test_forward_checks_param_count(self, ops, x14):
        net = compile_network(preset("gcn"), ops, 5, 3, features=x14)
        with pytest.raises(UsageError):
            forward(whole(net), [])

    def test_backward_requires_states(self, ops, x14):
        net = compile_network(preset("sgcn"), ops, 5, 3, features=x14)
        with pytest.raises(UsageError):
            backward(whole(net), None, np.zeros((14, 3)))

    def test_backward_consumes_states(self, ops, x14, monkeypatch):
        net = compile_network(preset("gcn"), ops, 5, 3, features=x14, dropout=0.5)
        params = init_params(net, np.random.default_rng(8))
        out, states = forward(whole(net), params, mode="train", rng=np.random.default_rng(9))
        # Dropout and relu masks, softmax outputs, and each linear's input.
        arrays = [c[0] if isinstance(c, tuple) else c for c in states]
        refs = [(i, weakref.ref(a)) for i, a in enumerate(arrays) if a is not None]
        assert len(refs) == len(net.layers) - entry_kinds(net).count("smooth")
        del out, arrays
        # When the first linear's vjp runs, every later entry's vjp is done.
        first = entry_kinds(net).index("linear")
        alive_then = []
        original = networks.linear_vjp

        def spy(x, w, upstream, input_grad=True):
            if not input_grad:
                alive_then.append([i for i, r in refs if i > first and r() is not None])
            return original(x, w, upstream, input_grad)

        monkeypatch.setattr(networks, "linear_vjp", spy)
        backward(whole(net), states, np.ones((14, 3)))
        assert states == [] and alive_then == [[]]
        assert [i for i, r in refs if r() is not None] == []

    def test_backward_refuses_states_of_another_length(self, ops, x14):
        net = compile_network(preset("gcn"), ops, 5, 3, features=x14)
        params = init_params(net, np.random.default_rng(8))
        _, states = forward(whole(net), params, mode="train")
        entries = len(net.layers)
        backward(whole(net), states, np.ones((14, 3)))
        with pytest.raises(UsageError, match=f"got 0 states for {entries} chain entries"):
            backward(whole(net), states, np.ones((14, 3)))
        other = compile_network(preset("sgcn"), ops, 5, 3, features=x14)
        _, states = forward(whole(other), init_params(other, np.random.default_rng(8)), mode="train")
        assert len(states) != entries
        with pytest.raises(UsageError, match=f"got {len(states)} states for {entries} chain"):
            backward(whole(net), states, np.ones((14, 3)))


class TestPrecomputeFp:
    def test_negative_rejected(self):
        with pytest.raises(UsageError):
            Fp(-1)


class TestCost:
    N, E, D, M = 100, 400, 16, 4

    def by_preset(self, name, **kw):
        spec = preset(name, hidden_dim=self.D, **kw)
        return estimate_cost(spec, self.N, self.E, self.D, self.M)

    def test_gcn_terms(self):
        c = self.by_preset("gcn")
        assert c.feature_prop == 2 * self.E * self.D
        assert c.hidden == 2 * self.N * self.D * self.D
        assert c.classifier == self.N * self.D * self.M
        assert c.label_prop == 0

    def test_sgcn_classifier_only(self):
        spec = preset("sgcn")
        c = estimate_cost(spec, self.N, self.E, 50, self.M)
        assert dataclasses.asdict(c) == {
            "feature_prop": 0,
            "hidden": 0,
            "classifier": self.N * 50 * self.M,
            "label_prop": 0,
        }

    def test_fp_mlp_no_propagation_charge(self):
        c = self.by_preset("fp-mlp")
        assert c.feature_prop == 0
        assert c.hidden == 2 * self.N * self.D * self.D
        assert c.classifier == self.N * self.D * self.M

    def test_sgcn_lp(self):
        spec = preset("sgcn-lp", lp_layers=1)
        c = estimate_cost(spec, self.N, self.E, 50, self.M)
        assert dataclasses.asdict(c) == {
            "feature_prop": 0,
            "hidden": 0,
            "classifier": self.N * 50 * self.M,
            "label_prop": self.E * self.M,
        }

    def test_gcn_lp_has_all_four_terms(self):
        c = self.by_preset("gcn-lp", lp_layers=1)
        assert all(dataclasses.asdict(c).values())
        assert c.label_prop == self.E * self.M

    def test_linear_lp(self):
        spec = preset("linear-lp", lp_layers=2)
        c = estimate_cost(spec, self.N, self.E, 50, self.M)
        assert dataclasses.asdict(c) == {
            "feature_prop": 0,
            "hidden": 0,
            "classifier": self.N * 50 * self.M,
            "label_prop": 2 * self.E * self.M,
        }

    def test_mlp_lp(self):
        c = self.by_preset("mlp-lp", lp_layers=2)
        assert c.feature_prop == 0
        assert c.hidden == 2 * self.N * self.D * self.D
        assert c.label_prop == 2 * self.E * self.M

    def test_total(self):
        c = self.by_preset("gcn-lp", lp_layers=1)
        assert c.total == c.feature_prop + c.hidden + c.classifier + c.label_prop

    def test_compile_attaches_cost(self, ops, x14):
        net = compile_network(preset("sgcn"), ops, 5, 3, features=x14, num_edges=20)
        assert net.cost is not None
        assert dataclasses.asdict(net.cost) == {
            "feature_prop": 0,
            "hidden": 0,
            "classifier": 14 * 5 * 3,
            "label_prop": 0,
        }

    def test_bad_sizes(self):
        with pytest.raises(UsageError):
            estimate_cost(preset("gcn"), 0, 10, 4, 2)


class TestInitAndDtype:
    def test_init_deterministic_and_bounded(self, ops, x14):
        net = compile_network(preset("gcn"), ops, 5, 3, features=x14)
        a = init_params(net, np.random.default_rng(42))
        b = init_params(net, np.random.default_rng(42))
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa, pb)
        limit0 = np.sqrt(6.0 / (5 + 16))
        assert np.abs(a[0]).max() <= limit0

    def test_with_dtype_float32(self, ops, x14):
        net = compile_network(preset("gcn"), ops, 5, 3, features=x14)
        net32 = restrict(net, np.arange(14), dtype=np.float32)
        assert net32.x_bar.dtype == np.float32
        smooth = [e for e in net32.layers if e.kind == "smooth"][0]
        assert smooth.matrix.data.dtype == np.float32
        # The original network is untouched.
        assert net.x_bar.dtype == np.float64

    def test_with_dtype_rejects_others(self, ops, x14):
        net = compile_network(preset("sgcn"), ops, 5, 3, features=x14)
        with pytest.raises(UsageError, match="unsupported dtype int32"):
            restrict(net, [0], dtype=np.int32)


@pytest.fixture(scope="module")
def sparse_case():
    """40 nodes with 1%-dense features: every preset folds to a CSR input."""
    dataset = sparse_planted_dataset(40, 3, 200, 0.01, seed=31, edges_per_node=2)
    ops = {
        "symmetric": build_operator(dataset.topology, "symmetric"),
        "row": build_operator(dataset.topology, "row"),
    }
    return dataset, ops


def compile_sparse(sparse_case, name, **kwargs):
    dataset, ops = sparse_case
    spec = preset(name, hidden_dim=4)
    return compile_network(
        spec, ops, dataset.num_features, dataset.num_classes, features=dataset.features, **kwargs
    )


class TestSparseInput:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_low_density_folds_to_csr(self, sparse_case, name):
        x_bar = whole(compile_sparse(sparse_case, name)).x_bar
        assert sp.issparse(x_bar) and x_bar.format == "csr"
        assert x_bar.has_sorted_indices

    def test_dense_features_stay_dense(self, ops, x14):
        for name in PRESET_NAMES:
            net = compile_network(preset(name), ops, 5, 3, features=x14)
            assert isinstance(whole(net).x_bar, np.ndarray)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_a_draw_that_drops_every_entry(self, dtype):
        x = sp.csr_matrix(np.array([[0.0, -1.5, 0.0], [2.0, 0.0, -0.25]], dtype=dtype))
        w = np.array([[0.5, -1.0], [0.0, 2.0], [-3.0, 0.0]], dtype=dtype)
        upstream = np.array([[1.0, 0.0], [-2.0, 0.5]], dtype=dtype)
        out, mask = networks.dropout_forward(x, 0.999, np.random.default_rng(43), True)
        assert not mask.any() and out.nnz == 0
        stored_zeros = sp.csr_matrix((x.data * mask / (1 - 0.999), x.indices, x.indptr), shape=x.shape)
        for got, ref in [
            (networks.linear_forward(out, w), networks.linear_forward(stored_zeros, w)),
            (linear_vjp(out, w, upstream, False)[1], linear_vjp(stored_zeros, w, upstream, False)[1]),
        ]:
            assert got.dtype == ref.dtype == dtype and got.tobytes() == ref.tobytes()
            assert not np.signbit(got).any()


class TestBackwardStopsAtFirstLinear:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_first_dropout_vjp_never_runs(self, ops, x14, name, monkeypatch):
        net = compile_network(preset(name), ops, 5, 3, features=x14, dropout=0.5)
        params = init_params(net, np.random.default_rng(38))
        _, states = forward(whole(net), params, mode="train", rng=np.random.default_rng(39))
        kinds = entry_kinds(net)
        assert kinds[:2] == ("dropout", "linear")
        first_mask = states[0]
        masks = []
        original = networks.dropout_vjp

        def spy(mask, rate, upstream):
            masks.append(mask)
            return original(mask, rate, upstream)

        monkeypatch.setattr(networks, "dropout_vjp", spy)
        backward(whole(net), states, np.ones((14, 3)))
        assert len(masks) == kinds.count("dropout") - 1
        assert all(mask is not first_mask for mask in masks)


class TestFoldDensifies:
    """A dense folded input is folded with sparse products up to the first hop
    whose density bound reaches SPARSE_INPUT_DENSITY and densified there; it is
    bitwise the fold of the dense features."""

    @pytest.mark.parametrize(
        "density, depth, operands",
        [
            (1.0, 2, ["dense", "dense"]),  # the features already reach the bound
            (0.10, 1, ["csr"]),  # the one hop's result is densified
            (0.10, 2, ["csr", "dense"]),  # Pubmed-like: densified after the first hop
        ],
        ids=["features", "one-hop", "two-hops"],
    )
    def test_x_bar_is_bitwise_the_dense_fold(self, monkeypatch, density, depth, operands):
        dataset = sparse_planted_dataset(400, 3, 100, density, seed=44)
        op = build_operator(dataset.topology, "symmetric")
        seen = []
        product = networks.spmm

        def spy(s, x):
            if x.shape[1] == dataset.num_features:  # not the density bound's products
                seen.append("csr" if sp.issparse(x) else "dense")
            return product(s, x)

        monkeypatch.setattr(networks, "spmm", spy)
        x_bar = whole(compile_network(
            preset("sgcn", depth=depth), {"symmetric": op}, dataset.num_features,
            dataset.num_classes, features=dataset.features,
        )).x_bar
        assert seen == operands
        reference = dataset.features.toarray()
        for _ in range(depth):
            reference = op.matrix @ reference
        assert type(x_bar) is np.ndarray
        assert x_bar.dtype == reference.dtype and x_bar.tobytes() == reference.tobytes()

    @pytest.mark.parametrize(
        "density, depth, dtype",
        [
            (0.10, 1, np.float32),  # the densify hop is the last: written in float32
            (0.10, 2, np.float32),  # a float64 densify hop, then a dense hop
            (0.10, 2, np.float64),
            (1.0, 2, np.float32),  # the features themselves densified by blocks
        ],
        ids=["last-hop-cast", "then-dense", "then-dense-float64", "features"],
    )
    def test_blocked_hops_are_bitwise_the_whole_products(self, monkeypatch, density, depth, dtype):
        dataset = sparse_planted_dataset(400, 3, 100, density, seed=44)
        op = build_operator(dataset.topology, "symmetric")
        net = compile_network(
            preset("sgcn", depth=depth), {"symmetric": op}, dataset.num_features,
            dataset.num_classes, features=dataset.features,
        )
        assert net.densify == (0 if density == 1.0 else 1)
        blocks = []
        product = networks.spmm

        def spy(s, x):
            if x.shape[1] == dataset.num_features:
                blocks.append(s.shape[0])
            return product(s, x)

        monkeypatch.setattr(networks, "spmm", spy)
        monkeypatch.setattr(networks, "_FOLD_BLOCK", 700)  # 7 rows a block, the last one short
        rows = np.arange(0, 400, 2)
        x_bar = restrict(net, rows, dtype).x_bar
        assert blocks.count(7) > 20 and blocks.count(7) < len(blocks)
        reference = dataset.features.toarray()
        for _ in range(depth):
            reference = op.matrix @ reference
        expected = reference[rows].astype(dtype)
        assert type(x_bar) is np.ndarray and x_bar.dtype == dtype
        assert x_bar.tobytes() == expected.tobytes()


class TestFoldOnDemand:
    """compile_network only plans the fold; restrict folds the rows its copy
    reads and memoizes the copy."""

    @staticmethod
    def sgcn(density):
        dataset = sparse_planted_dataset(400, 3, 100, density, seed=44)
        op = build_operator(dataset.topology, "symmetric")
        net = compile_network(
            preset("sgcn", depth=2), {"symmetric": op}, dataset.num_features,
            dataset.num_classes, features=dataset.features,
        )
        return dataset, net

    def test_each_row_set_and_dtype_is_folded_once(self, monkeypatch):
        dataset, net = self.sgcn(0.10)
        folds = []
        original = networks._fold

        def spy(x, matrices, densify, dtype):
            folds.append(x.shape[0])
            return original(x, matrices, densify, dtype)

        monkeypatch.setattr(networks, "_fold", spy)
        part = restrict(net, [3, 1])
        assert restrict(net, np.array([3, 1], dtype=np.int32)) is part
        part32 = restrict(net, [3, 1], np.float32)
        assert part32 is not part and restrict(net, [3, 1], "float32") is part32
        # Keyed by the rows as given: another order is another copy.
        assert restrict(net, [1, 3]) is not part
        assert len(folds) == 3
        # A whole-network pass runs the memoized copy over every row.
        params = init_params(net, np.random.default_rng(48))
        first, _ = forward(whole(net), params)
        second, _ = forward(whole(net), params)
        assert len(folds) == 4
        assert restrict(net, np.arange(dataset.num_nodes)) is restrict(net, range(dataset.num_nodes))
        assert len(folds) == 4
        np.testing.assert_array_equal(first, second)
        # A copy has nothing left to fold, and is not restricted again.
        assert part.prefix == () and part.densify is None
        with pytest.raises(UsageError, match="not a copy restrict made"):
            restrict(part, [0])

    def test_dense_plan_compiles_without_a_nodes_by_features_array(self):
        dataset = sparse_planted_dataset(2000, 3, 200, 0.10, seed=45)
        ops = {"symmetric": build_operator(dataset.topology, "symmetric")}
        tracemalloc.start()
        try:
            net = compile_network(preset("sgcn", depth=2), ops, 200, 3, features=dataset.features)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert net.densify == 1
        dense_bytes = dataset.num_nodes * dataset.num_features * 8
        assert peak < dense_bytes / 8  # the fold over every node would be dense_bytes

    def test_float32_dense_copy_holds_no_float64_fold(self):
        # A Pubmed-like gcn-lp val copy, folded at its only prefix hop: the
        # sparse product and its float64 form exist a block at a time.
        dataset = sparse_planted_dataset(4000, 3, 500, 0.10, seed=45)
        ops = {kind: build_operator(dataset.topology, kind) for kind in ("symmetric", "row")}
        net = compile_network(preset("gcn-lp", depth=3, lp_layers=1), ops, 500, 3,
                              features=dataset.features, dropout=0.5)
        assert net.densify == 1 and len(net.prefix) == 1
        rows = np.arange(0, dataset.num_nodes, 4)
        tracemalloc.start()
        try:
            part = restrict(net, rows, np.float32, "infer")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        read = rows  # the feature rows the fold reads: past lp and two smoothings
        for m in (ops["row"].matrix, ops["symmetric"].matrix, ops["symmetric"].matrix):
            read = np.unique(m[read].indices)
        features = dataset.features[read]
        feature_bytes = features.data.nbytes + features.indices.nbytes + features.indptr.nbytes
        assert part.x_bar.dtype == np.float32
        assert peak < part.x_bar.size * 8 + feature_bytes, (peak, part.x_bar.size * 8)


class TestInferCopy:
    """On a CSR fold plan an infer-mode copy keeps the raw feature rows and
    smooths after the first linear, so it never folds. Anywhere else it is the
    train-form copy."""

    ROWS = np.array([97, 3, 50, 3, 11])

    @staticmethod
    def csr_plan(name, depth):
        dataset = sparse_planted_dataset(150, 3, 600, 0.005, seed=49, edges_per_node=2)
        ops = {kind: build_operator(dataset.topology, kind) for kind in ("symmetric", "row")}
        spec = preset(name, hidden_dim=8, depth=depth, lp_layers=1)
        net = compile_network(spec, ops, dataset.num_features, dataset.num_classes,
                              features=dataset.features, dropout=0.5)
        assert net.densify is None and net.prefix
        return dataset, net

    @staticmethod
    def spy_folds(monkeypatch) -> list:
        folds = []
        original = networks._fold

        def spy(x, matrices, densify, dtype):
            folds.append(x.shape[0])
            return original(x, matrices, densify, dtype)

        monkeypatch.setattr(networks, "_fold", spy)
        return folds

    @pytest.mark.parametrize("density", [1.0, 0.10], ids=["dense", "densified-between-hops"])
    def test_dense_plan_infer_copy_is_the_train_form_copy(self, monkeypatch, density):
        _, net = TestFoldOnDemand.sgcn(density)
        assert net.densify is not None
        folds = self.spy_folds(monkeypatch)
        infer = restrict(net, self.ROWS, mode="infer")
        assert infer is restrict(net, self.ROWS) and not infer.infer_only
        assert len(folds) == 1 and len(net.restricted) == 1

    def test_no_prefix_infer_copy_is_the_train_form_copy(self):
        dataset, _ = self.csr_plan("sgcn", 1)
        ops = {"row": build_operator(dataset.topology, "row")}
        net = compile_network(preset("linear-lp"), ops, dataset.num_features,
                              dataset.num_classes, features=dataset.features)
        assert net.prefix == ()
        assert restrict(net, self.ROWS, mode="infer") is restrict(net, self.ROWS)

    def test_memo_holds_train_and_infer_copies_apart(self, monkeypatch):
        _, net = self.csr_plan("gcn", 2)
        folds = self.spy_folds(monkeypatch)
        infer = restrict(net, self.ROWS, mode="infer")
        train_form = restrict(net, self.ROWS)
        assert infer is not train_form and len(net.restricted) == 2
        assert restrict(net, list(self.ROWS), mode="infer") is infer
        assert restrict(net, self.ROWS, mode="train") is train_form
        assert len(folds) == 1
        with pytest.raises(UsageError, match="restrict mode must be"):
            restrict(net, self.ROWS, mode="eval")

    def test_train_mode_passes_are_refused(self):
        _, net = self.csr_plan("gcn", 2)
        infer = restrict(net, self.ROWS, mode="infer")
        params = init_params(net, np.random.default_rng(51))
        with pytest.raises(UsageError, match="unsmoothed features"):
            forward(infer, params, mode="train", rng=np.random.default_rng(52))
        _, states = forward(restrict(net, self.ROWS), params, mode="train",
                            rng=np.random.default_rng(52))
        with pytest.raises(UsageError, match="unsmoothed features"):
            backward(infer, states, np.zeros((np.unique(self.ROWS).size, 3)))
        # A whole-network pass still folds, in either mode.
        assert forward(whole(net), params, mode="train", rng=np.random.default_rng(52))[1] is not None

    def test_cora_shaped_val_copy_stores_less_than_the_fold(self, tmp_path):
        root = tmp_path / "cora"
        make_synthetic(["--out", str(root), "--nodes", "2708", "--classes", "7",
                        "--features", "1433", "--edges-per-node", "4", "--density", "0.013",
                        "--standard-split", "--seed", "1"])
        dataset = load_dataset(root)
        val = load_standard_split(dataset).val
        ops = {"symmetric": build_operator(dataset.topology, "symmetric")}
        net = compile_network(preset("gcn"), ops, dataset.num_features, dataset.num_classes,
                              features=dataset.features, dropout=0.5)
        assert net.densify is None
        tracemalloc.start()
        try:
            restrict(net, val, mode="infer")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        folded = restrict(net, val).x_bar
        stored = folded.data.nbytes + folded.indices.nbytes + folded.indptr.nbytes
        assert peak < stored


class TestRestrict:
    def test_each_smoothing_widens_by_one_hop_on_a_path(self):
        n = 30
        path = GraphTopology(n, [(i, i + 1) for i in range(n - 1)])
        ops = {kind: build_operator(path, kind) for kind in ("symmetric", "row")}
        spec = NetworkSpec("path", (GcnBlock(2, (4,)), Softmax(), Lp(2)))
        features = np.random.default_rng(47).normal(size=(n, 3))
        net = compile_network(spec, ops, 3, 2, features=features)
        operator = {"smooth": dense(ops["symmetric"].matrix), "lp": dense(ops["row"].matrix)}

        def hops(rows, k):
            return np.unique(np.clip(np.add.outer(rows, np.arange(-k, k + 1)), 0, n - 1))

        for rows in (np.array([10]), np.array([0, n - 1])):
            part = restrict(net, rows)
            # The leading smoothing is folded into the input rows three hops
            # out, which read the features four hops out.
            folded = ops["symmetric"].matrix @ features
            np.testing.assert_array_equal(part.x_bar, folded[hops(rows, 3)])
            blocks = [e for e in part.layers if e.kind in ("smooth", "lp")]
            assert len(blocks) == 3
            for j, entry in enumerate(blocks):
                out_rows, in_rows = hops(rows, 2 - j), hops(rows, 3 - j)
                np.testing.assert_array_equal(
                    dense(entry.matrix), operator[entry.kind][np.ix_(out_rows, in_rows)]
                )

    def test_rejects_bad_rows_and_missing_features(self, ops, x14):
        unfolded = compile_network(preset("gcn"), ops, 5, 3)
        with pytest.raises(UsageError, match="without features"):
            restrict(unfolded, [0])
        net = compile_network(preset("gcn"), ops, 5, 3, features=x14)
        for rows in ([], [14], [-1]):
            with pytest.raises(UsageError, match="nonempty set of rows"):
                restrict(net, rows)

    @pytest.mark.parametrize("rows", [[1.7, 2.2], [True, False], np.array([3.0]), [1, 2.5]],
                             ids=["floats", "bools", "float-array", "mixed"])
    def test_rejects_row_ids_that_are_not_integers(self, ops, x14, rows):
        # numpy would run [1.7, 2.2] as rows [1, 2] and [True, False] as [1, 0].
        net = compile_network(preset("gcn"), ops, 5, 3, features=x14)
        with pytest.raises(UsageError, match="restrict needs integer row ids"):
            restrict(net, rows)
        assert net.restricted == {}

    def test_integer_row_ids_of_any_width_share_one_copy(self, ops, x14):
        net = compile_network(preset("gcn"), ops, 5, 3, features=x14)
        part = restrict(net, [2, 1])
        for rows in (np.array([2, 1], dtype=np.int32), np.array([2, 1], dtype=np.uint16),
                     range(2, 0, -1), (np.int64(2), 1)):
            assert restrict(net, rows) is part

    def test_with_dtype_keeps_the_restriction(self, ops, x14):
        net = compile_network(preset("gcn"), ops, 5, 3, features=x14)
        part = restrict(net, [3, 1])
        part32 = restrict(net, [3, 1], dtype=np.float32)
        assert part32.x_bar.dtype == np.float32 and part32.x_bar.shape == part.x_bar.shape
        np.testing.assert_array_equal(part32.positions, part.positions)
        for entry32, entry in zip(part32.layers, part.layers):
            assert entry32.kind == entry.kind
            if entry.kind in ("smooth", "lp"):
                assert entry32.matrix.dtype == np.float32
                np.testing.assert_array_equal(
                    entry32.matrix.toarray(), entry.matrix.astype(np.float32).toarray()
                )


# ---------------------------------------------------------------------------
# Every executor path against the dense reference (tests/reference.py)


FEATURE_OPERATORS = ("symmetric", "row", "general")
LABEL_OPERATORS = ("row", "general")


@dataclasses.dataclass(frozen=True)
class Case:
    """One drawn network, graph, input and row set. The features are `width`
    normal columns, each entry kept with probability `density` and at least
    one kept, drawn from `seed`, so a printed case rebuilds its inputs. A
    dense fold runs its blocked hops over `fold_block` entries a block."""

    spec: NetworkSpec
    nodes: int
    edges: tuple
    width: int
    density: float
    classes: int
    rows: tuple
    dtype: str
    rate: float
    seed: int = 0
    fold_block: int = networks._FOLD_BLOCK

    def features(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        values = rng.normal(size=(self.nodes, self.width))
        keep = rng.random(values.shape) < self.density
        keep.flat[rng.integers(keep.size)] = True  # never all zeros
        return np.where(keep, values, 0.0)


def case_of(spec, nodes=8, **changes) -> Case:
    """A case on a ring with one chord, with 4 features of density 0.2 and 3
    classes, asking for rows 6, 1 and 6 in float64 with dropout 0.5."""
    ring = tuple((i, (i + 1) % nodes) for i in range(nodes)) + ((0, nodes // 2),)
    return dataclasses.replace(
        Case(spec, nodes, ring, 4, 0.2, 3, (6, 1, 6), "float64", 0.5), **changes
    )


# Sparse enough on 24 nodes that two hops of folding stay CSR.
SPARSE = {"nodes": 24, "width": 12, "density": 0.03}


@st.composite
def gcn_blocks(draw):
    layers = draw(st.integers(1, 3))
    hidden = tuple(draw(st.integers(1, 4)) for _ in range(layers - 1))
    operator = draw(st.sampled_from(FEATURE_OPERATORS))
    return GcnBlock(layers, hidden, operator, draw(st.none() | st.integers(0, layers)))


FP_STAGES = st.lists(st.builds(Fp, st.integers(0, 2), st.sampled_from(FEATURE_OPERATORS)), max_size=2)
BODIES = st.lists(
    st.builds(Mlp, st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple),
              st.sampled_from(("relu", "identity")))
    | gcn_blocks()
    | st.just(LinearClassifier()),
    max_size=3,
)
LP_STAGES = st.lists(st.builds(Lp, st.integers(0, 2), st.sampled_from(LABEL_OPERATORS)), max_size=2)


@st.composite
def cases(draw):
    """Specs validate_spec accepts: fp stages, then mlp, gcn and linear
    stages that end at the class width, the softmax and lp stages; on a
    random graph of 2 to 9 nodes, possibly isolated."""
    body = draw(BODIES)
    if body and isinstance(body[-1], Mlp):
        body.append(LinearClassifier())
    stages = (*draw(FP_STAGES), *body, Softmax(), *draw(LP_STAGES))
    nodes, classes = draw(st.integers(2, 9)), draw(st.integers(2, 3))
    pairs = st.tuples(st.integers(0, nodes - 1), st.integers(1, nodes - 1))
    return Case(
        spec=NetworkSpec("drawn", stages),
        nodes=nodes,
        edges=tuple((u, (u + k) % nodes) for u, k in draw(st.lists(pairs, max_size=2 * nodes))),
        # A network without linears keeps the input width up to its softmax.
        width=draw(st.integers(1, 5)) if body else classes,
        density=draw(st.sampled_from((0.05, 0.2, 0.5, 1.0))),
        classes=classes,
        rows=tuple(draw(st.lists(st.integers(0, nodes - 1), min_size=1, max_size=nodes + 2))),
        dtype=draw(st.sampled_from(("float64", "float32"))),
        rate=draw(st.sampled_from((0.0, 0.3, 0.5, 0.999))),
        seed=draw(st.integers(0, 2**16)),
    )


def assert_close(got, want, dtype):
    tol = 1e-12 if dtype == np.float64 else 1e-4
    np.testing.assert_allclose(got, want, rtol=tol, atol=tol * np.abs(want).max(initial=0.0))


@given(cases())
# Compositions no preset builds, then presets on the fold plans: CSR, dense
# from the features, densified between hops and at the last hop.
@example(case_of(NetworkSpec("identity-mlp", (Mlp((3,), "identity"), LinearClassifier(), Softmax()))))
@example(case_of(NetworkSpec("fp-gcn", (Fp(1), GcnBlock(2, (3,)), Softmax())), **SPARSE))
@example(case_of(NetworkSpec("mlp-mlp", (Mlp((3,)), Mlp((2,), "identity"), LinearClassifier(),
                                         Softmax())), density=1.0, dtype="float32"))
@example(case_of(NetworkSpec("fp0-lp0", (Fp(0), LinearClassifier(), Softmax(), Lp(0)))))
@example(case_of(NetworkSpec("general-lp", (LinearClassifier(), Softmax(), Lp(2, "general")))))
@example(case_of(G_SPEC, dtype="float32"))
@example(case_of(preset("sgcn", depth=2), rows=(20, 3, 20, 11), **SPARSE))
@example(case_of(preset("gcn-lp", depth=3), dtype="float32", **SPARSE))
@example(case_of(preset("sgcn", depth=3), density=0.1))
@example(case_of(preset("sgcn", depth=1), rate=0.999))
# Blocked fold hops, a row or two a block: densified between hops, at the
# last hop, and from the features.
@example(case_of(preset("sgcn", depth=3), density=0.1, dtype="float32", fold_block=8))
@example(case_of(preset("gcn-lp", depth=3), dtype="float32", fold_block=4))
@example(case_of(preset("gcn", depth=2), density=0.5, fold_block=4))
def test_restricted_passes_equal_the_dense_reference(case):
    """restrict plus forward and backward, in train and in infer mode, give
    the dense reference's outputs on the rows asked for and its weight
    gradients, within a tolerance by dtype. Bitwise: a folded input's rows
    equal the CSR-product fold of the dense features, and the survivors-only
    first linear equals its product with the dropped entries stored as
    zeros."""
    topology = GraphTopology(case.nodes, case.edges)
    ops = {kind: build_operator(topology, kind) for kind in ("symmetric", "row")}
    ops["general"] = build_operator(topology, "general", alpha=0.25, beta=0.5)
    x = case.features()
    net = compile_network(case.spec, ops, case.width, case.classes, features=x, dropout=case.rate)
    steps = unroll(case.spec, ops)
    hops = next(i for i, step in enumerate(steps) if step[0] != "smooth")
    assert len(net.prefix) == hops
    with mock.patch.object(networks, "_FOLD_BLOCK", case.fold_block):
        for mode in ("train", "infer"):
            check_copy(case, x, net, steps, mode)


def check_copy(case, x, net, steps, mode):
    """One restricted copy of net, for mode, against the reference steps."""
    rows, dtype, hops = np.array(case.rows), np.dtype(case.dtype), len(net.prefix)
    read = rows_read(steps, rows)
    with mock.patch.object(networks, "spmm", wraps=networks.spmm) as product:
        part = restrict(net, rows, dtype, mode)

    # A train copy folds with sparse products up to the planned hop, and from
    # the densify hop on runs each hop over blocks of fold_block output
    # entries. An infer copy of a CSR fold plan runs the prefix after the
    # first linear instead; any other infer copy is the train copy, from the memo.
    assert part.infer_only == (mode == "infer" and hops > 0 and net.densify is None)
    kinds = [entry.kind for entry in net.layers]
    if part.infer_only:
        at = kinds.index("linear") + 1
        kinds[at:at] = ["smooth"] * hops
    assert [entry.kind for entry in part.layers] == kinds
    sparse_hops = hops if net.densify is None else net.densify
    step = max(case.fold_block // case.width, 1)
    operands = [
        hop <= sparse_hops
        for hop in range(1, hops + 1)
        for _ in range(1 if hop < sparse_hops or net.densify is None else -(-read[hop].size // step))
    ] if mode == "train" else []
    assert [sp.issparse(call.args[1]) for call in product.call_args_list] == operands

    folded = x
    for step in [] if part.infer_only else steps[:hops]:
        folded = step[1] @ folded
    expected = folded[read[0 if part.infer_only else hops]].astype(dtype)
    x_bar = part.x_bar
    assert sp.issparse(x_bar) == (net.densify is None) and x_bar.dtype == dtype
    if sp.issparse(x_bar):
        assert x_bar.has_canonical_format
        x_bar = x_bar.toarray()
    assert x_bar.shape == expected.shape and x_bar.tobytes() == expected.tobytes()

    params = init_params(net, np.random.default_rng(case.seed), dtype)
    out, states = forward(part, params, mode=mode, rng=np.random.default_rng(case.seed + 1))
    masks = None
    if states is not None and case.rate > 0:
        # The executor's own draws, scattered over every node; the rows it
        # does not read keep everything.
        drawn = [state for entry, state in zip(part.layers, states) if entry.kind == "dropout"]
        linears = [p for p, step in enumerate(steps) if step[0] == "linear"]
        assert len(drawn) == len(linears)
        masks = []
        for i, (mask, p) in enumerate(zip(drawn, linears)):
            full = np.ones((case.nodes, params[i].shape[0]), dtype=bool)
            if mask.ndim == 1:  # over the stored entries of a CSR input
                stored_rows = np.repeat(np.arange(part.x_bar.shape[0]), np.diff(part.x_bar.indptr))
                full[read[p][stored_rows], part.x_bar.indices] = mask
            else:
                full[read[p]] = mask
            masks.append(full)
    ref, vjp = run(steps, x, params, masks, case.rate)
    assert out.dtype == dtype
    assert np.array_equal(part.rows, np.unique(rows))
    assert_close(out[part.positions], ref[rows], dtype)
    if states is None:
        return

    g = np.random.default_rng(case.seed + 2).normal(size=(rows.size, case.classes))
    d_out = np.zeros(out.shape, dtype)
    np.add.at(d_out, part.positions, g.astype(dtype))
    d_ref = np.zeros(ref.shape)
    np.add.at(d_ref, rows, g)
    kept = states[:2]  # backward consumes states
    for got, want in zip(backward(part, states, d_out), vjp(d_ref), strict=True):
        assert got.dtype == dtype
        assert_close(got, want, dtype)

    if masks and sp.issparse(part.x_bar):
        x_in, mask, (survivors, w) = part.x_bar, kept[0], kept[1]
        stored = sp.csr_matrix(
            (x_in.data * mask / (1.0 - case.rate), x_in.indices, x_in.indptr), shape=x_in.shape
        )
        assert mask.shape == (x_in.nnz,) and survivors.nnz == mask.sum()
        u = np.random.default_rng(case.seed + 3).normal(size=(x_in.shape[0], w.shape[1]))
        u = u.astype(dtype)
        for got, want in [
            (part.layers[1].forward(survivors, params, None, True)[0], stored @ w),
            (linear_vjp(survivors, w, u, False)[1], stored.T @ u),
        ]:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
