import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from graphcompose import networks
from graphcompose.errors import DataError, UsageError
from graphcompose.graph import GraphTopology, build_operator
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
from graphcompose.training import gradient_check

from .conftest import (
    dense,
    entry_kinds,
    np_relu,
    np_softmax,
    planted_dataset,
    ring_topology,
    sparse_planted_dataset,
    whole,
    with_input,
)


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
    def test_sgcn_closed_form(self, ops, x14):
        net = compile_network(preset("sgcn"), ops, 5, 3, features=x14)
        params = init_params(net, np.random.default_rng(0))
        out, _ = forward(net, params)
        s = dense(ops["symmetric"].matrix)
        np.testing.assert_allclose(out, np_softmax(s @ s @ x14 @ params[0]), atol=1e-12)

    def test_sgcn_layered_equals_folded_exactly(self, ops, x14):
        # Same spmm sequence either way, so the floats must agree bitwise.
        folded = compile_network(preset("sgcn"), ops, 5, 3, features=x14)
        layered = with_input(compile_network(preset("sgcn"), ops, 5, 3), x14)
        params = init_params(folded, np.random.default_rng(1))
        out_f, _ = forward(folded, params)
        out_l, _ = forward(layered, params)
        np.testing.assert_array_equal(out_f, out_l)

    def test_gcn_closed_form(self, ops, x14):
        net = with_input(compile_network(preset("gcn"), ops, 5, 3), x14)
        params = init_params(net, np.random.default_rng(2))
        out, _ = forward(net, params)
        s = dense(ops["symmetric"].matrix)
        expected = np_softmax(s @ np_relu(s @ x14 @ params[0]) @ params[1])
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_linear_lp_closed_form(self, ops, x14):
        net = compile_network(preset("linear-lp", lp_layers=2), ops, 5, 3, features=x14)
        params = init_params(net, np.random.default_rng(3))
        out, _ = forward(net, params)
        r = dense(ops["row"].matrix)
        np.testing.assert_allclose(out, r @ r @ np_softmax(x14 @ params[0]), atol=1e-12)

    def test_lp_preserves_row_stochasticity(self, ops, x14):
        net = compile_network(preset("mlp-lp", lp_layers=3), ops, 5, 3, features=x14)
        params = init_params(net, np.random.default_rng(4))
        out, _ = forward(net, params)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(14), atol=1e-9)

    def test_train_mode_returns_states_infer_does_not(self, ops, x14):
        net = compile_network(preset("gcn"), ops, 5, 3, features=x14)
        params = init_params(net, np.random.default_rng(5))
        _, states = forward(net, params, mode="train")
        assert states is not None and len(states) == len(net.layers)
        _, none_states = forward(net, params, mode="infer")
        assert none_states is None

    def test_dropout_train_differs_infer_matches_expectation(self, ops, x14):
        net = compile_network(preset("sgcn"), ops, 5, 3, features=x14, dropout=0.5)
        params = init_params(net, np.random.default_rng(6))
        out_infer, _ = forward(net, params)
        out_train, _ = forward(net, params, mode="train", rng=np.random.default_rng(7))
        assert not np.allclose(out_infer, out_train)

    def test_forward_without_input(self, ops):
        net = compile_network(preset("gcn"), ops, 5, 3)
        with pytest.raises(UsageError):
            forward(net, init_params(net, np.random.default_rng(8)))

    def test_forward_refuses_an_unknown_mode(self, ops, x14):
        net = compile_network(preset("gcn"), ops, 5, 3, features=x14)
        params = init_params(net, np.random.default_rng(8))
        with pytest.raises(UsageError, match="forward mode must be 'train' or 'infer', got 'eval'"):
            forward(net, params, mode="eval")

    def test_forward_checks_param_count(self, ops, x14):
        net = compile_network(preset("gcn"), ops, 5, 3, features=x14)
        with pytest.raises(UsageError):
            forward(net, [])

    def test_backward_matches_finite_differences(self, ops, x14):
        net = compile_network(preset("gcn-lp", hidden_dim=4), ops, 5, 3, features=x14)
        rng = np.random.default_rng(9)
        params = init_params(net, rng)
        direction = rng.normal(size=(14, 3))

        def loss_at(ps):
            out, _ = forward(net, ps)
            return float((out * direction).sum())

        _, states = forward(net, params, mode="train")
        grads = backward(net, states, direction)
        eps = 1e-6
        for k, p in enumerate(params):
            for idx in [(0, 0), (p.shape[0] - 1, p.shape[1] - 1)]:
                bumped = [q.copy() for q in params]
                bumped[k][idx] += eps
                dipped = [q.copy() for q in params]
                dipped[k][idx] -= eps
                numeric = (loss_at(bumped) - loss_at(dipped)) / (2 * eps)
                assert abs(grads[k][idx] - numeric) < 1e-6

    def test_backward_requires_states(self, ops, x14):
        net = compile_network(preset("sgcn"), ops, 5, 3, features=x14)
        with pytest.raises(UsageError):
            backward(net, None, np.zeros((14, 3)))


class TestPrecomputeFp:
    """Feature propagation is precomputed by folding the leading fp stage."""

    @staticmethod
    def folded(ops, x, layers):
        spec = NetworkSpec("fp", (Fp(layers), LinearClassifier(), Softmax()))
        return whole(compile_network(spec, ops, 5, 3, features=x)).x_bar

    def test_zero_layers_identity(self, ops, x14):
        np.testing.assert_array_equal(self.folded(ops, x14, 0), x14)

    def test_matches_dense_power(self, ops, x14):
        s = dense(ops["symmetric"].matrix)
        np.testing.assert_allclose(self.folded(ops, x14, 3), s @ s @ s @ x14, atol=1e-12)

    def test_negative_rejected(self, ops, x14):
        with pytest.raises(UsageError):
            self.folded(ops, x14, -1)


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

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_infer_matches_dense_input_path(self, sparse_case, name):
        dataset, ops = sparse_case
        net = compile_sparse(sparse_case, name)
        unfolded = compile_network(
            preset(name, hidden_dim=4), ops, dataset.num_features, dataset.num_classes
        )
        params = init_params(net, np.random.default_rng(32))
        out, _ = forward(net, params)
        ref, _ = forward(with_input(unfolded, dataset.features), params)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["gcn", "sgcn"])
    def test_gradient_check_passes(self, sparse_case, name):
        dataset, _ = sparse_case
        net = compile_sparse(sparse_case, name, dropout=0.0)
        assert sp.issparse(whole(net).x_bar)
        assert gradient_check(net, dataset, seed=3).passed

    def test_train_mode_dropout_runs_on_stored_entries(self, sparse_case):
        net = compile_sparse(sparse_case, "gcn", dropout=0.5)
        params = init_params(net, np.random.default_rng(33))
        _, states = forward(net, params, mode="train", rng=np.random.default_rng(34))
        x_bar = whole(net).x_bar
        assert net.layers[0].kind == "dropout"
        assert states[0].shape == (x_bar.nnz,)
        # The first linear caches, and so multiplies by, the survivors only.
        assert states[1][0].nnz == states[0].sum() < x_bar.nnz
        grads = backward(net, states, np.ones((x_bar.shape[0], net.param_shapes[-1][1])))
        assert [g.shape for g in grads] == list(net.param_shapes)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("rate", [0.3, 0.5, 0.857, 0.999])
    def test_first_linear_is_bitwise_the_stored_zeros_product(self, sparse_case, rate, dtype):
        net = compile_sparse(sparse_case, "gcn", dropout=rate)
        net = restrict(net, np.arange(net.x_bar.shape[0]), dtype=dtype)
        x = net.x_bar.copy()
        x.data[::2] *= -1.0
        params = init_params(net, np.random.default_rng(40), dtype=dtype)
        params[0][::3] = 0.0  # products of negative entries with +0.0 give -0.0
        width = net.param_shapes[0][1]
        upstream = np.random.default_rng(41).normal(size=(x.shape[0], width)).astype(dtype)
        upstream[::5] = 0.0
        dropout, linear = net.layers[:2]
        out, mask = dropout.forward(x, params, np.random.default_rng(42), True)
        z, cache = linear.forward(out, params, None, True)
        grads = [None] * len(params)
        linear.vjp(cache, upstream, grads)
        stored_zeros = sp.csr_matrix((x.data * mask / (1 - rate), x.indices, x.indptr), shape=x.shape)
        ref_z = networks.linear_forward(stored_zeros, params[0])
        _, ref_grad = linear_vjp(stored_zeros, params[0], upstream, False)
        assert out.nnz == mask.sum() and z.dtype == ref_z.dtype == dtype
        assert z.tobytes() == ref_z.tobytes()
        assert grads[0].dtype == ref_grad.dtype and grads[0].tobytes() == ref_grad.tobytes()
        if rate == 0.999:  # whole rows drop
            assert np.diff(out.indptr).min() == 0 < np.diff(x.indptr).min()

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

    def test_with_dtype_float32_keeps_csr(self, sparse_case):
        net = compile_sparse(sparse_case, "gcn")
        net32 = restrict(net, np.arange(net.x_bar.shape[0]), dtype=np.float32)
        assert sp.issparse(net32.x_bar) and net32.x_bar.format == "csr"
        assert net32.x_bar.dtype == np.float32
        assert net.x_bar.dtype == np.float64


def full_reverse(net, states, d_output):
    """Every entry's vjp in reverse, the first linear's input gradient too."""
    grads = [np.zeros(s) for s in net.param_shapes]
    u = d_output
    for entry, cache in zip(reversed(net.layers), reversed(states)):
        if entry.kind == "linear":
            u, dw = linear_vjp(*cache, u)
            grads[entry.index] += dw
        else:
            u = entry.vjp(cache, u, grads)
    return grads, u


class TestBackwardStopsAtFirstLinear:
    @pytest.mark.parametrize("folded", [True, False], ids=["folded", "unfolded"])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_bitwise_equal_to_full_reverse_pass(self, ops, x14, name, folded):
        features = x14 if folded else None
        net = compile_network(preset(name), ops, 5, 3, features=features, dropout=0.5)
        if not folded:
            net = with_input(net, x14)
        params = init_params(net, np.random.default_rng(35))
        _, states = forward(net, params, mode="train", rng=np.random.default_rng(36))
        d_output = np.random.default_rng(37).normal(size=(14, 3))
        expected, d_input = full_reverse(net, states, d_output)
        assert d_input.shape == x14.shape
        got = backward(net, states, d_output)
        for g, e in zip(got, expected):
            np.testing.assert_array_equal(g, e)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_first_dropout_vjp_never_runs(self, ops, x14, name, monkeypatch):
        net = compile_network(preset(name), ops, 5, 3, features=x14, dropout=0.5)
        params = init_params(net, np.random.default_rng(38))
        _, states = forward(net, params, mode="train", rng=np.random.default_rng(39))
        kinds = entry_kinds(net)
        assert kinds[:2] == ("dropout", "linear")
        first_mask = states[0]
        masks = []
        original = networks.dropout_vjp

        def spy(mask, rate, upstream):
            masks.append(mask)
            return original(mask, rate, upstream)

        monkeypatch.setattr(networks, "dropout_vjp", spy)
        backward(net, states, np.ones((14, 3)))
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


def full_fold(features, matrix, depth, densify):
    """The fold over every node, densified after `densify` hops (None: kept
    CSR): the reference each restricted fold must match row by row."""
    x = features
    for hop in range(depth):
        if hop == densify:
            x = x.toarray()
        x = matrix @ x
    if densify is None:
        x.sort_indices()
    elif sp.issparse(x):
        x = x.toarray()
    return x


class TestFoldOnDemand:
    """compile_network only plans the fold; restrict folds the rows its copy
    reads, bitwise those rows of the full fold, and memoizes the copy."""

    @staticmethod
    def sgcn(density):
        dataset = sparse_planted_dataset(400, 3, 100, density, seed=44)
        op = build_operator(dataset.topology, "symmetric")
        net = compile_network(
            preset("sgcn", depth=2), {"symmetric": op}, dataset.num_features,
            dataset.num_classes, features=dataset.features,
        )
        return dataset, op, net

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "density, densify",
        [(0.002, None), (1.0, 0), (0.10, 1)],
        ids=["csr", "dense", "densified-between-hops"],
    )
    def test_restricted_fold_is_bitwise_the_full_folds_rows(self, density, densify, dtype):
        dataset, op, net = self.sgcn(density)
        assert net.densify == densify and len(net.prefix) == 2
        assert net.x_bar is dataset.features
        full = full_fold(dataset.features, op.matrix, 2, densify)
        for rows in (np.array([301, 7, 150, 7]), np.arange(dataset.num_nodes)):
            x_bar = restrict(net, rows, dtype).x_bar
            expected = full[np.unique(rows)].astype(dtype)
            assert type(x_bar) is type(expected) and x_bar.dtype == dtype
            if densify is None:
                assert x_bar.has_sorted_indices
                for got, ref in [(x_bar.data, expected.data), (x_bar.indices, expected.indices),
                                 (x_bar.indptr, expected.indptr)]:
                    assert got.tobytes() == ref.tobytes()
            else:
                assert x_bar.tobytes() == expected.tobytes()

    def test_each_row_set_and_dtype_is_folded_once(self, monkeypatch):
        dataset, _, net = self.sgcn(0.10)
        folds = []
        original = networks._fold

        def spy(x, matrices, densify):
            folds.append(x.shape[0])
            return original(x, matrices, densify)

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
        first, _ = forward(net, params)
        second, _ = forward(net, params)
        assert len(folds) == 4
        assert restrict(net, np.arange(dataset.num_nodes)) is restrict(net, range(dataset.num_nodes))
        assert len(folds) == 4
        np.testing.assert_array_equal(first, second)
        # A copy has its own memo, and nothing left to fold.
        assert part.restricted == {} and part.prefix == () and part.densify is None

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


# ---------------------------------------------------------------------------
# Row restriction


@pytest.fixture(scope="module")
def restrict_data():
    """60 nodes of average degree about 2, so a few rows read well under every
    node, with dense features and with 1%-dense ones (which fold to CSR)."""
    sets = {
        "dense": planted_dataset(60, 3, 5, seed=41, edges_per_node=2),
        "sparse": sparse_planted_dataset(60, 3, 200, 0.01, seed=42, edges_per_node=2),
    }
    return {
        key: (ds, {kind: build_operator(ds.topology, kind) for kind in ("symmetric", "row")})
        for key, ds in sets.items()
    }


RESTRICT_CASES = ("folded-dense", "folded-csr", "unfolded")
# Unsorted, with a repeat: the restricted output holds each row once.
ROWS = np.array([41, 7, 23, 7])


def restrict_setup(restrict_data, case, name, dropout):
    """The network for one restriction case; the unfolded one keeps every
    smoothing in its chain and runs on the features."""
    dataset, ops = restrict_data["sparse" if case == "folded-csr" else "dense"]
    net = compile_network(
        preset(name, hidden_dim=4, depth=3, lp_layers=1),
        ops,
        dataset.num_features,
        dataset.num_classes,
        features=None if case == "unfolded" else dataset.features,
        dropout=dropout,
    )
    if case == "unfolded":
        net = with_input(net, dataset.features)
    assert (case == "folded-csr") == sp.issparse(whole(net).x_bar)
    return net


def entry_rows(net, rows):
    """The rows each entry of net reads when only `rows` of its output are
    needed: a smooth or lp entry reads every node its operator links to the
    rows after it."""
    needed = np.unique(rows)
    out = []
    for entry in reversed(net.layers):
        if entry.kind in ("smooth", "lp"):
            needed = np.flatnonzero(dense(entry.matrix)[needed].any(axis=0))
        out.append(needed)
    return out[::-1]


def scatter_mask(mask, rows, num_rows, csr_input=None):
    """The full-chain mask that equals `mask` on `rows` and keeps the rest;
    on a CSR input it covers the stored entries."""
    if csr_input is not None:
        ip = csr_input.indptr
        where = np.concatenate([np.arange(ip[r], ip[r + 1]) for r in rows])
        full = np.ones(csr_input.nnz, dtype=bool)
    else:
        where = rows
        full = np.ones((num_rows, mask.shape[1]), dtype=bool)
    full[where] = mask
    return full


class ReplayStream:
    """Stands in for the dropout stream: each raw draw hands out the next mask
    as the 16-bit lanes of uint64 words, 0xFFFF where it keeps an entry and 0
    where it drops one, so the mask replays through networks._keep itself."""

    def __init__(self, masks):
        self.masks = list(masks)
        self.bit_generator = self

    def random_raw(self, size):
        mask = self.masks.pop(0).ravel()
        assert size == -(-mask.size // 4)
        lanes = np.zeros(4 * size, dtype="<u2")
        lanes[: mask.size] = np.where(mask, 0xFFFF, 0)
        return lanes.view(np.uint64)


def upstream_on(num_rows, positions, g):
    d = np.zeros((num_rows, g.shape[1]))
    np.add.at(d, positions, g)
    return d


def assert_matches_full_chain(net, full, part, restricted, rows):
    """Outputs on the requested rows and parameter gradients of the
    restricted pass equal the full chain's."""
    (full_out, full_states), (out, states) = full, restricted
    np.testing.assert_allclose(out[part.positions], full_out[rows], rtol=0, atol=1e-12)
    g = np.random.default_rng(44).normal(size=(rows.size, net.param_shapes[-1][1]))
    expected = backward(net, full_states, upstream_on(full_out.shape[0], rows, g))
    got = backward(part, states, upstream_on(out.shape[0], part.positions, g))
    for a, b in zip(got, expected):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


class TestRestrict:
    @pytest.mark.parametrize("case", RESTRICT_CASES)
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_matches_full_chain_without_dropout(self, restrict_data, case, name):
        net = restrict_setup(restrict_data, case, name, 0.0)
        part = restrict(net, ROWS)
        assert part.x_bar.shape[0] == entry_rows(net, ROWS)[0].size < net.x_bar.shape[0]
        assert np.array_equal(np.unique(ROWS)[part.positions], ROWS)
        params = init_params(net, np.random.default_rng(43))
        full = forward(net, params, mode="train")
        assert_matches_full_chain(net, full, part, forward(part, params, mode="train"), ROWS)

    @pytest.mark.parametrize("case", RESTRICT_CASES)
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_replayed_masks_match_full_chain(self, restrict_data, case, name, monkeypatch):
        net = restrict_setup(restrict_data, case, name, 0.5)
        part = restrict(net, ROWS)
        params = init_params(net, np.random.default_rng(45))
        drawn = []
        original = networks.dropout_forward

        def spy(x, rate, rng, training):
            out, mask = original(x, rate, rng, training)
            drawn.append(mask)
            return out, mask

        monkeypatch.setattr(networks, "dropout_forward", spy)
        restricted = forward(part, params, mode="train", rng=np.random.default_rng(46))
        monkeypatch.undo()

        full_input = whole(net).x_bar
        rows_in = entry_rows(net, ROWS)
        dropouts = [i for i, entry in enumerate(net.layers) if entry.kind == "dropout"]
        assert len(drawn) == len(dropouts) > 0
        csr_input = full_input if sp.issparse(full_input) else None
        replay = [
            scatter_mask(mask, rows_in[i], full_input.shape[0], csr_input if i == 0 else None)
            for i, mask in zip(dropouts, drawn)
        ]
        full = forward(net, params, mode="train", rng=ReplayStream(replay))
        assert_matches_full_chain(net, full, part, restricted, ROWS)

    def test_each_smoothing_widens_by_one_hop_on_a_path(self):
        n = 30
        path = GraphTopology(n, [(i, i + 1) for i in range(n - 1)])
        ops = {kind: build_operator(path, kind) for kind in ("symmetric", "row")}
        spec = NetworkSpec("path", (Fp(2), LinearClassifier(), Softmax(), Lp(2)))
        features = np.random.default_rng(47).normal(size=(n, 3))
        net = with_input(compile_network(spec, ops, 3, 2), features)
        operator = {"smooth": dense(ops["symmetric"].matrix), "lp": dense(ops["row"].matrix)}

        def hops(rows, k):
            return np.unique(np.clip(np.add.outer(rows, np.arange(-k, k + 1)), 0, n - 1))

        for rows in (np.array([10]), np.array([0, n - 1])):
            part = restrict(net, rows)
            np.testing.assert_array_equal(part.x_bar, features[hops(rows, 4)])
            blocks = [e for e in part.layers if e.kind in ("smooth", "lp")]
            assert len(blocks) == 4
            for j, entry in enumerate(blocks):
                out_rows, in_rows = hops(rows, 3 - j), hops(rows, 4 - j)
                np.testing.assert_array_equal(
                    dense(entry.matrix), operator[entry.kind][np.ix_(out_rows, in_rows)]
                )

    def test_rejects_bad_rows_and_missing_features(self, ops, x14):
        unfolded = compile_network(preset("gcn"), ops, 5, 3)
        with pytest.raises(UsageError, match="without features"):
            restrict(unfolded, [0])
        for rows in ([], [14], [-1]):
            with pytest.raises(UsageError, match="nonempty set of rows"):
                restrict(with_input(unfolded, x14), rows)

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
