import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from graphcompose import networks
from graphcompose.errors import UsageError
from graphcompose.graph import GraphTopology, build_operator
from graphcompose.layers import linear_vjp
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
    preset,
    restrict,
    spec_from_dict,
    spec_to_dict,
    validate_spec,
    with_dtype,
)
from graphcompose.training import gradient_check

from .conftest import (
    dense,
    np_relu,
    np_softmax,
    planted_dataset,
    ring_topology,
    sparse_planted_dataset,
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


class TestCompile:
    def test_sgcn_folds_to_linear_softmax(self, ops, x14):
        net = compile_network(preset("sgcn"), ops, 5, 3, features=x14)
        assert net.describe() == ("linear", "softmax")
        unfolded = compile_network(preset("sgcn"), ops, 5, 3).describe()
        assert unfolded == ("smooth", "smooth", "linear", "softmax")
        s = dense(ops["symmetric"].matrix)
        np.testing.assert_allclose(net.x_bar, s @ (s @ x14), atol=1e-12)

    def test_gcn_chain_without_features(self, ops):
        net = compile_network(preset("gcn"), ops, 5, 3)
        assert net.describe() == ("smooth", "linear", "relu", "smooth", "linear", "softmax")
        assert net.param_shapes == ((5, 16), (16, 3))

    def test_gcn_folds_only_leading_smoothing(self, ops, x14):
        net = compile_network(preset("gcn"), ops, 5, 3, features=x14)
        assert net.describe() == ("linear", "relu", "smooth", "linear", "softmax")
        assert compile_network(preset("gcn"), ops, 5, 3).describe()[:2] == ("smooth", "linear")

    def test_dropout_precedes_every_linear(self, ops):
        net = compile_network(preset("mlp-lp", lp_layers=2), ops, 5, 3, dropout=0.5)
        assert net.describe() == (
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
        assert "dropout" not in net.describe()

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
        assert net.describe()[-1] == "lp"

    def test_missing_operator_name(self, ops):
        spec = NetworkSpec("missing", (Fp(1, "colwise"), LinearClassifier(), Softmax()))
        with pytest.raises(UsageError, match="colwise"):
            compile_network(spec, ops, 5, 3)

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
        assert states is not None and len(states.caches) == len(net.layers)
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
        return compile_network(spec, ops, 5, 3, features=x).x_bar

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
        net32 = with_dtype(net, np.float32)
        assert net32.x_bar.dtype == np.float32
        smooth = [e for e in net32.layers if e.kind == "smooth"][0]
        assert smooth.matrix.data.dtype == np.float32
        # The original network is untouched.
        assert net.x_bar.dtype == np.float64

    def test_with_dtype_rejects_others(self, ops, x14):
        net = compile_network(preset("sgcn"), ops, 5, 3, features=x14)
        with pytest.raises(UsageError):
            with_dtype(net, np.int32)


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
        net = compile_sparse(sparse_case, name)
        assert sp.issparse(net.x_bar) and net.x_bar.format == "csr"
        assert net.x_bar.has_sorted_indices

    def test_dense_features_stay_dense(self, ops, x14):
        for name in PRESET_NAMES:
            net = compile_network(preset(name), ops, 5, 3, features=x14)
            assert isinstance(net.x_bar, np.ndarray)

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
        assert sp.issparse(net.x_bar)
        assert gradient_check(net, dataset, seed=3).passed

    def test_train_mode_dropout_runs_on_stored_entries(self, sparse_case):
        net = compile_sparse(sparse_case, "gcn", dropout=0.5)
        params = init_params(net, np.random.default_rng(33))
        _, states = forward(net, params, mode="train", rng=np.random.default_rng(34))
        assert net.layers[0].kind == "dropout"
        assert states.caches[0].shape == (net.x_bar.nnz,)
        grads = backward(net, states, np.ones((net.x_bar.shape[0], net.num_classes)))
        assert [g.shape for g in grads] == list(net.param_shapes)

    def test_with_dtype_float32_keeps_csr(self, sparse_case):
        net = compile_sparse(sparse_case, "gcn")
        net32 = with_dtype(net, np.float32)
        assert sp.issparse(net32.x_bar) and net32.x_bar.format == "csr"
        assert net32.x_bar.dtype == np.float32
        assert net.x_bar.dtype == np.float64


def full_reverse(net, states, d_output):
    """Every entry's vjp in reverse, the first linear's input gradient too."""
    grads = [np.zeros_like(p) for p in states.params]
    u = d_output
    for entry, cache in zip(reversed(net.layers), reversed(states.caches)):
        if entry.kind == "linear":
            u, dw = linear_vjp(cache, states.params[entry.index], u)
            grads[entry.index] += dw
        else:
            u = entry.vjp(cache, states.params, u, grads)
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
        kinds = net.describe()
        assert kinds[:2] == ("dropout", "linear")
        first_mask = states.caches[0]
        masks = []
        original = networks.dropout_vjp

        def spy(mask, rate, upstream):
            masks.append(mask)
            return original(mask, rate, upstream)

        monkeypatch.setattr(networks, "dropout_vjp", spy)
        backward(net, states, np.ones((14, 3)))
        assert len(masks) == kinds.count("dropout") - 1
        assert all(mask is not first_mask for mask in masks)


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
    assert (case == "folded-csr") == sp.issparse(net.x_bar)
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
    """Stands in for the dropout stream: each draw hands out the next mask as
    uniforms, 1 where it keeps an entry and 0 where it drops one."""

    def __init__(self, masks):
        self.masks = list(masks)

    def random(self, size):
        mask = self.masks.pop(0)
        assert mask.size == np.prod(size)
        return mask.reshape(size).astype(np.float64)


def upstream_on(num_rows, positions, g):
    d = np.zeros((num_rows, g.shape[1]))
    np.add.at(d, positions, g)
    return d


def assert_matches_full_chain(net, full, part, restricted, rows):
    """Outputs on the requested rows and parameter gradients of the
    restricted pass equal the full chain's."""
    (full_out, full_states), (out, states) = full, restricted
    np.testing.assert_allclose(out[part.positions], full_out[rows], rtol=0, atol=1e-12)
    g = np.random.default_rng(44).normal(size=(rows.size, net.num_classes))
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

        full_input = net.x_bar
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
        path = GraphTopology.from_edge_list(n, [(i, i + 1) for i in range(n - 1)])
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
        part = restrict(compile_network(preset("gcn"), ops, 5, 3, features=x14), [3, 1])
        part32 = with_dtype(part, np.float32)
        assert part32.x_bar.dtype == np.float32 and part32.x_bar.shape == part.x_bar.shape
        np.testing.assert_array_equal(part32.positions, part.positions)
