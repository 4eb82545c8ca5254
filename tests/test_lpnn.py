import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from graphcompose.cli import _LOSS_WEIGHT_KEYS
from graphcompose.errors import NumericError, UsageError
from graphcompose.graph import GraphTopology, build_operator
from graphcompose.lpnn import (
    G_HIDDEN_DIMS,
    G_SPEC,
    LpnnWeights,
    build_g_network,
    lpnn_loss,
    predict_from_f,
    predict_from_g,
    train_lpnn,
)
from graphcompose.networks import (
    compile_network,
    forward,
    init_params,
    softmax_rows_forward,
)
from graphcompose.training import AdamState, TrainConfig, adam_step
from graphcompose.evaluation import accuracy

from .conftest import (
    dense,
    entry_kinds,
    planted_dataset,
    ring_topology,
    sparse_planted_dataset,
    whole,
)
from .reference import run, unroll
from .test_training import stratified_split

W0 = LpnnWeights(0.0, 0.0, 0.0, 0.0, 0.0)


def problem(n=7, m=3, seed=0):
    rng = np.random.default_rng(seed)
    g = ring_topology(n, extra_edges=2, seed=seed)
    op = build_operator(g, "symmetric")
    f = rng.normal(size=(n, m))
    g_out = softmax_rows_forward(rng.normal(size=(n, m)))
    labels = rng.integers(m, size=n)
    labeled = [0, 2, 4]
    return op, f, g_out, labels, labeled


class TestLpnnWeights:
    def test_negative_rejected(self):
        with pytest.raises(UsageError, match="lambda_u"):
            LpnnWeights(1.0, 1.0, 1.0, 1.0, -0.5)

    def test_sweep_draws_weights_in_field_order(self):
        # A sweep samples the weights in this order; reordering the fields of
        # LpnnWeights would change every sampled lpnn config.
        assert _LOSS_WEIGHT_KEYS == ("mu_g", "mu_l", "mu_u", "lambda_l", "lambda_u")


class TestLpnnLoss:
    def test_zero_weights_zero_everything(self):
        op, f, g_out, labels, labeled = problem()
        loss, d_f, d_g = lpnn_loss(f, g_out, op.matrix, labels, labeled, W0)
        assert loss == 0.0
        np.testing.assert_array_equal(d_f, np.zeros_like(f))
        np.testing.assert_array_equal(d_g, np.zeros_like(g_out))

    def test_smoothness_term_dense_oracle(self):
        op, f, g_out, labels, labeled = problem(seed=1)
        w = LpnnWeights(0.7, 0, 0, 0, 0)
        loss, d_f, d_g = lpnn_loss(f, g_out, op.matrix, labels, labeled, w)
        s = dense(op.matrix)
        expected = 0.7 * ((f * f).sum() - (f * (s @ f)).sum())
        assert loss == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(d_f, 0.7 * (2 * f - s @ f - s.T @ f), atol=1e-12)
        np.testing.assert_array_equal(d_g, np.zeros_like(g_out))

    def test_labeled_fit_with_zero_field(self):
        op, _, g_out, labels, labeled = problem(seed=2)
        f = np.zeros((7, 3))
        w = LpnnWeights(0, 2.0, 0, 0, 0)
        loss, d_f, _ = lpnn_loss(f, g_out, op.matrix, labels, labeled, w)
        # Each labeled row misses its one-hot target by exactly 1 in one slot.
        assert loss == pytest.approx(2.0 * len(labeled))
        for i in labeled:
            assert d_f[i, labels[i]] == pytest.approx(-4.0)
        assert np.all(d_f[[1, 3, 5, 6]] == 0.0)

    def test_unlabeled_shrinkage(self):
        op, f, g_out, labels, labeled = problem(seed=3)
        w = LpnnWeights(0, 0, 0.5, 0, 0)
        loss, d_f, _ = lpnn_loss(f, g_out, op.matrix, labels, labeled, w)
        unlabeled = [i for i in range(7) if i not in labeled]
        assert loss == pytest.approx(0.5 * (f[unlabeled] ** 2).sum(), rel=1e-12)
        np.testing.assert_allclose(d_f[unlabeled], f[unlabeled], atol=1e-12)
        assert np.all(d_f[labeled] == 0.0)

    def test_labeled_kl_is_log_loss_on_g(self):
        op, f, g_out, labels, labeled = problem(seed=4)
        w = LpnnWeights(0, 0, 0, 1.5, 0)
        loss, d_f, d_g = lpnn_loss(f, g_out, op.matrix, labels, labeled, w)
        expected = -1.5 * sum(np.log(g_out[i, labels[i]]) for i in labeled)
        assert loss == pytest.approx(expected, rel=1e-12)
        assert np.all(d_f == 0.0)
        for i in labeled:
            assert d_g[i, labels[i]] == pytest.approx(-1.5 / g_out[i, labels[i]])

    def test_unlabeled_kl_zero_when_distributions_match(self):
        op, f, _, labels, labeled = problem(seed=5)
        g_out = softmax_rows_forward(f)
        w = LpnnWeights(0, 0, 0, 0, 1.0)
        loss, _, _ = lpnn_loss(f, g_out, op.matrix, labels, labeled, w)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_unlabeled_kl_nonnegative(self):
        op, f, g_out, labels, labeled = problem(seed=6)
        w = LpnnWeights(0, 0, 0, 0, 1.0)
        loss, _, _ = lpnn_loss(f, g_out, op.matrix, labels, labeled, w)
        assert loss >= 0.0

    @pytest.mark.parametrize("shape", ["planted", "cora", "pubmed"])
    def test_symmetric_operator_is_bitwise_symmetric(self, shape):
        # lpnn_loss takes S^T f to be S f, bit for bit. Cora and Pubmed
        # shapes get their node and edge counts and a few hubs.
        rng = np.random.default_rng(31)
        if shape == "planted":
            topology = planted_dataset(300, 3, 4, seed=5, edges_per_node=4).topology
        else:
            n, e = {"cora": (2708, 5278), "pubmed": (19717, 44324)}[shape]
            pairs = np.column_stack([rng.integers(n, size=e), (n * rng.random(e) ** 4).astype(int)])
            topology = GraphTopology(n, pairs[pairs[:, 0] != pairs[:, 1]])
        s = build_operator(topology, "symmetric").matrix
        t = s.T.tocsr()
        for a, b in ((t.indptr, s.indptr), (t.indices, s.indices), (t.data, s.data)):
            assert a.tobytes() == b.tobytes()
        f = rng.normal(size=(s.shape[0], 7)) * 10.0 ** rng.uniform(-5, 5, size=(s.shape[0], 1))
        assert (s.T @ f).tobytes() == (s @ f).tobytes()

    def test_float32_inputs_keep_float32_and_match_float64(self):
        # The trace is summed in float64; everything else stays in float32.
        op, f, g_out, labels, labeled = problem(seed=8)
        w = LpnnWeights(0.9, 0.8, 0.3, 1.1, 0.7)
        f32, g32, s32 = f.astype(np.float32), g_out.astype(np.float32), op.matrix.astype(np.float32)
        loss, d_f, d_g = lpnn_loss(f32, g32, s32, labels, labeled, w)
        assert d_f.dtype == d_g.dtype == np.float32
        ref = lpnn_loss(f32.astype(np.float64), g32.astype(np.float64),
                        s32.astype(np.float64), labels, labeled, w)
        assert loss == pytest.approx(ref[0], rel=1e-6)
        np.testing.assert_allclose(d_f, ref[1], rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(d_g, ref[2], rtol=1e-5, atol=1e-6)

    def test_trace_guard_passes_the_smoothest_field_and_refuses_a_scaled_operator(self):
        # f along S's top eigenvector, the square root of the augmented
        # degrees, has trace zero. In float32 the rounding of S and S f once
        # made it read slightly negative on 76 of these 200 graphs. 1.01 S
        # gives the same field a trace of -0.01 ||f||^2.
        weights = LpnnWeights(1.0, 0.0, 0.0, 0.0, 0.0)
        labels, labeled = np.zeros(60, dtype=np.int64), np.array([0])
        for seed in range(200):
            topology = ring_topology(60, 40, seed)
            s = build_operator(topology, "symmetric").matrix
            degrees = np.bincount(topology.edges.ravel(), minlength=60) + 1.0
            field = np.repeat(10.0 * np.sqrt(degrees)[:, None], 3, axis=1)
            for dtype in (np.float32, np.float64):
                f, g_out = field.astype(dtype), np.full((60, 3), 1 / 3, dtype)
                lpnn_loss(f, g_out, s.astype(dtype), labels, labeled, weights)
                with pytest.raises(NumericError, match="went negative"):
                    lpnn_loss(f, g_out, (1.01 * s).astype(dtype), labels, labeled, weights)

    def test_gradients_match_finite_differences(self):
        op, f, g_out, labels, labeled = problem(seed=7)
        w = LpnnWeights(0.9, 0.8, 0.3, 1.1, 0.7)
        _, d_f, d_g = lpnn_loss(f, g_out, op.matrix, labels, labeled, w)
        eps = 1e-6

        def loss_at(fv, gv):
            return lpnn_loss(fv, gv, op.matrix, labels, labeled, w)[0]

        worst = 0.0
        for arr, grad, which in ((f, d_f, "f"), (g_out, d_g, "g")):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                up = arr.copy()
                up[idx] += eps
                down = arr.copy()
                down[idx] -= eps
                if which == "f":
                    numeric = (loss_at(up, g_out) - loss_at(down, g_out)) / (2 * eps)
                else:
                    numeric = (loss_at(f, up) - loss_at(f, down)) / (2 * eps)
                denom = max(abs(grad[idx]), abs(numeric), 1e-6)
                worst = max(worst, abs(grad[idx] - numeric) / denom)
        assert worst < 1e-5

    def test_field_optimizer_reaches_the_quadratic_optimum(self):
        # With both KL weights at 0 the loss in f is quadratic, and its minimum
        # solves (mu_g (I - S) + mu_l L + mu_u U) f = mu_l L Y, for L and U the
        # labeled and unlabeled diagonal masks. f takes train_lpnn's step:
        # lpnn_loss, then adam_step on f alone from zeros. At a constant rate
        # Adam hovers in a neighbourhood of the optimum whose radius scales
        # with the rate: 4e-4 to 1.6e-3 at 0.01 over steps 1000 to 20000, and
        # 8e-5 to 3e-4 at 0.003.
        n, m = 60, 3
        s = build_operator(ring_topology(n, extra_edges=20, seed=3), "symmetric").matrix
        rng = np.random.default_rng(5)
        labels = rng.integers(m, size=n)
        labeled = np.sort(rng.choice(n, size=12, replace=False))
        w = LpnnWeights(1.0, 1.0, 0.1, 0.0, 0.0)
        g_out = np.full((n, m), 1.0 / m)  # unread: both KL weights are 0

        f = np.zeros((n, m))
        adam = AdamState.for_params([f])
        for _ in range(3000):
            _, d_f, _ = lpnn_loss(f, g_out, s, labels, labeled, w)
            f = adam_step([f], [d_f], adam, 0.003, 0.0)[0]

        mask_l = np.isin(np.arange(n), labeled).astype(float)
        system = w.mu_g * (sp.identity(n) - s) + sp.diags(w.mu_l * mask_l + w.mu_u * (1 - mask_l))
        target = w.mu_l * mask_l[:, None] * np.eye(m)[labels]
        optimum = np.column_stack(
            [spsolve(system.tocsc(), target[:, c]) for c in range(m)]
        )
        assert np.abs(f - optimum).max() < 1e-3


class TestGNetwork:
    def test_shape(self):
        net = build_g_network(30, 4)
        assert net.param_shapes == ((30, 128), (128, 64), (64, 4))
        assert entry_kinds(net) == ("linear", "relu", "linear", "relu", "linear", "softmax")
        assert G_HIDDEN_DIMS == (128, 64)

    def test_dropout_variant(self):
        net = build_g_network(30, 4, dropout=0.5)
        assert entry_kinds(net).count("dropout") == 3

    def test_csr_input_matches_the_dense_features(self):
        dataset = sparse_planted_dataset(40, 3, 200, 0.01, seed=31)
        d, c = dataset.num_features, dataset.num_classes
        net = compile_network(G_SPEC, {}, d, c, features=dataset.features)
        assert sp.issparse(whole(net).x_bar)
        params = init_params(net, np.random.default_rng(3))
        out, _ = forward(net, params)
        ref, _ = run(unroll(G_SPEC, {}), dataset.features, params)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)


class TestTrainLpnn:
    @pytest.fixture(scope="class")
    @staticmethod
    def trained(small_dataset):
        split = stratified_split(small_dataset)
        config = TrainConfig(dropout=0.0, max_epochs=60, patience=60, seed=1, precision="float64")
        weights = LpnnWeights(1.0, 1.0, 1.0, 1.0, 1.0)
        model, history = train_lpnn(small_dataset, split, config, weights)
        return small_dataset, split, model, history

    def test_learns_above_chance(self, trained):
        dataset, split, model, history = trained
        preds = predict_from_g(model)
        acc = accuracy(preds, dataset.labels, np.asarray(split.test))
        assert acc > 0.45

    def test_history_tracks_g_accuracy(self, trained):
        dataset, split, model, history = trained
        preds = predict_from_g(model)
        val_acc = accuracy(preds, dataset.labels, np.asarray(split.val))
        assert val_acc == pytest.approx(history.best_val_accuracy, abs=1e-12)

    def test_field_predictions_are_distributions(self, trained):
        dataset, _, model, _ = trained
        p = predict_from_f(model)
        assert p.shape == (dataset.num_nodes, dataset.num_classes)
        np.testing.assert_allclose(p.sum(axis=1), np.ones(dataset.num_nodes), atol=1e-9)

    def test_dropout_free_run_matches_a_full_g_reference_loop(self):
        # train_lpnn runs g on its CSR input and validates on the val rows
        # only; the loop below runs the dense reference's g over every node.
        dataset = sparse_planted_dataset(90, 3, 60, 0.05, seed=8)
        split = stratified_split(dataset, val=30)
        config = TrainConfig(dropout=0.0, max_epochs=12, patience=12, seed=4, precision="float64")
        weights = LpnnWeights(0.5, 1.0, 0.2, 1.0, 0.3)
        model, history = train_lpnn(dataset, split, config, weights)
        assert sp.issparse(whole(model.g_net).x_bar)

        g = unroll(G_SPEC, {})
        op = build_operator(dataset.topology, "symmetric")
        init_stream, _ = np.random.SeedSequence(config.seed).spawn(2)
        g_params = init_params(model.g_net, np.random.default_rng(init_stream))
        f = np.zeros((dataset.num_nodes, dataset.num_classes))
        adam_f, adam_g = AdamState.for_params([f]), AdamState.for_params(g_params)
        losses, accs = [], []
        for _ in range(config.max_epochs):
            g_out, g_vjp = run(g, dataset.features, g_params)
            loss, d_f, d_g = lpnn_loss(
                f, g_out, op.matrix, dataset.labels, np.asarray(split.train), weights
            )
            g_grads = g_vjp(d_g)
            f = adam_step([f], [d_f], adam_f, config.learning_rate, 0.0)[0]
            g_params = adam_step(
                g_params, g_grads, adam_g, config.learning_rate, config.weight_decay
            )
            losses.append(loss)
            accs.append(accuracy(run(g, dataset.features, g_params)[0], dataset.labels, split.val))
        np.testing.assert_allclose(history.train_loss, losses, rtol=1e-9, atol=0)
        assert history.val_accuracy == tuple(accs)
        assert len(set(accs)) > 1

    def test_deterministic(self, small_dataset):
        split = stratified_split(small_dataset)
        config = TrainConfig(dropout=0.0, max_epochs=8, patience=8, seed=9, precision="float64")
        weights = LpnnWeights(0.5, 1.0, 0.2, 1.0, 0.3)
        m1, h1 = train_lpnn(small_dataset, split, config, weights)
        m2, h2 = train_lpnn(small_dataset, split, config, weights)
        assert h1 == h2
        np.testing.assert_array_equal(m1.f, m2.f)
        for a, b in zip(m1.g_params, m2.g_params):
            np.testing.assert_array_equal(a, b)

    def test_empty_train_rejected(self, small_dataset):
        from graphcompose.data import DataSplit

        split = stratified_split(small_dataset)
        bad = DataSplit(1, 0, (), split.val, split.test)
        with pytest.raises(UsageError):
            train_lpnn(small_dataset, bad, TrainConfig(), LpnnWeights(1, 1, 1, 1, 1))

    def test_float32_run(self, small_dataset):
        # f, g's copies and the operator run in float32; the run learns as
        # the float64 one does and its test pass reads g in float32.
        split = stratified_split(small_dataset)
        runs = {}
        for precision in ("float32", "float64"):
            config = TrainConfig(dropout=0.0, max_epochs=60, patience=60, seed=1,
                                 precision=precision)
            runs[precision] = train_lpnn(small_dataset, split, config, LpnnWeights(1, 1, 1, 1, 1))
        model, history = runs["float32"]
        assert model.f.dtype == np.float32
        assert all(p.dtype == np.float32 for p in model.g_params)
        assert np.all(np.isfinite(history.train_loss))
        preds = predict_from_g(model)
        assert preds.dtype == np.float32
        assert accuracy(preds, small_dataset.labels, np.asarray(split.test)) > 0.45
        wide = runs["float64"][1]
        assert abs(history.best_val_accuracy - wide.best_val_accuracy) <= 0.05
        np.testing.assert_allclose(history.train_loss[:10], wide.train_loss[:10], rtol=1e-4)
