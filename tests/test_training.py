import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from graphcompose import training
from graphcompose.data import DataSplit
from graphcompose.errors import NumericError, UsageError
from graphcompose.graph import build_operator
from graphcompose.networks import backward, compile_network, forward, init_params, preset
from graphcompose.training import (
    PROB_FLOOR,
    AdamState,
    TrainConfig,
    adam_step,
    gradient_check,
    masked_cross_entropy,
    train,
)
from graphcompose.evaluation import accuracy
from graphcompose.lpnn import LpnnWeights, train_lpnn

from .conftest import (
    dense,
    planted_dataset,
    sparse_planted_dataset,
    spy_infer_threads,
    whole,
)


def build_ops(dataset):
    return {
        "symmetric": build_operator(dataset.topology, "symmetric"),
        "row": build_operator(dataset.topology, "row"),
    }


def stratified_split(dataset, per_class=5, val=15, seed=0):
    rng = np.random.default_rng(seed)
    train = []
    for c in range(dataset.num_classes):
        members = np.flatnonzero(dataset.labels == c)
        train.extend(int(i) for i in rng.permutation(members)[:per_class])
    rest = [i for i in range(dataset.num_nodes) if i not in set(train)]
    rest = list(rng.permutation(rest))
    return DataSplit(
        size_index=1,
        split_index=0,
        train=tuple(sorted(train)),
        val=tuple(sorted(int(i) for i in rest[:val])),
        test=tuple(sorted(int(i) for i in rest[val:])),
    )


class TestMaskedCrossEntropy:
    def test_hand_oracle(self):
        p = np.array([[0.5, 0.5], [0.25, 0.75], [0.9, 0.1]])
        labels = np.array([0, 1, 0])
        loss, d_p = masked_cross_entropy(p, labels, [0, 1])
        expected = -(np.log(0.5) + np.log(0.75)) / 2
        assert loss == pytest.approx(expected, abs=1e-15)
        np.testing.assert_allclose(
            d_p,
            [[-1.0 / (2 * 0.5), 0.0], [0.0, -1.0 / (2 * 0.75)], [0.0, 0.0]],
            atol=1e-15,
        )

    def test_unlabeled_rows_do_not_contribute(self):
        p = np.array([[1e-30, 1.0], [0.5, 0.5]])
        loss, d_p = masked_cross_entropy(p, np.array([0, 0]), [1])
        assert loss == pytest.approx(-np.log(0.5))
        np.testing.assert_array_equal(d_p[0], [0.0, 0.0])

    def test_probability_floor(self):
        p = np.array([[0.0, 1.0]])
        loss, _ = masked_cross_entropy(p, np.array([0]), [0])
        assert loss == pytest.approx(-np.log(PROB_FLOOR))
        assert np.isfinite(loss)

    def test_empty_labeled_set_rejected(self):
        with pytest.raises(UsageError):
            masked_cross_entropy(np.ones((2, 2)) / 2, np.array([0, 1]), [])

    @pytest.mark.parametrize("ids", [[1.7, 0.2], [True, False], np.array([0.0, 1.0])],
                             ids=["floats", "bools", "float-array"])
    def test_non_integer_ids_rejected(self, ids):
        # numpy would read [1.7, 0.2] as rows [1, 0] and [True, False] as [1, 0].
        with pytest.raises(UsageError, match="integer row ids"):
            masked_cross_entropy(np.ones((2, 2)) / 2, np.array([0, 1]), ids)

    def test_integer_ids_of_any_width_agree(self):
        p = np.array([[0.5, 0.5], [0.25, 0.75], [0.9, 0.1]])
        labels = np.array([0, 1, 0])
        want = masked_cross_entropy(p, labels, [2, 1])
        for ids in (np.array([2, 1], dtype=np.int32), np.array([2, 1], dtype=np.uint8), range(2, 0, -1)):
            got = masked_cross_entropy(p, labels, ids)
            assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        z = rng.random((5, 3)) + 0.1
        p = z / z.sum(axis=1, keepdims=True)
        labels = np.array([0, 2, 1, 1, 0])
        idx = [0, 2, 3]
        _, d_p = masked_cross_entropy(p, labels, idx)
        eps = 1e-7
        for i in idx:
            c = labels[i]
            bumped = p.copy()
            bumped[i, c] += eps
            dipped = p.copy()
            dipped[i, c] -= eps
            numeric = (
                masked_cross_entropy(bumped, labels, idx)[0]
                - masked_cross_entropy(dipped, labels, idx)[0]
            ) / (2 * eps)
            assert d_p[i, c] == pytest.approx(numeric, rel=1e-5)


class TestAdam:
    @staticmethod
    def reference_adam(params, grad_fn, lr, wd, steps):
        """Straight transcription of bias-corrected Adam used as the oracle."""
        b1, b2, eps = 0.9, 0.999, 1e-8
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        ps = [p.copy() for p in params]
        for t in range(1, steps + 1):
            grads = grad_fn(ps)
            for i in range(len(ps)):
                g = grads[i] + wd * ps[i]
                m[i] = b1 * m[i] + (1 - b1) * g
                v[i] = b2 * v[i] + (1 - b2) * g * g
                ps[i] = ps[i] - lr * (m[i] / (1 - b1**t)) / (
                    np.sqrt(v[i] / (1 - b2**t)) + eps
                )
        return ps

    def test_matches_reference_over_steps(self):
        rng = np.random.default_rng(1)
        params = [rng.normal(size=(3, 2)), rng.normal(size=(2, 4))]
        fixed_grads = [rng.normal(size=(3, 2)), rng.normal(size=(2, 4))]

        state = AdamState.for_params(params)
        ps = [p.copy() for p in params]
        for _ in range(5):
            ps = adam_step(ps, fixed_grads, state, lr=0.05, weight_decay=0.01)
        expected = self.reference_adam(params, lambda _: fixed_grads, 0.05, 0.01, 5)
        for a, b in zip(ps, expected):
            np.testing.assert_allclose(a, b, atol=1e-12)

    @staticmethod
    def out_of_place_step(params, grads, m, v, t, lr, wd):
        """adam_step's update with a new array for every result: the same
        operations on the same operands in the same order."""
        c1, c2 = 1.0 - 0.9**t, 1.0 - 0.999**t
        out = []
        for i, (p, g) in enumerate(zip(params, grads)):
            if wd:
                g = g + wd * p
            m[i] = 0.9 * m[i] + (1.0 - 0.9) * g
            v[i] = 0.999 * v[i] + (1.0 - 0.999) * (g * g)
            out.append(p - lr * (m[i] / c1) / (np.sqrt(v[i] / c2) + 1e-8))
        return out

    @pytest.mark.parametrize("wd", [0.0, 5e-4])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_moments_equal_the_out_of_place_update_bytewise(self, dtype, wd):
        rng = np.random.default_rng(3)
        params = [rng.normal(size=s).astype(dtype) for s in ((5, 4), (4, 3), (3,))]
        ref = [p.copy() for p in params]
        m, v = [np.zeros_like(p) for p in ref], [np.zeros_like(p) for p in ref]
        state = AdamState.for_params(params)
        moments = [*state.m, *state.v]
        for t in range(1, 5):
            grads = [rng.normal(size=p.shape).astype(dtype) for p in params]
            params = adam_step(params, grads, state, lr=0.05, weight_decay=wd)
            ref = self.out_of_place_step(ref, grads, m, v, t, 0.05, wd)
            for got, want in zip([*params, *state.m, *state.v], [*ref, *m, *v], strict=True):
                assert got.dtype == want.dtype == dtype
                assert got.tobytes() == want.tobytes()
        assert all(a is b for a, b in zip([*state.m, *state.v], moments))

    @pytest.mark.parametrize("wd", [0.0, 0.3])
    def test_leaves_params_and_grads_alone_and_returns_fresh_arrays(self, wd):
        rng = np.random.default_rng(4)
        params = [rng.normal(size=(4, 3)), rng.normal(size=(3, 2)).astype(np.float32)]
        grads = [rng.normal(size=p.shape).astype(p.dtype) for p in params]
        before = [a.copy() for a in (*params, *grads)]
        state = AdamState.for_params(params)
        for _ in range(3):
            out = adam_step(params, grads, state, lr=0.1, weight_decay=wd)
            for a, b in zip((*params, *grads), before, strict=True):
                assert a.tobytes() == b.tobytes()
            for new in out:
                assert not any(
                    np.shares_memory(new, a) for a in (*params, *grads, *state.m, *state.v)
                )

    def test_first_step_magnitude(self):
        # With bias correction the first update is close to lr per coordinate.
        params = [np.zeros((1, 1))]
        state = AdamState.for_params(params)
        out = adam_step(params, [np.array([[2.0]])], state, lr=0.1)
        assert out[0][0, 0] == pytest.approx(-0.1, rel=1e-6)

    def test_weight_decay_equivalent_to_grad_shift(self):
        rng = np.random.default_rng(2)
        p = [rng.normal(size=(4, 3))]
        g = [rng.normal(size=(4, 3))]
        s1 = AdamState.for_params(p)
        s2 = AdamState.for_params(p)
        via_flag = adam_step([p[0].copy()], g, s1, lr=0.01, weight_decay=0.3)
        via_grad = adam_step([p[0].copy()], [g[0] + 0.3 * p[0]], s2, lr=0.01)
        np.testing.assert_allclose(via_flag[0], via_grad[0], atol=1e-15)

    def test_size_mismatch(self):
        state = AdamState.for_params([np.zeros((2, 2))])
        with pytest.raises(UsageError):
            adam_step([np.zeros((2, 2))], [], state, lr=0.1)

    @pytest.mark.parametrize(
        "grad, words",
        [
            (np.ones((1, 2), dtype=np.float32), ["gradient 1", "(1, 2)", "(3, 2)"]),
            (np.ones((3, 2), dtype=np.float64), ["gradient 1", "float64", "float32"]),
        ],
        ids=["broadcastable-shape", "float64-for-float32"],
    )
    def test_refuses_a_mismatched_gradient_before_changing_state(self, grad, words):
        params = [np.ones((2, 2), dtype=np.float32), np.ones((3, 2), dtype=np.float32)]
        state = AdamState.for_params(params)
        adam_step(params, [np.ones_like(p) for p in params], state, lr=0.1)
        before = [a.tobytes() for a in (*state.m, *state.v)]
        with pytest.raises(UsageError) as info:
            adam_step(params, [np.ones_like(params[0]), grad], state, lr=0.1)
        assert all(w in str(info.value) for w in words)
        assert state.step == 1
        assert [a.tobytes() for a in (*state.m, *state.v)] == before


class TestTrainConfig:
    def test_defaults(self):
        c = TrainConfig()
        assert c.learning_rate == 0.01
        assert c.dropout == 0.5
        assert c.weight_decay == 5e-4
        assert c.max_epochs == 500
        assert c.patience == 25
        assert c.precision == "float32"

    def test_validation(self):
        with pytest.raises(UsageError):
            TrainConfig(learning_rate=-1)
        with pytest.raises(UsageError):
            TrainConfig(dropout=1.0)
        with pytest.raises(UsageError):
            TrainConfig(patience=0)
        with pytest.raises(UsageError):
            TrainConfig(precision="float16")

    # Refused here, not inside train: a nan patience would never stop early,
    # and numpy refuses a float or negative seed with its own error.
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("patience", float("nan"), "patience must be an integer >= 1, got nan"),
            ("max_epochs", 2.5, "max_epochs must be an integer >= 1, got 2.5"),
            ("max_epochs", True, "max_epochs must be an integer >= 1, got True"),
            ("seed", 1.5, "seed must be an integer >= 0, got 1.5"),
            ("seed", -1, "seed must be an integer >= 0, got -1"),
        ],
        ids=["nan-patience", "float-epochs", "bool-epochs", "float-seed", "negative-seed"],
    )
    def test_counts_and_seed_are_integers(self, field, value, message):
        with pytest.raises(UsageError) as info:
            TrainConfig(**{field: value})
        assert str(info.value) == message

    def test_numpy_integers_accepted(self):
        config = TrainConfig(max_epochs=np.int64(3), patience=np.int32(2), seed=np.uint32(7))
        assert (config.max_epochs, config.patience, config.seed) == (3, 2, 7)


class TestTrain:
    @pytest.fixture(scope="class")
    @staticmethod
    def setup(small_dataset):
        ops = build_ops(small_dataset)
        split = stratified_split(small_dataset)
        net = compile_network(
            preset("sgcn"),
            ops,
            small_dataset.num_features,
            small_dataset.num_classes,
            features=small_dataset.features,
        )
        return small_dataset, split, net

    def test_learns_above_chance(self, setup):
        dataset, split, net = setup
        config = TrainConfig(dropout=0.0, max_epochs=80, patience=80, seed=1, precision="float64")
        params, history = train(net, dataset, split, config)
        test_out, _ = forward(net, params)
        acc = accuracy(test_out, dataset.labels, np.asarray(split.test))
        assert acc > 0.6
        assert history.best_val_accuracy >= history.val_accuracy[0]

    def test_returns_best_epoch_params(self, setup):
        dataset, split, net = setup
        config = TrainConfig(dropout=0.0, max_epochs=40, patience=40, seed=2, precision="float64")
        params, history = train(net, dataset, split, config)
        out, _ = forward(net, params)
        val_acc = accuracy(out, dataset.labels, np.asarray(split.val))
        assert val_acc == pytest.approx(history.best_val_accuracy, abs=1e-12)
        assert history.val_accuracy[history.best_epoch - 1] == pytest.approx(
            history.best_val_accuracy
        )

    def test_deterministic(self, setup):
        dataset, split, net = setup
        config = TrainConfig(dropout=0.0, max_epochs=15, patience=15, seed=3, precision="float64")
        p1, h1 = train(net, dataset, split, config)
        p2, h2 = train(net, dataset, split, config)
        assert h1 == h2
        for a, b in zip(p1, p2):
            np.testing.assert_array_equal(a, b)

    def test_seed_changes_run(self, setup):
        dataset, split, net = setup
        config = TrainConfig(dropout=0.0, max_epochs=10, patience=10, seed=4, precision="float64")
        h1 = train(net, dataset, split, config)[1]
        h2 = train(net, dataset, split, replace(config, seed=5))[1]
        assert h1.train_loss != h2.train_loss

    def test_frozen_run_stops_at_epoch_two(self, setup):
        # lr=0 never improves after the first epoch, so patience=1 trips
        # immediately: strict improvement is required to reset the counter.
        dataset, split, net = setup
        config = TrainConfig(learning_rate=0.0, dropout=0.0, patience=1, max_epochs=50, seed=6, precision="float64")
        _, history = train(net, dataset, split, config)
        assert history.stopped_epoch == 2
        assert history.best_epoch == 1
        assert len(history.val_accuracy) == 2

    def test_stops_within_patience_budget(self, setup):
        dataset, split, net = setup
        config = TrainConfig(dropout=0.0, max_epochs=300, patience=5, seed=7, precision="float64")
        _, history = train(net, dataset, split, config)
        assert history.stopped_epoch <= 300
        assert len(history.train_loss) == history.stopped_epoch
        tail = history.val_accuracy[history.best_epoch :]
        assert all(a <= history.best_val_accuracy for a in tail)

    def test_float32_precision(self, setup):
        dataset, split, net = setup
        config = TrainConfig(dropout=0.0, max_epochs=5, patience=5, precision="float32", seed=8)
        params, _ = train(net, dataset, split, config)
        assert all(p.dtype == np.float32 for p in params)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_raises(self, small_dataset):
        # Features and the network refuse non-finite values, but finite
        # features past float32's range overflow once a float32 run casts them.
        huge = small_dataset.features * 1e300
        ops = build_ops(small_dataset)
        split = stratified_split(small_dataset)
        net = compile_network(
            preset("sgcn"), ops, small_dataset.num_features, small_dataset.num_classes,
            features=huge,
        )
        config = TrainConfig(dropout=0.0, max_epochs=3, patience=3, precision="float32")
        with pytest.raises(NumericError, match="non-finite training loss at epoch 1"):
            train(net, small_dataset, split, config)

    def test_dropout_must_match_compiled_rate(self, setup):
        dataset, split, net = setup
        with pytest.raises(UsageError, match=r"config dropout 0\.5 differs from the rate 0\.0"):
            train(net, dataset, split, TrainConfig(dropout=0.5, max_epochs=2, patience=2))

    def test_empty_train_set_rejected(self, setup):
        dataset, split, net = setup
        empty = DataSplit(1, 0, (), split.val, split.test)
        with pytest.raises(UsageError, match="nonempty train and val"):
            train(net, dataset, empty, TrainConfig(dropout=0.0))

    def test_history_text_layout(self, setup):
        dataset, split, net = setup
        config = TrainConfig(dropout=0.0, max_epochs=3, patience=3, seed=9, precision="float64")
        _, history = train(net, dataset, split, config)
        text = history.to_text()
        lines = text.strip().splitlines()
        assert lines[0] == "epoch\ttrain_loss\tval_accuracy"
        assert lines[1].startswith("1\t")
        assert lines[-1].startswith("# best_epoch")


class TestGradientCheck:
    def test_passes_on_small_gcn(self):
        dataset = planted_dataset(9, 2, 4, seed=3, edges_per_node=3)
        ops = build_ops(dataset)
        net = compile_network(
            preset("gcn", hidden_dim=5), ops, 4, 2, features=dataset.features
        )
        report = gradient_check(net, dataset, seed=1)
        assert report.passed
        assert report.max_rel_error < 1e-5
        assert len(report.per_param) == len(net.param_shapes)

    def test_labeled_subset(self):
        dataset = planted_dataset(8, 2, 3, seed=4, edges_per_node=3)
        ops = build_ops(dataset)
        net = compile_network(preset("sgcn"), ops, 3, 2, features=dataset.features)
        report = gradient_check(net, dataset, labeled_set=[0, 3, 5], seed=2)
        assert report.passed

    def test_unsorted_subset_through_the_restricted_copy(self):
        dataset = planted_dataset(8, 2, 3, seed=4, edges_per_node=3)
        ops = build_ops(dataset)
        net = compile_network(
            preset("gcn-lp", hidden_dim=3), ops, 3, 2, features=dataset.features
        )
        report = gradient_check(net, dataset, labeled_set=[5, 0, 3], seed=2)
        assert report.passed

    def test_rejects_dropout_networks(self):
        dataset = planted_dataset(8, 2, 3, seed=5, edges_per_node=3)
        ops = build_ops(dataset)
        net = compile_network(
            preset("sgcn"), ops, 3, 2, features=dataset.features, dropout=0.5
        )
        with pytest.raises(UsageError, match="needs an explicit rng"):
            gradient_check(net, dataset)


class TestRestrictedTraining:
    """train runs each epoch on copies restricted to the train and val rows."""

    @pytest.fixture(scope="class")
    @staticmethod
    def sparse_graph():
        # Average degree about 2, so the receptive fields stay well under n.
        dataset = planted_dataset(200, 3, 8, seed=13, edges_per_node=2)
        return dataset, build_ops(dataset), stratified_split(dataset, per_class=3, val=10)

    @staticmethod
    def receptive_field(net, rows):
        needed = np.unique(rows)
        for entry in reversed(net.layers):
            if entry.kind in ("smooth", "lp"):
                needed = np.flatnonzero(dense(entry.matrix)[needed].any(axis=0))
        return needed

    def test_forward_reads_only_the_receptive_fields(self, sparse_graph, monkeypatch):
        dataset, ops, split = sparse_graph
        net = compile_network(
            preset("gcn-lp", depth=3, lp_layers=1), ops, dataset.num_features,
            dataset.num_classes, features=dataset.features,
        )
        calls = []
        original = training.forward

        def spy(net_, params, *, mode="infer", rng=None):
            calls.append((mode, net_))
            return original(net_, params, mode=mode, rng=rng)

        monkeypatch.setattr(training, "forward", spy)
        train(net, dataset, split, TrainConfig(dropout=0.0, max_epochs=3, patience=3, precision="float64"))
        # Validation overlaps the next step, so the two modes interleave in
        # whatever order the threads reach forward.
        assert sorted(mode for mode, _ in calls) == ["infer"] * 3 + ["train"] * 3
        for mode, rows in (("train", split.train), ("infer", split.val)):
            field = self.receptive_field(net, rows)
            assert field.size < dataset.num_nodes
            for net_ in (n for m, n in calls if m == mode):
                np.testing.assert_array_equal(net_.x_bar, whole(net).x_bar[field])

    @pytest.mark.parametrize("name", ["gcn", "sgcn-lp", "gcn-lp"])
    def test_dropout_free_run_matches_the_full_chain(self, sparse_graph, name):
        # The reference is the full-chain loop: every node forward, the loss
        # and the metric read off the split's rows.
        dataset, ops, split = sparse_graph
        net = compile_network(
            preset(name, depth=3, lp_layers=1), ops, dataset.num_features,
            dataset.num_classes, features=dataset.features,
        )
        config = TrainConfig(dropout=0.0, max_epochs=8, patience=8, seed=14, precision="float64")
        params, history = train(net, dataset, split, config)

        init_stream, _ = np.random.SeedSequence(config.seed).spawn(2)
        ref = init_params(net, np.random.default_rng(init_stream))
        adam = AdamState.for_params(ref)
        losses, accs = [], []
        for _ in range(config.max_epochs):
            out, states = forward(net, ref, mode="train")
            loss, d_p = masked_cross_entropy(out, dataset.labels, split.train)
            ref = adam_step(ref, backward(net, states, d_p), adam,
                            config.learning_rate, config.weight_decay)
            losses.append(loss)
            accs.append(accuracy(forward(net, ref)[0], dataset.labels, split.val))
        np.testing.assert_allclose(history.train_loss, losses, rtol=0, atol=1e-12)
        assert history.val_accuracy == tuple(accs)


class TestFeaturesUntouched:
    """Training reads the dataset's CSR features and never changes them,
    though an unfolded network takes that very matrix as its input."""

    @pytest.mark.parametrize("method", ["mlp-lp", "gcn", "lpnn"])
    def test_training_leaves_features_unchanged(self, method):
        dataset = sparse_planted_dataset(60, 3, 40, 0.05, seed=8)
        before = [a.copy() for a in (dataset.features.data, dataset.features.indices,
                                     dataset.features.indptr)]
        split = stratified_split(dataset)
        config = TrainConfig(dropout=0.5, max_epochs=4, patience=4)
        if method == "lpnn":
            train_lpnn(dataset, split, config, LpnnWeights(1.0, 1.0, 1.0, 1.0, 1.0))
        else:
            net = compile_network(
                preset(method), build_ops(dataset), dataset.num_features, dataset.num_classes,
                features=dataset.features, dropout=0.5,
            )
            if method == "mlp-lp":
                assert net.x_bar is dataset.features
            train(net, dataset, split, config)
        after = (dataset.features.data, dataset.features.indices, dataset.features.indptr)
        for old, new in zip(before, after):
            assert old.dtype == new.dtype and old.tobytes() == new.tobytes()


class TestFit:
    """fit's loop with fake step/evaluate: states are epoch numbers, and the
    accuracies follow a fixed schedule."""

    @staticmethod
    def fakes(accs, *, losses=None, fail_at=None, error=None):
        """step() returns (loss, its call number); evaluate(state) returns
        accs[state - 1]. Call number fail_at raises error."""
        calls = {"step": 0, "seen": []}

        def step():
            calls["step"] += 1
            k = calls["step"]
            if k == fail_at:
                raise error
            return (losses[k - 1] if losses else 1.0 / k), k

        def evaluate(state):
            calls["seen"].append(state)
            return accs[state - 1]

        return step, evaluate, calls

    @staticmethod
    def fit(step, evaluate, epochs, patience, overlap):
        config = TrainConfig(max_epochs=epochs, patience=patience)
        return training.fit(step, evaluate, config, overlap=overlap)

    @pytest.mark.parametrize("overlap", [False, True])
    def test_full_budget_takes_max_epochs_steps(self, overlap):
        step, evaluate, calls = self.fakes([0.1 * k for k in range(1, 7)])
        best, history = self.fit(step, evaluate, 6, 2, overlap)
        assert calls["step"] == 6
        assert calls["seen"] == [1, 2, 3, 4, 5, 6]
        assert best == 6 and history.best_epoch == 6 and history.stopped_epoch == 6
        assert history.train_loss == tuple(1.0 / k for k in range(1, 7))

    @pytest.mark.parametrize("overlap", [False, True])
    def test_early_stop_takes_at_most_one_extra_step(self, overlap):
        # Best at epoch 2, then two stale epochs: patience 2 stops at epoch 4.
        step, evaluate, calls = self.fakes([0.5, 0.7, 0.6, 0.6, 0.9, 0.9])
        best, history = self.fit(step, evaluate, 6, 2, overlap)
        assert history.stopped_epoch == 4 and history.best_epoch == 2 and best == 2
        assert calls["seen"] == [1, 2, 3, 4]
        assert calls["step"] == (5 if overlap else 4)

    @pytest.mark.parametrize("overlap", [False, True])
    def test_failed_step_after_the_stop_epoch_is_dropped(self, overlap):
        step, evaluate, calls = self.fakes(
            [0.5, 0.7, 0.6, 0.6, 0.9], fail_at=5, error=RuntimeError("past the stop")
        )
        _, history = self.fit(step, evaluate, 6, 2, overlap)
        assert history.stopped_epoch == 4 and len(history.train_loss) == 4

    @pytest.mark.parametrize("overlap", [False, True])
    def test_failed_step_while_training_continues_raises_that_exception(self, overlap):
        error = RuntimeError("step 3")
        step, evaluate, calls = self.fakes([0.1, 0.2, 0.3, 0.4], fail_at=3, error=error)
        with pytest.raises(RuntimeError) as info:
            self.fit(step, evaluate, 4, 4, overlap)
        assert info.value is error
        assert calls["seen"] == [1, 2]

    @pytest.mark.parametrize("overlap", [False, True])
    def test_non_finite_loss_names_its_own_epoch(self, overlap):
        step, evaluate, calls = self.fakes([0.1] * 5, losses=[1.0, 0.9, 0.8, np.nan, 0.7])
        with pytest.raises(NumericError, match="non-finite training loss at epoch 4 "):
            self.fit(step, evaluate, 5, 5, overlap)
        assert calls["seen"] == [1, 2, 3]

    def test_non_finite_loss_after_the_stop_epoch_is_dropped(self):
        step, evaluate, _ = self.fakes([0.5, 0.4, 0.3], losses=[1.0, 0.9, np.nan])
        _, history = self.fit(step, evaluate, 3, 1, True)
        assert history.stopped_epoch == 2

    def test_helper_thread_is_joined_before_fit_returns(self):
        before = threading.active_count()
        step, evaluate, _ = self.fakes([0.1, 0.2, 0.3])
        self.fit(step, evaluate, 3, 3, True)
        assert threading.active_count() == before


def on_worker_thread(fn, *args):
    """fn(*args) called on a new thread (where training never overlaps)."""
    out = {}

    def target():
        out["value"] = fn(*args)

    worker = threading.Thread(target=target)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    return out["value"]


class TestOverlappedValidation:
    """On the main thread each epoch's validation runs on a helper thread
    beside the next step when the val copy's input is dense, and in order at
    one BLAS thread when it is CSR; on a worker thread the loop runs in order
    and leaves the BLAS thread count alone. All must give the same bytes."""

    @pytest.fixture(scope="class")
    @staticmethod
    def sparse_setup():
        dataset = sparse_planted_dataset(300, 3, 120, 0.03, seed=21)
        return dataset, build_ops(dataset), stratified_split(dataset, per_class=6, val=60)

    @pytest.fixture(scope="class")
    @staticmethod
    def dense_setup():
        dataset = planted_dataset(300, 3, 12, seed=21)
        return dataset, build_ops(dataset), stratified_split(dataset, per_class=6, val=60)

    @staticmethod
    def run(method, dataset, ops, split, config):
        if method == "lpnn":
            model, history = train_lpnn(dataset, split, config, LpnnWeights(1.0, 1.0, 1.0, 1.0, 1.0))
            return [model.f, *model.g_params], history
        net = compile_network(
            preset(method), ops, dataset.num_features, dataset.num_classes,
            features=dataset.features, dropout=config.dropout,
        )
        return train(net, dataset, split, config)

    def same_bytes(self, method, setup, config, monkeypatch, blas_threads=lambda: None):
        """The run on the main thread and on a worker thread, which must give
        the same bytes. Returns the history and each run's spied validations
        (see spy_infer_threads)."""
        calls = spy_infer_threads(monkeypatch, blas_threads)
        params, history = self.run(method, *setup, config)
        on_main = list(calls)
        calls.clear()
        ref_params, ref_history = on_worker_thread(self.run, method, *setup, config)
        assert history.to_text() == ref_history.to_text()
        assert history == ref_history
        for a, b in zip(params, ref_params, strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        main = threading.get_ident()
        # A worker thread validates itself.
        assert len({t for t, _ in calls}) == 1 and calls[0][0] != main
        return history, on_main, calls

    def assert_overlapped(self, method, setup, config, monkeypatch):
        history, on_main, _ = self.same_bytes(method, setup, config, monkeypatch)
        # Every epoch validates on the helper thread, except an epoch with no
        # next step to overlap (the last of the budget).
        main = threading.get_ident()
        epochs = len(history.train_loss)
        assert [t == main for t, _ in on_main] == (
            [False] * (epochs - 1) + [epochs == config.max_epochs]
        )
        return history

    @pytest.mark.parametrize("method", ["gcn", "lpnn"])
    def test_csr_input_validates_in_order(self, sparse_setup, method, monkeypatch,
                                          two_blas_threads):
        config = TrainConfig(dropout=0.5, max_epochs=8, patience=8, seed=5)
        history, on_main, on_worker = self.same_bytes(
            method, sparse_setup, config, monkeypatch, two_blas_threads
        )
        main = threading.get_ident()
        assert on_main == [(main, 1)] * len(history.train_loss)
        assert {count for _, count in on_worker} == {2}
        assert two_blas_threads() == 2

    def test_early_stop_keeps_every_byte(self, dense_setup, monkeypatch):
        config = TrainConfig(learning_rate=0.05, dropout=0.5, max_epochs=60, patience=3, seed=6)
        history = self.assert_overlapped("gcn", dense_setup, config, monkeypatch)
        assert history.stopped_epoch < config.max_epochs

    def test_tiny_switch_interval_keeps_every_byte(self, dense_setup, monkeypatch):
        config = TrainConfig(dropout=0.5, max_epochs=6, patience=6, seed=7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self.assert_overlapped("gcn", dense_setup, config, monkeypatch)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("method", ["gcn", "lpnn"])
    def test_dense_input_overlaps_with_the_same_bytes(self, method, monkeypatch):
        dataset = planted_dataset(120, 3, 10, seed=22)
        setup = dataset, build_ops(dataset), stratified_split(dataset)
        config = TrainConfig(dropout=0.5, max_epochs=4, patience=4)
        self.assert_overlapped(method, setup, config, monkeypatch)


class TestOneBlasThread:
    """While fit overlaps, numpy's OpenBLAS runs at one thread; the count it
    had comes back however fit ends."""

    def test_count_is_restored_after_fit_returns(self, two_blas_threads, monkeypatch):
        dataset = planted_dataset(120, 3, 10, seed=22)
        net = compile_network(
            preset("gcn"), build_ops(dataset), dataset.num_features, dataset.num_classes,
            features=dataset.features, dropout=0.5,
        )
        seen = []
        original = training.forward

        def spy(net_, params, *, mode="infer", rng=None):
            seen.append(two_blas_threads())
            return original(net_, params, mode=mode, rng=rng)

        monkeypatch.setattr(training, "forward", spy)
        train(net, dataset, stratified_split(dataset), TrainConfig(max_epochs=4, patience=4))
        assert seen == [1] * 8
        assert two_blas_threads() == 2

    @pytest.mark.parametrize("overlap, inside", [(True, 1), (False, 2)])
    def test_count_is_restored_after_a_step_raises(self, two_blas_threads, overlap, inside):
        losses = iter([1.0, 0.5, float("nan"), 0.25])
        seen = []

        def step():
            seen.append(two_blas_threads())
            return next(losses), None

        config = TrainConfig(max_epochs=4, patience=4)
        with pytest.raises(NumericError, match="epoch 3"):
            training.fit(step, lambda state: 0.5, config, overlap=overlap)
        assert seen == [inside] * 3
        assert two_blas_threads() == 2

    @pytest.mark.parametrize("lib", [None, object()], ids=["no-library", "no-symbol"])
    def test_does_nothing_without_thread_control(self, two_blas_threads, monkeypatch, lib):
        monkeypatch.setattr(training, "_openblas", lambda: lib)
        with training._one_blas_thread():
            assert two_blas_threads() == 2
        assert two_blas_threads() == 2

    def test_no_loadable_library_means_no_thread_control(self, two_blas_threads, monkeypatch):
        # numpy.libs holds an OpenBLAS file that fails to load: _openblas
        # answers None, and the block leaves the thread count alone.
        import ctypes

        def refuse(path, *args, **kwargs):
            raise OSError(f"cannot load {path}")

        training._openblas.cache_clear()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(ctypes, "CDLL", refuse)
                assert training._openblas() is None
                with training._one_blas_thread():
                    assert two_blas_threads() == 2
            assert two_blas_threads() == 2
        finally:
            training._openblas.cache_clear()
        assert training._openblas() is not None
