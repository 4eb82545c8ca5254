"""Acceptance suite: one test per numbered criterion, each ending in a single
[criterion N] PASS line. Criteria that need the real citation benchmarks skip
with an explanation when no dataset directory is available, and run the full
protocol when one is.
"""

import contextlib
import io
import itertools
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from graphcompose.cli import main, run_sweep, _LOSS_WEIGHT_KEYS
from graphcompose.data import (
    Dataset,
    generate_splits,
    load_dataset,
    save_splits,
    split_to_text,
    train_size_targets,
)
from graphcompose.evaluation import accuracy, average_rank
from graphcompose.graph import build_operator
from graphcompose.lpnn import LpnnWeights, build_g_network, lpnn_loss, predict_from_g, train_lpnn
from graphcompose.networks import (
    PRESET_NAMES,
    backward,
    compile_network,
    forward,
    init_params,
    preset,
    softmax_rows_forward,
    spmm,
)
from graphcompose.training import TrainConfig, gradient_check, train

from .conftest import (
    dense,
    make_synthetic,
    np_relu,
    np_softmax,
    planted_dataset,
    ring_topology,
    with_input,
)

# ---------------------------------------------------------------------------
# Published reference numbers (few-labels benchmark, percentages).

PUBLISHED_MEANS = {
    "gcn": {"cora": 82.2, "citeseer": 68.8, "pubmed": 78.9, "acm": 89.7, "dblp": 74.3},
    "sgcn": {"cora": 81.6, "citeseer": 69.0, "pubmed": 78.1, "acm": 89.2, "dblp": 74.6},
    "fp-mlp": {"cora": 82.4, "citeseer": 67.0, "pubmed": 78.3, "acm": 89.0, "dblp": 75.9},
    "sgcn-lp": {"cora": 81.4, "citeseer": 69.7, "pubmed": 78.2, "acm": 88.8, "dblp": 75.1},
    "gcn-lp": {"cora": 82.1, "citeseer": 68.9, "pubmed": 79.2, "acm": 89.2, "dblp": 76.0},
    "linear-lp": {"cora": 82.0, "citeseer": 68.8, "pubmed": 78.7, "acm": 88.7, "dblp": 74.8},
    "mlp-lp": {"cora": 82.7, "citeseer": 68.1, "pubmed": 78.1, "acm": 90.3, "dblp": 75.6},
    "lpnn": {"cora": 77.8, "citeseer": 59.6, "pubmed": 69.8, "acm": 78.9, "dblp": 64.6},
}
PUBLISHED_AVG_RANK = {
    "gcn": 3.7,
    "sgcn": 4.8,
    "fp-mlp": 4.0,
    "sgcn-lp": 4.6,
    "gcn-lp": 2.4,
    "linear-lp": 4.9,
    "mlp-lp": 3.6,
    "lpnn": 8.0,
}

CORA_NODES = 2708
CORA_EDGES = 5429
CORA_INPUT_DIM = 1433
CORA_CLASSES = 7
CORA_CLASS_HISTOGRAM = (351, 217, 418, 818, 426, 298, 180)


def find_dataset(name):
    """Locate a real benchmark dataset directory, if one was provisioned."""
    roots = []
    if os.environ.get("GRAPHCOMPOSE_DATA"):
        roots.append(Path(os.environ["GRAPHCOMPOSE_DATA"]))
    roots.append(Path(__file__).resolve().parents[1] / "data")
    roots.append(Path("data"))
    for root in roots:
        candidate = root / name
        if (candidate / "manifest.txt").is_file():
            return load_dataset(candidate)
    return None


def require_dataset(name, purpose):
    dataset = find_dataset(name)
    if dataset is None:
        pytest.skip(
            f"requires the real {name} benchmark, which is not provisioned in this "
            f"environment (no network access to fetch it); place a converted copy at "
            f"data/{name} or point GRAPHCOMPOSE_DATA at it and rerun to execute "
            f"{purpose}. The code path itself is exercised at desk scale by the "
            f"regular test suite."
        )
    return dataset


def both_operators(topology, mix=None):
    return {
        "symmetric": build_operator(topology, "symmetric", mix=mix),
        "row": build_operator(topology, "row", mix=mix),
    }


def sweep_test_accuracy(dataset, split, method_name, budget=200, sweep_seed=0, lp_layers=None):
    """Library-level mirror of the sweep command: tune on validation only,
    then report the test accuracy of the winning trial's own model."""
    is_lpnn = method_name == "lpnn"
    operators = None if is_lpnn else both_operators(dataset.topology)

    def run_one(cfg, run_seed):
        config = TrainConfig(
            learning_rate=cfg["learning_rate"],
            dropout=cfg["dropout"],
            weight_decay=cfg["weight_decay"],
            seed=run_seed,
        )
        if is_lpnn:
            weights = LpnnWeights(*(cfg[k] for k in _LOSS_WEIGHT_KEYS))
            model, history = train_lpnn(dataset, split, config, weights)
            return history.best_val_accuracy, lambda: predict_from_g(model)
        spec = preset(method_name, hidden_dim=cfg["hidden_dim"], lp_layers=lp_layers)
        net = compile_network(
            spec,
            operators,
            dataset.num_features,
            dataset.num_classes,
            features=dataset.features,
            dropout=config.dropout,
        )
        params, history = train(net, dataset, split, config)
        return history.best_val_accuracy, lambda: forward(net, params)[0]

    keys = _LOSS_WEIGHT_KEYS if is_lpnn else ("hidden_dim",)
    _, predict, _ = run_sweep(run_one, budget, sweep_seed, keys=keys)
    return accuracy(predict(), dataset.labels, split.test)


# ---------------------------------------------------------------------------


def test_criterion_01_gradient_suite_covers_every_preset_and_the_joint_field():
    started = time.monotonic()
    worst_overall = 0.0

    for i, name in enumerate(PRESET_NAMES):
        n = 6 + (i % 5)
        dataset = planted_dataset(n, 2 + (i % 2), 4, seed=30 + i, edges_per_node=3)
        net = compile_network(
            preset(name, hidden_dim=4),
            both_operators(dataset.topology),
            dataset.num_features,
            dataset.num_classes,
            features=dataset.features,
            dropout=0.0,
        )
        report = gradient_check(net, dataset, seed=i)
        assert report.max_rel_error < 1e-5, f"{name}: {report.max_rel_error:.3e}"
        worst_overall = max(worst_overall, report.max_rel_error)

    # Joint field baseline: finite differences over both the label field and
    # every weight of the feature network, against the analytic gradients.
    dataset = planted_dataset(8, 3, 4, seed=40, edges_per_node=3)
    op = build_operator(dataset.topology, "symmetric")
    weights = LpnnWeights(0.7, 0.9, 0.4, 1.1, 0.6)
    g_net = with_input(
        build_g_network(dataset.num_features, dataset.num_classes), dataset.features
    )
    rng = np.random.default_rng(41)
    g_params = init_params(g_net, rng)
    f = rng.normal(size=(8, 3))
    labeled = [0, 2, 5]

    def total_loss(fv, ps):
        g_out, _ = forward(g_net, ps)
        return lpnn_loss(fv, g_out, op.matrix, dataset.labels, labeled, weights)[0]

    g_out, states = forward(g_net, g_params, mode="train")
    base_loss, d_f, d_g_out = lpnn_loss(f, g_out, op.matrix, dataset.labels, labeled, weights)
    d_params = backward(g_net, states, d_g_out)

    # The loss here is ~40, so central differences on entries whose gradient
    # is near zero bottom out at the float64 noise floor; scale the relative
    # denominator by the loss so those entries are checked absolutely.
    eps = 3e-5
    floor = 1e-6 * max(1.0, base_loss)
    worst_lpnn = 0.0
    flat_f = f.ravel()
    for j in range(flat_f.size):
        orig = flat_f[j]
        flat_f[j] = orig + eps
        up = total_loss(f, g_params)
        flat_f[j] = orig - eps
        down = total_loss(f, g_params)
        flat_f[j] = orig
        numeric = (up - down) / (2 * eps)
        a = d_f.ravel()[j]
        worst_lpnn = max(worst_lpnn, abs(a - numeric) / max(abs(a), abs(numeric), floor))
    for pi, p in enumerate(g_params):
        flat = p.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            up = total_loss(f, g_params)
            flat[j] = orig - eps
            down = total_loss(f, g_params)
            flat[j] = orig
            numeric = (up - down) / (2 * eps)
            a = d_params[pi].ravel()[j]
            worst_lpnn = max(
                worst_lpnn, abs(a - numeric) / max(abs(a), abs(numeric), floor)
            )
    assert worst_lpnn < 1e-5, f"lpnn gradient error {worst_lpnn:.3e}"

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    print(
        f"\n[criterion 1] PASS (presets worst {worst_overall:.2e}, "
        f"joint field worst {worst_lpnn:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_02_closed_form_equivalences():
    g = ring_topology(30, extra_edges=25, seed=50)
    ops = both_operators(g)
    s = dense(ops["symmetric"].matrix)
    r = dense(ops["row"].matrix)
    rng = np.random.default_rng(51)
    x = rng.normal(size=(30, 6))

    # Layered two-smoothing linear chain against the explicit precomputed
    # form softmax((S(SX))W): identical spmm sequences, so exact equality.
    folded = compile_network(preset("sgcn"), ops, 6, 3, features=x)
    layered = with_input(compile_network(preset("sgcn"), ops, 6, 3), x)
    params = init_params(folded, np.random.default_rng(52))
    out_folded, _ = forward(folded, params)
    out_layered, _ = forward(layered, params)
    np.testing.assert_array_equal(out_folded, out_layered)
    manual = softmax_rows_forward(spmm(ops["symmetric"].matrix, spmm(ops["symmetric"].matrix, x)) @ params[0])
    np.testing.assert_array_equal(out_folded, manual)

    # Dense closed forms, all within 1e-10.
    np.testing.assert_allclose(out_folded, np_softmax(s @ s @ x @ params[0]), atol=1e-10)

    gcn = with_input(compile_network(preset("gcn"), ops, 6, 3), x)
    p_gcn = init_params(gcn, np.random.default_rng(53))
    out_gcn, _ = forward(gcn, p_gcn)
    np.testing.assert_allclose(
        out_gcn, np_softmax(s @ np_relu(s @ x @ p_gcn[0]) @ p_gcn[1]), atol=1e-10
    )

    fpmlp = compile_network(preset("fp-mlp"), ops, 6, 3, features=x)
    p_fp = init_params(fpmlp, np.random.default_rng(54))
    out_fp, _ = forward(fpmlp, p_fp)
    np.testing.assert_allclose(
        out_fp, np_softmax(np_relu(s @ s @ x @ p_fp[0]) @ p_fp[1]), atol=1e-10
    )

    linlp = compile_network(preset("linear-lp", lp_layers=2), ops, 6, 3, features=x)
    p_ll = init_params(linlp, np.random.default_rng(55))
    out_ll, _ = forward(linlp, p_ll)
    np.testing.assert_allclose(out_ll, r @ r @ np_softmax(x @ p_ll[0]), atol=1e-10)

    print("\n[criterion 2] PASS (exact layered/precomputed match, closed forms at 1e-10)")


def test_criterion_03_row_normalization_is_stochastic_on_100_random_graphs():
    rng = np.random.default_rng(60)
    worst_op = 0.0
    worst_lp = 0.0
    for trial in range(100):
        n = int(rng.integers(5, 61))
        g = ring_topology(n, extra_edges=int(rng.integers(0, n)), seed=600 + trial)
        op = build_operator(g, "row")
        sums = np.asarray(op.matrix.sum(axis=1)).ravel()
        worst_op = max(worst_op, float(np.abs(sums - 1.0).max()))

        probs = softmax_rows_forward(rng.normal(size=(n, 4)))
        after = spmm(op.matrix, probs)
        worst_lp = max(worst_lp, float(np.abs(after.sum(axis=1) - 1.0).max()))
    assert worst_op < 1e-9, f"row sums off by {worst_op:.2e}"
    assert worst_lp < 1e-9, f"propagated rows off by {worst_lp:.2e}"
    print(f"\n[criterion 3] PASS (row sums {worst_op:.2e}, after propagation {worst_lp:.2e})")


def test_criterion_04_propagation_model_special_cases():
    # Every operator comes from one formula, so the special cases are not just
    # close but the same bits.
    for seed in range(10):
        g = ring_topology(8 + seed, extra_edges=4, seed=70 + seed)
        pairs = [
            (build_operator(g, "symmetric"), build_operator(g, "general", alpha=0.5, beta=0.5)),
            (build_operator(g, "row"), build_operator(g, "general", alpha=1.0, beta=0.0)),
            (build_operator(g, "symmetric"), build_operator(g, "symmetric", mix=(1.0, 1.0))),
        ]
        for a, b in pairs:
            for field in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(a.matrix, field), getattr(b.matrix, field))

    # Pure self-mixing makes the row operator the identity, so label
    # propagation becomes a no-op.
    g = ring_topology(12, extra_edges=5, seed=80)
    ops_identity = both_operators(g, mix=(1.0, 0.0))
    ops_plain = both_operators(g)
    x = np.random.default_rng(81).normal(size=(12, 5))
    with_lp = compile_network(preset("linear-lp", lp_layers=3), ops_identity, 5, 3, features=x)
    without_lp = compile_network(preset("linear-lp", lp_layers=0), ops_plain, 5, 3, features=x)
    params = init_params(with_lp, np.random.default_rng(82))
    out_lp, _ = forward(with_lp, params)
    out_plain, _ = forward(without_lp, params)
    np.testing.assert_allclose(out_lp, out_plain, atol=1e-12)

    print("\n[criterion 4] PASS (special cases bitwise equal, identity-mix lp is a no-op)")


def test_criterion_05_average_rank_reproduces_the_published_column():
    table = average_rank(PUBLISHED_MEANS)
    by_method = dict(zip(table.methods, table.average_rank))

    assert by_method["gcn"] == 3.7
    assert by_method["lpnn"] == 8.0
    for method, published in PUBLISHED_AVG_RANK.items():
        got = by_method[method]
        assert abs(got - published) <= 0.2 + 1e-9, (
            f"{method}: recomputed {got} vs published {published}"
        )
    assert max(by_method, key=by_method.get) == "lpnn"
    print(
        "\n[criterion 5] PASS (gcn exactly 3.7, lpnn exactly 8.0, "
        "all methods within 0.2 of the published column)"
    )


def _cora_stats_twin():
    """A dataset with the benchmark's node count and class histogram; the
    split protocol depends on nothing else."""
    labels = np.concatenate(
        [np.full(count, c, dtype=np.int64) for c, count in enumerate(CORA_CLASS_HISTOGRAM)]
    )
    np.random.default_rng(np.random.SeedSequence([90, 0])).shuffle(labels)
    return Dataset(
        name="cora-stats-twin",
        topology=ring_topology(CORA_NODES, seed=90),
        features=np.ones((CORA_NODES, 4)),
        labels=labels,
        num_classes=CORA_CLASSES,
    )


def test_criterion_06_split_protocol_on_cora_counts(tmp_path):
    dataset = find_dataset("cora")
    source = "real cora"
    if dataset is None:
        dataset = _cora_stats_twin()
        source = "statistics twin (same node count and class histogram)"
    assert dataset.num_nodes == CORA_NODES
    assert dataset.num_classes == CORA_CLASSES
    hist = np.bincount(dataset.labels, minlength=CORA_CLASSES)
    assert sorted(hist.tolist()) == sorted(CORA_CLASS_HISTOGRAM)

    assert train_size_targets(CORA_CLASSES, CORA_NODES - 1500) == (140, 407, 674, 941, 1208)

    splits = generate_splits(dataset, base_seed=0)
    assert len(splits) == 50
    for r in range(10):
        sizes = [len(splits[(s, r)].train) for s in range(1, 6)]
        assert sizes == [140, 407, 674, 941, 1208]
        counts = np.bincount(dataset.labels[np.asarray(splits[(1, r)].train)], minlength=7)
        assert counts.min() == counts.max() == 20
        for s in range(1, 5):
            assert set(splits[(s, r)].train) <= set(splits[(s + 1, r)].train)
        for s in range(1, 6):
            split = splits[(s, r)]
            assert len(split.val) == 500 and len(split.test) == 1000
            assert not set(split.train) & set(split.val)
            assert not set(split.train) & set(split.test)
            assert not set(split.val) & set(split.test)

    again = generate_splits(dataset, base_seed=0)
    for key in splits:
        assert split_to_text(again[key]) == split_to_text(splits[key])
    save_splits(splits, tmp_path / "a")
    save_splits(again, tmp_path / "b")
    for fa in sorted((tmp_path / "a").rglob("split.txt")):
        fb = tmp_path / "b" / fa.relative_to(tmp_path / "a")
        assert fa.read_bytes() == fb.read_bytes()

    print(f"\n[criterion 6] PASS (sizes 140..1208, nested, disjoint, byte-stable; {source})")


@pytest.mark.desk
def test_criterion_07_standard_split_sweeps_reach_published_levels():
    cora = require_dataset("cora", "the budget-200 standard-split sweeps")
    citeseer = require_dataset("citeseer", "the budget-200 standard-split sweeps")
    from graphcompose.data import load_standard_split

    gcn_acc = sweep_test_accuracy(cora, load_standard_split(cora), "gcn")
    assert gcn_acc >= 0.815, f"gcn on cora reached only {100 * gcn_acc:.1f}"
    sgcn_acc = sweep_test_accuracy(citeseer, load_standard_split(citeseer), "sgcn")
    assert sgcn_acc >= 0.710, f"sgcn on citeseer reached only {100 * sgcn_acc:.1f}"
    print(
        f"\n[criterion 7] PASS (gcn cora {100 * gcn_acc:.1f} >= 81.5, "
        f"sgcn citeseer {100 * sgcn_acc:.1f} >= 71.0)"
    )


@pytest.mark.desk
def test_criterion_08_few_labels_means_match_published_within_tolerance():
    datasets = {
        "cora": require_dataset("cora", "the few-labels protocol"),
        "citeseer": require_dataset("citeseer", "the few-labels protocol"),
    }
    methods = ("gcn", "sgcn", "mlp-lp", "gcn-lp")
    for ds_name, dataset in datasets.items():
        splits = generate_splits(dataset, base_seed=0)
        for method in methods:
            accs = [
                sweep_test_accuracy(dataset, splits[(1, r)], method, sweep_seed=r)
                for r in range(10)
            ]
            mean = 100.0 * float(np.mean(accs))
            published = PUBLISHED_MEANS[method][ds_name]
            assert abs(mean - published) <= 2.5, (
                f"{method} on {ds_name}: {mean:.1f} vs published {published}"
            )
    print("\n[criterion 8] PASS (all few-labels means within 2.5 points)")


@pytest.mark.desk
def test_criterion_09_joint_field_ranks_last_and_label_depth_helps():
    datasets = {
        "cora": require_dataset("cora", "the rank and label-depth studies"),
        "citeseer": require_dataset("citeseer", "the rank and label-depth studies"),
    }
    all_methods = PRESET_NAMES + ("lpnn",)
    means: dict[str, dict[str, float]] = {m: {} for m in all_methods}
    split_cache = {
        name: generate_splits(dataset, base_seed=0) for name, dataset in datasets.items()
    }
    for ds_name, dataset in datasets.items():
        for method in all_methods:
            accs = [
                sweep_test_accuracy(dataset, split_cache[ds_name][(1, r)], method, sweep_seed=r)
                for r in range(10)
            ]
            means[method][ds_name] = float(np.mean(accs))
    table = average_rank(means)
    by_method = dict(zip(table.methods, table.average_rank))
    assert max(by_method, key=by_method.get) == "lpnn"

    cora = datasets["cora"]
    depth_means = {}
    for ll in (1, 2, 3):
        accs = [
            sweep_test_accuracy(
                cora, split_cache["cora"][(1, r)], "linear-lp", sweep_seed=100 + r, lp_layers=ll
            )
            for r in range(10)
        ]
        depth_means[ll] = 100.0 * float(np.mean(accs))
    assert depth_means[2] >= depth_means[1] + 2.0
    assert depth_means[3] >= depth_means[1] + 2.0
    print("\n[criterion 9] PASS (joint field last; 2-3 label smoothings beat 1 by >= 2 points)")


def test_desk_scale_run_of_the_benchmark_protocol_helper(small_dataset):
    """Keeps the machinery behind the dataset-gated criteria from rotting:
    the same tune-then-test helper runs end to end on a planted graph."""
    from .test_training import stratified_split

    split = stratified_split(small_dataset)
    acc = sweep_test_accuracy(small_dataset, split, "sgcn", budget=2, sweep_seed=7)
    assert 0.0 <= acc <= 1.0
    acc_lp = sweep_test_accuracy(small_dataset, split, "linear-lp", budget=2, sweep_seed=8, lp_layers=2)
    assert 0.0 <= acc_lp <= 1.0
    acc_lpnn = sweep_test_accuracy(small_dataset, split, "lpnn", budget=2, sweep_seed=9)
    assert 0.0 <= acc_lpnn <= 1.0


# ---------------------------------------------------------------------------
# A desk-scale stand-in for criterion 9's label-depth claim, and the check
# that float32 training keeps each method's accuracy. The generator
# arguments, seeds, config and predictions below were fixed before the first
# run; a failed prediction is a finding to report, never a reason to change
# the data. Nothing here prints a [criterion N] line: it is not criterion 9.

DESK_DATA = ["--seed", "3", "--noise", "12", "--density", "0.1"]  # 1700 nodes, 4 classes
DESK_CONFIG = ["--lr", "0.05", "--dropout", "0.5", "--weight-decay", "5e-4"]
DESK_METHODS = {
    "linear-lp-ll1": ["linear-lp", "--ll", "1"],
    "linear-lp-ll2": ["linear-lp", "--ll", "2"],
    "linear-lp-ll3": ["linear-lp", "--ll", "3"],
    "sgcn": ["sgcn"],
    "gcn": ["gcn"],
    "fp-mlp": ["fp-mlp"],
    "lpnn": ["lpnn"],
}
DESK_DEPTHS = ("linear-lp-ll1", "linear-lp-ll2", "linear-lp-ll3")


@pytest.fixture(scope="module")
def desk_mean(tmp_path_factory):
    """desk_mean(intra, precision, label): the method's test accuracy in
    points, averaged over splits 0-4 of size 1 (splits seed 0), trained once
    per split through the train command at DESK_CONFIG. Runs are cached."""
    root = tmp_path_factory.mktemp("desk")
    cache: dict[tuple, float] = {}

    def mean(intra: str, precision: str, label: str) -> float:
        data = root / f"intra{intra}"
        if not data.exists():
            make_synthetic(["--out", str(data), *DESK_DATA, "--intra", intra])
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["splits", "--dataset-dir", str(data), "--seed", "0"]) == 0
        key = (intra, precision, label)
        if key not in cache:
            method, *shape = DESK_METHODS[label]
            accs = []
            for split in range(5):
                out = root / "runs" / "-".join(key) / str(split)
                argv = ["train", "--dataset-dir", str(data), "--size", "1", "--split", str(split),
                        "--method", method, *shape, *DESK_CONFIG, "--precision", precision,
                        "--out", str(out)]
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv) == 0
                doc = json.loads(next(out.rglob("result.json")).read_text(encoding="utf-8"))
                accs.append(doc["test_accuracy"])
            cache[key] = 100.0 * float(np.mean(accs))
        return cache[key]

    return mean


@pytest.mark.desk
@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_desk_scale_label_depth_helps(desk_mean, precision):
    # Two and three label smoothings beat one by at least 2 points.
    ll1, ll2, ll3 = (desk_mean("0.85", precision, label) for label in DESK_DEPTHS)
    assert ll2 >= ll1 + 2.0 and ll3 >= ll1 + 2.0, (ll1, ll2, ll3)


@pytest.mark.desk
@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_desk_scale_depth_gives_no_gain_without_class_structure(desk_mean, precision):
    # The negative control: with every edge drawn across classes (--intra 0)
    # smoothing labels carries no signal, so depth gains less than 2 points.
    ll1, ll2, ll3 = (desk_mean("0", precision, label) for label in DESK_DEPTHS)
    assert ll2 < ll1 + 2.0 and ll3 < ll1 + 2.0, (ll1, ll2, ll3)


@pytest.mark.desk
def test_desk_scale_float32_keeps_every_method_mean_and_order(desk_mean):
    # Each method's split mean at float32 lies within 0.5 points of its
    # float64 mean, and no two methods swap places (ties may form or break).
    means = {
        precision: {label: desk_mean("0.85", precision, label) for label in DESK_METHODS}
        for precision in ("float64", "float32")
    }
    wide, narrow = means["float64"], means["float32"]
    far = {label: (wide[label], narrow[label]) for label in DESK_METHODS
           if abs(wide[label] - narrow[label]) > 0.5}
    assert not far, f"float64 vs float32 means more than 0.5 points apart: {far}"
    swapped = [(a, b) for a, b in itertools.combinations(DESK_METHODS, 2)
               if (wide[a] - wide[b]) * (narrow[a] - narrow[b]) < 0]
    assert not swapped, f"methods that swap places at float32: {swapped}; {means}"


def test_criterion_10_cost_command_prints_the_published_terms(capsys):
    code = main(
        ["cost", "--method", "sgcn", "--nodes", str(CORA_NODES), "--edges",
         str(CORA_EDGES), "--input-dim", str(CORA_INPUT_DIM), "--classes",
         str(CORA_CLASSES)]
    )
    assert code == 0
    out = " ".join(capsys.readouterr().out.split())
    # Single classifier product n * d * M over the raw input width.
    assert "feature_prop 0" in out
    assert "hidden 0" in out
    assert "classifier 27163948" in out
    assert "label_prop 0" in out
    assert "total 27163948" in out

    code = main(
        ["cost", "--method", "gcn-lp", "--nodes", str(CORA_NODES), "--edges",
         str(CORA_EDGES), "--input-dim", str(CORA_INPUT_DIM), "--classes",
         str(CORA_CLASSES)]
    )
    assert code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "dim=16" in out
    assert "feature_prop 173728" in out      # 2 layers * 5429 edges * width 16
    assert "hidden 1386496" in out           # 2 layers * 2708 nodes * 16^2
    assert "classifier 303296" in out        # 2708 * 16 * 7
    assert "label_prop 38003" in out         # 1 smoothing * 5429 * 7
    assert "total 1901523" in out

    print("\n[criterion 10] PASS (classifier-only vs all-four term structure, hand-checked)")
