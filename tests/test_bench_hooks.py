"""The hooks the benchmark in perfbench/ relies on.

perfbench/tracing.py wraps module globals of the package by name and
perfbench/run.py builds its networks through a few library calls. A rename
that breaks either shows up here, not only as a nonzero
`trace.missing_layers` in a full benchmark run.
"""

import ast
import importlib
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import graphcompose as gc
from graphcompose import networks
from graphcompose.lpnn import build_g_network
from graphcompose.networks import PRESET_NAMES

from .conftest import entry_kinds, planted_dataset
from .test_training import stratified_split

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
RUN = TRACING.with_name("run.py")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while being built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def test_every_wrapped_name_is_a_callable_module_global(tracing):
    assert tracing.WRAPS
    for module_name, attr, _, kind, _ in tracing.WRAPS:
        module = importlib.import_module(module_name)
        fn = vars(module).get(attr)
        assert callable(fn), f"{module_name}.{attr}"
        if kind is not None:
            # Chain primitives are defined where the entries call them.
            assert fn.__module__ == module_name, f"{module_name}.{attr}"


def test_package_names_the_benchmark_uses():
    # Every `gc.<name>` in perfbench/run.py, and every name it imports from
    # the package, read from its source.
    used = []
    for node in ast.walk(ast.parse(RUN.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "gc":
            used.append(("graphcompose", node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("graphcompose"):
            used += [(node.module, alias.name) for alias in node.names]
    assert {"build_operator", "compile_network", "preset"} <= {name for _, name in used}
    for module_name, name in used:
        assert hasattr(importlib.import_module(module_name), name), f"{module_name}.{name}"


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_benchmark_network_calls(name):
    # The calls perfbench/run.py makes when it sets up a training workload.
    dataset = planted_dataset(12, 2, 4, seed=1)
    ops = {kind: gc.build_operator(dataset.topology, kind) for kind in ("symmetric", "row")}
    spec = gc.preset(name, depth=3, lp_layers=1)
    net = gc.compile_network(
        spec, ops, dataset.num_features, dataset.num_classes,
        features=dataset.features, dropout=0.5, num_edges=dataset.num_edges,
    )
    assert net.cost is not None and net.cost.classifier > 0
    g_net = build_g_network(dataset.num_features, dataset.num_classes, dropout=0.5)
    assert g_net.param_shapes[-1][1] == dataset.num_classes


def test_benchmark_training_folds_each_row_set_once(monkeypatch):
    # perfbench/run.py compiles one network with features= and dropout=0.5,
    # then calls train on it again and again, timing every call but the
    # first. The first call folds the train and val receptive fields, each
    # once and well under every node; later calls reuse the copies.
    dataset = planted_dataset(200, 3, 8, seed=13, edges_per_node=2)
    ops = {kind: gc.build_operator(dataset.topology, kind) for kind in ("symmetric", "row")}
    split = stratified_split(dataset, per_class=3, val=10)
    folds = []
    original = networks._fold

    def spy(x, matrices, densify):
        out = original(x, matrices, densify)
        folds.append((x.shape[0], out.shape))
        return out

    monkeypatch.setattr(networks, "_fold", spy)
    net = gc.compile_network(
        gc.preset("gcn-lp", depth=3, lp_layers=1), ops, dataset.num_features,
        dataset.num_classes, features=dataset.features, dropout=0.5, num_edges=dataset.num_edges,
    )
    assert folds == [] and len(net.prefix) == 1
    config = gc.TrainConfig(max_epochs=2, patience=2)
    histories = [gc.train(net, dataset, split, replace(config, seed=s))[1] for s in (0, 1, 0)]
    assert histories[0] == histories[2] != histories[1]
    assert len(folds) == 2
    for rows_in, (rows_out, width) in folds:
        assert rows_out <= rows_in < dataset.num_nodes and width == dataset.num_features


@pytest.mark.parametrize("caller", ["training", "lpnn"])
def test_forward_spans_carry_the_train_and_infer_modes(tracing, caller):
    # The tracer reads the forward mode from the fourth positional argument
    # or the mode keyword, and splits epochs at train-mode forwards. After
    # folding, gcn-lp at depth 3 with one lp layer has every entry kind, and
    # each must show up as an entry span in both phases.
    dataset = planted_dataset(40, 2, 6, seed=3)
    split = stratified_split(dataset)
    config = gc.TrainConfig(max_epochs=2, patience=2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        if caller == "training":
            net = gc.compile_network(
                gc.preset("gcn-lp", depth=3, lp_layers=1),
                {kind: gc.build_operator(dataset.topology, kind) for kind in ("symmetric", "row")},
                dataset.num_features,
                dataset.num_classes,
                features=dataset.features,
                dropout=config.dropout,
            )
            assert set(entry_kinds(net)) == set(tracing.ENTRY_KINDS)
            gc.train(net, dataset, split, config)
        else:
            gc.train_lpnn(dataset, split, config, gc.LpnnWeights(1.0, 1.0, 1.0, 1.0, 1.0))
    finally:
        tracer.restore()
    # Both trainers validate through training's forward, so an lpnn run's
    # train-mode spans (what lpnn.g_forward_ms reads) come from lpnn and its
    # infer-mode spans from training.
    spans = [s for s in tracer.spans if s.name == "networks.forward"]
    callers = {mode: {s.attrs["caller"] for s in spans if s.attrs["mode"] == mode}
               for mode in ("train", "infer")}
    assert callers == {"train": {caller}, "infer": {"training"}}
    if caller == "training":
        entries = {(s.attrs["kind"], s.attrs["phase"]) for s in tracer.spans if s.name == "entry"}
        assert entries == {(kind, phase) for kind in tracing.ENTRY_KINDS for phase in ("fwd", "vjp")}
