"""The hooks the benchmark in perfbench/ relies on.

perfbench/tracing.py wraps module globals of the package by name and
perfbench/run.py builds its networks through a few library calls. A rename
that breaks either shows up here, not only as a nonzero
`trace.missing_layers` in a full benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import graphcompose as gc
from graphcompose.lpnn import build_g_network
from graphcompose.networks import PRESET_NAMES

from .conftest import planted_dataset
from .test_training import stratified_split

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
    for module_name, attr, *_ in tracing.WRAPS:
        module = importlib.import_module(module_name)
        assert callable(vars(module).get(attr)), f"{module_name}.{attr}"


def test_package_names_the_benchmark_uses():
    for name in ("LpnnWeights", "RunResult", "TrainConfig", "load_dataset",
                 "load_standard_split", "train", "train_lpnn"):
        assert hasattr(gc, name), name


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


@pytest.mark.parametrize("caller", ["training", "lpnn"])
def test_forward_spans_carry_the_train_and_infer_modes(tracing, caller):
    # The tracer reads the forward mode from the fourth positional argument
    # or the mode keyword, and splits epochs at train-mode forwards.
    dataset = planted_dataset(40, 2, 6, seed=3)
    split = stratified_split(dataset)
    config = gc.TrainConfig(max_epochs=2, patience=2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        if caller == "training":
            net = gc.compile_network(
                gc.preset("gcn"),
                {"symmetric": gc.build_operator(dataset.topology, "symmetric")},
                dataset.num_features,
                dataset.num_classes,
                features=dataset.features,
                dropout=config.dropout,
            )
            gc.train(net, dataset, split, config)
        else:
            gc.train_lpnn(dataset, split, config, gc.LpnnWeights(1.0, 1.0, 1.0, 1.0, 1.0))
    finally:
        tracer.restore()
    spans = [s for s in tracer.spans if s.name == "networks.forward"]
    assert spans and all(s.attrs["caller"] == caller for s in spans)
    assert {s.attrs["mode"] for s in spans} == {"train", "infer"}
