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
