"""Shared fixtures: small graphs, planted-community datasets, dense oracles."""

from __future__ import annotations

import contextlib
import dataclasses
import importlib.util
import io
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from graphcompose.data import Dataset
from graphcompose.graph import GraphTopology

# Property tests draw the same examples on every run and save none, so a
# failure replays by running its test again. hypothesis still caches the
# constants it reads from the package's modules, in .hypothesis/ under the
# working directory unless told otherwise; its plugin reads them while
# collecting, before any fixture runs.
settings.register_profile(
    "graphcompose", derandomize=True, database=None, max_examples=200, deadline=None
)
settings.load_profile("graphcompose")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "graphcompose-hypothesis")


def dense(m) -> np.ndarray:
    """Expand a CSR matrix to a dense array from its raw arrays (reference-path
    helper, independent of scipy's own conversion)."""
    out = np.zeros(m.shape, dtype=np.float64)
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    out[rows, m.indices] = m.data
    return out


def np_softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def np_relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def entry_kinds(net) -> tuple[str, ...]:
    """The kinds of a compiled network's chain entries, in chain order."""
    return tuple(entry.kind for entry in net.layers)


def whole(net):
    """net restricted to every row: its input folded over all nodes."""
    from graphcompose.networks import restrict

    return restrict(net, np.arange(net.x_bar.shape[0]))


def spy_infer_threads(monkeypatch) -> list[int]:
    """The threads that run each infer-mode forward from now on. Both
    trainers validate through graphcompose.training's forward."""
    from graphcompose import training

    original = training.forward
    threads = []

    def spy(net_, params, *, mode="infer", rng=None):
        if mode == "infer":
            threads.append(threading.get_ident())
        return original(net_, params, mode=mode, rng=rng)

    monkeypatch.setattr(training, "forward", spy)
    return threads


@pytest.fixture()
def two_blas_threads():
    """Sets numpy's OpenBLAS to two threads for one test, restoring the count
    after it, and returns a reader of the current count. Skips when numpy
    bundles no OpenBLAS with thread control."""
    import ctypes

    from graphcompose.training import _openblas

    lib = _openblas()
    get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    set_threads = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if get_threads is None or set_threads is None:
        pytest.skip("numpy bundles no OpenBLAS with thread control")
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    previous = get_threads()
    set_threads(2)
    try:
        yield get_threads
    finally:
        set_threads(previous)


def ring_topology(num_nodes: int, extra_edges: int = 0, seed: int = 0) -> GraphTopology:
    """A cycle plus optional random chords; never has isolated nodes."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, num_nodes, extra_edges]))
    edges = [(i, (i + 1) % num_nodes) for i in range(num_nodes)]
    while extra_edges > 0:
        u, v = (int(x) for x in rng.integers(num_nodes, size=2))
        if u == v or (min(u, v), max(u, v)) in {(min(a, b), max(a, b)) for a, b in edges}:
            continue
        edges.append((u, v))
        extra_edges -= 1
    return GraphTopology(num_nodes, edges)


def planted_dataset(
    num_nodes: int,
    num_classes: int,
    num_features: int,
    seed: int = 0,
    *,
    edges_per_node: int = 4,
    intra: float = 0.85,
    noise: float = 0.8,
    name: str = "planted",
) -> Dataset:
    """Community-structured graph with class-informative features, in memory."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 17]))
    labels = np.arange(num_nodes) % num_classes
    rng.shuffle(labels)
    centroids = rng.normal(scale=2.0, size=(num_classes, num_features))
    features = centroids[labels] + rng.normal(scale=noise, size=(num_nodes, num_features))

    by_class = [np.flatnonzero(labels == c) for c in range(num_classes)]
    edges = set()
    target = num_nodes * edges_per_node // 2
    attempts = 0
    while len(edges) < target and attempts < 60 * target:
        attempts += 1
        if rng.random() < intra:
            members = by_class[int(rng.integers(num_classes))]
            if members.size < 2:
                continue
            u, v = (int(x) for x in rng.choice(members, size=2, replace=False))
        else:
            u, v = (int(x) for x in rng.integers(num_nodes, size=2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    # Chain any isolated nodes in so every normalization stays valid.
    degree = np.zeros(num_nodes, dtype=np.int64)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    for i in np.flatnonzero(degree == 0):
        j = int((i + 1) % num_nodes)
        edges.add((min(int(i), j), max(int(i), j)))

    return Dataset(
        name=name,
        topology=GraphTopology(num_nodes, sorted(edges)),
        features=features,
        labels=labels,
        num_classes=num_classes,
    )


def sparse_planted_dataset(
    num_nodes: int,
    num_classes: int,
    num_features: int,
    density: float,
    seed: int = 0,
    **kwargs,
) -> Dataset:
    """planted_dataset with all but about `density` of the feature entries
    zeroed, so folded inputs stay sparse enough to be held as CSR."""
    dataset = planted_dataset(num_nodes, num_classes, num_features, seed, **kwargs)
    keep = np.random.default_rng(np.random.SeedSequence([seed, 23])).random(
        dataset.features.shape
    ) < density
    return dataclasses.replace(
        dataset, features=np.where(keep, dataset.features.toarray(), 0.0)
    )


def write_dataset_dir(root: Path, dataset: Dataset) -> Path:
    """Serialize an in-memory dataset into the text layout load_dataset reads."""
    root.mkdir(parents=True, exist_ok=True)
    n, d = dataset.features.shape
    (root / "manifest.txt").write_text(
        f"nodes {n}\nfeatures {d}\nclasses {dataset.num_classes}\n"
    )
    (root / "graph.txt").write_text(
        "".join(f"{u} {v}\n" for u, v in dataset.topology.edges)
    )
    coo = dataset.features.tocoo()
    (root / "features.txt").write_text(
        "".join(f"{r} {c} {v:.8g}\n" for r, c, v in zip(coo.row, coo.col, coo.data))
    )
    (root / "labels.txt").write_text(
        "".join(f"{i} {int(c)}\n" for i, c in enumerate(dataset.labels))
    )
    return root


def make_synthetic(argv) -> None:
    """Run scripts/make_synthetic.py in process with the given arguments."""
    spec = importlib.util.spec_from_file_location(
        "make_synthetic", Path(__file__).resolve().parent.parent / "scripts" / "make_synthetic.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with contextlib.redirect_stdout(io.StringIO()):
        assert module.main(argv) == 0


def write_standard_split(root: Path, dataset: Dataset, seed: int = 3) -> None:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
    train: list[int] = []
    for c in range(dataset.num_classes):
        members = np.flatnonzero(dataset.labels == c)
        train.extend(int(i) for i in rng.permutation(members)[:20])
    rest = rng.permutation(np.array(sorted(set(range(dataset.num_nodes)) - set(train))))
    val = sorted(int(i) for i in rest[:500])
    test = sorted(int(i) for i in rest[500:1500])
    lines = ["train:"] + [str(i) for i in sorted(train)]
    lines += ["val:"] + [str(i) for i in val]
    lines += ["test:"] + [str(i) for i in test]
    (root / "standard_split.txt").write_text("\n".join(lines) + "\n")


def pytest_addoption(parser):
    parser.addoption(
        "--rewrite-trajectories",
        action="store_true",
        help="rewrite tests/trajectories.json from this run instead of checking it",
    )


@pytest.fixture(scope="session")
def path3() -> GraphTopology:
    """The 3-node path 0-1-2."""
    return GraphTopology(3, [(0, 1), (1, 2)])


@pytest.fixture(scope="session")
def small_dataset() -> Dataset:
    """60 nodes, 3 classes; big enough to train, small enough to be instant."""
    return planted_dataset(60, 3, 8, seed=5)


@pytest.fixture(scope="session")
def cli_dataset_dir(tmp_path_factory) -> Path:
    """An on-disk dataset large enough for the full split protocol."""
    dataset = planted_dataset(1600, 2, 12, seed=11, name="clids")
    root = tmp_path_factory.mktemp("clids") / "clids"
    write_dataset_dir(root, dataset)
    write_standard_split(root, dataset)
    return root


@pytest.fixture(scope="session")
def sparse_cli_dataset_dir(tmp_path_factory) -> Path:
    """Like cli_dataset_dir, with 2%-dense features: gcn folds to a CSR input."""
    dataset = sparse_planted_dataset(1600, 2, 200, 0.02, seed=12, name="sparseds")
    root = tmp_path_factory.mktemp("sparseds") / "sparseds"
    write_dataset_dir(root, dataset)
    write_standard_split(root, dataset)
    return root
