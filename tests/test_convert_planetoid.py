"""scripts/convert_planetoid.py turns a tiny ind.<name>.* file family into a
dataset that load_dataset and load_standard_split read back."""

import contextlib
import importlib.util
import io
import pickle
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from graphcompose import load_dataset, load_standard_split

ROOT = Path(__file__).resolve().parent.parent


def convert_module():
    spec = importlib.util.spec_from_file_location(
        "convert_planetoid", ROOT / "scripts" / "convert_planetoid.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def one_hot(classes, k=3):
    return np.eye(k)[classes]


def write_raw(src: Path):
    """Six allx nodes (the first three are the train block), then a test block
    named out of order in test.index with node 7 missing, as in citeseer."""
    allx = sp.csr_matrix(np.array([
        [1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 1], [1, 1, 0, 0], [0, 0, 0, 1], [1, 0, 1, 0],
    ], dtype=np.float64))
    ally = one_hot([0, 1, 2, 0, 1, 2])
    tx = sp.csr_matrix(np.array([[0, 2, 0, 0.0123456789], [1, 0, 0, 0], [0, 1, 1, 1]]))
    ty = one_hot([2, 1, 1])
    test_index = [9, 6, 8]
    # 0-0 is a self-loop; 0-1 is listed from both ends and twice from 0.
    graph = {0: [1, 0, 1, 3], 1: [0, 2], 2: [1], 3: [0], 6: [9], 8: [5], 9: [6]}
    parts = {
        "x": allx[:3], "y": ally[:3], "tx": tx, "ty": ty,
        "allx": allx, "ally": ally, "graph": graph,
    }
    for suffix, value in parts.items():
        with (src / f"ind.toy.{suffix}").open("wb") as fh:
            pickle.dump(value, fh)
    (src / "ind.toy.test.index").write_text("".join(f"{i}\n" for i in test_index))
    return tx, ty, test_index


def test_converted_dataset_loads_with_its_standard_split(tmp_path):
    src, out = tmp_path / "raw", tmp_path / "toy"
    src.mkdir()
    tx, ty, test_index = write_raw(src)
    with contextlib.redirect_stdout(io.StringIO()):
        assert convert_module().main(
            ["--src", str(src), "--name", "toy", "--out", str(out), "--val-size", "2"]
        ) == 0

    ds = load_dataset(out)
    split = load_standard_split(ds)
    assert ds.num_nodes == 10 and ds.num_features == 4 and ds.num_classes == 3
    assert split.train == (0, 1, 2)
    assert split.val == (3, 4)
    assert split.test == (6, 8, 9)

    dense = ds.features.toarray()
    rows = tx.toarray()
    for i, node in enumerate(test_index):
        np.testing.assert_allclose(dense[node], rows[i] / np.linalg.norm(rows[i]), rtol=1e-12)
        assert ds.labels[node] == np.argmax(ty[i])
    gap = 7
    assert not dense[gap].any()
    assert all(gap not in section for section in (split.train, split.val, split.test))

    assert sorted(map(tuple, ds.topology.edges.tolist())) == [
        (0, 1), (0, 3), (1, 2), (5, 8), (6, 9),
    ]
