import re
import shutil
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from graphcompose import data
from graphcompose.cli import main
from graphcompose.data import (
    NUM_SIZES,
    NUM_SPLITS,
    TEST_SIZE,
    VAL_SIZE,
    DataSplit,
    Dataset,
    generate_splits,
    load_dataset,
    load_split,
    load_standard_split,
    save_splits,
    split_to_text,
    train_size_targets,
)
from graphcompose.errors import DataError
from graphcompose.graph import GraphTopology

from .conftest import make_synthetic, planted_dataset, ring_topology, write_dataset_dir


def unit_rows(x: np.ndarray) -> np.ndarray:
    """Dense reference: each nonzero row divided by its Euclidean norm."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.where(norms == 0.0, 1.0, norms)


def features_dir(tmp_path, x: np.ndarray):
    """A dataset directory whose features.txt holds the nonzero entries of x."""
    n, m = x.shape
    root = write_dataset_dir(tmp_path / "features", planted_dataset(n, 2, m, seed=29))
    rows, cols = np.nonzero(x)
    (root / "features.txt").write_text(
        "".join(f"{r} {c} {float(x[r, c])!r}\n" for r, c in zip(rows, cols))
    )
    return root


@pytest.fixture(scope="module")
def split_dataset():
    # 1700 nodes leaves a pool of exactly 200 after val/test are removed.
    return planted_dataset(1700, 4, 6, seed=2, edges_per_node=3, name="splitds")


class TestDatasetValidation:
    def test_feature_rows_must_match_nodes(self):
        g = ring_topology(5, seed=0)
        with pytest.raises(DataError):
            Dataset("x", g, np.zeros((4, 2)), np.zeros(5, dtype=np.int64), 2)

    def test_labels_cover_every_node(self):
        g = ring_topology(5, seed=0)
        with pytest.raises(DataError):
            Dataset("x", g, np.zeros((5, 2)), np.zeros(4, dtype=np.int64), 2)

    def test_label_range(self):
        g = ring_topology(5, seed=0)
        labels = np.array([0, 1, 2, 0, 1])
        with pytest.raises(DataError):
            Dataset("x", g, np.zeros((5, 2)), labels, 2)

    @pytest.mark.parametrize(
        "labels, dtype",
        [(np.array([0.0, 1.5, 0.0, 1.0, 0.0]), "float64"),
         ([0.0, 1.0, 0.0, 1.0, 0.0], "float64"),
         (np.array([True, False, True, False, True]), "bool"),
         (["0", "1", "0", "1", "0"], "<U1")],
        ids=["float-array", "float-list", "bool", "text"],
    )
    def test_labels_must_be_integers(self, labels, dtype):
        with pytest.raises(DataError, match=rf"labels must be integers, got dtype {dtype}$"):
            Dataset("x", ring_topology(5, seed=0), np.zeros((5, 2)), labels, 2)

    def test_labels_are_converted_once_to_int64(self):
        g = ring_topology(5, seed=0)
        for given in ([0, 1, 0, 1, 0], np.array([0, 1, 0, 1, 0], dtype=np.uint8)):
            d = Dataset("x", g, np.zeros((5, 2)), given, 2)
            assert d.labels.dtype == np.int64
            np.testing.assert_array_equal(d.labels, [0, 1, 0, 1, 0])
        labels = np.array([0, 1, 0, 1, 0], dtype=np.int64)
        assert Dataset("x", g, np.zeros((5, 2)), labels, 2).labels is labels

    def test_properties(self):
        d = planted_dataset(30, 3, 4, seed=1)
        assert d.num_nodes == 30
        assert d.num_features == 4
        assert d.num_edges == d.topology.num_edges


class TestLoadDataset:
    def test_roundtrip(self, tmp_path):
        original = planted_dataset(24, 3, 5, seed=7, name="rt")
        root = write_dataset_dir(tmp_path / "rt", original)
        loaded = load_dataset(root)
        assert loaded.name == "rt"
        assert loaded.source_dir == str(root)
        assert loaded.num_classes == 3
        assert np.array_equal(loaded.topology.edges, original.topology.edges)
        np.testing.assert_array_equal(loaded.labels, original.labels)
        assert isinstance(loaded.features, sp.csr_matrix)
        assert loaded.features.has_canonical_format
        # The text format keeps 8 significant digits per value.
        np.testing.assert_allclose(
            loaded.features.toarray(), unit_rows(original.features.toarray()), atol=1e-6
        )

    def test_features_are_unit_rows(self, tmp_path):
        root = write_dataset_dir(tmp_path / "u", planted_dataset(12, 2, 4, seed=8))
        loaded = load_dataset(root)
        norms = np.linalg.norm(loaded.features.toarray(), axis=1)
        np.testing.assert_allclose(norms, np.ones(12), atol=1e-12)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(DataError, match="does not exist"):
            load_dataset(tmp_path / "nope")

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        root = write_dataset_dir(tmp_path / "c", planted_dataset(12, 2, 4, seed=9))
        graph = root / "graph.txt"
        graph.write_text("# edge list\n\n" + graph.read_text())
        load_dataset(root)

    def test_manifest_missing_key(self, tmp_path):
        root = write_dataset_dir(tmp_path / "m", planted_dataset(12, 2, 4, seed=10))
        (root / "manifest.txt").write_text("nodes 12\nfeatures 4\n")
        with pytest.raises(DataError, match="classes"):
            load_dataset(root)

    def test_manifest_unknown_key_with_location(self, tmp_path):
        root = write_dataset_dir(tmp_path / "k", planted_dataset(12, 2, 4, seed=11))
        (root / "manifest.txt").write_text("nodes 12\nfeatures 4\nclasses 2\nedges 9\n")
        with pytest.raises(DataError, match=r"manifest\.txt:4"):
            load_dataset(root)

    @pytest.mark.parametrize(
        "manifest, message",
        [
            ("nodes 100000000000000000000\nfeatures 4\nclasses 2\n",
             r"labels\.txt: node count mismatch with manifest: 99999999999999999988 of "
             r"100000000000000000000 nodes have no label \(first: 12\)$"),
            ("nodes 1000000000000\nfeatures 4\nclasses 2\n",
             r"labels\.txt: node count mismatch with manifest: 999999999988 of "
             r"1000000000000 nodes have no label \(first: 12\)$"),
            ("nodes 12\nfeatures 10000000000000000\nclasses 2\n",
             r"manifest\.txt: features must be <= 1048576, got 10000000000000000$"),
            ("nodes 12\nfeatures 100000000000000000000\nclasses 2\n",
             r"manifest\.txt: features must be <= 1048576, got 100000000000000000000$"),
            ("nodes 12\nfeatures 4\nclasses 1000000000000\n",
             r"manifest\.txt: classes must be <= 4096, got 1000000000000$"),
            ("nodes 12\nfeatures 4\nclasses 2\nnodes 13\n",
             r"manifest\.txt:4: manifest key 'nodes' given twice$"),
            ("nodes 12\nfeatures 4\nclasses 4\n",
             r"labels\.txt: class count mismatch with manifest: 2 of 4 classes label no node "
             r"\(first: 2\)$"),
        ],
        ids=["nodes-1e20", "nodes-1e12", "features-1e16", "features-1e20", "classes-1e12",
             "repeated-key", "unused-classes"],
    )
    def test_manifest_count_fails_cleanly_naming_the_file(self, tmp_path, capsys, manifest, message):
        # Checked before any array is sized from the count, so the command
        # exits 2 with an error line instead of a numpy traceback.
        root = write_dataset_dir(tmp_path / "big", planted_dataset(12, 2, 4, seed=12))
        (root / "manifest.txt").write_text(manifest)
        assert main(["splits", "--dataset-dir", str(root), "--out", str(tmp_path / "s")]) == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last.startswith("error: ") and re.search(message, last), last

    def test_manifest_non_integer(self, tmp_path):
        root = write_dataset_dir(tmp_path / "i", planted_dataset(12, 2, 4, seed=12))
        (root / "manifest.txt").write_text("nodes twelve\nfeatures 4\nclasses 2\n")
        with pytest.raises(DataError, match="not an integer"):
            load_dataset(root)

    def test_field_count_error_names_line(self, tmp_path):
        root = write_dataset_dir(tmp_path / "f", planted_dataset(12, 2, 4, seed=13))
        (root / "labels.txt").write_text("0 1 extra\n")
        with pytest.raises(DataError, match=r"labels\.txt:1: expected 2 fields"):
            load_dataset(root)

    def test_duplicate_label(self, tmp_path):
        root = write_dataset_dir(tmp_path / "d", planted_dataset(12, 2, 4, seed=14))
        labels = root / "labels.txt"
        labels.write_text(labels.read_text() + "0 1\n")
        with pytest.raises(DataError, match="labeled twice"):
            load_dataset(root)

    def test_unlabeled_node_named(self, tmp_path):
        root = write_dataset_dir(tmp_path / "n", planted_dataset(12, 2, 4, seed=15))
        lines = [l for l in (root / "labels.txt").read_text().splitlines() if not l.startswith("3 ")]
        (root / "labels.txt").write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="first: 3"):
            load_dataset(root)

    def test_label_class_out_of_range(self, tmp_path):
        root = write_dataset_dir(tmp_path / "r", planted_dataset(12, 2, 4, seed=16))
        text = (root / "labels.txt").read_text().replace("0 1", "0 9", 1)
        (root / "labels.txt").write_text(text)
        with pytest.raises(DataError, match="class id 9"):
            load_dataset(root)

    def test_feature_index_out_of_range(self, tmp_path):
        root = write_dataset_dir(tmp_path / "fi", planted_dataset(12, 2, 4, seed=17))
        (root / "features.txt").write_text("0 99 1.0\n")
        with pytest.raises(DataError, match="feature id 99"):
            load_dataset(root)

    def test_feature_bad_value(self, tmp_path):
        root = write_dataset_dir(tmp_path / "fv", planted_dataset(12, 2, 4, seed=18))
        (root / "features.txt").write_text("0 0 abc\n")
        with pytest.raises(DataError, match="bad feature value"):
            load_dataset(root)

    @pytest.mark.parametrize("value", ["1_0", "\u0661", "\u0661.5"])
    def test_feature_value_spelled_as_numpy_refuses_it(self, tmp_path, value):
        # float() reads each of these; np.loadtxt, and so the loader, does not.
        root = write_dataset_dir(tmp_path / "fs", planted_dataset(12, 2, 4, seed=18))
        (root / "features.txt").write_text(f"0 0 1.0\n1 2 {value}\n")
        with pytest.raises(DataError, match=rf"features\.txt:2: bad feature value '{value}'"):
            load_dataset(root)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_feature_value_names_line(self, tmp_path, value):
        root = write_dataset_dir(tmp_path / "nf", planted_dataset(12, 2, 4, seed=18))
        (root / "features.txt").write_text(f"0 0 1.0\n# note\n1 2 {value}\n")
        with pytest.raises(DataError, match=rf"features\.txt:3: non-finite feature value '{value}'"):
            load_dataset(root)

    def test_repeat_out_of_order_names_its_line(self, tmp_path):
        root = write_dataset_dir(tmp_path / "ro", planted_dataset(12, 2, 4, seed=18))
        (root / "features.txt").write_text("1 2 0.5\n0 0 1.0\n1 2 0.25\n")
        with pytest.raises(DataError, match=r"features\.txt:3: node 1 feature 2 given twice"):
            load_dataset(root)

    def test_repeated_feature_line_names_line(self, tmp_path):
        root = write_dataset_dir(tmp_path / "rf", planted_dataset(12, 2, 4, seed=18))
        (root / "features.txt").write_text("0 0 1.0\n1 2 0.5\n\n1 2 0.25\n")
        with pytest.raises(DataError, match=r"features\.txt:4: node 1 feature 2 given twice"):
            load_dataset(root)

    def test_graph_self_loop_is_prefixed_with_path(self, tmp_path):
        root = write_dataset_dir(tmp_path / "g", planted_dataset(12, 2, 4, seed=19))
        (root / "graph.txt").write_text("4 4\n")
        with pytest.raises(DataError, match=r"graph\.txt.*self-loop"):
            load_dataset(root)

    def test_graph_node_out_of_range(self, tmp_path):
        root = write_dataset_dir(tmp_path / "go", planted_dataset(12, 2, 4, seed=20))
        (root / "graph.txt").write_text("0 99\n")
        with pytest.raises(DataError):
            load_dataset(root)

    def test_graph_negative_id_names_line(self, tmp_path):
        root = write_dataset_dir(tmp_path / "gn", planted_dataset(12, 2, 4, seed=20))
        (root / "graph.txt").write_text("0 1\n# note\n-1 3\n")
        with pytest.raises(DataError, match=r"graph\.txt:3: node id -1 outside \[0, 12\)$"):
            load_dataset(root)

    def test_graph_too_large_id_names_line(self, tmp_path):
        root = write_dataset_dir(tmp_path / "gl", planted_dataset(12, 2, 4, seed=20))
        (root / "graph.txt").write_text("0 1\n5 12\n")
        with pytest.raises(DataError, match=r"graph\.txt:2: node id 12 outside \[0, 12\)$"):
            load_dataset(root)

    def test_non_utf8_dataset_file_names_line(self, tmp_path):
        root = write_dataset_dir(tmp_path / "u8", planted_dataset(12, 2, 4, seed=19))
        with open(root / "labels.txt", "ab") as f:
            f.write(b"\xff\xfe\n")
        with pytest.raises(DataError, match=r"labels\.txt:13: not UTF-8 text \(invalid start"):
            load_dataset(root)

    def test_graph_self_loop_names_line(self, tmp_path):
        root = write_dataset_dir(tmp_path / "gs", planted_dataset(12, 2, 4, seed=19))
        (root / "graph.txt").write_text("0 1\n\n4 4\n")
        with pytest.raises(DataError, match=r"graph\.txt:3: self-loop edge \(4, 4\) is not allowed"):
            load_dataset(root)


# Every id column of every data file: the text of a file whose second data line
# holds the bad token, and the message naming it.
ID_TOKEN_CASES = [
    ("labels.txt", "0 1\nzz 0\n", "node id 'zz' is not an integer"),
    ("labels.txt", "0 1\n12 0\n", "node id 12 outside [0, 12)"),
    ("labels.txt", "0 1\n1 c\n", "class id 'c' is not an integer"),
    ("labels.txt", "0 1\n1 2\n", "class id 2 outside [0, 2)"),
    ("features.txt", "0 0 1.0\nzz 1 1.0\n", "node id 'zz' is not an integer"),
    ("features.txt", "0 0 1.0\n-1 1 1.0\n", "node id -1 outside [0, 12)"),
    ("features.txt", "0 0 1.0\n1 1.0 1.0\n", "feature id '1.0' is not an integer"),
    ("features.txt", "0 0 1.0\n1 4 1.0\n", "feature id 4 outside [0, 4)"),
    ("graph.txt", "0 1\nzz 2\n", "node id 'zz' is not an integer"),
    ("graph.txt", "0 1\n12 2\n", "node id 12 outside [0, 12)"),
    ("graph.txt", "0 1\n2 zz\n", "node id 'zz' is not an integer"),
    ("graph.txt", "0 1\n2 -3\n", "node id -3 outside [0, 12)"),
    ("standard_split.txt", "train:\n0\nval:\n2 zz\ntest:\n4\n", "node id 'zz' is not an integer"),
    ("standard_split.txt", "train:\n0\nval:\n2 12\ntest:\n4\n", "node id 12 outside [0, 12)"),
    # int() reads these two spellings; np.loadtxt and the line parser do not.
    ("graph.txt", "0 1\n1_0 2\n", "node id '1_0' is not an integer"),
    ("labels.txt", "0 1\n1 \u0661\n", "class id '\u0661' is not an integer"),
    ("features.txt", "0 0 1.0\n1 \u0661 1.0\n", "feature id '\u0661' is not an integer"),
    ("standard_split.txt", "train:\n0\nval:\n2 1_0\ntest:\n4\n",
     "node id '1_0' is not an integer"),
]


class TestIdTokens:
    @pytest.mark.parametrize(
        "name, text, message", ID_TOKEN_CASES,
        ids=[f"{c[0].split('.')[0]}-{i}" for i, c in enumerate(ID_TOKEN_CASES)],
    )
    def test_bad_id_names_file_and_line(self, tmp_path, name, text, message):
        root = write_dataset_dir(tmp_path / "ids", planted_dataset(12, 2, 4, seed=30))
        (root / "standard_split.txt").write_text("train:\n0\nval:\n2\ntest:\n4\n")
        (root / name).write_text(text)
        line = 4 if name == "standard_split.txt" else 2
        with pytest.raises(DataError) as info:
            load_standard_split(load_dataset(root))
        assert str(info.value) == f"{root / name}:{line}: {message}"

    def test_signs_and_leading_zeros_load(self, tmp_path):
        # What np.loadtxt reads as an integer: an optional sign, then ASCII digits.
        root = write_dataset_dir(tmp_path / "ids", planted_dataset(12, 2, 4, seed=30))
        (root / "standard_split.txt").write_text("train:\n+0\nval:\n002\ntest:\n4\n")
        split = load_standard_split(load_dataset(root))
        assert (split.train, split.val, split.test) == ((0,), (2,), (4,))


class TestSparseFeatures:
    def test_dense_features_are_converted_once(self):
        d = planted_dataset(30, 3, 4, seed=1)
        assert isinstance(d.features, sp.csr_matrix) and d.features.dtype == np.float64
        assert d.features.has_canonical_format
        again = Dataset("again", d.topology, d.features, d.labels, 3)
        assert again.features is d.features

    def test_stored_zeros_are_dropped(self):
        x = np.array([[0.0, -0.0, 2.0], [0.0, 0.0, 0.0], [1.0, 0.0, 3.0]])
        given = sp.csr_matrix((np.array([0.0, 2.0, -0.0]), np.array([0, 2, 1]),
                               np.array([0, 2, 2, 3])), shape=(3, 3))
        for features in (x, given):
            d = Dataset("z", ring_topology(3, seed=0), features, np.zeros(3, dtype=np.int64), 1)
            assert np.all(d.features.data != 0)
            assert d.features.has_canonical_format
        assert given.nnz == 3  # the matrix given is copied, not changed

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("form", ["dense", "csr"])
    def test_non_finite_value_is_refused(self, value, form):
        x = np.ones((5, 2))
        x[3, 1] = value
        features = sp.csr_matrix(x) if form == "csr" else x
        with pytest.raises(DataError, match=rf"node 3 feature 1 has non-finite value {value}$"):
            Dataset("x", ring_topology(5, seed=0), features, np.zeros(5, dtype=np.int64), 2)

    @pytest.mark.parametrize("rows_per_block", [0, 3, 10],
                             ids=["one-row", "three-rows", "all-rows"])
    def test_row_norms_are_bitwise_the_dense_ones(self, tmp_path, monkeypatch, rows_per_block):
        # The norms match one call over the dense matrix whatever the block
        # size (a block smaller than one row holds one row), on rows of more
        # than 128 entries and with explicit 0 and -0.0 lines in the file.
        rng = np.random.default_rng(29)
        n, m = 10, 301
        x = np.where(rng.random((n, m)) < 0.3, rng.normal(size=(n, m)) * 1e3, 0.0)
        x[4] = 0.0  # an empty row stays empty
        x[7] = rng.normal(size=m)
        x[8, ::2] = rng.normal(size=151) * 1e-3
        root = features_dir(tmp_path, x)
        zeros = [(r, c) for r in (1, 4, 7) for c in range(0, m, 37) if x[r, c] == 0.0]
        with open(root / "features.txt", "a") as f:
            f.writelines(f"{r} {c} {'-0.0' if k % 2 else '0'}\n" for k, (r, c) in enumerate(zeros))
        monkeypatch.setattr(data, "_NORM_BLOCK", rows_per_block * m or m - 1)
        loaded = load_dataset(root).features
        assert loaded.toarray().tobytes() == unit_rows(x).tobytes()
        assert loaded.indptr[5] == loaded.indptr[4]
        assert np.count_nonzero(x[7]) == m and len(zeros) > 10

    def test_row_norms_keep_no_dense_copy(self):
        # A Cora-shaped input: 2708 x 1433 at 1.3% density, 11.8 MiB dense.
        rng = np.random.default_rng(31)
        n, m = 2708, 1433
        keys = np.flatnonzero(rng.random(n * m) < 0.013)
        rows = np.empty(keys.size, np.dtype([("node", np.int64), ("feature", np.int64),
                                             ("value", np.float64)]))
        rows["node"], rows["feature"] = np.divmod(keys, m)
        rows["value"] = rng.random(keys.size)
        tracemalloc.start()
        try:
            data._unit_rows(rows, n, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak

    def test_load_allocates_nothing_of_nodes_by_features(self, tmp_path):
        n, m = 16, 1_000_000
        root = tmp_path / "wide"
        root.mkdir()
        (root / "manifest.txt").write_text(f"nodes {n}\nfeatures {m}\nclasses 2\n")
        (root / "labels.txt").write_text("".join(f"{i} {i % 2}\n" for i in range(n)))
        (root / "graph.txt").write_text("".join(f"{i} {(i + 1) % n}\n" for i in range(n)))
        (root / "features.txt").write_text(
            "".join(f"{i} {j} 0.5\n" for i in range(n) for j in range(i, m, 99_991))
        )
        tracemalloc.start()
        try:
            loaded = load_dataset(root)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dense_bytes = n * m * 8  # 128 MB
        assert peak < dense_bytes / 4, peak
        assert loaded.features.nnz == sum(len(range(i, m, 99_991)) for i in range(n))

    def test_numpy_pass_does_not_hold_the_file_bytes(self, tmp_path, monkeypatch):
        # The loader checks the features file's bytes, then drops them before
        # np.loadtxt reads the file again.
        root = write_dataset_dir(tmp_path / "d", planted_dataset(200, 3, 300, seed=3))
        size = (root / "features.txt").stat().st_size
        held = []
        loadtxt = np.loadtxt

        def spy(path, *args, **kwargs):
            if path.name == "features.txt":
                held.append(tracemalloc.get_traced_memory()[0])
            return loadtxt(path, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        tracemalloc.start()
        try:
            load_dataset(root)
        finally:
            tracemalloc.stop()
        assert size > 2**20 and len(held) == 1
        assert held[0] < size / 4, (held, size)

    @pytest.mark.parametrize("method", ["gcn", "lpnn"])
    def test_explicit_zero_lines_train_the_same_history(self, tmp_path, method):
        plain, zeros = tmp_path / "plain", tmp_path / "zeros"
        make_synthetic([
            "--out", str(plain), "--nodes", "400", "--classes", "3", "--features", "48",
            "--density", "0.05", "--seed", "6", "--standard-split", "--val", "100",
            "--test", "200",
        ])
        shutil.copytree(plain, zeros)
        path = zeros / "features.txt"
        stored = {tuple(line.split()[:2]) for line in path.read_text().splitlines()}
        absent = [(r, c) for r in range(0, 400, 9) for c in range(48)
                  if (str(r), str(c)) not in stored][::5]
        # Appended, so the file is also out of (node, feature) order.
        path.write_text(path.read_text() + "".join(
            f"{r} {c} {'-0.0' if k % 2 else '0'}\n" for k, (r, c) in enumerate(absent)
        ))
        histories = []
        for root in (plain, zeros):
            out = tmp_path / f"run-{root.name}"
            assert main(["train", "--method", method, "--dataset-dir", str(root),
                         "--standard-split", "--epochs", "8", "--patience", "8",
                         "--out", str(out)]) == 0
            histories.append(next(out.rglob("history.txt")).read_bytes())
        assert len(absent) > 100 and histories[0] == histories[1]


class TestRowUnitNormalize:
    """load_dataset scales each nonzero feature row to Euclidean norm 1."""

    def test_nonzero_rows_get_unit_norm(self, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(9, 4)) * np.logspace(-3, 3, 9)[:, None]
        loaded = load_dataset(features_dir(tmp_path, x)).features
        np.testing.assert_allclose(np.linalg.norm(loaded.toarray(), axis=1), 1.0, atol=1e-12)

    def test_zero_rows_pass_through(self, tmp_path):
        x = np.array([[3.0, 4.0], [0.0, 0.0], [0.0, -2.0]])
        loaded = load_dataset(features_dir(tmp_path, x)).features
        np.testing.assert_allclose(loaded.toarray(), [[0.6, 0.8], [0.0, 0.0], [0.0, -1.0]],
                                   atol=1e-15)
        assert loaded.indptr[2] == loaded.indptr[1]  # the zero row stores nothing

    def test_input_unchanged(self, tmp_path):
        # The loader scales a copy: the parsed feature rows keep the file's values.
        x = np.array([[2.0, 0.0], [0.0, 0.5]])
        root = features_dir(tmp_path, x)
        rows = data._feature_rows(root / "features.txt", 2, 2)
        before = rows.copy()
        scaled = data._unit_rows(rows, 2, 2)
        assert rows.tobytes() == before.tobytes()
        np.testing.assert_array_equal(scaled.toarray(), [[1.0, 0.0], [0.0, 1.0]])


class TestTrainSizeTargets:
    def test_published_endpoint_pairs_snap(self):
        assert train_size_targets(7, 1208) == (140, 407, 674, 941, 1208)
        assert train_size_targets(6, 1827) == (120, 547, 974, 1401, 1827)
        assert train_size_targets(3, 18217) == (60, 4600, 9139, 13678, 18217)
        assert train_size_targets(3, 1525) == (60, 426, 792, 1158, 1525)
        assert train_size_targets(4, 2557) == (80, 699, 1318, 1937, 2557)

    def test_generic_even_interpolation(self):
        assert train_size_targets(2, 200) == (40, 80, 120, 160, 200)

    def test_generic_rounds_half_up(self):
        # span 162: the first quarter lands on 40.5 and rounds up.
        assert train_size_targets(2, 202) == (40, 81, 121, 162, 202)

    def test_near_miss_of_published_pair_uses_generic_rule(self):
        got = train_size_targets(7, 1209)
        assert got[0] == 140 and got[-1] == 1209
        assert got != (140, 407, 674, 941, 1208)

    def test_endpoints_always_exact(self):
        for classes, pool in [(2, 143), (5, 1000), (9, 777)]:
            got = train_size_targets(classes, pool)
            assert got[0] == 20 * classes
            assert got[-1] == pool
            assert all(a <= b for a, b in zip(got, got[1:]))


class TestGenerateSplits:
    @pytest.fixture(scope="class")
    @staticmethod
    def splits(split_dataset):
        return generate_splits(split_dataset, base_seed=4)

    def test_full_grid(self, splits):
        assert set(splits) == {
            (s, r) for s in range(1, NUM_SIZES + 1) for r in range(NUM_SPLITS)
        }

    def test_val_and_test_fixed_across_all_splits(self, splits):
        first = splits[(1, 0)]
        assert len(first.val) == VAL_SIZE
        assert len(first.test) == TEST_SIZE
        for split in splits.values():
            assert split.val == first.val
            assert split.test == first.test

    def test_sections_sorted_and_disjoint(self, splits):
        for split in splits.values():
            assert list(split.train) == sorted(split.train)
            assert list(split.val) == sorted(split.val)
            assert not set(split.train) & set(split.val)
            assert not set(split.train) & set(split.test)
            assert not set(split.val) & set(split.test)

    def test_training_sizes(self, splits, split_dataset):
        # Pool of 200 with 4 classes: 80 up to 200 in steps of 30.
        for r in range(NUM_SPLITS):
            sizes = [len(splits[(s, r)].train) for s in range(1, 6)]
            assert sizes == [80, 110, 140, 170, 200]

    def test_smallest_size_is_stratified(self, splits, split_dataset):
        labels = split_dataset.labels
        for r in range(NUM_SPLITS):
            train = np.asarray(splits[(1, r)].train)
            counts = np.bincount(labels[train], minlength=4)
            assert counts.tolist() == [20, 20, 20, 20]

    def test_sizes_are_nested(self, splits):
        for r in range(NUM_SPLITS):
            for s in range(1, 5):
                assert set(splits[(s, r)].train) <= set(splits[(s + 1, r)].train)

    def test_largest_size_consumes_pool(self, splits, split_dataset):
        all_ids = set(range(split_dataset.num_nodes))
        for r in range(NUM_SPLITS):
            top = splits[(5, r)]
            assert set(top.train) == all_ids - set(top.val) - set(top.test)

    def test_split_indices_differ(self, splits):
        assert splits[(1, 0)].train != splits[(1, 1)].train

    def test_deterministic_regeneration(self, splits, split_dataset):
        again = generate_splits(split_dataset, base_seed=4)
        assert set(again) == set(splits)
        for key in splits:
            assert split_to_text(again[key]) == split_to_text(splits[key])

    def test_base_seed_changes_everything(self, splits, split_dataset):
        other = generate_splits(split_dataset, base_seed=5)
        assert other[(1, 0)].val != splits[(1, 0)].val

    def test_too_small_dataset_rejected(self):
        small = planted_dataset(100, 2, 4, seed=3)
        with pytest.raises(DataError, match="at least"):
            generate_splits(small, base_seed=0)

    def test_underpopulated_class_named(self):
        # Class 2 has 12 members total, fewer than the 20 required.
        n = 1600
        labels = np.zeros(n, dtype=np.int64)
        labels[:700] = 1
        labels[700:712] = 2
        rng = np.random.default_rng(0)
        rng.shuffle(labels)
        dataset = Dataset(
            "short",
            ring_topology(n, seed=1),
            np.ones((n, 3)),
            labels,
            num_classes=3,
        )
        with pytest.raises(DataError, match="class 2 has only"):
            generate_splits(dataset, base_seed=0)


class TestSplitPersistence:
    @pytest.mark.parametrize(
        "sections, message",
        [(((1, 1), (2,), (3,)), "split sections must not contain repeated node ids"),
         (((1, 2), (2,), (3,)), "train/val/test sets must be pairwise disjoint")],
        ids=["repeat", "overlap"],
    )
    def test_in_memory_split_is_checked(self, sections, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            DataSplit(1, 0, *sections)

    def test_text_roundtrip(self, tmp_path):
        split = DataSplit(2, 3, (5, 9, 11), (1, 2), (0, 4))
        text = split_to_text(split)
        assert text.splitlines()[0] == "train:"
        d = tmp_path / "2" / "3"
        d.mkdir(parents=True)
        (d / "split.txt").write_text(text)
        loaded = load_split(tmp_path, 2, 3, num_nodes=20)
        assert loaded == split

    def test_save_layout_and_idempotence(self, tmp_path, split_dataset):
        splits = generate_splits(split_dataset, base_seed=6)
        paths = save_splits(splits, tmp_path / "splits")
        assert len(paths) == NUM_SIZES * NUM_SPLITS
        assert (tmp_path / "splits" / "1" / "0" / "split.txt").is_file()
        assert (tmp_path / "splits" / "5" / "9" / "split.txt").is_file()
        before = {p: p.read_bytes() for p in paths}
        save_splits(splits, tmp_path / "splits")
        assert {p: p.read_bytes() for p in paths} == before

    def test_load_split_roundtrips_saved(self, tmp_path, split_dataset):
        splits = generate_splits(split_dataset, base_seed=7)
        save_splits(splits, tmp_path / "s")
        loaded = load_split(tmp_path / "s", 3, 4, split_dataset.num_nodes)
        assert loaded == splits[(3, 4)]

    def test_unwritable_out_dir_names_the_path(self, tmp_path, split_dataset):
        (tmp_path / "a-file").write_text("")
        target = tmp_path / "a-file" / "s" / "1" / "0" / "split.txt"
        with pytest.raises(DataError, match=f"^cannot write {re.escape(str(target))}: "):
            save_splits(generate_splits(split_dataset, base_seed=6), tmp_path / "a-file" / "s")

    def test_missing_split_mentions_generation(self, tmp_path):
        with pytest.raises(DataError, match="generate splits first"):
            load_split(tmp_path, 1, 0, num_nodes=20)

    def test_id_before_header_rejected(self, tmp_path):
        d = tmp_path / "1" / "0"
        d.mkdir(parents=True)
        (d / "split.txt").write_text("7\ntrain:\n1\nval:\n2\ntest:\n3\n")
        with pytest.raises(DataError, match="before any section header"):
            load_split(tmp_path, 1, 0, num_nodes=20)

    def test_empty_section_rejected(self, tmp_path):
        d = tmp_path / "1" / "0"
        d.mkdir(parents=True)
        (d / "split.txt").write_text("train:\n1\nval:\ntest:\n3\n")
        with pytest.raises(DataError, match="nonempty"):
            load_split(tmp_path, 1, 0, num_nodes=20)

    def test_out_of_range_id_names_path_and_line(self, tmp_path):
        d = tmp_path / "1" / "0"
        d.mkdir(parents=True)
        (d / "split.txt").write_text("train:\n1\nval:\n2\ntest:\n3 99999\n")
        with pytest.raises(DataError, match=r"split\.txt:6: node id 99999 outside \[0, 20\)"):
            load_split(tmp_path, 1, 0, num_nodes=20)
        (d / "split.txt").write_text("train:\n-1\nval:\n2\ntest:\n3\n")
        with pytest.raises(DataError, match="split\\.txt:2: node id -1"):
            load_split(tmp_path, 1, 0, num_nodes=20)

    def test_non_utf8_split_file_names_line(self, tmp_path):
        d = tmp_path / "1" / "0"
        d.mkdir(parents=True)
        (d / "split.txt").write_bytes(b"train:\n1\nval:\n2 \xc3\ntest:\n3\n")
        with pytest.raises(DataError, match=r"split\.txt:4: not UTF-8 text"):
            load_split(tmp_path, 1, 0, num_nodes=20)

    def test_overlapping_sections_rejected(self, tmp_path):
        d = tmp_path / "1" / "0"
        d.mkdir(parents=True)
        (d / "split.txt").write_text("train:\n1\nval:\n1\ntest:\n3\n")
        with pytest.raises(
            DataError, match=r"split\.txt:4: .*disjoint \(node 1 is in train and val\)"
        ):
            load_split(tmp_path, 1, 0, num_nodes=20)

    def test_repeated_id_in_a_section_names_path_and_line(self, tmp_path):
        d = tmp_path / "1" / "0"
        d.mkdir(parents=True)
        (d / "split.txt").write_text("train:\n1 2\nval:\n4\ntest:\n3\n5 3\n")
        with pytest.raises(DataError, match=r"split\.txt:7: split sections must not contain "
                           r"repeated node ids \(node 3 repeats in test\)"):
            load_split(tmp_path, 1, 0, num_nodes=20)


class TestStandardSplit:
    def test_loads_when_present(self, tmp_path):
        dataset = planted_dataset(20, 2, 3, seed=21, name="std")
        root = write_dataset_dir(tmp_path / "std", dataset)
        (root / "standard_split.txt").write_text(
            "train:\n0\n1\nval:\n2\n3\ntest:\n4\n5\n"
        )
        loaded = load_dataset(root)
        split = load_standard_split(loaded)
        assert split.size_index == 0
        assert split.train == (0, 1)

    def test_missing_file(self, tmp_path):
        root = write_dataset_dir(tmp_path / "ns", planted_dataset(20, 2, 3, seed=22))
        loaded = load_dataset(root)
        with pytest.raises(DataError, match="standard split unavailable"):
            load_standard_split(loaded)

    def test_in_memory_dataset_rejected(self):
        with pytest.raises(DataError, match="not loaded from a directory"):
            load_standard_split(planted_dataset(20, 2, 3, seed=23))

    def test_out_of_range_id(self, tmp_path):
        dataset = planted_dataset(20, 2, 3, seed=24, name="oor")
        root = write_dataset_dir(tmp_path / "oor", dataset)
        (root / "standard_split.txt").write_text("train:\n0\nval:\n2\ntest:\n99\n")
        loaded = load_dataset(root)
        with pytest.raises(DataError, match=r"standard_split\.txt:6: node id 99 outside"):
            load_standard_split(loaded)


def _write_unusual(root, case):
    """A small dataset whose files are valid but written in an unusual way."""
    dataset = planted_dataset(12, 3, 5, seed=25, name="unusual")
    write_dataset_dir(root, dataset)
    if case == "exponents-and-17-digits":
        rows, cols = np.nonzero(dataset.features)
        (root / "features.txt").write_text("".join(
            f"{r} {c} {dataset.features[r, c]:.16e}\n" for r, c in zip(rows, cols)
        ))
    elif case == "explicit-zeros":
        lines = (root / "features.txt").read_text().splitlines(keepends=True)
        for k, zero in enumerate(["0", "-0.0", "0e5"]):
            node, feat, _ = lines[5 * k].split()
            lines[5 * k] = f"{node} {feat} {zero}\n"
        (root / "features.txt").write_text("".join(lines))
    elif case == "reversed-lines":
        lines = (root / "features.txt").read_text().splitlines(keepends=True)
        (root / "features.txt").write_text("".join(lines[::-1]))
    elif case == "empty-graph":
        (root / "graph.txt").write_text("")
    for name in ("labels.txt", "features.txt", "graph.txt"):
        path = root / name
        text = path.read_text()
        if case == "crlf":
            text = text.replace("\n", "\r\n")
        elif case == "tabs":
            text = text.replace(" ", "\t")
        elif case == "blank-lines":
            text = text.replace("\n", "\n\n   \n\t\n", 3)
        elif case == "comment-lines":
            text = "# header\n" + text.replace("\n", "\n# note\n", 2)
        elif case == "no-final-newline":
            text = text.rstrip("\n")
        elif case == "plus-signs":
            text = "\n".join("+" + line for line in text.splitlines()) + "\n"
        elif case == "leading-zeros" and name == "labels.txt":
            text = text.replace("10 ", "010 ", 1)
        path.write_bytes(text.encode())
    return root


# Each case, and the files in it that only the per-line parser reads.
UNUSUAL_CASES = [
    ("crlf", []),
    ("tabs", []),
    ("blank-lines", []),
    ("comment-lines", ["labels.txt", "features.txt", "graph.txt"]),
    ("no-final-newline", []),
    ("plus-signs", []),
    ("leading-zeros", []),
    ("exponents-and-17-digits", []),
    ("explicit-zeros", []),
    ("reversed-lines", []),
    ("empty-graph", ["graph.txt"]),
]


def assert_same_csr(a, b):
    """a and b hold bitwise the same CSR arrays."""
    assert a.shape == b.shape
    for name in ("data", "indices", "indptr"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def _spy_per_line(monkeypatch):
    """Record the name of every file the per-line parser reads."""
    names = []
    per_line = data._parse_lines

    def spy(path, expected_fields):
        names.append(path.name)
        return per_line(path, expected_fields)

    monkeypatch.setattr(data, "_parse_lines", spy)
    return names


class TestParserEquivalence:
    """The numpy pass and the per-line parser give bitwise the same dataset."""

    @pytest.mark.parametrize(
        "case, per_line_files", UNUSUAL_CASES, ids=[c[0] for c in UNUSUAL_CASES]
    )
    def test_unusual_valid_files(self, tmp_path, monkeypatch, case, per_line_files):
        root = _write_unusual(tmp_path / case, case)
        read_by_line = _spy_per_line(monkeypatch)
        fast = load_dataset(root)
        assert read_by_line == ["manifest.txt", *per_line_files]
        monkeypatch.setattr(data, "_load_rows", lambda path, dtype, bounds: None)
        slow = load_dataset(root)
        assert_same_csr(fast.features, slow.features)
        assert fast.labels.tobytes() == slow.labels.tobytes()
        assert np.array_equal(fast.topology.edges, slow.topology.edges)
        if case == "empty-graph":
            assert fast.num_edges == 0

    def test_seventeen_digit_values_parse_like_python_float(self, tmp_path):
        rng = np.random.default_rng(26)
        digits = rng.integers(0, 10, size=(2000, 17))
        digits[:, 0] = rng.integers(1, 10, size=2000)
        signs = rng.choice(["", "-", "+"], size=2000)
        exponents = rng.integers(-320, 300, size=2000)
        tokens = [
            f"{s}{d[0]}.{''.join(map(str, d[1:]))}e{e}" if k % 2 else
            f"{s}{''.join(map(str, d))}e{e - 16}"
            for k, (s, d, e) in enumerate(zip(signs, digits, exponents))
        ]
        path = tmp_path / "features.txt"
        path.write_text("".join(f"{i} 0 {t}\n" for i, t in enumerate(tokens)))
        dtype = np.dtype([("node", np.int64), ("feature", np.int64), ("value", np.float64)])
        rows = data._load_rows(path, dtype, (len(tokens), 1))
        expected = np.array([float(t) for t in tokens])
        assert rows["value"].view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    def test_generated_dataset_never_falls_back(self, tmp_path, monkeypatch):
        root = tmp_path / "synthetic"
        make_synthetic([
            "--out", str(root), "--nodes", "200", "--classes", "3", "--features", "24",
            "--standard-split", "--val", "60", "--test", "60",
        ])
        read_by_line = _spy_per_line(monkeypatch)
        load_dataset(root)
        assert read_by_line == ["manifest.txt"]

    @pytest.mark.parametrize("brk", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"])
    def test_every_line_break_of_the_per_line_parser_ends_a_line(self, tmp_path, brk):
        # numpy reads these as spaces, which would make "2<brk>3" one valid line.
        root = write_dataset_dir(tmp_path / "lb", planted_dataset(12, 2, 4, seed=28))
        (root / "graph.txt").write_text(f"0 1\n2{brk}3\n")
        with pytest.raises(DataError, match=r"graph\.txt:2: expected 2 fields, got 1"):
            load_dataset(root)

    def test_malformed_file_falls_back_to_name_its_line(self, tmp_path):
        root = write_dataset_dir(tmp_path / "bad", planted_dataset(12, 2, 4, seed=27))
        (root / "features.txt").write_text("0 0 1.0\r\n\t1 2 0.5\n1 3 1_0\n2 5 1.0\n")
        with pytest.raises(DataError, match=r"features\.txt:3: bad feature value '1_0'"):
            load_dataset(root)
