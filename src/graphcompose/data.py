"""Dataset ingestion and the split-generation protocol.

A dataset directory holds four whitespace-delimited text files (manifest.txt,
graph.txt, features.txt, labels.txt) and optionally standard_split.txt.
Splits fix one validation set of 500 and one test set of 1000 nodes per
dataset; the remaining pool T yields five nested training sizes per split:
size 1 is 20 nodes per class, sizes 2-5 interpolate up to all of T.
"""

from __future__ import annotations

import contextlib
import math
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import DataError
from .graph import GraphTopology
from .networks import MAX_SIZE, feature_csr

__all__ = [
    "Dataset",
    "DataSplit",
    "VAL_SIZE",
    "TEST_SIZE",
    "NUM_SIZES",
    "NUM_SPLITS",
    "load_dataset",
    "generate_splits",
    "train_size_targets",
    "load_standard_split",
    "save_splits",
    "load_split",
    "split_to_text",
    "MAX_FEATURES",
]

VAL_SIZE = 500
TEST_SIZE = 1000
NUM_SIZES = 5
NUM_SPLITS = 10
_PER_CLASS = 20

# The largest feature count a manifest may declare. The loader's row-norm
# block holds at least one whole row, so it is at most 8 MiB.
MAX_FEATURES = 2**20
_NORM_BLOCK = 2**17  # entries in the row-norm block (1 MiB, about an L2 cache)

# Published per-dataset training counts, keyed by (20 * classes, |T|). The
# interpolated interior sizes in circulation do not follow one rounding rule,
# so known endpoint pairs snap to the published counts and everything else
# uses round-half-up interpolation.
_PUBLISHED_SIZES: dict[tuple[int, int], tuple[int, ...]] = {
    (140, 1208): (140, 407, 674, 941, 1208),
    (120, 1827): (120, 547, 974, 1401, 1827),
    (60, 18217): (60, 4600, 9139, 13678, 18217),
    (60, 1525): (60, 426, 792, 1158, 1525),
    (80, 2557): (80, 699, 1318, 1937, 2557),
}


@dataclass(frozen=True, eq=False)
class Dataset:
    """A graph, its node features and labels, converted once: features to
    canonical float64 scipy CSR with no stored zeros, labels to int64."""

    name: str
    topology: GraphTopology
    features: sp.csr_matrix
    labels: np.ndarray
    num_classes: int
    source_dir: str | None = None

    def __post_init__(self) -> None:
        features = feature_csr(self.features)
        object.__setattr__(self, "features", features)
        if features.shape[0] != self.topology.num_nodes:
            raise DataError(
                f"feature rows {features.shape[0]} != nodes {self.topology.num_nodes}"
            )
        labels = np.asarray(self.labels)
        if labels.dtype.kind not in "iu":
            raise DataError(f"labels must be integers, got dtype {labels.dtype}")
        object.__setattr__(self, "labels", labels.astype(np.int64, copy=False))
        if self.labels.shape != (self.topology.num_nodes,):
            raise DataError("labels must cover every node exactly once")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise DataError(f"label outside [0, {self.num_classes})")

    @property
    def num_nodes(self) -> int:
        return self.topology.num_nodes

    @property
    def num_edges(self) -> int:
        return self.topology.num_edges

    @property
    def num_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class DataSplit:
    """Disjoint train/val/test node-id sets. size_index 1..5 for generated
    splits, 0 for a dataset's fixed benchmark split."""

    size_index: int
    split_index: int
    train: tuple[int, ...]
    val: tuple[int, ...]
    test: tuple[int, ...]

    def __post_init__(self) -> None:
        train, val, test = set(self.train), set(self.val), set(self.test)
        if len(train) != len(self.train) or len(val) != len(self.val) or len(test) != len(self.test):
            raise DataError("split sections must not contain repeated node ids")
        if train & val or train & test or val & test:
            raise DataError("train/val/test sets must be pairwise disjoint")


def _read_text(path: Path) -> str:
    try:
        raw = path.read_bytes()
        return raw.decode("utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        line = len((raw[: exc.start].decode("utf-8") + ".").splitlines())
        raise DataError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from exc


def _write_atomic(path: Path, text: str) -> None:
    """Write text to path via a temporary file beside it; failure is a DataError
    and removes the temporary file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):  # missing, or beneath a file
            tmp.unlink()
        raise DataError(f"cannot write {path}: {exc}") from exc


def _parse_lines(path: Path, expected_fields: int):
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != expected_fields:
            raise DataError(
                f"{path}:{lineno}: expected {expected_fields} fields, got {len(fields)}"
            )
        yield lineno, fields


def _parse_int(path: Path, lineno: int, token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise DataError(f"{path}:{lineno}: {what} {token!r} is not an integer") from exc


def _load_rows(path: Path, dtype: np.dtype, bounds: tuple[int, ...]):
    """The file's rows in one numpy pass, with each leading id column in [0, its
    bound). None for a file that is empty, not ASCII, has an id out of range, or
    holds a comment or a token numpy refuses (1_0, 2**63)."""
    try:
        raw = path.read_bytes()
        # str.splitlines() ends a line at these bytes; np.loadtxt reads them as spaces.
        if not raw.isascii() or any(c in raw for c in b"\v\f\x1c\x1d\x1e"):
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "input contained no data"
            rows = np.loadtxt(path, dtype=dtype, comments=None, ndmin=1, encoding="utf-8")
    except (OSError, ValueError, Warning):
        return None
    ids = zip(dtype.names, bounds)
    return rows if all(0 <= rows[f].min() and rows[f].max() < b for f, b in ids) else None


def _label_rows(path: Path, n: int, num_classes: int) -> np.ndarray:
    dtype = np.dtype([("node", np.int64), ("class", np.int64)])
    rows = _load_rows(path, dtype, (n, num_classes))
    if rows is not None and rows.size == n and np.array_equal(np.sort(rows["node"]), np.arange(n)):
        return rows
    # Nothing here is sized from n, which the file's rows have not yet bounded.
    rows = []
    labeled: set[int] = set()
    for lineno, (node_s, class_s) in _parse_lines(path, 2):
        node = _parse_int(path, lineno, node_s, "node id")
        cls = _parse_int(path, lineno, class_s, "class id")
        if not (0 <= node < n):
            raise DataError(f"{path}:{lineno}: node id {node} outside [0, {n})")
        if not (0 <= cls < num_classes):
            raise DataError(f"{path}:{lineno}: class id {cls} outside [0, {num_classes})")
        if node in labeled:
            raise DataError(f"{path}:{lineno}: node {node} labeled twice")
        labeled.add(node)
        rows.append((node, cls))
    if len(labeled) < n:
        first = next((i for i, node in enumerate(sorted(labeled)) if i != node), len(labeled))
        raise DataError(
            f"{path}: node count mismatch with manifest: "
            f"{n - len(labeled)} of {n} nodes have no label (first: {first})"
        )
    return np.array(rows, dtype=dtype)


def _feature_rows(path: Path, n: int, m: int) -> np.ndarray:
    """The file's (node, feature, value) rows in (node, feature) order."""
    dtype = np.dtype([("node", np.int64), ("feature", np.int64), ("value", np.float64)])
    rows = _load_rows(path, dtype, (n, m))
    if rows is not None and np.isfinite(rows["value"]).all():
        key = rows["node"] * m + rows["feature"]  # n * m fits: n is at most the label rows
        if np.any(key[1:] <= key[:-1]):  # out of order; sorted, a repeat sits beside its first
            order = np.argsort(key, kind="stable")
            rows, key = rows[order], key[order]
        if np.all(key[1:] > key[:-1]):
            return rows
    rows = []
    given: set[int] = set()
    for lineno, (node_s, feat_s, value_s) in _parse_lines(path, 3):
        try:
            node, feat, value = int(node_s), int(feat_s), float(value_s)
        except ValueError as exc:
            _parse_int(path, lineno, node_s, "node id")
            _parse_int(path, lineno, feat_s, "feature id")
            raise DataError(f"{path}:{lineno}: bad feature value {value_s!r}") from exc
        if not (0 <= node < n):
            raise DataError(f"{path}:{lineno}: node id {node} outside [0, {n})")
        if not (0 <= feat < m):
            raise DataError(f"{path}:{lineno}: feature id {feat} outside [0, {m})")
        if not math.isfinite(value):
            raise DataError(f"{path}:{lineno}: non-finite feature value {value_s!r}")
        if node * m + feat in given:
            raise DataError(f"{path}:{lineno}: node {node} feature {feat} given twice")
        given.add(node * m + feat)
        rows.append((node, feat, value))
    rows = np.array(rows, dtype=dtype)
    return rows[np.argsort(rows["node"] * m + rows["feature"], kind="stable")]


def _unit_rows(rows: np.ndarray, n: int, m: int) -> sp.csr_matrix:
    """The (node, feature)-ordered rows as CSR, each nonzero row divided by
    its Euclidean norm, bitwise as np.linalg.norm scales the dense matrix.
    numpy's pairwise sum groups a row's squares by position, so each group of
    rows scatters its squares into a zeroed block of whole rows, sums along
    them and zeroes the block again. Dataset drops the values that are or
    become zero."""
    indptr = np.searchsorted(rows["node"], np.arange(n + 1))
    features = sp.csr_matrix((rows["value"].copy(), rows["feature"], indptr), shape=(n, m))
    step = min(max(_NORM_BLOCK // m, 1), n)
    block = np.zeros(step * m)
    for start in range(0, n, step):
        stop = min(start + step, n)
        k, lo, hi = stop - start, indptr[start], indptr[stop]
        counts = np.diff(indptr[start : stop + 1])
        at = np.repeat(np.arange(0, k * m, m), counts) + features.indices[lo:hi]
        values = features.data[lo:hi]
        block[at] = values * values
        norms = np.sqrt(np.add.reduce(block[: k * m].reshape(k, m), axis=1))
        block[at] = 0.0
        values /= np.repeat(np.where(norms == 0.0, 1.0, norms), counts)
    return features


def _edge_rows(path: Path, n: int) -> np.ndarray:
    dtype = np.dtype([("u", np.int64), ("v", np.int64)])
    rows = _load_rows(path, dtype, (n, n))
    if rows is not None and not np.any(rows["u"] == rows["v"]):
        return rows
    rows = []
    for lineno, (u_s, v_s) in _parse_lines(path, 2):
        u = _parse_int(path, lineno, u_s, "node id")
        v = _parse_int(path, lineno, v_s, "node id")
        for node in (u, v):
            if not (0 <= node < n):
                raise DataError(f"{path}:{lineno}: node id {node} outside [0, {n})")
        if u == v:
            raise DataError(f"{path}:{lineno}: self-loop edge ({u}, {v}) is not allowed")
        rows.append((u, v))
    return np.array(rows, dtype=dtype)


def load_dataset(path) -> Dataset:
    """Load and validate a dataset directory; feature rows come out
    unit-normalized (zero rows stay zero) as CSR. A data file that fails the numpy
    pass or a check is parsed again line by line, to name its bad line."""
    root = Path(path)
    if not root.is_dir():
        raise DataError(f"dataset directory {root} does not exist")

    manifest_path = root / "manifest.txt"
    manifest: dict[str, int] = {}
    for lineno, (key, value) in _parse_lines(manifest_path, 2):
        if key not in ("nodes", "features", "classes"):
            raise DataError(f"{manifest_path}:{lineno}: unknown manifest key {key!r}")
        if key in manifest:
            raise DataError(f"{manifest_path}:{lineno}: manifest key {key!r} given twice")
        manifest[key] = _parse_int(manifest_path, lineno, value, "manifest value")
    missing = {"nodes", "features", "classes"} - set(manifest)
    if missing:
        raise DataError(f"{manifest_path}: missing keys {sorted(missing)}")
    n, m, num_classes = manifest["nodes"], manifest["features"], manifest["classes"]
    if n < 1 or m < 1 or num_classes < 1:
        raise DataError(f"{manifest_path}: counts must be positive")
    if num_classes > MAX_SIZE:
        raise DataError(f"{manifest_path}: classes must be <= {MAX_SIZE}, got {num_classes}")
    if m > MAX_FEATURES:
        raise DataError(f"{manifest_path}: features must be <= {MAX_FEATURES}, got {m}")

    # Every node is labeled exactly once, so past this call n is at most the
    # label file's row count.
    rows = _label_rows(root / "labels.txt", n, num_classes)
    unused = np.flatnonzero(np.bincount(rows["class"], minlength=num_classes) == 0)
    if unused.size:
        raise DataError(f"{root / 'labels.txt'}: class count mismatch with manifest: {unused.size} "
                        f"of {num_classes} classes label no node (first: {unused[0]})")
    labels = np.empty(n, dtype=np.int64)
    labels[rows["node"]] = rows["class"]

    features = _unit_rows(_feature_rows(root / "features.txt", n, m), n, m)
    rows = _edge_rows(root / "graph.txt", n)
    topology = GraphTopology(n, np.column_stack([rows["u"], rows["v"]]))
    return Dataset(
        name=root.name,
        topology=topology,
        features=features,
        labels=labels,
        num_classes=num_classes,
        source_dir=str(root),
    )


def train_size_targets(num_classes: int, pool_size: int) -> tuple[int, ...]:
    """The five training-set sizes between 20 per class and the whole pool."""
    lo = _PER_CLASS * num_classes
    if (lo, pool_size) in _PUBLISHED_SIZES:
        return _PUBLISHED_SIZES[(lo, pool_size)]
    span = pool_size - lo
    return tuple(lo + int(np.floor(k * span / 4.0 + 0.5)) for k in range(5))


def generate_splits(dataset: Dataset, base_seed: int) -> dict[tuple[int, int], DataSplit]:
    """All 5 sizes x 10 splits, keyed (size_index, split_index).

    Validation and test sets are drawn once per dataset from base_seed and
    shared by every split; training sets are nested per split so each size is
    a superset of the previous one. Fully deterministic in (base_seed,
    split_index) and portable across platforms.
    """
    n = dataset.num_nodes
    needed = _PER_CLASS * dataset.num_classes + VAL_SIZE + TEST_SIZE
    if n < needed:
        raise DataError(
            f"dataset {dataset.name!r} has {n} nodes but the split protocol needs "
            f"at least {needed}"
        )
    fixed_rng = np.random.default_rng(np.random.SeedSequence([base_seed, 0]))
    order = fixed_rng.permutation(n)
    val = np.sort(order[:VAL_SIZE])
    test = np.sort(order[VAL_SIZE : VAL_SIZE + TEST_SIZE])
    pool = np.sort(order[VAL_SIZE + TEST_SIZE :])
    pool_labels = dataset.labels[pool]

    targets = train_size_targets(dataset.num_classes, pool.size)
    splits: dict[tuple[int, int], DataSplit] = {}
    val_t = tuple(int(i) for i in val)
    test_t = tuple(int(i) for i in test)
    for split_index in range(NUM_SPLITS):
        rng = np.random.default_rng(np.random.SeedSequence([base_seed, 1 + split_index]))
        picked = []
        for cls in range(dataset.num_classes):
            members = pool[pool_labels == cls]
            if members.size < _PER_CLASS:
                raise DataError(
                    f"class {cls} has only {members.size} nodes outside val/test; "
                    f"{_PER_CLASS} per class are required"
                )
            picked.append(rng.permutation(members)[:_PER_CLASS])
        chosen = np.concatenate(picked)
        # Every target is at least 20 per class, so each size extends the last.
        remainder = rng.permutation(np.setdiff1d(pool, chosen))
        for size_index, target in enumerate(targets, start=1):
            train_ids = np.sort(np.concatenate([chosen, remainder[: target - chosen.size]]))
            splits[(size_index, split_index)] = DataSplit(
                size_index=size_index,
                split_index=split_index,
                train=tuple(train_ids.tolist()),
                val=val_t,
                test=test_t,
            )
    return splits


def split_to_text(split: DataSplit) -> str:
    lines = ["train:"]
    lines += [str(i) for i in split.train]
    lines.append("val:")
    lines += [str(i) for i in split.val]
    lines.append("test:")
    lines += [str(i) for i in split.test]
    return "\n".join(lines) + "\n"


def _parse_split_text(
    path: Path, size_index: int, split_index: int, num_nodes: int
) -> DataSplit:
    """Parse a split file; every node id must lie in [0, num_nodes)."""
    sections: dict[str, list[int]] = {"train": [], "val": [], "test": []}
    section_of: dict[int, str] = {}
    active: str | None = None
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line in ("train:", "val:", "test:"):
            active = line[:-1]
            continue
        if active is None:
            raise DataError(f"{path}:{lineno}: node id before any section header")
        for token in line.split():
            node = _parse_int(path, lineno, token, "node id")
            if not 0 <= node < num_nodes:
                raise DataError(f"{path}:{lineno}: node id {node} outside [0, {num_nodes})")
            first = section_of.get(node)
            if first == active:
                raise DataError(
                    f"{path}:{lineno}: split sections must not contain repeated node ids "
                    f"(node {node} repeats in {active})"
                )
            if first is not None:
                raise DataError(
                    f"{path}:{lineno}: train/val/test sets must be pairwise disjoint "
                    f"(node {node} is in {first} and {active})"
                )
            section_of[node] = active
            sections[active].append(node)
    if not sections["train"] or not sections["val"] or not sections["test"]:
        raise DataError(f"{path}: every split section must be nonempty")
    return DataSplit(
        size_index=size_index,
        split_index=split_index,
        train=tuple(sections["train"]),
        val=tuple(sections["val"]),
        test=tuple(sections["test"]),
    )


def save_splits(splits, out_dir) -> list[Path]:
    """Write each split as <out_dir>/<size>/<split>/split.txt. Idempotent for
    identical inputs; returns the written paths."""
    out = Path(out_dir)
    written = []
    for (size_index, split_index), split in sorted(splits.items()):
        target = out / str(size_index) / str(split_index) / "split.txt"
        _write_atomic(target, split_to_text(split))
        written.append(target)
    return written


def load_split(splits_dir, size_index: int, split_index: int, num_nodes: int) -> DataSplit:
    """A generated split of a dataset with num_nodes nodes; ids are range-checked."""
    path = Path(splits_dir) / str(size_index) / str(split_index) / "split.txt"
    if not path.is_file():
        raise DataError(
            f"split file {path} not found; generate splits first (splits command)"
        )
    return _parse_split_text(path, size_index, split_index, num_nodes)


def load_standard_split(dataset: Dataset) -> DataSplit:
    """The fixed benchmark split shipped next to the dataset files."""
    if dataset.source_dir is None:
        raise DataError(f"dataset {dataset.name!r} was not loaded from a directory")
    path = Path(dataset.source_dir) / "standard_split.txt"
    if not path.is_file():
        raise DataError(f"standard split unavailable for dataset {dataset.name!r}")
    return _parse_split_text(path, 0, 0, dataset.num_nodes)
