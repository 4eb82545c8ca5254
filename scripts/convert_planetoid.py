#!/usr/bin/env python3
"""Convert a raw citation-benchmark directory (the pickled ind.* file family:
ind.<name>.x/y/tx/ty/allx/ally/graph plus ind.<name>.test.index) into the
plain-text dataset layout this package ingests, including standard_split.txt.

Expected inputs, as distributed with the original planetoid benchmarks:
  ind.<name>.allx / ind.<name>.tx   sparse feature blocks (pickled scipy csr)
  ind.<name>.ally / ind.<name>.ty   one-hot label blocks (pickled numpy)
  ind.<name>.y                      one-hot labels of the 20-per-class train block
  ind.<name>.graph                  adjacency dict {node: [neighbors]}
  ind.<name>.test.index             test node ids, one per line

The tx/ty rows are re-ordered into the positions named by test.index; index
gaps (present in citeseer) become zero rows with label 0, matching the usual
reconstruction. The standard split is train = the first len(y) nodes,
val = the next 500, test = the test.index nodes.

This is a data-prep utility, not part of the package API;
tests/test_convert_planetoid.py runs it on a tiny file family.
"""

from __future__ import annotations

import argparse
import pickle
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp


def _load_pickle(path: Path):
    with path.open("rb") as fh:
        return pickle.load(fh, encoding="latin1")


def convert(src: Path, name: str, out: Path, val_size: int = 500) -> None:
    parts = {}
    for suffix in ("x", "y", "tx", "ty", "allx", "ally", "graph"):
        parts[suffix] = _load_pickle(src / f"ind.{name}.{suffix}")
    test_index = np.array(
        [int(line) for line in (src / f"ind.{name}.test.index").read_text().split()],
        dtype=np.int64,
    )

    allx = sp.csr_matrix(parts["allx"])
    tx = sp.csr_matrix(parts["tx"])
    ally = np.asarray(parts["ally"])
    ty = np.asarray(parts["ty"])

    # Re-seat the test block at its named positions, padding index gaps.
    span = np.arange(test_index.min(), test_index.max() + 1)
    tx_full = sp.lil_matrix((span.size, tx.shape[1]), dtype=np.float64)
    ty_full = np.zeros((span.size, ty.shape[1]), dtype=np.float64)
    ty_full[:, 0] = 1.0  # gap rows get class 0; they are outside every split
    pos = test_index - test_index.min()
    tx_full[pos] = tx
    ty_full[pos] = ty

    features = sp.vstack([allx, tx_full.tocsr()]).tocsr()
    labels = np.argmax(np.vstack([ally, ty_full]), axis=1)
    n = features.shape[0]
    if test_index.max() + 1 != n:
        raise SystemExit(
            f"test.index spans to {test_index.max()} but features have {n} rows"
        )

    edges = set()
    for u, neighbors in parts["graph"].items():
        for v in neighbors:
            if u == v:
                continue
            edges.add((min(int(u), int(v)), max(int(u), int(v))))

    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.txt").write_text(
        f"nodes {n}\nfeatures {features.shape[1]}\nclasses {labels.max() + 1}\n"
    )
    (out / "graph.txt").write_text("".join(f"{u} {v}\n" for u, v in sorted(edges)))
    coo = features.tocoo()
    (out / "features.txt").write_text(
        "".join(f"{r} {c} {v:.6g}\n" for r, c, v in zip(coo.row, coo.col, coo.data))
    )
    (out / "labels.txt").write_text(
        "".join(f"{i} {int(c)}\n" for i, c in enumerate(labels))
    )

    train = list(range(parts["y"].shape[0]))
    val = list(range(len(train), len(train) + val_size))
    test = sorted(int(i) for i in test_index)
    lines = ["train:"] + [str(i) for i in train]
    lines += ["val:"] + [str(i) for i in val]
    lines += ["test:"] + [str(i) for i in test]
    (out / "standard_split.txt").write_text("\n".join(lines) + "\n")

    print(
        f"wrote {out}: {n} nodes, {len(edges)} edges, "
        f"{features.shape[1]} features, {labels.max() + 1} classes"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True, help="directory holding the ind.* files")
    parser.add_argument("--name", required=True, help="dataset name, e.g. cora")
    parser.add_argument("--out", required=True, help="dataset directory to create")
    parser.add_argument("--val-size", type=int, default=500)
    args = parser.parse_args(argv)
    convert(Path(args.src), args.name, Path(args.out), args.val_size)
    return 0


if __name__ == "__main__":
    sys.exit(main())
