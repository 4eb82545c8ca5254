"""Seeded mutations of the text input files, driven through the CLI.

Each case copies a scripts/make_synthetic.py dataset (or one of its split
files), changes one line, token or byte of one file, and runs `splits` or a
one-epoch `train` on it. Every case must return 0 or 2 without raising; a
nonzero exit ends stderr with an `error: ` line that names the mutated file,
and writes no result.json. The manifest is left out: its counts are what the
other files are checked against, so a changed count is reported at the file
that disagrees with it.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest

from graphcompose.cli import main

from .conftest import make_synthetic

# Enough nodes for the split protocol (20 per class + 500 val + 1000 test),
# few features, and a small standard split.
DATASET = ["--nodes", "1560", "--classes", "2", "--features", "12", "--density", "0.25",
           "--seed", "11", "--standard-split", "--val", "60", "--test", "100"]
SPLIT = Path("splits") / "1" / "0" / "split.txt"
FILES = ("graph.txt", "features.txt", "labels.txt", "standard_split.txt", str(SPLIT))
TOKENS = {
    "non-integer": b"1.5",
    "negative": b"-3",
    "too-large": b"9223372036854775808",
    "nan": b"nan",
    "inf": b"inf",
    "empty": b"",
}
MUTATIONS = ("drop-line", "repeat-line", "swap-lines", *TOKENS, "non-utf8-byte", "vertical-tab")
DRAWS = 2
SEED = 20260


def mutate(data: bytes, mutation: str, rng: np.random.Generator) -> bytes:
    """data with one line dropped, repeated or swapped, one token replaced,
    or one byte inserted, at positions drawn from rng."""
    lines = data.split(b"\n")[:-1]  # every file ends in a newline
    i, j = (int(k) for k in rng.integers(len(lines), size=2))
    if mutation == "drop-line":
        del lines[i]
    elif mutation == "repeat-line":
        lines.insert(i, lines[i])
    elif mutation == "swap-lines":
        lines[i], lines[j] = lines[j], lines[i]
    elif mutation in TOKENS:
        tokens = lines[i].split(b" ")
        tokens[int(rng.integers(len(tokens)))] = TOKENS[mutation]
        lines[i] = b" ".join(tokens)
    else:
        at = int(rng.integers(len(data) + 1))
        byte = b"\xff" if mutation == "non-utf8-byte" else b"\v"
        return data[:at] + byte + data[at:]
    return b"".join(line + b"\n" for line in lines)


def cases():
    rng = np.random.default_rng(SEED)
    for name in FILES:
        for mutation in MUTATIONS:
            for draw in range(DRAWS):
                seed = int(rng.integers(2**32))
                yield pytest.param(name, mutation, draw, seed, id=f"{name}-{mutation}-{draw}")


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """The dataset directory, with its generated splits under splits/."""
    root = tmp_path_factory.mktemp("mutations") / "data"
    make_synthetic(["--out", str(root), *DATASET])
    assert main(["splits", "--dataset-dir", str(root), "--seed", "0"]) == 0
    return root


@pytest.mark.parametrize("name, mutation, draw, seed", list(cases()))
def test_mutated_input_fails_cleanly(pristine, tmp_path, capsys, name, mutation, draw, seed):
    data = tmp_path / "data"
    shutil.copytree(pristine, data, ignore=shutil.ignore_patterns("splits"))
    (data / SPLIT).parent.mkdir(parents=True)
    shutil.copyfile(pristine / SPLIT, data / SPLIT)
    target = data / name
    target.write_bytes(mutate(target.read_bytes(), mutation, np.random.default_rng(seed)))

    out = tmp_path / "out"
    if name == str(SPLIT):
        split = ["--size", "1", "--split", "0", "--splits-dir", str(data / "splits")]
    else:
        split = ["--standard-split"]
    if name in ("graph.txt", "features.txt", "labels.txt") and draw == 1:
        argv = ["splits", "--dataset-dir", str(data), "--seed", "0", "--out", str(out)]
    else:
        argv = ["train", "--method", "gcn", "--dataset-dir", str(data), *split,
                "--epochs", "1", "--out", str(out)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2), err
    if code:
        last = err.strip().splitlines()[-1]
        assert last.startswith("error: ") and str(target) in last, last
        assert not list(out.rglob("result.json"))
