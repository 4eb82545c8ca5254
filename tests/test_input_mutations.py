"""Seeded mutations of the input files, driven through the CLI.

Each text case copies a scripts/make_synthetic.py dataset (or one of its
split files), changes one line, token or byte of one file, and runs `splits`
or a one-epoch `train` on it. Every case must return 0 or 2 without raising;
a nonzero exit ends stderr with an `error: ` line that names the mutated
file, and writes no result.json.

Each manifest case changes one count by 1, to 0 or past its cap, drops,
repeats or adds a key, or makes a value a non-integer, and runs both
`splits` and a one-epoch `train`. A malformed line, a missing key, a zero
count or one past its cap fails naming manifest.txt. A count the other files
disagree with fails naming that file: labels.txt for nodes +1, nodes -1 and
far past the label count, and for classes +1 (a class that labels no node)
and classes -1; features.txt for features -1. features +1 loads, as an
all-zero feature column.

Each JSON case mutates a network spec file (run by `train --method <file>`)
or one result.json of a two-method results tree (run by `compare`): it is
truncated, has a field set to a value of another JSON type or dropped, gets
an inserted byte that is not UTF-8, or has a field nested 100k deep. A spec
failure exits 1 and a result failure exits 2, each naming the mutated file.

Each output case points the `--out` of train, sweep, splits, compare or
propmodel-sweep at a path that cannot be written: an existing directory, or
a path beneath a regular file. Every case exits 2 with an `error: ` line
naming the path, and leaves no result.json or temporary file behind.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from graphcompose.cli import main
from graphcompose.networks import preset, spec_to_dict

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


# Manifest cases: (id, key, new value or None to drop, file named or None).
# nodes has no cap of its own; 10**20 stands far past the label count.
CAPS = {"nodes": 10**20, "features": 2**20 + 1, "classes": 4097}
MANIFEST_CASES = (
    ("nodes+1", "nodes", 1561, "labels.txt"),
    ("nodes-1", "nodes", 1559, "labels.txt"),
    ("features+1", "features", 13, None),
    ("features-1", "features", 11, "features.txt"),
    ("classes+1", "classes", 3, "labels.txt"),
    ("classes-1", "classes", 1, "labels.txt"),
    *((f"{key}-zero", key, 0, "manifest.txt") for key in CAPS),
    ("nodes-over-cap", "nodes", CAPS["nodes"], "labels.txt"),
    *((f"{key}-over-cap", key, CAPS[key], "manifest.txt") for key in ("features", "classes")),
    *((f"{key}-dropped", key, None, "manifest.txt") for key in CAPS),
    *((f"{key}-repeated", key, "repeat", "manifest.txt") for key in CAPS),
    *((f"{key}-non-integer", key, "2.0", "manifest.txt") for key in CAPS),
    ("unknown-key", "edges", 7, "manifest.txt"),
)


def mutate_manifest(text: str, key: str, value) -> str:
    """text with key's line dropped (value None), repeated, or set to value;
    a key text does not hold is appended."""
    lines = text.splitlines(keepends=True)
    given = [i for i, line in enumerate(lines) if line.split()[0] == key]
    if value is None:
        del lines[given[0]]
    elif value == "repeat":
        lines.append(lines[given[0]])
    elif given:
        lines[given[0]] = f"{key} {value}\n"
    else:
        lines.append(f"{key} {value}\n")
    return "".join(lines)


@pytest.mark.parametrize("command", ["splits", "train"])
@pytest.mark.parametrize("key, value, named", [pytest.param(*case[1:], id=case[0])
                                                for case in MANIFEST_CASES])
def test_mutated_manifest_fails_cleanly(pristine, tmp_path, capsys, command, key, value, named):
    data = tmp_path / "data"
    shutil.copytree(pristine, data, ignore=shutil.ignore_patterns("splits"))
    manifest = data / "manifest.txt"
    assert manifest.read_text() == "nodes 1560\nfeatures 12\nclasses 2\n"
    manifest.write_text(mutate_manifest(manifest.read_text(), key, value))

    out = tmp_path / "out"
    argv = {
        "splits": ["splits", "--dataset-dir", str(data), "--seed", "0"],
        "train": ["train", "--method", "gcn", "--dataset-dir", str(data), "--standard-split",
                  "--epochs", "1"],
    }[command]
    code = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == (2 if named else 0), err
    if named:
        last = err.strip().splitlines()[-1]
        assert last.startswith("error: ") and str(data / named) in last, last
        assert not list(out.rglob("result.json"))


JSON_MUTATIONS = ("truncate", "retype-field", "drop-field", "non-utf8-byte", "deep-nesting")
# One value of each JSON type; a retyped field takes one of another type.
JSON_VALUES = (None, True, 7, 0.5, "x", [], {})
NESTING = 100_000
JSON_DRAWS = 4


def json_fields(doc, path=()):
    """The path of every object field in doc, depth first."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield (*path, key)
            yield from json_fields(value, (*path, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from json_fields(value, (*path, i))


def mutate_json(data: bytes, mutation: str, rng: np.random.Generator) -> bytes:
    """data truncated, with one byte inserted, or with one field (drawn from
    rng) dropped, retyped or nested NESTING deep."""
    if mutation == "truncate":
        return data[: int(rng.integers(len(data)))]
    if mutation == "non-utf8-byte":
        at = int(rng.integers(len(data) + 1))
        return data[:at] + b"\xff" + data[at:]
    doc = json.loads(data)
    paths = list(json_fields(doc))
    *parents, key = paths[int(rng.integers(len(paths)))]
    owner = doc
    for step in parents:
        owner = owner[step]
    if mutation == "drop-field":
        del owner[key]
        return json.dumps(doc).encode()
    if mutation == "retype-field":
        others = [v for v in JSON_VALUES if type(v) is not type(owner[key])]
        owner[key] = others[int(rng.integers(len(others)))]
        return json.dumps(doc).encode()
    owner[key] = "@nested@"
    return json.dumps(doc).replace('"@nested@"', "[" * NESTING + "]" * NESTING).encode()


def json_cases():
    rng = np.random.default_rng(SEED + 1)
    for name in ("spec", "result"):
        for mutation in JSON_MUTATIONS:
            for draw in range(JSON_DRAWS):
                seed = int(rng.integers(2**32))
                yield pytest.param(name, mutation, seed, id=f"{name}-{mutation}-{draw}")


@pytest.fixture(scope="module")
def results_tree(pristine, tmp_path_factory):
    """Two one-epoch runs, of gcn and sgcn, on the standard split."""
    root = tmp_path_factory.mktemp("results")
    for method in ("gcn", "sgcn"):
        assert main(["train", "--method", method, "--dataset-dir", str(pristine),
                     "--standard-split", "--epochs", "1", "--out", str(root)]) == 0
    return root


@pytest.mark.parametrize("name, mutation, seed", list(json_cases()))
def test_mutated_json_fails_cleanly(pristine, results_tree, tmp_path, capsys, name, mutation, seed):
    rng = np.random.default_rng(seed)
    out = tmp_path / "out"
    if name == "spec":
        target = tmp_path / "spec.json"
        data = json.dumps(spec_to_dict(preset("gcn-lp"))).encode()
        argv = ["train", "--method", str(target), "--dataset-dir", str(pristine),
                "--standard-split", "--epochs", "1", "--out", str(out)]
        expected = 1
    else:
        tree = tmp_path / "results"
        shutil.copytree(results_tree, tree)
        target = sorted(tree.rglob("result.json"))[int(rng.integers(2))]
        data = target.read_bytes()
        argv = ["compare", "--results-dir", str(tree)]
        expected = 2
    target.write_bytes(mutate_json(data, mutation, rng))

    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, expected), err
    if code:
        last = err.strip().splitlines()[-1]
        assert last.startswith("error: ") and str(target) in last, last
        assert not list(out.rglob("result.json"))
    if name == "spec" and mutation == "drop-field":
        stages = json.loads(target.read_bytes()).get("stages", [])
        if any("kind" not in stage for stage in stages):
            assert code == 1 and "is missing its 'kind' field" in last, err


OUT_COMMANDS = ("train", "sweep", "splits", "compare", "propmodel-sweep")


@pytest.mark.parametrize("place", ["existing-directory", "beneath-a-file"])
@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_unwritable_output_fails_cleanly(pristine, results_tree, tmp_path, capsys, command, place):
    root = tmp_path / "out"
    root.mkdir()
    data = ["--dataset-dir", str(pristine)]
    run = [*data, "--standard-split", "--epochs", "1"]
    argv, first_file = {
        "train": (["train", "--method", "gcn", *run], "{}_gcn_s0_p0/result.json"),
        "sweep": (["sweep", "--method", "sgcn", "--budget", "2", *run],
                  "{}_sgcn_s0_p0_sweep0/result.json"),
        "splits": (["splits", *data], "1/0/split.txt"),
        "compare": (["compare", "--results-dir", str(results_tree)], None),
        "propmodel-sweep": (["propmodel-sweep", "--method", "sgcn", "--model", "mix",
                             "--grid", "1,1", *run], None),
    }[command]
    if place == "beneath-a-file":
        (root / "file").write_text("not a directory\n")
        out = target = root / "file" / "below"
    else:
        # train, sweep and splits take --out as a directory and write files
        # beneath it; for them the directory stands where their first file goes.
        out = root / "dest"
        target = out / first_file.format(pristine.name) if first_file else out
        target.mkdir(parents=True)

    code = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    last = err.strip().splitlines()[-1]
    assert last.startswith("error: ") and str(target) in last, last
    assert not [p for p in root.rglob("result.json") if not p.is_dir()]
    assert not list(root.rglob("*.tmp"))
