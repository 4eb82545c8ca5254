"""Pinned trajectories: a fixed CLI matrix on scripts/make_synthetic.py
datasets, checked by the sha256 of every artifact against
tests/trajectories.json.

A change to any seeded draw, reduction order or output format shows up here
as the runs whose artifacts changed. The digests hold for one environment
(numpy, scipy, BLAS build and machine); under another the test skips and
names both. numpy's own SIMD dispatch is left out: the digests were checked
to hold with its AVX-512 paths disabled. The runs in CORE_RUNS also depend on
the CPU core OpenBLAS selected its kernels for, so they are pinned per core
name; under a core with no pins every other run is still checked, and the
test then skips naming those runs. After an intended change, re-pin with

    python3 -m pytest tests/test_trajectories.py --rewrite-trajectories

once per pinned core, each in its own process with OPENBLAS_CORETYPE set
(SkylakeX, Haswell, SandyBridge); a rewrite keeps the other cores' pins. List
the changed runs, and why they changed, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from graphcompose.cli import main
from graphcompose.networks import PRESET_NAMES
from graphcompose.training import _openblas

from .conftest import make_synthetic

PINNED = Path(__file__).with_name("trajectories.json")

# About 400 nodes with a small standard split, and 1600 nodes with 2%-dense
# features: big enough for the 5x10 split protocol, sparse enough that gcn
# folds its input to CSR (sgcn's two smoothings fill it in to dense).
SMALL = ["--nodes", "400", "--classes", "4", "--features", "48", "--seed", "3",
         "--standard-split", "--val", "100", "--test", "200"]
SPARSE = ["--nodes", "1600", "--classes", "3", "--features", "300", "--density", "0.02",
          "--seed", "4"]
EPOCHS = ["--epochs", "12", "--patience", "12"]
# Every run pinned before float32 became the default names float64, so its
# digests still hold.
F64 = ["--precision", "float64"]

# The runs whose bytes change with the OpenBLAS core: float32 runs whose
# dense matrix products go through BLAS, and the toy gradient check's printed
# errors. sparse/gcn-float32, default/linear-lp and default/sweep/gcn-lp were
# checked to give the same bytes under SkylakeX, Haswell and SandyBridge.
CORE_RUNS = ("fp-mlp-float32", "gradcheck/toy", "default/fp-mlp", "default/gcn",
             "default/gcn-lp", "default/lpnn", "default/mlp-lp", "default/sgcn",
             "default/sgcn-lp")


def blas_core() -> str:
    """The CPU core OpenBLAS picked its kernels for (it follows
    OPENBLAS_CORETYPE), read from the library numpy bundles, the one whose
    thread count the package sets; "?" when it reports none."""
    corename = getattr(_openblas(), "scipy_openblas_get_corename64_", None)
    if corename is None:
        return "?"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def environment() -> dict:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its configuration
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "machine": platform.machine(),
    }


def matrix(small: Path, sparse: Path, out: Path) -> dict[str, list[str]]:
    """Run name -> argv. Each run writes only under out/<name>."""
    std = ["--dataset-dir", str(small), "--standard-split", *EPOCHS]
    split = ["--dataset-dir", str(sparse), "--size", "1", "--split", "0",
             "--splits-dir", str(out / "splits"), *EPOCHS]

    def train(name, method, data, *extra):
        return name, ["train", "--method", method, *data, *extra, "--out", str(out / name)]

    def sweep(name, method, budget, *extra):
        return name, ["sweep", "--method", method, *std, "--budget", str(budget),
                      "--seed", "5", *extra, "--out", str(out / name)]

    def propmodel(name, model, grid):
        return name, ["propmodel-sweep", "--method", "sgcn", *std, "--model", model,
                      "--grid", grid, *F64, "--out", str(out / name / "table.txt")]

    return dict([
        ("splits", ["splits", "--dataset-dir", str(sparse), "--seed", "0",
                    "--out", str(out / "splits")]),
        *(train(f"presets/{name}", name, std, *F64) for name in PRESET_NAMES + ("lpnn",)),
        train("sgcn-row", "sgcn", std, "--operator", "row", *F64),
        train("gcn-lp-mix", "gcn-lp", std, "--operator", "mix", "--alpha", "0.3", "--beta", "0.7",
              *F64),
        train("gcn-lp-general", "gcn-lp", std, "--l", "3", "--ll", "1",
              "--operator", "general", "--alpha", "0.5", "--beta", "0.5", *F64),
        train("fp-mlp-float32", "fp-mlp", std, "--precision", "float32"),
        train("lpnn-weights", "lpnn", std, "--mu-g", "0.5", "--mu-l", "2", "--mu-u", "0.25",
              "--lambda-l", "0.75", "--lambda-u", "1.5", *F64),
        train("sparse/gcn", "gcn", split, *F64),
        train("sparse/sgcn", "sgcn", split, *F64),
        train("sparse/gcn-float32", "gcn", split, "--precision", "float32"),
        sweep("sweep/gcn-lp", "gcn-lp", 3, "--jobs", "2", *F64),
        sweep("sweep/lpnn", "lpnn", 2, "--jobs", "2", *F64),
        sweep("sweep/paper-space", "gcn", 3, "--paper-space", *F64),
        sweep("sweep/sgcn-lp-general", "sgcn-lp", 2, "--operator", "general",
              "--alpha", "0.5", "--beta", "0.5", *F64),
        propmodel("propmodel/mix", "mix", "0.5,0.5;1,1"),
        propmodel("propmodel/exponents", "exponents", "0.5,0.5;1,0"),
        ("compare", ["compare", "--results-dir", str(out / "presets"),
                     "--out", str(out / "compare" / "report.txt")]),
        ("gradcheck/toy", ["gradcheck", "--method", "gcn-lp", "--nodes", "16", "--seed", "2"]),
        ("gradcheck/dataset", ["gradcheck", "--method", "gcn", "--dataset-dir", str(small)]),
        ("cost/dataset", ["cost", "--method", "gcn-lp", "--dataset-dir", str(small)]),
        # The same presets and a pool sweep at the default precision (float32).
        *(train(f"default/{name}", name, std) for name in PRESET_NAMES + ("lpnn",)),
        sweep("default/sweep/gcn-lp", "gcn-lp", 3, "--jobs", "2"),
    ])


def digests(small: Path, sparse: Path, out: Path) -> dict[str, dict[str, str]]:
    """Run every command of the matrix; per run, the sha256 of each file it
    wrote and of its stdout (with the output root masked)."""
    runs = {}
    for name, argv in matrix(small, sparse, out).items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        assert code == 0, f"{name} exited {code}"
        run_dir = out / name
        files = {
            path.relative_to(run_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(run_dir.rglob("*"))
            if path.is_file()
        }
        printed = stdout.getvalue().replace(str(out), "<out>").encode()
        runs[name] = {"<stdout>": hashlib.sha256(printed).hexdigest(), **files}
    return runs


def test_cli_matrix_matches_pinned_digests(request, tmp_path):
    make_synthetic(["--out", str(tmp_path / "traj"), *SMALL])
    make_synthetic(["--out", str(tmp_path / "trajsparse"), *SPARSE])
    runs = digests(tmp_path / "traj", tmp_path / "trajsparse", tmp_path / "out")
    core = blas_core()
    shared = {name: files for name, files in runs.items() if name not in CORE_RUNS}
    pinned = json.loads(PINNED.read_text(encoding="utf-8")) if PINNED.exists() else {}
    if request.config.getoption("rewrite_trajectories"):
        same_env = pinned.get("environment") == environment()
        cores = pinned.get("cores", {}) if same_env else {}
        cores[core] = {name: runs[name] for name in CORE_RUNS}
        pinned = {"environment": environment(), "runs": shared, "cores": cores}
        PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return
    if pinned["environment"] != environment():
        pytest.skip(
            f"digests pinned under {pinned['environment']}; this environment is {environment()}"
        )
    core_pins = pinned["cores"].get(core)
    expected = {**pinned["runs"], **(core_pins or {})}
    checked = runs if core_pins is not None else shared
    changed = []
    for name in sorted(expected.keys() | checked.keys()):
        old, new = expected.get(name, {}), checked.get(name, {})
        files = sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))
        if files:
            changed.append(f"{name} ({', '.join(files)})")
    assert not changed, "runs whose artifacts changed: " + "; ".join(changed)
    if core_pins is None:
        pytest.skip(
            f"no digests pinned for OpenBLAS core {core!r} (pinned: "
            f"{', '.join(sorted(pinned['cores']))}); unchecked: {', '.join(CORE_RUNS)}"
        )
