#!/usr/bin/env python3
"""Benchmark for graphcompose on synthetic citation-shaped data.

Run from the repository root:

    python3 perfbench/run.py --workload cora-gcn --seed 1 --seconds 12 --trace 0

Workloads (BENCHMARK.json records why each is there):

- cora-gcn      `gcn` preset on Cora-shaped data (2708 x 1433, 1.3% dense)
- pubmed-gcnlp  `gcn-lp --l 3 --ll 1` on Pubmed-shaped data (19717 x 500)
- cora-sweep    `graphcompose sweep --method gcn-lp --jobs 2` run in-process
- cora-lpnn     the joint label-field baseline with default loss weights

Each run generates its dataset with scripts/make_synthetic.py from --seed, in
a child process and outside every timed metric, into a scratch directory
inside the checkout that is removed at the end. The package receives only the
generated files and is driven through its public functions and its in-process
CLI (`graphcompose.cli.main`).

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
installs the span wrappers of perfbench/tracing.py on alternate operations and
reports the per-layer metrics. Lines before the last one carry a JSON record
(generator arguments, sha256 of every generated file and output artifact,
environment, per-operation timings). The last line is the result object.

End-to-end metrics, every one on every workload:

- setup_s: one set-up, repeated; training workloads load the dataset, build
  the symmetric and row operators, load the standard split and compile the
  network; cora-sweep runs the `splits` command.
- epochs_per_s: epochs trained per second of one fixed-budget operation with
  early stopping off: a `train`/`train_lpnn` call, or a whole `sweep` command
  (budget + 1 runs, including load, winner retrain and artifact writes).
- sweep_trials_per_min: fixed-budget training runs per minute of that same
  operation; on cora-sweep the sweep budget over the sweep's wall time.
- best_val_acc: median best validation accuracy over TRAIN_SEEDS, or the
  sweep's; deterministic for a given commit and seed.
- peak_rss_mb: peak resident memory of this process (generation runs in a
  child, so it is not counted).
- ok_share: operations (train calls, CLI commands) that neither raised nor
  failed an output check, over operations attempted. It is one minus the
  failed share, so that it never reads zero.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GENERATOR = ROOT / "scripts" / "make_synthetic.py"
WORK = ROOT / ".perfbench_work"
BENCHMARK = ROOT / "BENCHMARK.json"

DATASETS = {
    "cora": (
        "--nodes", "2708", "--classes", "7", "--features", "1433",
        "--edges-per-node", "4", "--density", "0.013", "--standard-split",
    ),
    "pubmed": (
        "--nodes", "19717", "--classes", "3", "--features", "500",
        "--edges-per-node", "4", "--density", "0.10", "--standard-split",
    ),
}

# Training seeds cycled through the timed calls. best_val_acc is the median of
# their best validation accuracies, which evens out the training-seed part of
# the seed-to-seed spread; a repeated seed must reproduce its history exactly.
TRAIN_SEEDS = (0, 1, 2)

SWEEP_BUDGET = 4
SWEEP_JOBS = 2
# Sweep seed 0 samples hidden widths 8, 8, 16 and 128 for the four trials.
SWEEP_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    kind: str  # "train", "lpnn" or "sweep"
    epochs: int  # fixed budget per training run; patience equals it
    setup_repeats: int
    val_floor: float
    preset: str | None = None
    depth: int | None = None
    lp_layers: int | None = None


# Epoch budgets keep one timed call at about 1 to 4 s, so a run holds several,
# and long enough that validation accuracy has mostly settled.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cora-gcn", "cora", "train", 40, 15, 0.7, preset="gcn"),
        Workload("pubmed-gcnlp", "pubmed", "train", 10, 4, 0.7,
                 preset="gcn-lp", depth=3, lp_layers=1),
        Workload("cora-sweep", "cora", "sweep", 20, 15, 0.4),
        Workload("cora-lpnn", "cora", "lpnn", 25, 15, 0.2),
    )
}

COST_TERMS = ("feature_prop", "hidden", "classifier", "label_prop")
LAYER_KEYS = (
    "networks.forward_train_ms",
    "networks.backward_ms",
    "networks.forward_infer_ms",
    "networks.executor_self_ms",
    *(f"networks.{k}.{m}" for k in tracing.ENTRY_KINDS
      for m in ("fwd_ms", "vjp_ms", "calls", "elements")),
    "training.loss_ms",
    "training.adam_ms",
    "training.validation_ms",
    "evaluation.accuracy_ms",
    "lpnn.loss_ms",
    "lpnn.g_forward_ms",
    "lpnn.g_backward_ms",
    "lpnn.adam_ms",
    *(f"cost.{t}.ms" for t in COST_TERMS + ("unmodelled",)),
)


class BenchError(Exception):
    """An operation's output failed a check."""


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Path) -> str:
    return sha256_bytes(path.read_bytes())


def median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# Run bookkeeping


class Run:
    """Operation counts, per-operation timings and the record of one run."""

    def __init__(self, workload: Workload, seed: int, seconds: float, tracer) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.record: dict = {"workload": workload.name, "seed": seed}

    def attempt(self, fn, *args):
        """Run one operation; an exception or failed check counts as failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # boundary: keep measuring, report the failure
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    @contextlib.contextmanager
    def operation(self, name: str, traced: bool):
        """One benchmark operation; when traced, the wrappers are installed
        for exactly its duration."""
        if not traced:
            yield
            return
        self.tracer.install()
        try:
            with self.tracer.operation(name):
                yield
        finally:
            self.tracer.restore()


def timed_loop(run: Run, one_call, min_calls: int) -> list[dict]:
    """Call one_call(index, traced) until the run's seconds are spent.

    Call 0 warms caches and lazy set-up; it is checked like the others but
    its time is not used. At least min_calls timed calls follow it. In a
    traced run every second timed call is traced.
    """
    calls: list[dict] = []

    def call(traced: bool) -> None:
        index = len(calls)
        result = run.attempt(one_call, index, traced)
        calls.append({"index": index, "traced": traced, **(result or {"ok": False})})

    call(traced=False)
    deadline = time.perf_counter() + run.seconds
    while len(calls) <= min_calls or time.perf_counter() < deadline:
        call(traced=run.tracer is not None and len(calls) % 2 == 0)
    return calls


def split_walls(calls: list[dict]) -> tuple[list[float], list[float]]:
    """Wall times of the successful untraced and traced calls."""
    timed = [c for c in calls[1:] if c["ok"]]
    plain = [c["wall_s"] for c in timed if not c["traced"]]
    traced = [c["wall_s"] for c in timed if c["traced"]]
    if not plain:
        raise BenchError("no untraced operation succeeded; nothing to report")
    return plain, traced


# ---------------------------------------------------------------------------
# Inputs


def generate(run: Run, work: Path) -> Path:
    """Write the workload's dataset with the unchanged generator script."""
    out = work / run.workload.dataset
    args = [*DATASETS[run.workload.dataset], "--seed", str(run.seed)]
    subprocess.run(
        [sys.executable, str(GENERATOR), "--out", str(out), *args],
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=120,
    )
    run.record["generator"] = {
        "script": "scripts/make_synthetic.py",
        "args": args,
        "sha256": {p.name: sha256_file(p) for p in sorted(out.iterdir())},
    }
    return out


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        deps = {}
    blas = {"name": deps.get("name"), "version": deps.get("version")}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


# ---------------------------------------------------------------------------
# Training workloads (cora-gcn, pubmed-gcnlp, cora-lpnn)


def setup_training(run: Run, data: Path):
    import graphcompose as gc
    from graphcompose.lpnn import build_g_network

    wl = run.workload
    with run.span("data.load_dataset"):
        ds = gc.load_dataset(data)
    ops = {}
    for kind in ("symmetric", "row"):
        with run.span("graph.build_operator"):
            ops[kind] = gc.build_operator(ds.topology, kind)
    split = gc.load_standard_split(ds)
    with run.span("networks.compile"):
        if wl.kind == "lpnn":
            net = build_g_network(ds.num_features, ds.num_classes, dropout=0.5)
        else:
            spec = gc.preset(wl.preset, depth=wl.depth, lp_layers=wl.lp_layers)
            net = gc.compile_network(
                spec, ops, ds.num_features, ds.num_classes,
                features=ds.features, dropout=0.5, num_edges=ds.num_edges,
            )
    return ds, split, net


def run_training(run: Run, data: Path) -> dict:
    import graphcompose as gc
    import numpy as np

    wl = run.workload
    setup_times = []
    state = None
    for _ in range(wl.setup_repeats):
        state = None  # release the previous copy before loading the next
        with run.operation("bench.setup", traced=run.tracer is not None):
            t0 = time.perf_counter()
            state = setup_training(run, data)
            setup_times.append(time.perf_counter() - t0)
    ds, split, net = state

    weights = gc.LpnnWeights(1.0, 1.0, 1.0, 1.0, 1.0)

    def fit(config):
        if wl.kind == "lpnn":
            return gc.train_lpnn(ds, split, config, weights)[1]
        return gc.train(net, ds, split, config)[1]

    base = gc.TrainConfig(max_epochs=wl.epochs, patience=wl.epochs)

    first_history: dict[int, str] = {}
    best_val: dict[int, float] = {}

    def one_call(index: int, traced: bool) -> dict:
        seed = TRAIN_SEEDS[index % len(TRAIN_SEEDS)]
        config = replace(base, seed=seed)
        with run.operation("bench.train", traced):
            t0 = time.perf_counter()
            history = fit(config)
            wall = time.perf_counter() - t0
        text = history.to_text()
        digest = sha256_bytes(text.encode("utf-8"))
        if not np.all(np.isfinite(history.train_loss)):
            raise BenchError("non-finite training loss")
        if len(history.train_loss) != wl.epochs or history.stopped_epoch != wl.epochs:
            raise BenchError(f"history has {len(history.train_loss)} epochs, budget {wl.epochs}")
        if history.best_val_accuracy < wl.val_floor:
            raise BenchError(f"best val {history.best_val_accuracy} below floor {wl.val_floor}")
        if first_history.setdefault(seed, digest) != digest:
            raise BenchError(f"training seed {seed} did not reproduce its history")
        best_val[seed] = history.best_val_accuracy
        return {"ok": True, "seed": seed, "wall_s": wall, "history_sha256": digest}

    calls = timed_loop(run, one_call, min_calls=len(TRAIN_SEEDS) + (1 if run.tracer else 0))
    run.record["history_sha256"] = {str(k): v for k, v in sorted(first_history.items())}
    run.record["calls"] = calls
    run.record["setup_s"] = setup_times

    plain, traced = split_walls(calls)
    call_s = median(plain)
    metrics = {
        "setup_s": median(setup_times),
        "epochs_per_s": wl.epochs / call_s,
        # A trial here is one fixed-budget training run, as in a sweep.
        "sweep_trials_per_min": 60.0 / call_s,
        "best_val_acc": median(best_val.values()),
    }
    extra = {
        "num_classes": ds.num_classes,
        # The lpnn g network is compiled without a graph, so it has no cost.
        "cost_ops": {t: getattr(net.cost, t, 0) for t in COST_TERMS},
        "traced_epochs_per_s": wl.epochs / median(traced) if traced else 0.0,
        "untraced_epochs_per_s": wl.epochs / call_s,
    }
    return metrics, extra


# ---------------------------------------------------------------------------
# Sweep workload (cora-sweep)


def cli_main(argv: list[str]) -> None:
    """Run one CLI command in-process; a nonzero exit code is a failure."""
    from graphcompose.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        raise BenchError(f"graphcompose {argv[0]} exited {code}: {err.getvalue().strip()}")


def _table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a tab-separated artifact, skipping # comments."""
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
    return lines[0].split("\t"), [line.split("\t") for line in lines[1:]]


def check_sweep_artifacts(run_dir: Path, epochs: int) -> tuple[float, int, dict]:
    """Check a sweep's outputs; returns (best val, failed trials, sha256 per file)."""
    from graphcompose import RunResult

    header, rows = _table(run_dir / "trials.txt")
    if any("test" in column for column in header):
        raise BenchError(f"trials.txt has a test column: {header}")
    if len(rows) != SWEEP_BUDGET:
        raise BenchError(f"trials.txt has {len(rows)} rows, budget {SWEEP_BUDGET}")
    status = header.index("status")
    failed = sum(1 for row in rows if row[status] != "ok")
    result = RunResult.from_dict(json.loads((run_dir / "result.json").read_text(encoding="utf-8")))
    header, rows = _table(run_dir / "history.txt")
    if len(rows) != epochs:
        raise BenchError(f"history.txt has {len(rows)} epochs, budget {epochs}")
    loss = header.index("train_loss")
    if not all(math.isfinite(float(row[loss])) for row in rows):
        raise BenchError("non-finite loss in history.txt")
    digests = {
        name: sha256_file(run_dir / name) for name in ("trials.txt", "history.txt", "result.json")
    }
    return result.best_val_accuracy, failed, digests


def manifest_classes(data: Path) -> int:
    for line in (data / "manifest.txt").read_text(encoding="utf-8").splitlines():
        key, value = line.split()
        if key == "classes":
            return int(value)
    raise BenchError("manifest.txt names no class count")


def run_sweep(run: Run, data: Path, work: Path) -> dict:
    wl = run.workload
    splits = work / "splits"
    setup_times = []

    def splits_command(index: int, traced: bool) -> None:
        with run.operation("bench.setup", traced):
            t0 = time.perf_counter()
            cli_main(["splits", "--dataset-dir", str(data), "--seed", str(run.seed),
                      "--out", str(splits)])
            setup_times.append(time.perf_counter() - t0)
        if len(list(splits.glob("*/*/split.txt"))) != 50:
            raise BenchError("splits did not write 50 split files")

    for i in range(wl.setup_repeats):
        run.attempt(splits_command, i, run.tracer is not None)
    if not setup_times:
        raise BenchError("every splits command failed")

    first: dict[str, str] = {}
    best_val: list[float] = []
    failed_trials: list[int] = []

    def one_sweep(index: int, traced: bool) -> dict:
        out = work / f"sweep{index}"
        argv = [
            "sweep", "--dataset-dir", str(data), "--method", "gcn-lp",
            "--size", "1", "--split", "0", "--splits-dir", str(splits),
            "--jobs", str(SWEEP_JOBS), "--budget", str(SWEEP_BUDGET),
            "--epochs", str(wl.epochs), "--patience", str(wl.epochs),
            "--seed", str(SWEEP_SEED), "--out", str(out),
        ]
        with run.operation("bench.sweep", traced):
            t0 = time.perf_counter()
            cli_main(argv)
            wall = time.perf_counter() - t0
        (run_dir,) = out.iterdir()
        val, failed, digests = check_sweep_artifacts(run_dir, wl.epochs)
        shutil.rmtree(out)
        failed_trials.append(failed)
        # A diverged trial is a failed operation, even when the best trial is fine.
        if failed:
            raise BenchError(f"{failed} of {SWEEP_BUDGET} sweep trials failed")
        if val < wl.val_floor:
            raise BenchError(f"best val {val} below floor {wl.val_floor}")
        for name, digest in digests.items():
            if first.setdefault(name, digest) != digest:
                raise BenchError(f"{name} differs between repeats of the same sweep")
        best_val.append(val)
        return {"ok": True, "wall_s": wall, **{f"{k}_sha256": v for k, v in digests.items()}}

    calls = timed_loop(run, one_sweep, min_calls=2)
    run.record["artifact_sha256"] = first
    run.record["calls"] = calls
    run.record["setup_s"] = setup_times

    plain, traced = split_walls(calls)
    sweep_s = median(plain)
    # The winner is retrained once, so a sweep trains budget + 1 runs.
    epochs_per_sweep = (SWEEP_BUDGET + 1) * wl.epochs
    metrics = {
        "setup_s": median(setup_times),
        "epochs_per_s": epochs_per_sweep / sweep_s,
        "sweep_trials_per_min": 60.0 * SWEEP_BUDGET / sweep_s,
        "best_val_acc": best_val[0],
    }
    extra = {
        "num_classes": manifest_classes(data),
        "cost_ops": {t: 0 for t in COST_TERMS},
        "traced_epochs_per_s": epochs_per_sweep / median(traced) if traced else 0.0,
        "untraced_epochs_per_s": epochs_per_sweep / sweep_s,
        "failed_trials": max(failed_trials, default=0),
    }
    return metrics, extra


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans


def layer_metrics(run: Run, extra: dict) -> dict[str, float]:
    tr = tracing
    spans = run.tracer.spans
    records, epoch_ms = tr.epoch_records(spans, ("bench.train", "cli.train"), extra["num_classes"])
    out = tr.epoch_medians(records, LAYER_KEYS)
    out["training.epoch_ms_p50"] = tr.median(epoch_ms)
    out["training.epoch_ms_p90"] = tr.percentile_90(epoch_ms)
    out["data.load_dataset_s"] = tr.per_call_seconds(spans, "data.load_dataset")
    out["data.splits_s"] = tr.per_parent_seconds(spans, "data.splits")
    out["graph.build_operator_s"] = tr.per_call_seconds(spans, "graph.build_operator")
    out["networks.compile_s"] = tr.per_call_seconds(spans, "networks.compile")
    out.update(tr.sweep_metrics(spans, SWEEP_BUDGET))
    out["cli.failed_trials"] = extra.get("failed_trials", 0)
    for term in COST_TERMS:
        out[f"cost.{term}.ops"] = extra["cost_ops"][term]
    out["trace.epochs_per_s"] = extra["traced_epochs_per_s"]
    out["trace.untraced_epochs_per_s"] = extra["untraced_epochs_per_s"]
    out["trace.spans"] = len(spans)
    out["trace.missing_layers"] = len(run.tracer.missing)
    run.record["trace_missing"] = run.tracer.missing
    return out


# ---------------------------------------------------------------------------
# Entry point


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    doc = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    return e2e, layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "graphcompose" / "__init__.py", GENERATOR) if not p.is_file()]
    if missing:
        print(f"perfbench: package files not found: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    e2e_units, layer_units = metric_units()
    wl = WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    run = Run(wl, args.seed, args.seconds, tracer)
    work = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        data = generate(run, work)
        run.record["environment"] = environment()
        if wl.kind == "sweep":
            values, extra = run_sweep(run, data, work)
        else:
            values, extra = run_training(run, data)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["ok_share"] = (run.attempted - run.failed) / run.attempted
    if tracer is not None:
        values = layer_metrics(run, extra)
        units = layer_units
    else:
        units = e2e_units
    run.record["errors"] = run.errors
    print(json.dumps({"record": run.record}, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
