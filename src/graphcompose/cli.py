"""Command-line surface: split generation, training runs, random-search
sweeps, comparison reports, propagation-model grids, gradient checks, and
cost estimates.

Every command is replayable: the seed plus the flags plus the input files
fully determine the outputs. Sweep selection looks at validation accuracy
only; the per-trial log carries no test numbers at all, so the absence of
leakage can be checked from the artifacts alone.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from collections import defaultdict
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .data import (
    NUM_SIZES,
    NUM_SPLITS,
    Dataset,
    _write_atomic,
    generate_splits,
    load_dataset,
    load_split,
    load_standard_split,
    save_splits,
)
from .errors import DataError, GraphComposeError, NumericError, UsageError
from .evaluation import RunResult, accuracy, aggregate, average_rank, render_report
from .graph import GraphTopology, build_operator
from .lpnn import LpnnWeights, predict_from_f, train_lpnn
from .networks import (
    DEFAULT_HIDDEN_DIM,
    MAX_SIZE,
    PRESET_NAMES,
    Lp,
    NetworkSpec,
    _representative_dim,
    compile_network,
    estimate_cost,
    forward,
    preset,
    spec_from_dict,
)
from .training import TrainConfig, _one_blas_thread, _restrict_to, gradient_check, train

__all__ = ["SweepTrial", "run_sweep", "sample_config", "main"]


# ---------------------------------------------------------------------------
# Random-search space

# The declared space draws learning rate, dropout and weight decay from (0, 1)
# and the hidden width from a fixed choice set; the joint-field baseline adds
# its five loss weights, also from (0, 1). By default the learning rate is
# drawn log-uniform from a narrower band, because a plain (0, 1) draw wastes
# most of a small budget on divergent rates; --paper-space restores the plain
# draw.
HIDDEN_WIDTHS = (8, 16, 32, 64, 128)
LEARNING_RATE_BAND = (1e-4, 1e-1)

_LOSS_WEIGHT_KEYS = tuple(f.name for f in fields(LpnnWeights))


def sample_config(rng, *, paper_space: bool, keys: tuple[str, ...] = ("hidden_dim",)) -> dict:
    if paper_space:
        learning_rate = float(rng.uniform(0.0, 1.0))
    else:
        low, high = LEARNING_RATE_BAND
        learning_rate = float(np.exp(rng.uniform(np.log(low), np.log(high))))
    cfg = {
        "learning_rate": learning_rate,
        "dropout": float(rng.uniform(0.0, 1.0)),
        "weight_decay": float(rng.uniform(0.0, 1.0)),
    }
    for key in keys:
        if key == "hidden_dim":
            cfg[key] = int(HIDDEN_WIDTHS[rng.integers(len(HIDDEN_WIDTHS))])
        else:
            cfg[key] = float(rng.uniform(0.0, 1.0))
    return cfg


@dataclass(frozen=True)
class SweepTrial:
    index: int
    config: dict
    seed: int
    status: str  # "ok" or "failed"
    val_accuracy: float
    message: str = ""


def trial_seed(sweep_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([sweep_seed, 1 + index]).generate_state(1)[0])


def run_sweep(
    run_one,
    budget: int,
    seed: int,
    jobs: int = 1,
    *,
    paper_space: bool = False,
    keys: tuple[str, ...] = ("hidden_dim",),
):
    """Sample `budget` configs, score each by validation accuracy, and keep
    the best trial's model (ties go to the first sampled).

    All configs and per-trial seeds are drawn up front from the sweep seed.
    run_one(config, seed) returns (validation accuracy, model) and may raise
    NumericError for a diverged run. A finished trial meets the best so far
    under one lock, keyed by (accuracy, -index): the winner is the first
    maximum in index order whatever order trials finish in, so the
    parallelism degree never changes the outcome, and a losing model is
    dropped at once. With jobs 1 the trials run in order on the calling
    thread. With more, they run on a pool, widest hidden_dim first (in index
    order among equals) so that no wide trial is left to run alone at the
    end, with numpy's OpenBLAS at one thread while the pool runs (a
    process-wide setting; see training._one_blas_thread). Returns (best trial,
    its model, trials in index order).
    """
    if budget < 1:
        raise UsageError(f"sweep budget must be >= 1, got {budget}")
    if jobs < 1:
        raise UsageError(f"jobs must be >= 1, got {jobs}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    configs = [sample_config(rng, paper_space=paper_space, keys=keys) for _ in range(budget)]
    lock = threading.Lock()
    best: SweepTrial | None = None
    best_model = None

    def attempt(index: int) -> SweepTrial:
        nonlocal best, best_model
        config = configs[index]
        run_seed = trial_seed(seed, index)
        try:
            val, model = run_one(config, run_seed)
        except NumericError as exc:
            return SweepTrial(index, config, run_seed, "failed", float("nan"), str(exc))
        trial = SweepTrial(index, config, run_seed, "ok", float(val))
        with lock:
            if best is None or (trial.val_accuracy, -index) > (best.val_accuracy, -best.index):
                best, best_model = trial, model
        return trial

    if jobs == 1:
        trials = [attempt(index) for index in range(budget)]
    else:
        widest_first = sorted(range(budget), key=lambda i: -configs[i].get("hidden_dim", 0))
        with _one_blas_thread(), ThreadPoolExecutor(max_workers=jobs) as pool:
            trials = sorted(pool.map(attempt, widest_first), key=lambda trial: trial.index)
    if best is None:
        raise NumericError(
            f"all {budget} sweep configurations failed; last error: {trials[-1].message}"
        )
    return best, best_model, trials


def trials_to_text(trials) -> str:
    lines = ["index\tstatus\tval_accuracy\tconfig"]
    for t in trials:
        lines.append(
            f"{t.index}\t{t.status}\t{t.val_accuracy:.10g}\t"
            f"{json.dumps(t.config, sort_keys=True)}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Shared command plumbing


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through UsageError so
    # usage problems exit 1 and data problems keep exit 2.
    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class _Composed:
    """A composed network: sampled holds the settings a sweep samples, each
    with its flag value, and spec_for(**sampled) gives its spec; shape holds
    the shape and operator flags as a run records them, and operators the set
    it compiles against (None until a topology is given)."""

    label: str
    spec_for: Callable[..., NetworkSpec]
    sampled: dict
    shape: dict
    operators: dict | None

    def compile(self, dataset: Dataset, dropout: float, cfg: dict):
        return compile_network(
            self.spec_for(**{key: cfg[key] for key in self.sampled}),
            self.operators,
            dataset.num_features,
            dataset.num_classes,
            features=dataset.features,
            dropout=dropout,
        )

    def fit(self, dataset: Dataset, split, config: TrainConfig, cfg: dict):
        """Train once, reading the sampled settings from cfg (a sweep config,
        or the flags); return (test, history), where test() gives the named
        test accuracies, the method's own first, on a freshly compiled network
        (the trained one and the copies it memoized go when train returns)."""
        params, history = train(self.compile(dataset, config.dropout, cfg), dataset, split, config)

        def test() -> dict[str, float]:
            net = self.compile(dataset, config.dropout, cfg)
            return {"test": _test_accuracy(net, params, dataset, split, config)}

        return test, history


@dataclass(frozen=True)
class _Lpnn:
    """The joint label-field baseline; it samples the loss weights, and fit
    reads them from cfg."""

    sampled: dict
    label = "lpnn"
    shape = {}

    def fit(self, dataset: Dataset, split, config: TrainConfig, cfg: dict):
        weights = LpnnWeights(*(cfg[key] for key in _LOSS_WEIGHT_KEYS))
        model, history = train_lpnn(dataset, split, config, weights)

        def test() -> dict[str, float]:
            return {
                "test": _test_accuracy(model.g_net, model.g_params, dataset, split, config),
                "label-field test": accuracy(predict_from_f(model), dataset.labels, split.test),
            }

        return test, history


def _test_accuracy(net, params, dataset: Dataset, split, config: TrainConfig) -> float:
    """Accuracy on the test rows of net's infer-mode copy restricted to them
    in config.precision (see restrict): every test pass the CLI runs. numpy's
    OpenBLAS holds one thread for it, so a two-thread product leaves no BLAS
    worker spinning into whatever runs next (propmodel-sweep's next fit)."""
    part, labels = _restrict_to(net, dataset, split.test, config.precision, "infer")
    with _one_blas_thread():
        return accuracy(forward(part, params)[0], labels, part.positions)


def _resolve_method(args, topology: GraphTopology | None = None, refusal: str | None = None):
    """The method --method names, checked against the shape flags: the only
    reader of --method/--l/--ll/--hidden/--operator/--alpha/--beta.

    Given the dataset's topology it also checks the operator flags and builds
    the operator set. A command that handles only composed networks passes
    the usage error that refuses 'lpnn' as refusal.
    """
    name = args.method
    shape_flags = [
        flag
        for flag, value in (("--l", args.l), ("--ll", args.ll), ("--hidden", args.hidden))
        if value is not None
    ]
    if name == "lpnn":
        if shape_flags:
            raise UsageError(f"{', '.join(shape_flags)} do not apply to method 'lpnn'")
        if refusal is not None:
            raise UsageError(refusal)
        if args.operator != "symmetric" or args.alpha is not None or args.beta is not None:
            raise UsageError(
                "method 'lpnn' builds its own symmetric operator; "
                "--operator/--alpha/--beta do not apply"
            )
        # sweep has no loss-weight flags: it samples every one.
        return _Lpnn({key: getattr(args, key, None) for key in _LOSS_WEIGHT_KEYS})
    path = Path(name)
    if name in PRESET_NAMES:
        if args.ll is not None and not any(
            isinstance(stage, Lp) for stage in preset(name, lp_layers=1).stages
        ):
            raise UsageError(f"--ll does not apply to preset {name!r}: it has no label propagation")
        label = name
        spec_for = partial(preset, name, depth=args.l, lp_layers=args.ll)
        sampled = {"hidden_dim": DEFAULT_HIDDEN_DIM if args.hidden is None else args.hidden}
        if not spec_for(**sampled).hidden_dims:
            if args.hidden is not None:
                raise UsageError(
                    f"--hidden does not apply to {name!r} at this depth: no hidden layer"
                )
            sampled = {}
    elif path.is_file():
        if shape_flags:
            raise UsageError(
                f"{', '.join(shape_flags)} apply only to named presets, not spec files"
            )
        try:
            spec = spec_from_dict(json.loads(path.read_text(encoding="utf-8")))
        except (OSError, ValueError, RecursionError) as exc:
            raise UsageError(f"cannot read network spec {path}: {exc}") from exc
        except UsageError as exc:
            raise UsageError(f"{path}: {exc}") from exc
        label, sampled = spec.name, {}
        spec_for = lambda: spec  # noqa: E731 - a spec file fixes its widths
    else:
        raise UsageError(
            f"unknown method {name!r}: expected one of {', '.join(PRESET_NAMES)}, "
            "lpnn, or a path to a network spec file"
        )
    shape, operators = {}, None
    if topology is not None:
        operators = _operator_set(topology, args.operator, args.alpha, args.beta)
        shape = {"operator": args.operator, "depth": args.l, "lp_layers": args.ll,
                 "alpha": args.alpha, "beta": args.beta}
        shape = {key: value for key, value in shape.items() if value is not None}
    return _Composed(label, spec_for, sampled, shape, operators)


def _operator_set(topology: GraphTopology, operator: str, alpha, beta):
    """Build the named operator set a network compiles against; the only place
    that turns --operator into operators. Stage operator names are
    "symmetric" (feature side) and "row" (lp): 'row' and 'general' put one
    operator under both names.

    alpha/beta select the self-vs-neighbor mixing weights unless operator is
    'general', where they become the degree-normalization exponents.
    """
    if operator == "general":
        if alpha is None or beta is None:
            raise UsageError("--operator general requires --alpha and --beta exponents")
        op = build_operator(topology, "general", alpha=alpha, beta=beta)
        return {"symmetric": op, "row": op}
    mix = None
    if (alpha is None) != (beta is None):
        raise UsageError("--alpha and --beta must be given together")
    if operator == "mix" and alpha is None:
        raise UsageError("--operator mix requires --alpha and --beta weights")
    if alpha is not None:
        mix = (alpha, beta)
    row = build_operator(topology, "row", mix=mix)
    if operator == "row":
        return {"symmetric": row, "row": row}
    return {"symmetric": build_operator(topology, "symmetric", mix=mix), "row": row}


def _resolve_split(args, dataset: Dataset):
    if args.standard_split:
        if args.size is not None or args.split is not None:
            raise UsageError("--standard-split conflicts with --size/--split")
        if args.splits_dir is not None:
            raise UsageError("--standard-split conflicts with --splits-dir")
        return load_standard_split(dataset)
    if args.size is None or args.split is None:
        raise UsageError("choose a split: --standard-split, or both --size and --split")
    if not 1 <= args.size <= NUM_SIZES:
        raise UsageError(f"--size must lie in [1, {NUM_SIZES}], got {args.size}")
    if not 0 <= args.split < NUM_SPLITS:
        raise UsageError(f"--split must lie in [0, {NUM_SPLITS - 1}], got {args.split}")
    splits_dir = args.splits_dir or str(Path(args.dataset_dir) / "splits")
    return load_split(splits_dir, args.size, args.split, dataset.num_nodes)


def _flag_config(args, method) -> dict:
    """A flag-driven run's settings, with the keys a sweep would sample."""
    return {"learning_rate": args.lr, "dropout": args.dropout,
            "weight_decay": args.weight_decay, **method.sampled}


def _train_config(args, cfg: dict, seed: int) -> TrainConfig:
    return TrainConfig(
        learning_rate=cfg["learning_rate"],
        dropout=cfg["dropout"],
        weight_decay=cfg["weight_decay"],
        max_epochs=args.epochs,
        patience=args.patience,
        seed=seed,
        precision=args.precision,
    )


def _write_run(args, dataset, label, split, history, test_accuracy, best_val, config, suffix=""):
    """Write a run's result.json and history.txt into its directory under --out."""
    result = RunResult(
        method=label,
        dataset=dataset.name,
        size_index=split.size_index,
        split_index=split.split_index,
        test_accuracy=test_accuracy,
        best_val_accuracy=best_val,
        config=config,
    )
    run_dir = Path(args.out) / f"{dataset.name}_{label}_s{split.size_index}_p{split.split_index}{suffix}"
    _write_atomic(run_dir / "result.json", json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n")
    _write_atomic(run_dir / "history.txt", history.to_text())
    return run_dir


# ---------------------------------------------------------------------------
# Commands


def cmd_splits(args) -> int:
    dataset = load_dataset(args.dataset_dir)
    splits = generate_splits(dataset, args.seed)
    out_dir = Path(args.out) if args.out else Path(args.dataset_dir) / "splits"
    paths = save_splits(splits, out_dir)
    sizes = tuple(len(splits[(k, 0)].train) for k in range(1, NUM_SIZES + 1))
    print(f"wrote {len(paths)} split files under {out_dir}")
    print("train sizes: " + ", ".join(str(s) for s in sizes))
    return 0


def cmd_train(args) -> int:
    dataset = load_dataset(args.dataset_dir)
    method = _resolve_method(args, dataset.topology)
    split = _resolve_split(args, dataset)
    cfg = _flag_config(args, method)
    config = _train_config(args, cfg, args.seed)
    test, history = method.fit(dataset, split, config, cfg)
    accuracies = test()
    run_dir = _write_run(
        args, dataset, method.label, split, history,
        accuracies["test"], history.best_val_accuracy,
        {**asdict(config), **cfg, **method.shape},
    )
    print(
        f"{method.label} on {dataset.name} (size {split.size_index}, split {split.split_index}): "
        f"test accuracy {100 * accuracies['test']:.1f}, "
        f"best val {100 * history.best_val_accuracy:.1f} at epoch {history.best_epoch}"
    )
    for name, value in list(accuracies.items())[1:]:
        print(f"{name} accuracy {100 * value:.1f}")
    print(f"results in {run_dir}")
    return 0


def cmd_sweep(args) -> int:
    if args.hidden is not None:
        raise UsageError("sweep samples the hidden width; --hidden does not apply")
    dataset = load_dataset(args.dataset_dir)
    method = _resolve_method(args, dataset.topology)
    split = _resolve_split(args, dataset)

    def run_one(cfg: dict, run_seed: int):
        test, history = method.fit(dataset, split, _train_config(args, cfg, run_seed), cfg)
        return history.best_val_accuracy, (test, history)

    best, (test, history), trials = run_sweep(
        run_one,
        args.budget,
        args.seed,
        args.jobs,
        paper_space=args.paper_space,
        keys=tuple(method.sampled),
    )
    test_accuracy = test()["test"]
    config = _train_config(args, best.config, best.seed)
    sweep_keys = {"trial_index": best.index, "budget": args.budget, "sweep_seed": args.seed}
    run_config = {**asdict(config), **method.shape, **best.config, **sweep_keys}
    run_dir = _write_run(
        args, dataset, method.label, split, history,
        test_accuracy, best.val_accuracy, run_config, f"_sweep{args.seed}",
    )
    _write_atomic(run_dir / "trials.txt", trials_to_text(trials))
    failed = sum(1 for t in trials if t.status != "ok")
    print(
        f"swept {args.budget} configs ({failed} failed): best trial {best.index} "
        f"reached val {100 * best.val_accuracy:.1f}; its test accuracy is {100 * test_accuracy:.1f}"
    )
    print(f"results in {run_dir}")
    return 0


_METHOD_ORDER = {name: i for i, name in enumerate(PRESET_NAMES + ("lpnn",))}


def cmd_compare(args) -> int:
    root = Path(args.results_dir)
    if not root.is_dir():
        raise DataError(f"results directory {root} does not exist")
    results: dict[tuple, tuple[Path, RunResult]] = {}
    precisions: dict[str, tuple[Path, str]] = {}
    for path in sorted(root.rglob("result.json")):
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:
            raise DataError(f"{path}: not a valid result file: {exc}") from exc
        try:
            r = RunResult.from_dict(doc)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from exc
        if args.size is not None and r.size_index != args.size:
            continue
        # A train and a sweep on one split (or two copies of a run) are not
        # two samples of that cell.
        key = (r.method, r.dataset, r.size_index, r.split_index)
        if key in results:
            raise DataError(
                f"{results[key][0]} and {path} both hold {r.method} on {r.dataset} "
                f"(size {r.size_index}, split {r.split_index}); keep one of them"
            )
        results[key] = (path, r)
        # A run recorded before precision was a setting trained in float64.
        precision = r.config.get("precision", "float64")
        first, first_precision = precisions.setdefault(r.method, (path, precision))
        if precision != first_precision:
            raise DataError(
                f"{first} ({first_precision}) and {path} ({precision}) hold {r.method} "
                "runs at different precisions; compare them apart"
            )
    if not results:
        raise DataError(f"no run results found under {root}")
    sizes = sorted({size for _, _, size, _ in results})
    if len(sizes) > 1:
        raise UsageError(
            f"results span training sizes {', '.join(map(str, sizes))}; "
            "choose one with --size"
        )

    by_cell: dict[tuple[str, str], list[float]] = defaultdict(list)
    for _, r in results.values():
        by_cell[(r.method, r.dataset)].append(r.test_accuracy)
    methods = sorted(
        {m for m, _ in by_cell}, key=lambda m: (_METHOD_ORDER.get(m, len(_METHOD_ORDER)), m)
    )
    if len(methods) < 2:
        raise UsageError("compare needs results for at least 2 methods")

    # Each method's datasets in name order; average_rank names missing cells.
    stats: dict[str, dict] = {m: {} for m in methods}
    for (m, d), values in sorted(by_cell.items()):
        stats[m][d] = aggregate(values) if len(values) >= 2 else (values[0], None)
    means = {m: {d: mean for d, (mean, _) in row.items()} for m, row in stats.items()}
    report = render_report(stats, average_rank(means))
    print(report, end="")
    if args.out:
        _write_atomic(Path(args.out), report)
    return 0


# The published grid for both propagation families.
DEFAULT_PROP_GRID: tuple[tuple[float, float], ...] = (
    (0.0, 1.0),
    (0.1, 0.9),
    (0.25, 0.75),
    (0.33, 0.67),
    (0.5, 0.5),
    (0.67, 0.33),
    (0.75, 0.25),
    (0.9, 0.1),
    (1.0, 0.0),
    (1.0, 1.0),
)


def _parse_grid(text: str) -> tuple[tuple[float, float], ...]:
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise UsageError(f"--grid point {chunk!r} is not of the form alpha,beta")
        try:
            points.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise UsageError(f"--grid point {chunk!r} is not numeric") from exc
    if not points:
        raise UsageError("--grid holds no alpha,beta point")
    return tuple(points)


def cmd_propmodel_sweep(args) -> int:
    grid = _parse_grid(args.grid) if args.grid is not None else DEFAULT_PROP_GRID
    dataset = load_dataset(args.dataset_dir)
    method = _resolve_method(
        args, refusal="propmodel-sweep applies to composed networks, not 'lpnn'"
    )
    split = _resolve_split(args, dataset)
    cfg = _flag_config(args, method)
    config = _train_config(args, cfg, args.seed)
    operator = "mix" if args.model == "mix" else "general"

    rows = []
    last_error: DataError | None = None
    for alpha, beta in grid:
        try:
            operators = _operator_set(dataset.topology, operator, alpha, beta)
        except DataError as exc:
            # A degenerate point (e.g. pure-neighbor mixing on a graph with an
            # isolated node) invalidates its row, not the rest of the grid.
            last_error = exc
            rows.append((alpha, beta, None, None))
            print(f"alpha={alpha:g} beta={beta:g}: invalid ({exc})")
            continue
        point = replace(method, operators=operators)
        test, history = point.fit(dataset, split, config, cfg)
        test_accuracy = test()["test"]
        rows.append((alpha, beta, history.best_val_accuracy, test_accuracy))
        print(
            f"alpha={alpha:g} beta={beta:g}: val {100 * history.best_val_accuracy:.1f}, "
            f"test {100 * test_accuracy:.1f}"
        )
    if last_error is not None and all(val is None for _, _, val, _ in rows):
        raise last_error

    lines = ["alpha\tbeta\tval\ttest"]
    for alpha, beta, val, test in rows:
        if val is None:
            lines.append(f"{alpha:g}\t{beta:g}\t-\t-")
        else:
            lines.append(f"{alpha:g}\t{beta:g}\t{100 * val:.1f}\t{100 * test:.1f}")
    table = "\n".join(lines) + "\n"
    if args.out:
        _write_atomic(Path(args.out), table)
        print(f"table written to {args.out}")
    return 0


def _toy_dataset(num_nodes, input_dim, num_classes, seed: int) -> Dataset:
    """A small deterministic gradient-check dataset; None sizes are 12, 5, 3."""
    num_nodes = 12 if num_nodes is None else num_nodes
    input_dim = 5 if input_dim is None else input_dim
    num_classes = 3 if num_classes is None else num_classes
    if num_nodes < 3:
        raise UsageError(f"gradient-check graph needs --nodes >= 3, got {num_nodes}")
    if input_dim < 1 or num_classes < 1:
        raise UsageError(
            f"gradient-check data needs --input-dim and --classes >= 1, "
            f"got {input_dim} and {num_classes}"
        )
    if max(num_nodes, input_dim, num_classes) > MAX_SIZE:
        raise UsageError(
            f"gradient-check data needs --nodes, --input-dim and --classes <= {MAX_SIZE}, "
            f"got {num_nodes}, {input_dim} and {num_classes}"
        )
    rng = np.random.default_rng(np.random.SeedSequence([seed, 99]))
    edges = [(i, (i + 1) % num_nodes) for i in range(num_nodes)]
    for _ in range(num_nodes):
        u, v = rng.integers(num_nodes, size=2)
        if u != v:
            edges.append((int(u), int(v)))
    return Dataset(
        name="gradient-check",
        topology=GraphTopology(num_nodes, edges),
        features=rng.normal(size=(num_nodes, input_dim)),
        labels=rng.integers(num_classes, size=num_nodes),
        num_classes=num_classes,
    )


def _sizing_dataset(args, sizes: dict) -> Dataset | None:
    """The --dataset-dir dataset, which supplies the sizes (so a size flag
    beside it is a usage error), or None when no directory is given."""
    given = [flag for flag, value in sizes.items() if value is not None]
    if args.dataset_dir and given:
        raise UsageError(f"--dataset-dir supplies the sizes; {', '.join(given)} do not apply")
    return load_dataset(args.dataset_dir) if args.dataset_dir else None


def cmd_gradcheck(args) -> int:
    sizes = {"--nodes": args.nodes, "--input-dim": args.input_dim, "--classes": args.classes}
    dataset = _sizing_dataset(args, sizes) or _toy_dataset(*sizes.values(), args.seed)
    method = _resolve_method(
        args, dataset.topology, "gradcheck covers the composed chains; 'lpnn' is not supported here"
    )
    net = method.compile(dataset, 0.0, method.sampled)
    report = gradient_check(net, dataset, tolerance=args.tolerance, seed=args.seed)
    for i, err in enumerate(report.per_param):
        print(f"parameter {i}: max relative error {err:.3e}")
    print(f"overall max relative error {report.max_rel_error:.3e} (tolerance {report.tolerance:g})")
    if not report.passed:
        raise NumericError(
            f"gradient check failed: {report.max_rel_error:.3e} >= {report.tolerance:g}"
        )
    print("gradient check PASS")
    return 0


def cmd_cost(args) -> int:
    method = _resolve_method(
        args, refusal="cost terms are defined for the composed networks, not 'lpnn'"
    )
    sizes = {"--nodes": args.nodes, "--edges": args.edges,
             "--input-dim": args.input_dim, "--classes": args.classes}
    dataset = _sizing_dataset(args, sizes)
    if dataset is not None:
        n, edges = dataset.num_nodes, dataset.num_edges
        input_dim, classes = dataset.num_features, dataset.num_classes
    else:
        if None in sizes.values():
            raise UsageError(
                "cost needs --dataset-dir or all of --nodes, --edges, --input-dim, --classes"
            )
        n, edges, input_dim, classes = sizes.values()
    spec = method.spec_for(**method.sampled)
    dim = _representative_dim(spec, input_dim)
    cost = estimate_cost(spec, n, edges, dim, classes)
    print(f"{method.label}: nodes={n} edges={edges} dim={dim} classes={classes}")
    for name in ("feature_prop", "hidden", "classifier", "label_prop"):
        print(f"{name:<13}{getattr(cost, name)}")
    print(f"{'total':<13}{cost.total}")
    return 0


# ---------------------------------------------------------------------------
# Argument wiring


def _seed(text: str) -> int:
    """argparse type of every --seed: numpy seeds are non-negative integers."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _add_dataset_dir(p, required=True):
    p.add_argument("--dataset-dir", required=required, default=None, help="dataset directory")


def _add_split_flags(p):
    p.add_argument(
        "--standard-split",
        action="store_true",
        help="use the fixed benchmark split shipped with the dataset",
    )
    p.add_argument("--size", type=int, default=None, help="training-set size index (1-5)")
    p.add_argument("--split", type=int, default=None, help="split index (0-9)")
    p.add_argument(
        "--splits-dir",
        default=None,
        help="directory holding generated splits (default <dataset-dir>/splits)",
    )


def _add_method_flags(p, *, default=None):
    p.add_argument(
        "--method",
        required=default is None,
        default=default,
        help=f"one of {', '.join(PRESET_NAMES)}, lpnn, or a network spec file",
    )
    p.add_argument("--l", type=int, default=None, help="propagation/feed-forward depth budget")
    p.add_argument("--ll", type=int, default=None, help="label propagation layer count")
    p.add_argument("--hidden", type=int, default=None, help="hidden width for preset methods")


def _add_operator_flags(p):
    p.add_argument(
        "--operator",
        choices=("symmetric", "row", "general", "mix"),
        default="symmetric",
        help="feature-side normalization, or 'general'/'mix' propagation models",
    )
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)


_TRAIN_DEFAULTS = TrainConfig()


def _add_run_flags(p):
    p.add_argument("--epochs", type=int, default=_TRAIN_DEFAULTS.max_epochs, help="epoch budget")
    p.add_argument(
        "--patience", type=int, default=_TRAIN_DEFAULTS.patience, help="early-stopping patience"
    )
    p.add_argument(
        "--precision", choices=("float32", "float64"), default=_TRAIN_DEFAULTS.precision
    )
    p.add_argument("--seed", type=_seed, default=_TRAIN_DEFAULTS.seed)


def _add_train_flags(p):
    p.add_argument("--lr", type=float, default=_TRAIN_DEFAULTS.learning_rate, help="learning rate")
    p.add_argument("--dropout", type=float, default=_TRAIN_DEFAULTS.dropout)
    p.add_argument("--weight-decay", type=float, default=_TRAIN_DEFAULTS.weight_decay)
    _add_run_flags(p)


def _add_lpnn_flags(p):
    p.add_argument("--mu-g", type=float, default=1.0, help="smoothness weight")
    p.add_argument("--mu-l", type=float, default=1.0, help="labeled fit weight")
    p.add_argument("--mu-u", type=float, default=1.0, help="unlabeled shrinkage weight")
    p.add_argument("--lambda-l", type=float, default=1.0, help="labeled KL weight")
    p.add_argument("--lambda-u", type=float, default=1.0, help="unlabeled KL weight")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="graphcompose",
        description="Compose, train, and compare graph networks built from "
        "smoothing and feed-forward blocks.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)

    p = sub.add_parser("splits", help="generate and store the 5x10 evaluation splits")
    _add_dataset_dir(p)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None, help="output directory (default <dataset-dir>/splits)")

    p = sub.add_parser("train", help="train one method on one split")
    _add_dataset_dir(p)
    _add_split_flags(p)
    _add_method_flags(p)
    _add_operator_flags(p)
    _add_train_flags(p)
    _add_lpnn_flags(p)
    p.add_argument("--out", default="runs", help="directory for results")

    p = sub.add_parser("sweep", help="random hyperparameter search on one split")
    _add_dataset_dir(p)
    _add_split_flags(p)
    _add_method_flags(p)
    _add_operator_flags(p)
    p.add_argument("--budget", type=int, default=200, help="number of sampled configs")
    p.add_argument("--jobs", type=int, default=1, help="concurrent training runs")
    p.add_argument(
        "--paper-space",
        action="store_true",
        help="sample the learning rate plain-uniform from (0,1) instead of the "
        "log-spaced (1e-4, 1e-1) default",
    )
    _add_run_flags(p)
    p.add_argument("--out", default="runs", help="directory for results")

    p = sub.add_parser("compare", help="aggregate stored results into a rank report")
    p.add_argument("--results-dir", required=True)
    p.add_argument("--size", type=int, default=None, help="restrict to one size index")
    p.add_argument("--out", default=None, help="also write the report to this file")

    p = sub.add_parser(
        "propmodel-sweep", help="train one method across a grid of propagation models"
    )
    _add_dataset_dir(p)
    _add_split_flags(p)
    _add_method_flags(p)
    p.add_argument(
        "--model",
        choices=("mix", "exponents"),
        required=True,
        help="mix: alpha*I + beta*A self/neighbor weights; exponents: "
        "degree powers alpha/beta in the normalization",
    )
    p.add_argument(
        "--grid",
        default=None,
        help="semicolon-separated alpha,beta pairs (default: the published 10-point grid)",
    )
    _add_train_flags(p)
    p.add_argument("--out", default=None, help="write the val/test table to this file")

    p = sub.add_parser("gradcheck", help="finite-difference check of the backward pass")
    _add_dataset_dir(p, required=False)
    _add_method_flags(p, default="gcn")
    _add_operator_flags(p)
    p.add_argument("--nodes", type=int, help="toy graph size when no dataset given (default 12)")
    p.add_argument("--input-dim", type=int, help="toy input width (default 5)")
    p.add_argument("--classes", type=int, help="toy class count (default 3)")
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("cost", help="print the per-term operation counts of a method")
    _add_dataset_dir(p, required=False)
    _add_method_flags(p)
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--edges", type=int, default=None)
    p.add_argument("--input-dim", type=int, default=None)
    p.add_argument("--classes", type=int, default=None)

    return parser


_COMMANDS = {
    "splits": cmd_splits,
    "train": cmd_train,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
    "propmodel-sweep": cmd_propmodel_sweep,
    "gradcheck": cmd_gradcheck,
    "cost": cmd_cost,
}


def run(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        raise UsageError("a command is required")
    return _COMMANDS[args.command](args)


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else list(argv))
    except GraphComposeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return code if isinstance(code, int) else 0


if __name__ == "__main__":
    sys.exit(main())
