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
import os
import sys
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .data import (
    NUM_SIZES,
    NUM_SPLITS,
    Dataset,
    generate_splits,
    load_dataset,
    load_split,
    load_standard_split,
    save_splits,
)
from .errors import DataError, GraphComposeError, NumericError, UsageError
from .evaluation import RunResult, accuracy, aggregate, average_rank, render_report
from .graph import GraphTopology, build_operator
from .lpnn import LpnnWeights, predict_from_f, predict_from_g, train_lpnn
from .networks import (
    DEFAULT_HIDDEN_DIM,
    PRESET_NAMES,
    NetworkSpec,
    _representative_dim,
    compile_network,
    estimate_cost,
    forward,
    preset,
    spec_from_dict,
)
from .training import TrainConfig, gradient_check, train

__all__ = ["Domain", "SweepSpace", "SweepTrial", "run_sweep", "sample_config", "main"]


# ---------------------------------------------------------------------------
# Random-search space


@dataclass(frozen=True)
class Domain:
    """A scalar sampling interval, linear or log-spaced."""

    low: float
    high: float
    log: bool = False

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise UsageError(f"domain needs low < high, got [{self.low}, {self.high}]")
        if self.log and self.low <= 0:
            raise UsageError("log-spaced domain needs low > 0")

    def sample(self, rng) -> float:
        if self.log:
            return float(np.exp(rng.uniform(np.log(self.low), np.log(self.high))))
        return float(rng.uniform(self.low, self.high))


@dataclass(frozen=True)
class SweepSpace:
    """Hyperparameter domains for random search.

    The declared space draws learning rate, dropout, and weight decay from
    (0, 1) and the hidden width from a fixed choice set; the joint-field
    baseline adds its five loss weights, also from (0, 1). The default
    narrows the learning rate to a log-spaced (1e-4, 1e-1) band because a
    plain (0, 1) draw wastes most of a small budget on divergent rates;
    paper_space() restores the plain draw.
    """

    learning_rate: Domain = Domain(1e-4, 1e-1, log=True)
    dropout: Domain = Domain(0.0, 1.0)
    weight_decay: Domain = Domain(0.0, 1.0)
    hidden_dims: tuple[int, ...] = (8, 16, 32, 64, 128)
    loss_weights: Domain = Domain(0.0, 1.0)

    @classmethod
    def paper_space(cls) -> "SweepSpace":
        return cls(learning_rate=Domain(0.0, 1.0))


_LOSS_WEIGHT_KEYS = tuple(f.name for f in fields(LpnnWeights))


def sample_config(space: SweepSpace, rng, *, with_hidden: bool, with_loss_weights: bool) -> dict:
    cfg = {
        "learning_rate": space.learning_rate.sample(rng),
        "dropout": space.dropout.sample(rng),
        "weight_decay": space.weight_decay.sample(rng),
    }
    if with_hidden:
        cfg["hidden_dim"] = int(space.hidden_dims[rng.integers(len(space.hidden_dims))])
    if with_loss_weights:
        for key in _LOSS_WEIGHT_KEYS:
            cfg[key] = space.loss_weights.sample(rng)
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
    space: SweepSpace,
    budget: int,
    seed: int,
    jobs: int = 1,
    *,
    with_hidden: bool = True,
    with_loss_weights: bool = False,
):
    """Sample `budget` configs, score each by validation accuracy, and pick
    the best (ties go to the first sampled).

    All configs and per-trial seeds are drawn up front from the sweep seed,
    and results are merged in config-index order, so the parallelism degree
    never changes the outcome. run_one(config, seed) returns a validation
    accuracy and may raise NumericError for a diverged run.
    """
    if budget < 1:
        raise UsageError(f"sweep budget must be >= 1, got {budget}")
    if jobs < 1:
        raise UsageError(f"jobs must be >= 1, got {jobs}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    configs = [
        sample_config(space, rng, with_hidden=with_hidden, with_loss_weights=with_loss_weights)
        for _ in range(budget)
    ]

    def attempt(index: int) -> SweepTrial:
        config = configs[index]
        run_seed = trial_seed(seed, index)
        try:
            val = run_one(config, run_seed)
        except NumericError as exc:
            return SweepTrial(index, config, run_seed, "failed", float("nan"), str(exc))
        return SweepTrial(index, config, run_seed, "ok", float(val))

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            trials = list(pool.map(attempt, range(budget)))
    else:
        trials = [attempt(i) for i in range(budget)]

    best: SweepTrial | None = None
    for trial in trials:
        if trial.status == "ok" and (best is None or trial.val_accuracy > best.val_accuracy):
            best = trial
    if best is None:
        raise NumericError(
            f"all {budget} sweep configurations failed; last error: {trials[-1].message}"
        )
    return best, trials


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


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


# Method types. A method is a composed network or the joint label-field
# baseline; both offer the same interface:
#   bind(topology, args)  checks the propagation/precision flags and returns
#                         the method ready to train;
#   flag_config(args)     the method's settings taken from train flags;
#   fit(dataset, split, config, cfg)
#                         trains once, reading the hidden width or the loss
#                         weights from cfg (a sampled sweep config, or the
#                         flags), and returns (test, history). test() gives
#                         the named test accuracies, the method's own first.


@dataclass(frozen=True)
class _Composed:
    label: str
    file_spec: NetworkSpec | None = None
    preset_name: str | None = None
    depth: int | None = None
    lp_layers: int | None = None
    hidden: int | None = None
    operators: dict | None = None

    samples_loss_weights = False

    @property
    def samples_hidden(self) -> bool:
        return self.preset_name is not None and bool(self.spec_for().hidden_dims)

    def spec_for(self, hidden_dim: int | None = None) -> NetworkSpec:
        if self.file_spec is not None:
            return self.file_spec
        return preset(
            self.preset_name,
            hidden_dim=self.hidden if hidden_dim is None else hidden_dim,
            depth=self.depth,
            lp_layers=self.lp_layers,
        )

    def bind(self, topology: GraphTopology, args) -> "_Composed":
        return replace(self, operators=_operator_set(topology, args.operator, args.alpha, args.beta))

    def flag_config(self, args) -> dict:
        cfg = {"operator": args.operator}
        if self.samples_hidden:
            cfg["hidden_dim"] = self.hidden
        if args.alpha is not None:
            cfg["alpha"], cfg["beta"] = args.alpha, args.beta
        return cfg

    def compile(self, dataset: Dataset, dropout: float, hidden_dim: int | None = None):
        return compile_network(
            self.spec_for(hidden_dim),
            self.operators,
            dataset.num_features,
            dataset.num_classes,
            features=dataset.features,
            dropout=dropout,
        )

    def fit(self, dataset: Dataset, split, config: TrainConfig, cfg: dict):
        net = self.compile(dataset, config.dropout, cfg.get("hidden_dim"))
        params, history = train(net, dataset, split, config)

        def test() -> dict[str, float]:
            out, _ = forward(net, params)
            return {"test": accuracy(out, dataset.labels, split.test)}

        return test, history


class _Lpnn:
    label = "lpnn"
    samples_hidden = False
    samples_loss_weights = True

    def bind(self, topology: GraphTopology, args) -> "_Lpnn":
        if args.operator != "symmetric" or args.alpha is not None or args.beta is not None:
            raise UsageError(
                "method 'lpnn' builds its own symmetric operator; "
                "--operator/--alpha/--beta do not apply"
            )
        return self

    def flag_config(self, args) -> dict:
        return {key: getattr(args, key) for key in _LOSS_WEIGHT_KEYS}

    def fit(self, dataset: Dataset, split, config: TrainConfig, cfg: dict):
        weights = LpnnWeights(*(cfg[key] for key in _LOSS_WEIGHT_KEYS))
        model, history = train_lpnn(dataset, split, config, weights)

        def test() -> dict[str, float]:
            labels = dataset.labels
            return {
                "test": accuracy(predict_from_g(model), labels, split.test),
                "label-field test": accuracy(predict_from_f(model), labels, split.test),
            }

        return test, history


def _resolve_method(args):
    name = args.method
    shape_flags = [
        flag
        for flag, value in (("--l", args.l), ("--ll", args.ll), ("--hidden", args.hidden))
        if value is not None
    ]
    if name == "lpnn":
        if shape_flags:
            raise UsageError(f"{', '.join(shape_flags)} do not apply to method 'lpnn'")
        return _Lpnn()
    if name in PRESET_NAMES:
        return _Composed(
            label=name,
            preset_name=name,
            depth=args.l,
            lp_layers=args.ll,
            hidden=DEFAULT_HIDDEN_DIM if args.hidden is None else args.hidden,
        )
    path = Path(name)
    if path.is_file():
        if shape_flags:
            raise UsageError(
                f"{', '.join(shape_flags)} apply only to named presets, not spec files"
            )
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read network spec {path}: {exc}") from exc
        spec = spec_from_dict(doc)
        return _Composed(label=spec.name, file_spec=spec)
    raise UsageError(
        f"unknown method {name!r}: expected one of {', '.join(PRESET_NAMES)}, "
        "lpnn, or a path to a network spec file"
    )


def _composed_method(args, refusal: str) -> _Composed:
    """Resolve --method for a command that only handles composed networks."""
    method = _resolve_method(args)
    if not isinstance(method, _Composed):
        raise UsageError(refusal)
    return method


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
    """A flag-driven run's configuration, in the shape of a sampled one."""
    return {
        "learning_rate": args.lr,
        "dropout": args.dropout,
        "weight_decay": args.weight_decay,
        **method.flag_config(args),
    }


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


def _run_dir(out_root: str, dataset: Dataset, label: str, split, suffix: str = "") -> Path:
    name = f"{dataset.name}_{label}_s{split.size_index}_p{split.split_index}{suffix}"
    return Path(out_root) / name


def _persist_result(run_dir: Path, result: RunResult, history) -> None:
    _write_atomic(run_dir / "result.json", json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n")
    _write_atomic(run_dir / "history.txt", history.to_text())


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
    method = _resolve_method(args)
    split = _resolve_split(args, dataset)
    cfg = _flag_config(args, method)
    config = _train_config(args, cfg, args.seed)
    test, history = method.bind(dataset.topology, args).fit(dataset, split, config, cfg)
    accuracies = test()

    result = RunResult(
        method=method.label,
        dataset=dataset.name,
        size_index=split.size_index,
        split_index=split.split_index,
        test_accuracy=accuracies["test"],
        best_val_accuracy=history.best_val_accuracy,
        config={**asdict(config), **cfg},
    )
    run_dir = _run_dir(args.out, dataset, method.label, split)
    _persist_result(run_dir, result, history)
    print(
        f"{method.label} on {dataset.name} (size {split.size_index}, split {split.split_index}): "
        f"test accuracy {100 * result.test_accuracy:.1f}, "
        f"best val {100 * history.best_val_accuracy:.1f} at epoch {history.best_epoch}"
    )
    for name, value in list(accuracies.items())[1:]:
        print(f"{name} accuracy {100 * value:.1f}")
    print(f"results in {run_dir}")
    return 0


def cmd_sweep(args) -> int:
    dataset = load_dataset(args.dataset_dir)
    method = _resolve_method(args)
    if args.hidden is not None:
        raise UsageError("sweep samples the hidden width; --hidden does not apply")
    split = _resolve_split(args, dataset)
    space = SweepSpace.paper_space() if args.paper_space else SweepSpace()
    method = method.bind(dataset.topology, args)

    def run_one(cfg: dict, run_seed: int) -> float:
        _, history = method.fit(dataset, split, _train_config(args, cfg, run_seed), cfg)
        return history.best_val_accuracy

    best, trials = run_sweep(
        run_one,
        space,
        args.budget,
        args.seed,
        args.jobs,
        with_hidden=method.samples_hidden,
        with_loss_weights=method.samples_loss_weights,
    )

    # Retrain the winner (same per-trial seed, so the run is identical) and
    # only now look at test accuracy.
    config = _train_config(args, best.config, best.seed)
    test, history = method.fit(dataset, split, config, best.config)
    test_accuracy = test()["test"]

    sweep_keys = {"trial_index": best.index, "budget": args.budget, "sweep_seed": args.seed}
    result = RunResult(
        method=method.label,
        dataset=dataset.name,
        size_index=split.size_index,
        split_index=split.split_index,
        test_accuracy=test_accuracy,
        best_val_accuracy=best.val_accuracy,
        config={**asdict(config), **method.flag_config(args), **best.config, **sweep_keys},
    )
    run_dir = _run_dir(args.out, dataset, method.label, split, suffix=f"_sweep{args.seed}")
    _persist_result(run_dir, result, history)
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
    for path in sorted(root.rglob("result.json")):
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
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
    datasets = sorted({d for _, d in by_cell})
    if len(methods) < 2:
        raise UsageError("compare needs results for at least 2 methods")
    missing = [(m, d) for m in methods for d in datasets if (m, d) not in by_cell]
    if missing:
        cells = ", ".join(f"({m}, {d})" for m, d in missing)
        raise DataError(f"comparison table is incomplete; missing cells: {cells}")

    stats: dict[str, dict] = {}
    means: dict[str, dict] = {}
    for m in methods:
        stats[m] = {}
        means[m] = {}
        for d in datasets:
            values = by_cell[(m, d)]
            if len(values) >= 2:
                mean, std = aggregate(values)
            else:
                mean, std = values[0], None
            stats[m][d] = (mean, std)
            means[m][d] = mean
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
            raise UsageError(f"grid point {chunk!r} is not of the form alpha,beta")
        try:
            points.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise UsageError(f"grid point {chunk!r} is not numeric") from exc
    if not points:
        raise UsageError("empty propagation-model grid")
    return tuple(points)


def cmd_propmodel_sweep(args) -> int:
    dataset = load_dataset(args.dataset_dir)
    method = _composed_method(args, "propmodel-sweep applies to composed networks, not 'lpnn'")
    split = _resolve_split(args, dataset)
    grid = _parse_grid(args.grid) if args.grid else DEFAULT_PROP_GRID
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


def _toy_dataset(num_nodes: int, input_dim: int, num_classes: int, seed: int) -> Dataset:
    """A small random-but-deterministic dataset for gradient checks."""
    if num_nodes < 3:
        raise UsageError(f"gradient-check graph needs >= 3 nodes, got {num_nodes}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 99]))
    edges = [(i, (i + 1) % num_nodes) for i in range(num_nodes)]
    for _ in range(num_nodes):
        u, v = rng.integers(num_nodes, size=2)
        if u != v:
            edges.append((int(u), int(v)))
    return Dataset(
        name="gradient-check",
        topology=GraphTopology.from_edge_list(num_nodes, edges),
        features=rng.normal(size=(num_nodes, input_dim)),
        labels=rng.integers(num_classes, size=num_nodes),
        num_classes=num_classes,
    )


def cmd_gradcheck(args) -> int:
    if args.dataset_dir:
        dataset = load_dataset(args.dataset_dir)
    else:
        dataset = _toy_dataset(args.nodes, args.input_dim, args.classes, args.seed)
    method = _composed_method(
        args, "gradcheck covers the composed chains; 'lpnn' is not supported here"
    )
    net = method.bind(dataset.topology, args).compile(dataset, dropout=0.0)
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
    method = _composed_method(args, "cost terms are defined for the composed networks, not 'lpnn'")
    if args.dataset_dir:
        dataset = load_dataset(args.dataset_dir)
        n, edges = dataset.num_nodes, dataset.num_edges
        input_dim, classes = dataset.num_features, dataset.num_classes
    else:
        sizes = (args.nodes, args.edges, args.input_dim, args.classes)
        if any(v is None for v in sizes):
            raise UsageError(
                "cost needs --dataset-dir or all of --nodes, --edges, --input-dim, --classes"
            )
        n, edges, input_dim, classes = sizes
    spec = method.spec_for()
    dim = _representative_dim(spec, input_dim)
    cost = estimate_cost(spec, n, edges, dim, classes)
    print(f"{method.label}: nodes={n} edges={edges} dim={dim} classes={classes}")
    for name in ("feature_prop", "hidden", "classifier", "label_prop"):
        print(f"{name:<13}{getattr(cost, name)}")
    print(f"{'total':<13}{cost.total}")
    return 0


# ---------------------------------------------------------------------------
# Argument wiring


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
    p.add_argument("--seed", type=int, default=_TRAIN_DEFAULTS.seed)


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
    p.add_argument("--seed", type=int, default=0)
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
    # The loss weights are sampled; these placeholders let the lpnn method's
    # flag_config run, and the sampled values replace them.
    p.set_defaults(**dict.fromkeys(_LOSS_WEIGHT_KEYS))
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
    # Propagation flags stay so _resolve_method and the composed method's
    # flag_config share code, but the pairs come from --grid.
    p.set_defaults(operator="symmetric", alpha=None, beta=None)
    _add_train_flags(p)
    p.add_argument("--out", default=None, help="write the val/test table to this file")

    p = sub.add_parser("gradcheck", help="finite-difference check of the backward pass")
    _add_dataset_dir(p, required=False)
    _add_method_flags(p, default="gcn")
    _add_operator_flags(p)
    p.add_argument("--nodes", type=int, default=12, help="toy graph size when no dataset given")
    p.add_argument("--input-dim", type=int, default=5)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)

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
