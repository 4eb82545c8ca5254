"""Accuracy, split aggregation, and average-rank comparison across datasets."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError, UsageError, _is_int

__all__ = [
    "RunResult",
    "RankTable",
    "accuracy",
    "aggregate",
    "format_cell",
    "average_rank",
    "render_report",
]


def accuracy(p_bar, labels, node_set) -> float:
    """Fraction of nodes whose argmax class matches the label. Argmax ties
    resolve to the lowest class index."""
    idx = np.asarray(node_set, dtype=np.int64).ravel()
    if idx.size == 0:
        raise UsageError("accuracy needs a nonempty node set")
    preds = np.argmax(np.asarray(p_bar)[idx], axis=1)
    return float(np.mean(preds == np.asarray(labels)[idx]))


def aggregate(values) -> tuple[float, float]:
    """Mean and sample standard deviation (N-1 denominator) over split results."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        raise UsageError(
            f"aggregate needs at least 2 results for a sample std, got {values.size}"
        )
    return float(values.mean()), float(values.std(ddof=1))


def format_cell(mean: float, std: float | None = None) -> str:
    """Accuracies as percentages with one decimal, e.g. '82.2 (1.1)'."""
    if std is None:
        return f"{100.0 * mean:.1f}"
    return f"{100.0 * mean:.1f} ({100.0 * std:.1f})"


def _is_fraction(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and 0 <= v <= 1


# The JSON value each result field holds, and how to name it.
_RESULT_FIELDS = {
    "method": ("a string", lambda v: isinstance(v, str)),
    "dataset": ("a string", lambda v: isinstance(v, str)),
    "size_index": ("an integer", _is_int),
    "split_index": ("an integer", _is_int),
    "test_accuracy": ("a number in [0, 1]", _is_fraction),
    "best_val_accuracy": ("a number in [0, 1]", _is_fraction),
    "config": ("an object", lambda v: isinstance(v, dict)),
}


@dataclass(frozen=True)
class RunResult:
    method: str
    dataset: str
    size_index: int
    split_index: int
    test_accuracy: float
    best_val_accuracy: float
    config: dict

    def __post_init__(self) -> None:
        for name, (expected, accepts) in _RESULT_FIELDS.items():
            value = getattr(self, name)
            if not accepts(value):
                raise DataError(
                    f"malformed run result record: field {name!r} must be {expected}, got {value!r}"
                )
        for name in ("size_index", "split_index"):  # a numpy integer is no JSON number
            object.__setattr__(self, name, int(getattr(self, name)))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunResult":
        """Read a result document; config may be absent."""
        if not isinstance(doc, dict):
            raise DataError(f"malformed run result record: expected an object, got {doc!r}")
        doc = {"config": {}, **doc}
        missing = [name for name in _RESULT_FIELDS if name not in doc]
        if missing:
            raise DataError(f"malformed run result record: missing field {missing[0]!r}")
        return cls(**{name: doc[name] for name in _RESULT_FIELDS})


@dataclass(frozen=True, eq=False)
class RankTable:
    methods: tuple[str, ...]
    datasets: tuple[str, ...]
    means: np.ndarray  # methods x datasets
    ranks: np.ndarray  # methods x datasets, fractional ties
    average_rank: np.ndarray  # per method


def _fractional_ranks(column: np.ndarray) -> np.ndarray:
    """Rank 1 for the highest value; exact ties share the average of the ranks
    they occupy."""
    ranks = np.empty(column.shape[0], dtype=np.float64)
    for i, v in enumerate(column):
        higher = int(np.sum(column > v))
        tied = int(np.sum(column == v))
        ranks[i] = higher + (tied + 1) / 2.0
    return ranks


def average_rank(mean_table) -> RankTable:
    """mean_table maps method -> dataset -> mean accuracy. Every method must
    cover every dataset any method has; the missing cells are named otherwise."""
    methods = tuple(mean_table)
    if not methods:
        raise UsageError("average_rank needs at least one method")
    datasets = tuple(dict.fromkeys(d for m in methods for d in mean_table[m]))
    missing = [(m, d) for m in methods for d in datasets if d not in mean_table[m]]
    if missing:
        cells = ", ".join(f"({m}, {d})" for m, d in missing)
        raise DataError(f"comparison table is incomplete; missing cells: {cells}")
    means = np.array([[mean_table[m][d] for d in datasets] for m in methods], dtype=np.float64)
    ranks = np.column_stack([_fractional_ranks(means[:, j]) for j in range(len(datasets))])
    return RankTable(
        methods=methods,
        datasets=datasets,
        means=means,
        ranks=ranks,
        average_rank=ranks.mean(axis=1),
    )


def render_report(stats, table: RankTable) -> str:
    """Text table with one 'mean (std)' cell per (method, dataset) and the
    average rank in the final column. stats maps method -> dataset ->
    (mean, std or None)."""
    header = ["method"] + list(table.datasets) + ["R"]
    rows = [header]
    for i, m in enumerate(table.methods):
        row = [m]
        for d in table.datasets:
            mean, std = stats[m][d]
            row.append(format_cell(mean, std))
        row.append(f"{table.average_rank[i]:.1f}")
        rows.append(row)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = []
    for r in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines) + "\n"
