"""In-memory spans around the package's public functions.

The package looks its collaborators up as module globals at call time (for
example `graphcompose.training.train` calls the `forward` it imported from
`graphcompose.networks`), so replacing those module attributes with a timing
wrapper records every call without touching the package. `install()` does
that for the table below and `restore()` puts the originals back.

Each span records a name, start, end, parent span, run id and thread, plus a
few attributes (entry kind, elements read, forward mode). Spans stay in memory
until the run ends; the functions at the bottom turn them into per-epoch and
per-call numbers.
"""

from __future__ import annotations

import bisect
import contextlib
import importlib
import itertools
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

ENTRY_KINDS = ("dropout", "linear", "relu", "smooth", "softmax", "lp")

# (module, attribute, span name, entry kind, phase). Entry wrappers classify
# the call as one chain entry when its parent span is a forward or backward;
# `spmm` entries are resolved to "smooth" or "lp" by their position relative
# to the softmax.
WRAPS = (
    ("graphcompose.networks", "dropout_forward", "entry", "dropout", "fwd"),
    ("graphcompose.networks", "dropout_vjp", "entry", "dropout", "vjp"),
    ("graphcompose.networks", "linear_forward", "entry", "linear", "fwd"),
    ("graphcompose.networks", "linear_vjp", "entry", "linear", "vjp"),
    ("graphcompose.networks", "relu_forward", "entry", "relu", "fwd"),
    ("graphcompose.networks", "relu_vjp", "entry", "relu", "vjp"),
    ("graphcompose.networks", "softmax_rows_forward", "entry", "softmax", "fwd"),
    ("graphcompose.networks", "softmax_rows_vjp", "entry", "softmax", "vjp"),
    ("graphcompose.networks", "spmm", "entry", "spmm", "fwd"),
    ("graphcompose.networks", "spmm_transposed", "entry", "spmm", "vjp"),
    ("graphcompose.training", "forward", "networks.forward", None, None),
    ("graphcompose.training", "backward", "networks.backward", None, None),
    ("graphcompose.training", "masked_cross_entropy", "training.loss", None, None),
    ("graphcompose.training", "adam_step", "training.adam", None, None),
    ("graphcompose.training", "accuracy", "evaluation.accuracy", None, None),
    ("graphcompose.lpnn", "lpnn_loss", "lpnn.loss", None, None),
    ("graphcompose.lpnn", "forward", "networks.forward", None, None),
    ("graphcompose.lpnn", "backward", "networks.backward", None, None),
    ("graphcompose.lpnn", "adam_step", "lpnn.adam", None, None),
    ("graphcompose.cli", "train", "cli.train", None, None),
    ("graphcompose.cli", "compile_network", "networks.compile", None, None),
    ("graphcompose.cli", "load_dataset", "data.load_dataset", None, None),
    ("graphcompose.cli", "build_operator", "graph.build_operator", None, None),
    ("graphcompose.cli", "generate_splits", "data.splits", None, None),
    ("graphcompose.cli", "save_splits", "data.splits", None, None),
)


@dataclass(eq=False)
class Span:
    id: int
    name: str
    parent: int | None
    run: int
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def elements(value) -> int:
    """Elements stored in an array argument: dense size, or stored entries of
    a sparse matrix (scipy's nnz or the package's CSR values)."""
    if isinstance(value, np.ndarray):
        return int(value.size)
    nnz = getattr(value, "nnz", None)
    if isinstance(nnz, (int, np.integer)):
        return int(nnz)
    values = getattr(value, "values", None)
    if isinstance(values, np.ndarray):
        return int(values.size)
    return 0


class Tracer:
    """Collects finished spans. The span stack is per thread; a thread's
    outermost span takes the current operation as parent, so sweep trials run
    on pool threads still hang under the sweep that started them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._run = 0
        self._operation: Span | None = None
        self._originals: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else self._operation

    def open(self, name: str, **attrs) -> Span:
        parent = self.current()
        span = Span(
            next(self._ids),
            name,
            None if parent is None else parent.id,
            self._run,
            threading.get_ident(),
            time.perf_counter(),
            attrs=attrs,
        )
        self._stack().append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        span = self.open(name, **attrs)
        try:
            yield span
        finally:
            self.close(span)

    @contextlib.contextmanager
    def operation(self, name: str, **attrs):
        """A top-level benchmark operation; it starts a new run id."""
        self._run += 1
        with self.span(name, **attrs) as span:
            self._operation = span
            try:
                yield span
            finally:
                self._operation = None

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name, kind, phase in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                continue
            if kind is None:
                wrapper = self._plain(original, name, module_name.rsplit(".", 1)[1])
            else:
                wrapper = self._entry(original, kind, phase)
            self._originals.append((module, attr, original))
            setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _plain(self, fn, name: str, caller: str):
        def traced(*args, **kwargs):
            attrs = {"caller": caller}
            if name == "networks.forward":
                attrs["mode"] = args[3] if len(args) > 3 else kwargs.get("mode", "infer")
            with self.span(name, **attrs):
                return fn(*args, **kwargs)

        return traced

    def _entry(self, fn, kind: str, phase: str):
        def traced(*args, **kwargs):
            parent = self.current()
            if parent is None or parent.name not in ("networks.forward", "networks.backward"):
                # Not a chain entry (for example the folding inside compile).
                with self.span(f"networks.{fn.__name__}"):
                    return fn(*args, **kwargs)
            resolved = kind
            if kind == "spmm":
                # Forward: spmm after the softmax is label propagation.
                # Backward runs in reverse, so lp vjps come before the softmax's.
                seen = parent.attrs.get("softmax_seen", False)
                resolved = "lp" if seen == (phase == "fwd") else "smooth"
            attrs = {"kind": resolved, "phase": phase, "elements": sum(map(elements, args))}
            if resolved == "linear":
                attrs["out_dim"] = int(np.shape(args[1])[1])
            with self.span("entry", **attrs):
                result = fn(*args, **kwargs)
            if resolved == "softmax":
                parent.attrs["softmax_seen"] = True
            return result

        return traced


# ---------------------------------------------------------------------------
# Aggregation


def self_seconds(span: Span, children) -> float:
    """Duration minus the part of it that the child spans cover."""
    covered = 0.0
    cursor = span.start
    for child in sorted(children, key=lambda s: s.start):
        lo, hi = max(child.start, cursor), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.seconds - covered


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile_90(values) -> float:
    values = sorted(values)
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=10)[8])


def _children(spans):
    children: dict[int | None, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    return children


def _epoch_record(spans, children, num_classes: int) -> dict[str, float]:
    """Per-epoch sums over the spans that started inside one epoch window."""
    rec: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        rec[key] = rec.get(key, 0.0) + value

    for s in spans:
        ms = 1000.0 * s.seconds
        caller = s.attrs.get("caller")
        if s.name == "entry":
            kind = s.attrs["kind"]
            add(f"networks.{kind}.{s.attrs['phase']}_ms", ms)
            add(f"networks.{kind}.calls", 1)
            add(f"networks.{kind}.elements", s.attrs["elements"])
            if kind == "smooth":
                term = "feature_prop"
            elif kind == "lp":
                term = "label_prop"
            elif kind == "linear":
                term = "classifier" if s.attrs["out_dim"] == num_classes else "hidden"
            else:
                term = "unmodelled"
            add(f"cost.{term}.ms", ms)
            continue
        if s.name in ("networks.forward", "networks.backward"):
            add("networks.executor_self_ms", 1000.0 * self_seconds(s, children.get(s.id, ())))
        if s.name == "networks.forward":
            mode = s.attrs["mode"]
            add(f"networks.forward_{mode}_ms", ms)
            if caller == "training" and mode == "infer":
                add("training.validation_ms", ms)
            if caller == "lpnn" and mode == "train":
                add("lpnn.g_forward_ms", ms)
        elif s.name == "networks.backward":
            add("networks.backward_ms", ms)
            if caller == "lpnn":
                add("lpnn.g_backward_ms", ms)
        elif s.name == "evaluation.accuracy":
            add("evaluation.accuracy_ms", ms)
            add("training.validation_ms", ms)
        elif s.name in ("training.loss", "training.adam", "lpnn.loss", "lpnn.adam"):
            add(f"{s.name}_ms", ms)
    return rec


def epoch_records(spans, call_names, num_classes: int):
    """Split every training call into epochs, each window running from one
    train-mode forward to the next (the last one to the end of the call).

    Returns (records, epoch_ms): one dict of per-epoch sums per epoch, and the
    lengths of the complete windows only.
    """
    children = _children(spans)

    def descendants(span: Span) -> list[Span]:
        out, todo = [], list(children.get(span.id, ()))
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(children.get(s.id, ()))
        return out

    records: list[dict[str, float]] = []
    epoch_ms: list[float] = []
    for call in (s for s in spans if s.name in call_names):
        inside = sorted(descendants(call), key=lambda s: s.start)
        starts = [
            s.start
            for s in inside
            if s.name == "networks.forward" and s.attrs["mode"] == "train" and s.parent == call.id
        ]
        if not starts:
            continue
        buckets: list[list[Span]] = [[] for _ in starts]
        for s in inside:
            i = bisect.bisect_right(starts, s.start) - 1
            if i >= 0:
                buckets[i].append(s)
        records += [_epoch_record(b, children, num_classes) for b in buckets]
        epoch_ms += [1000.0 * (b - a) for a, b in zip(starts, starts[1:])]
    return records, epoch_ms


def epoch_medians(records, keys) -> dict[str, float]:
    return {key: median(r.get(key, 0.0) for r in records) for key in keys}


def per_call_seconds(spans, name: str) -> float:
    return median(s.seconds for s in spans if s.name == name)


def per_parent_seconds(spans, name: str) -> float:
    """Median over parent spans of the summed duration of `name` spans."""
    sums: dict[int | None, float] = {}
    for s in spans:
        if s.name == name:
            sums[s.parent] = sums.get(s.parent, 0.0) + s.seconds
    return median(sums.values())


def sweep_metrics(spans, budget: int) -> dict[str, float]:
    """Trial timing inside traced sweeps. A trial runs from its compile to the
    end of its train call on the same thread; the last train call of a sweep
    is the winner's retrain and is not a trial."""
    trial_s: list[float] = []
    compile_s: list[float] = []
    concurrency: list[float] = []
    for sweep in (s for s in spans if s.name == "bench.sweep"):
        inside = [s for s in spans if s.run == sweep.run]
        trains = sorted((s for s in inside if s.name == "cli.train"), key=lambda s: s.start)
        compiles = [s for s in inside if s.name == "networks.compile"]
        total = 0.0
        for train in trains[:budget]:
            before = [c for c in compiles if c.thread == train.thread and c.end <= train.start]
            comp = max(before, key=lambda c: c.end)
            trial_s.append(train.end - comp.start)
            compile_s.append(comp.seconds)
            total += train.end - comp.start
        concurrency.append(total / sweep.seconds)
    return {
        "cli.trial_s_p50": median(trial_s),
        "cli.trial_s_p90": percentile_90(trial_s),
        "cli.trial_compile_s": median(compile_s),
        "cli.concurrency": median(concurrency),
    }
