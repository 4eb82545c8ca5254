"""Masked cross-entropy loss, Adam, the training loop, and gradient checking.

The loss is the mean (not the sum) of per-node cross-entropy over labeled
nodes, which keeps the learning rate comparable across the five training-set
sizes. Log arguments are clamped at 1e-12 so exact zeros produced by label
propagation cannot blow up the loss.
"""

from __future__ import annotations

import contextlib
import functools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import NumericError, UsageError, _is_int, _row_ids
from .evaluation import accuracy
from .networks import CompiledNetwork, backward, forward, init_params, restrict

__all__ = [
    "PROB_FLOOR",
    "TrainConfig",
    "AdamState",
    "TrainHistory",
    "GradCheckReport",
    "masked_cross_entropy",
    "adam_step",
    "fit",
    "train",
    "gradient_check",
]

PROB_FLOOR = 1e-12

# Adam's moment decay rates and denominator guard, and the central-difference
# step of gradient_check.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
FINITE_DIFF_STEP = 1e-5


@dataclass(frozen=True)
class TrainConfig:
    """One training run's settings. precision ("float32", the default, or
    "float64") is the dtype of the parameters, the optimizer state and every
    copy a run trains, validates and tests on; set-up (loading, operators,
    compiling and the fold inside restrict) runs in float64 either way.
    float64 reproduces, byte for byte, the runs of versions whose default it
    was."""

    learning_rate: float = 0.01
    dropout: float = 0.5
    weight_decay: float = 5e-4
    max_epochs: int = 500
    patience: int = 25
    seed: int = 0
    precision: str = "float32"

    def __post_init__(self) -> None:
        # The search space draws these from (0, 1); zero is still accepted so a
        # frozen run (learning_rate=0) stays expressible. NaN fails every bound.
        if not (0.0 <= self.learning_rate < math.inf):
            raise UsageError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not (0.0 <= self.dropout < 1.0):
            raise UsageError(f"dropout must lie in [0, 1), got {self.dropout}")
        if not (0.0 <= self.weight_decay < math.inf):
            raise UsageError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        for name, low in (("max_epochs", 1), ("patience", 1), ("seed", 0)):
            if not (_is_int(value := getattr(self, name)) and value >= low):
                raise UsageError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.precision not in ("float32", "float64"):
            raise UsageError(f"precision must be float32 or float64, got {self.precision!r}")


def masked_cross_entropy(p_bar, labels, labeled_set):
    """Mean negative log probability of the true class over labeled nodes.

    Returns (loss, d_p) where d_p holds -(1/|L|)/p at each labeled true-class
    entry (accumulated, so repeated indices are legal) and zero elsewhere.
    """
    p_bar = np.asarray(p_bar)
    labels = np.asarray(labels)
    idx = _row_ids(labeled_set, "masked cross-entropy", p_bar.shape[0])
    true = labels[idx]
    p = np.maximum(p_bar[idx, true], PROB_FLOOR)
    loss = float(-np.log(p).mean())
    d_p = np.zeros_like(p_bar)
    np.add.at(d_p, (idx, true), -1.0 / (idx.size * p))
    return loss, d_p


@dataclass
class AdamState:
    m: list
    v: list
    step: int = 0

    @classmethod
    def for_params(cls, params) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
        )


def adam_step(params, grads, state: AdamState, lr: float, weight_decay: float = 0.0):
    """One bias-corrected Adam update; weight decay enters as an added
    gradient term decay * w. Updates state.m and state.v in place, writes
    into neither params nor grads, and returns new parameter arrays."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise UsageError("adam_step: params, grads, and state sizes disagree")
    for i, (p, g) in enumerate(zip(params, grads)):
        if g.shape != p.shape:
            raise UsageError(f"adam_step: gradient {i} has shape {g.shape}, its parameter {p.shape}")
        if g.dtype != p.dtype:
            raise UsageError(f"adam_step: gradient {i} has dtype {g.dtype}, its parameter {p.dtype}")
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    out = []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if weight_decay:
            g = g + weight_decay * p
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        sq = g * g
        sq *= 1.0 - ADAM_BETA2
        v *= ADAM_BETA2
        v += sq
        step = m / c1
        step *= lr
        den = np.divide(v, c2, out=sq)  # sq is dead once v holds it
        np.sqrt(den, out=den)
        den += ADAM_EPS
        step /= den
        out.append(p - step)
    return out


@dataclass(frozen=True)
class TrainHistory:
    train_loss: tuple[float, ...]
    val_accuracy: tuple[float, ...]
    best_epoch: int
    best_val_accuracy: float
    stopped_epoch: int

    def to_text(self) -> str:
        lines = ["epoch\ttrain_loss\tval_accuracy"]
        for e, (loss, acc) in enumerate(zip(self.train_loss, self.val_accuracy), start=1):
            lines.append(f"{e}\t{loss:.10g}\t{acc:.10g}")
        lines.append(f"# best_epoch {self.best_epoch} best_val {self.best_val_accuracy:.10g}")
        return "\n".join(lines) + "\n"


def _seeded_start(net: CompiledNetwork, config: TrainConfig):
    """Initial parameters in config.precision, and the dropout stream."""
    init_stream, dropout_stream = np.random.SeedSequence(config.seed).spawn(2)
    params = init_params(net, np.random.default_rng(init_stream), config.precision)
    return params, np.random.default_rng(dropout_stream)


@functools.cache
def _openblas():
    """The OpenBLAS library numpy bundles (numpy.libs/*openblas*), opened with
    ctypes on first use, or None when numpy bundles none (a system BLAS)."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            return ctypes.CDLL(str(path))
        except OSError:
            continue
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS at one thread, then restore the
    count it had. A main-thread fit holds it (see _fit_validated), and so
    does a sweep's pool: each thread then runs its matrix products on one
    core instead of contending for every BLAS thread, and no multi-threaded
    product leaves OpenBLAS's worker spinning. Outputs are the same bytes at
    any BLAS thread count, so only the speed changes.

    The setting is process-wide: it holds for every thread's BLAS calls while
    the block runs, so worker threads never enter it (two entering and
    leaving at once could leave the count at 1). Blocks nest on one thread.
    Without a bundled OpenBLAS that exports the thread control, this does
    nothing."""
    import ctypes

    lib = _openblas()
    set_threads = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    if set_threads is None or get_threads is None:
        yield
        return
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    previous = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)


def _sequential(step, evaluate, epochs: int):
    for epoch in range(1, epochs + 1):
        loss, state = step(epoch)
        yield loss, evaluate(state), state


def _overlapped(step, evaluate, epochs: int, pool: ThreadPoolExecutor):
    """Epoch e's evaluate runs on the pool while epoch e + 1's step runs here.
    That step is speculative: its result, or the exception it raised, is kept
    until the consumer asks for epoch e + 1, and dropped if it never does."""
    loss, state = step(1)
    for epoch in range(2, epochs + 1):
        pending = pool.submit(evaluate, state)
        try:
            ahead = step(epoch)
        except Exception as exc:
            ahead = exc
        yield loss, pending.result(), state
        if isinstance(ahead, Exception):
            raise ahead
        loss, state = ahead
    yield loss, evaluate(state), state


def fit(step, evaluate, config: TrainConfig, *, overlap: bool = False):
    """The early-stopping loop; every trainer reaches it through _fit_validated.

    Each epoch calls step(), which takes one optimizer update and returns
    (training loss that update was computed from, model state after it), then
    evaluate(state), which returns the validation accuracy. A non-finite loss
    raises NumericError naming its epoch.
    Training stops after `patience` consecutive epochs without a strict
    improvement. Returns the state from the best epoch and the history.

    With overlap, epoch e's evaluate runs on a helper thread while epoch
    e + 1's step runs on the calling thread, with numpy's OpenBLAS at one
    thread (see _one_blas_thread); the helper is joined and the thread count
    restored before fit returns or raises. Outputs are byte-identical to the
    sequential order as long as step never writes into a state it returned
    (states are kept and read by reference) and evaluate draws no randomness.
    When epoch e stops training, the step already taken for e + 1 is dropped,
    with any exception it raised; no step runs past max_epochs. Without
    overlap, fit starts no thread and leaves the BLAS thread count alone.
    _fit_validated decides which order a trainer gets.
    """
    losses: list[float] = []
    accs: list[float] = []
    best_acc = -np.inf
    best_epoch = 0
    best_state = None
    stale = 0
    stopped = config.max_epochs

    def checked_step(epoch: int):
        loss, state = step()
        if not np.isfinite(loss):
            raise NumericError(
                f"non-finite training loss at epoch {epoch} "
                f"(learning_rate={config.learning_rate})"
            )
        return loss, state

    with contextlib.ExitStack() as held:
        if overlap:
            held.enter_context(_one_blas_thread())
            pool = held.enter_context(ThreadPoolExecutor(max_workers=1))
            epochs = _overlapped(checked_step, evaluate, config.max_epochs, pool)
        else:
            epochs = _sequential(checked_step, evaluate, config.max_epochs)
        for epoch, (loss, val_acc, state) in enumerate(epochs, start=1):
            losses.append(loss)
            accs.append(val_acc)
            if val_acc > best_acc:
                best_acc = val_acc
                best_epoch = epoch
                best_state = state
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    stopped = epoch
                    break

    history = TrainHistory(
        train_loss=tuple(losses),
        val_accuracy=tuple(accs),
        best_epoch=best_epoch,
        best_val_accuracy=float(best_acc),
        stopped_epoch=stopped,
    )
    return best_state, history


def _fit_validated(net: CompiledNetwork, dataset, val_rows, config: TrainConfig, step,
                   params_of=lambda state: state):
    """fit(step, ...) scored by accuracy on val_rows: every trainer's
    validation. Each epoch runs net's infer-mode copy restricted to val_rows
    (see restrict) on params_of(state). On the main thread, at one BLAS
    thread (see _one_blas_thread), the pass overlaps the next step when the
    copy's input is dense (a dense fold plan or dense features): its dense
    products release the GIL, so it runs on the second core. A CSR input's
    pass is too small to pay for the handoff and the helper's malloc arena,
    so it runs in order. On a worker thread (a sweep's pool), which already
    shares the cores, the loop runs in order and leaves the BLAS thread count
    alone. The output bytes are the same in every case."""
    val_net = restrict(net, val_rows, config.precision, "infer")
    val_labels = dataset.labels[val_net.rows]

    def evaluate(state) -> float:
        val_out, _ = forward(val_net, params_of(state))
        return accuracy(val_out, val_labels, val_net.positions)

    if threading.current_thread() is not threading.main_thread():
        return fit(step, evaluate, config)
    if not sp.issparse(val_net.x_bar):
        return fit(step, evaluate, config, overlap=True)
    with _one_blas_thread():
        return fit(step, evaluate, config)


def train(net: CompiledNetwork, dataset, split, config: TrainConfig):
    """Full-batch training of a compiled network with early stopping on
    validation accuracy (see fit). Each epoch takes one Adam step and then
    evaluates in inference mode; returns the best epoch's parameters and the
    history. config.dropout must be the rate the network was compiled with.

    The step runs on a copy restricted to the train rows and the evaluation on
    one restricted to the val rows (see restrict), since the loss and the
    metric read nothing else; train-mode dropout draws over the restricted
    rows only, on the train copy's folded input. The val copy is built for
    infer mode: on a CSR fold plan it multiplies the raw feature rows by the
    first weight before smoothing, so only the train rows are folded. Both
    copies are in config.precision and stay memoized on net. When train is
    called on the main thread and the val copy's input is dense (see
    _fit_validated, shared with train_lpnn), each evaluation runs on a helper
    thread beside the next epoch's step, with the same output bytes; at an
    early stop one extra step has run and is dropped. On a CSR input it runs
    in order, at one BLAS thread.
    """
    if config.dropout != net.dropout:
        raise UsageError(
            f"config dropout {config.dropout} differs from the rate {net.dropout} "
            "the network was compiled with"
        )
    if len(split.train) == 0 or len(split.val) == 0:
        raise UsageError("train needs nonempty train and val sets")
    train_net = restrict(net, split.train, config.precision)
    train_labels = dataset.labels[train_net.rows]
    params, dropout_rng = _seeded_start(net, config)
    adam = AdamState.for_params(params)

    def step():
        nonlocal params
        out, states = forward(train_net, params, mode="train", rng=dropout_rng)
        loss, d_p = masked_cross_entropy(out, train_labels, train_net.positions)
        grads = backward(train_net, states, d_p)
        params = adam_step(params, grads, adam, config.learning_rate, config.weight_decay)
        return loss, params

    return _fit_validated(net, dataset, split.val, config, step)


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    per_param: tuple[float, ...]
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def gradient_check(
    net: CompiledNetwork,
    dataset,
    labeled_set=None,
    *,
    tolerance: float = 1e-5,
    seed: int = 0,
) -> GradCheckReport:
    """Compare analytic parameter gradients of the full pipeline (forward plus
    masked cross-entropy) against central finite differences. The pipeline
    runs on the copy restricted to the labeled set, as train runs it.

    Requires a dropout-free, float64 network on a small instance.
    """
    if not (0.0 < tolerance < math.inf):
        raise UsageError(f"gradient check tolerance must be finite and > 0, got {tolerance}")
    if labeled_set is None:
        labeled_set = np.arange(len(dataset.labels))
    part = restrict(net, labeled_set)
    labels = dataset.labels[part.rows]
    params = init_params(net, np.random.default_rng(np.random.SeedSequence(seed)), np.float64)

    out, states = forward(part, params, mode="train")
    _, d_p = masked_cross_entropy(out, labels, part.positions)
    analytic = backward(part, states, d_p)

    def loss_at(ps) -> float:
        probe, _ = forward(part, ps)
        return masked_cross_entropy(probe, labels, part.positions)[0]

    per_param: list[float] = []
    for pi in range(len(params)):
        worst = 0.0
        flat = params[pi].ravel()
        for j in range(flat.size):
            original = flat[j]
            flat[j] = original + FINITE_DIFF_STEP
            up = loss_at(params)
            flat[j] = original - FINITE_DIFF_STEP
            down = loss_at(params)
            flat[j] = original
            numeric = (up - down) / (2.0 * FINITE_DIFF_STEP)
            a = analytic[pi].ravel()[j]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            worst = max(worst, rel)
        per_param.append(worst)
    max_rel = max(per_param) if per_param else 0.0
    return GradCheckReport(max_rel_error=max_rel, per_param=tuple(per_param), tolerance=tolerance)
