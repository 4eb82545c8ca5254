"""Masked cross-entropy loss, Adam, the training loop, and gradient checking.

The loss is the mean (not the sum) of per-node cross-entropy over labeled
nodes, which keeps the learning rate comparable across the five training-set
sizes. Log arguments are clamped at 1e-12 so exact zeros produced by label
propagation cannot blow up the loss.
"""

from __future__ import annotations

import contextlib
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import NumericError, UsageError
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
    learning_rate: float = 0.01
    dropout: float = 0.5
    weight_decay: float = 5e-4
    max_epochs: int = 500
    patience: int = 25
    seed: int = 0
    precision: str = "float64"

    def __post_init__(self) -> None:
        # The search space draws these from (0, 1); zero is still accepted so a
        # frozen run (learning_rate=0) stays expressible. NaN fails every bound.
        if not (0.0 <= self.learning_rate < math.inf):
            raise UsageError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not (0.0 <= self.dropout < 1.0):
            raise UsageError(f"dropout must lie in [0, 1), got {self.dropout}")
        if not (0.0 <= self.weight_decay < math.inf):
            raise UsageError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.max_epochs < 1 or self.patience < 1:
            raise UsageError("max_epochs and patience must be >= 1")
        if self.precision not in ("float32", "float64"):
            raise UsageError(f"precision must be float32 or float64, got {self.precision!r}")


def masked_cross_entropy(p_bar, labels, labeled_set):
    """Mean negative log probability of the true class over labeled nodes.

    Returns (loss, d_p) where d_p holds -(1/|L|)/p at each labeled true-class
    entry (accumulated, so repeated indices are legal) and zero elsewhere.
    """
    p_bar = np.asarray(p_bar)
    labels = np.asarray(labels)
    idx = np.asarray(labeled_set, dtype=np.int64).ravel()
    if idx.size == 0:
        raise UsageError("masked cross-entropy needs a nonempty labeled set")
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
    gradient term decay * w. Returns new parameter arrays."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise UsageError("adam_step: params, grads, and state sizes disagree")
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        if weight_decay:
            g = g + weight_decay * p
        state.m[i] = ADAM_BETA1 * state.m[i] + (1.0 - ADAM_BETA1) * g
        state.v[i] = ADAM_BETA2 * state.v[i] + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = state.m[i] / c1
        v_hat = state.v[i] / c2
        out.append(p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS))
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


def _restrict_to(net: CompiledNetwork, dataset, rows, dtype=np.float64):
    """restrict(net, rows, dtype) and the labels of the copy's output rows."""
    part = restrict(net, rows, dtype)
    return part, dataset.labels[np.unique(np.asarray(rows, dtype=np.int64))]


def _seeded_start(net: CompiledNetwork, config: TrainConfig):
    """Initial parameters in config.precision, and the dropout stream."""
    init_stream, dropout_stream = np.random.SeedSequence(config.seed).spawn(2)
    params = init_params(net, np.random.default_rng(init_stream), config.precision)
    return params, np.random.default_rng(dropout_stream)


def _overlaps_validation(val_net: CompiledNetwork) -> bool:
    """Whether fit should run each validation pass beside the next step: only
    when the val copy's input is CSR and the caller is the main thread. scipy's
    CSR product releases the GIL, so a pass built around it runs on the idle
    core; a dense input's matrix products already use every BLAS thread, and a
    trainer on a worker thread (a sweep's pool) already shares the cores."""
    return sp.issparse(val_net.x_bar) and threading.current_thread() is threading.main_thread()


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
    """The early-stopping loop shared by every trainer.

    Each epoch calls step(), which takes one optimizer update and returns
    (training loss that update was computed from, model state after it), then
    evaluate(state), which returns the validation accuracy. A non-finite loss
    raises NumericError naming its epoch.
    Training stops after `patience` consecutive epochs without a strict
    improvement. Returns the state from the best epoch and the history.

    With overlap, epoch e's evaluate runs on a helper thread while epoch
    e + 1's step runs on the calling thread; the thread is joined before fit
    returns. Outputs are byte-identical to the sequential order as long as
    step never writes into a state it returned (states are kept and read by
    reference) and evaluate draws no randomness. When epoch e stops training,
    the step already taken for e + 1 is dropped, with any exception it raised;
    no step runs past max_epochs.
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

    with ThreadPoolExecutor(max_workers=1) if overlap else contextlib.nullcontext() as pool:
        if pool is None:
            epochs = _sequential(checked_step, evaluate, config.max_epochs)
        else:
            epochs = _overlapped(checked_step, evaluate, config.max_epochs, pool)
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


def train(net: CompiledNetwork, dataset, split, config: TrainConfig):
    """Full-batch training of a compiled network with early stopping on
    validation accuracy (see fit). Each epoch takes one Adam step and then
    evaluates in inference mode; returns the best epoch's parameters and the
    history. config.dropout must be the rate the network was compiled with.

    The step runs on a copy restricted to the train rows and the evaluation on
    one restricted to the val rows (see restrict), since the loss and the
    metric read nothing else; train-mode dropout draws over the restricted
    rows only. When the val copy's input is CSR and train is called on the
    main thread (see _overlaps_validation), each evaluation runs on a helper
    thread beside the next epoch's step, with the same output bytes; at an
    early stop one extra step has run and is dropped.
    """
    if config.dropout != net.dropout:
        raise UsageError(
            f"config dropout {config.dropout} differs from the rate {net.dropout} "
            "the network was compiled with"
        )
    if len(split.train) == 0 or len(split.val) == 0:
        raise UsageError("train needs nonempty train and val sets")
    train_net, train_labels = _restrict_to(net, dataset, split.train, config.precision)
    val_net, val_labels = _restrict_to(net, dataset, split.val, config.precision)

    params, dropout_rng = _seeded_start(net, config)
    adam = AdamState.for_params(params)

    def step():
        nonlocal params
        out, states = forward(train_net, params, mode="train", rng=dropout_rng)
        loss, d_p = masked_cross_entropy(out, train_labels, train_net.positions)
        grads = backward(train_net, states, d_p)
        params = adam_step(params, grads, adam, config.learning_rate, config.weight_decay)
        return loss, params

    def evaluate(state) -> float:
        val_out, _ = forward(val_net, state)
        return accuracy(val_out, val_labels, val_net.positions)

    return fit(step, evaluate, config, overlap=_overlaps_validation(val_net))


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
    part, labels = _restrict_to(net, dataset, labeled_set)
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
