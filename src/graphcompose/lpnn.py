"""Joint label-field / feature-network baseline.

Optimizes a free per-node label field f together with a feed-forward
classifier g under five weighted penalties: graph smoothness of f (a trace
through I - S), squared fit of f to one-hot labels, squared shrinkage of f on
unlabeled nodes, KL from labels to g on labeled nodes, and KL from the
row-softmax of f to g on unlabeled nodes. f rows are unconstrained reals, so
the unlabeled KL uses softmax(f) to obtain a valid distribution; predictions
come from g by default and from f's argmax as a logged alternative.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import NumericError, UsageError
from .evaluation import accuracy
from .graph import PropagationOperator, build_operator
from .layers import softmax_rows_forward, softmax_rows_vjp
from .linalg import spmm, spmm_transposed
from .networks import (
    LinearClassifier,
    Mlp,
    NetworkSpec,
    Softmax,
    backward,
    compile_network,
    forward,
    init_params,
)
from .training import PROB_FLOOR, AdamState, TrainConfig, _restrict_to, adam_step, fit

__all__ = [
    "LpnnWeights",
    "LpnnModel",
    "lpnn_loss",
    "build_g_network",
    "train_lpnn",
    "predict_from_g",
    "predict_from_f",
]

G_HIDDEN_DIMS = (128, 64)
# The feature network g: two hidden layers and a softmax.
G_SPEC = NetworkSpec("lpnn-g", (Mlp(G_HIDDEN_DIMS), LinearClassifier(), Softmax()))


@dataclass(frozen=True)
class LpnnWeights:
    mu_g: float
    mu_l: float
    mu_u: float
    lambda_l: float
    lambda_u: float

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value < 0:
                raise UsageError(f"lpnn weight {f.name} must be >= 0, got {value}")


def _clamped_log(p: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(p, PROB_FLOOR))


def lpnn_loss(f, g_out, op: PropagationOperator, labels, labeled_set, weights: LpnnWeights):
    """Evaluate the joint loss and its analytic gradients.

    Returns (loss, d_f, d_g_out) where d_g_out is the gradient with respect to
    g's softmax output (the caller chains it through g's layers).
    """
    if op.kind != "symmetric":
        raise UsageError(f"lpnn smoothness term expects a symmetric operator, got {op.kind!r}")
    f = np.asarray(f, dtype=np.float64)
    g_out = np.asarray(g_out, dtype=np.float64)
    labels = np.asarray(labels)
    n, m = f.shape
    if g_out.shape != (n, m):
        raise UsageError(f"f shape {f.shape} and g output shape {g_out.shape} disagree")
    labeled = np.zeros(n, dtype=bool)
    labeled[np.asarray(labeled_set, dtype=np.int64)] = True
    unlabeled = ~labeled

    d_f = np.zeros_like(f)
    d_g = np.zeros_like(g_out)
    loss = 0.0

    # Smoothness: Tr(f^T (I - S) f) = ||f||^2 - <f, S f>.
    if weights.mu_g:
        sf = spmm(op.matrix, f)
        trace = float((f * f).sum() - (f * sf).sum())
        scale = max(1.0, float((f * f).sum()))
        if trace < -1e-8 * scale:
            raise NumericError(f"smoothness trace term went negative: {trace}")
        loss += weights.mu_g * trace
        d_f += weights.mu_g * (2.0 * f - sf - spmm_transposed(op.matrix, f))

    one_hot = np.zeros((n, m), dtype=np.float64)
    one_hot[np.arange(n), labels] = 1.0

    if weights.mu_l and labeled.any():
        diff = f[labeled] - one_hot[labeled]
        loss += weights.mu_l * float((diff * diff).sum())
        d_f[labeled] += 2.0 * weights.mu_l * diff

    if weights.mu_u and unlabeled.any():
        fu = f[unlabeled]
        loss += weights.mu_u * float((fu * fu).sum())
        d_f[unlabeled] += 2.0 * weights.mu_u * fu

    # Labeled KL against one-hot targets reduces to -log g at the true class.
    if weights.lambda_l and labeled.any():
        g_true = np.maximum(g_out[labeled, labels[labeled]], PROB_FLOOR)
        loss += weights.lambda_l * float(-np.log(g_true).sum())
        rows = np.flatnonzero(labeled)
        d_g[rows, labels[rows]] += -weights.lambda_l / g_true

    if weights.lambda_u and unlabeled.any():
        p = softmax_rows_forward(f[unlabeled])
        log_ratio = _clamped_log(p) - _clamped_log(g_out[unlabeled])
        loss += weights.lambda_u * float((p * log_ratio).sum())
        d_g[unlabeled] += -weights.lambda_u * p / np.maximum(g_out[unlabeled], PROB_FLOOR)
        # d/df of KL(softmax(f) || g) through the full softmax Jacobian.
        d_f[unlabeled] += weights.lambda_u * softmax_rows_vjp(p, log_ratio + 1.0)

    return float(loss), d_f, d_g


def build_g_network(input_dim: int, num_classes: int, dropout: float = 0.0):
    """g compiled without an input: its chain and parameter shapes."""
    return compile_network(G_SPEC, {}, input_dim, num_classes, dropout=dropout)


@dataclass(eq=False)
class LpnnModel:
    f: np.ndarray
    g_net: object
    g_params: list


def predict_from_g(model: LpnnModel) -> np.ndarray:
    """g's class distributions on every node."""
    out, _ = forward(model.g_net, model.g_params)
    return out


def predict_from_f(model: LpnnModel) -> np.ndarray:
    """The label field read as row distributions (argmax matches raw f)."""
    return softmax_rows_forward(model.f)


def train_lpnn(dataset, split, config: TrainConfig, weights: LpnnWeights):
    """Joint Adam optimization of f and g under the shared early-stopping loop
    (training.fit). Validation and the returned best snapshot follow g's
    accuracy, since g serves predictions by default. g is compiled with the
    features as its input (CSR when they are sparse); the step runs it on
    every node, since the loss reads them all, and validation on a copy
    restricted to the val rows. Trains in float64 only."""
    if config.precision != "float64":
        raise UsageError(
            "method 'lpnn' trains in float64 only; --precision float32 does not apply"
        )
    labels = np.asarray(dataset.labels)
    train_idx = np.asarray(split.train, dtype=np.int64)
    val_idx = np.asarray(split.val, dtype=np.int64)
    if train_idx.size == 0 or val_idx.size == 0:
        raise UsageError("train_lpnn needs nonempty train and val sets")

    op = build_operator(dataset.topology, "symmetric")
    g_net = compile_network(
        G_SPEC,
        {},
        dataset.num_features,
        dataset.num_classes,
        features=np.asarray(dataset.features, dtype=np.float64),
        dropout=config.dropout,
    )
    val_net, val_labels = _restrict_to(g_net, dataset, val_idx)

    seed_root = np.random.SeedSequence(config.seed)
    init_stream, dropout_stream = seed_root.spawn(2)
    g_params = init_params(g_net, np.random.default_rng(init_stream))
    dropout_rng = np.random.default_rng(dropout_stream)
    f = np.zeros((dataset.num_nodes, dataset.num_classes), dtype=np.float64)

    adam_f = AdamState.for_params([f])
    adam_g = AdamState.for_params(g_params)

    def step() -> float:
        nonlocal f, g_params
        g_out, states = forward(g_net, g_params, mode="train", rng=dropout_rng)
        loss, d_f, d_g_out = lpnn_loss(f, g_out, op, labels, train_idx, weights)
        g_grads = backward(g_net, states, d_g_out)
        # Weight decay shrinks only g's linear weights, never the label field.
        f = adam_step([f], [d_f], adam_f, config.learning_rate, 0.0)[0]
        g_params = adam_step(g_params, g_grads, adam_g, config.learning_rate, config.weight_decay)
        return loss

    def evaluate():
        val_out, _ = forward(val_net, g_params)
        return accuracy(val_out, val_labels, val_net.positions), (f, g_params)

    (best_f, best_g), history = fit(step, evaluate, config)
    return LpnnModel(f=best_f, g_net=g_net, g_params=best_g), history
