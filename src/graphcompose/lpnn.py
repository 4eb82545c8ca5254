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
from .graph import build_operator
from .networks import (
    LinearClassifier,
    Mlp,
    NetworkSpec,
    Softmax,
    backward,
    compile_network,
    forward,
    restrict,
    softmax_rows_forward,
    softmax_rows_vjp,
)
from .training import (
    PROB_FLOOR,
    AdamState,
    TrainConfig,
    _fit_validated,
    _seeded_start,
    adam_step,
)

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
            if not (0.0 <= value < np.inf):
                raise UsageError(f"lpnn weight {f.name} must be finite and >= 0, got {value}")


def _clamped_log(p: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(p, PROB_FLOOR))


def lpnn_loss(f, g_out, s, labels, labeled_set, weights: LpnnWeights):
    """Evaluate the joint loss and its analytic gradients.

    Returns (loss, d_f, d_g_out) where d_g_out is the gradient with respect to
    g's softmax output (the caller chains it through g's layers). Trusts its
    caller, as train_lpnn builds them once: f and g_out are (n, m) arrays and
    s is the symmetric operator's CSR matrix, all in one precision (float32 or
    float64); labels and labeled_set are int64 arrays, and s is bitwise
    symmetric. The smoothness trace is summed in float64 whatever the
    precision, and its guard allows twice the error that rounding S and S f
    to f's precision can make.
    """
    labeled = np.zeros(f.shape[0], dtype=bool)
    labeled[labeled_set] = True
    unlabeled = ~labeled

    d_f = np.zeros_like(f)
    d_g = np.zeros_like(g_out)
    loss = 0.0

    # Smoothness: Tr(f^T (I - S) f) = ||f||^2 - <f, S f>.
    if weights.mu_g:
        sf = s @ f
        f64, sf64 = f.astype(np.float64, copy=False), sf.astype(np.float64, copy=False)
        norm = float((f64 * f64).sum())
        trace = norm - float((f64 * sf64).sum())
        # Rounding S and each row sum of S f to f's precision moves <f, S f>
        # by at most about (1 + k) eps/2 ||f||^2, for k the most entries in a
        # row of S (nonnegative, with spectral norm 1). The slack is twice
        # that; in float64 it stays at 1e-8.
        slack = max(1e-8, (1 + np.diff(s.indptr).max()) * np.finfo(f.dtype).eps)
        if trace < -slack * max(1.0, norm):
            raise NumericError(f"smoothness trace term went negative: {trace}")
        loss += weights.mu_g * trace
        # S is bitwise symmetric, so S^T f is bitwise S f.
        d_f += weights.mu_g * (2.0 * f - sf - sf)

    if weights.mu_l and labeled.any():
        diff = f[labeled]  # minus the one-hot labels
        diff[np.arange(diff.shape[0]), labels[labeled]] -= 1.0
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
    """g's class distributions on every node, in the model's precision."""
    g_all = restrict(model.g_net, np.arange(model.f.shape[0]), model.f.dtype)
    return forward(g_all, model.g_params)[0]


def predict_from_f(model: LpnnModel) -> np.ndarray:
    """The label field read as row distributions (argmax matches raw f)."""
    return softmax_rows_forward(model.f)


def train_lpnn(dataset, split, config: TrainConfig, weights: LpnnWeights):
    """Joint Adam optimization of f and g under train's early-stopping loop
    and validation (training._fit_validated). Validation and the returned
    best snapshot follow g's accuracy, since g serves predictions by default.
    g is compiled with the features as its input (CSR when they are sparse);
    the step runs g's copy restricted to every node (see restrict), since the
    loss reads them all, and validation g's copy restricted to the val rows,
    which overlaps the next step as in train. f, the symmetric operator and
    both copies are in config.precision; the operator is built in float64 and
    cast. The returned model's g_net is the compiled g."""
    train_idx = np.asarray(split.train, dtype=np.int64)
    if train_idx.size == 0 or len(split.val) == 0:
        raise UsageError("train_lpnn needs nonempty train and val sets")

    dtype = np.dtype(config.precision)
    s = build_operator(dataset.topology, "symmetric").matrix.astype(dtype, copy=False)
    g_net = compile_network(
        G_SPEC,
        {},
        dataset.num_features,
        dataset.num_classes,
        features=dataset.features,
        dropout=config.dropout,
    )
    g_train = restrict(g_net, np.arange(dataset.num_nodes), dtype)
    g_params, dropout_rng = _seeded_start(g_net, config)
    f = np.zeros((dataset.num_nodes, dataset.num_classes), dtype=dtype)

    adam_f = AdamState.for_params([f])
    adam_g = AdamState.for_params(g_params)

    def step():
        nonlocal f, g_params
        g_out, states = forward(g_train, g_params, mode="train", rng=dropout_rng)
        loss, d_f, d_g_out = lpnn_loss(f, g_out, s, dataset.labels, train_idx, weights)
        g_grads = backward(g_train, states, d_g_out)
        # Weight decay shrinks only g's linear weights, never the label field.
        f = adam_step([f], [d_f], adam_f, config.learning_rate, 0.0)[0]
        g_params = adam_step(g_params, g_grads, adam_g, config.learning_rate, config.weight_decay)
        return loss, (f, g_params)

    (best_f, best_g), history = _fit_validated(
        g_net, dataset, split.val, config, step, lambda state: state[1]
    )
    return LpnnModel(f=best_f, g_net=g_net, g_params=best_g), history
