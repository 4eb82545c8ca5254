"""Declarative network specs, their compiler, and the chain executor.

A NetworkSpec is an ordered list of stages: feature propagation (FP), MLP,
linear classifier, GCN block, softmax, and label propagation (LP). Compilation
validates the composition rules, folds any leading smoothing prefix into a
precomputed input matrix when features are supplied, and produces a flat layer
chain executed by forward/backward. A sparse folded input is held as a scipy
CSR matrix (see SPARSE_INPUT_DENSITY). restrict() cuts a compiled network
down to the rows a set of output rows depends on.

Composition rules enforced here: exactly one softmax; LP stages only after the
softmax, and never with a symmetric operator (a row-normalized one keeps
probability rows probability rows; a general one is a propagation-model
choice); FP stages only before any parameterized stage.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import UsageError
from .graph import PropagationOperator
from .layers import (
    dropout_forward,
    dropout_vjp,
    linear_forward,
    linear_vjp,
    relu_forward,
    relu_vjp,
    softmax_rows_forward,
    softmax_rows_vjp,
)
from .linalg import spmm, spmm_transposed

__all__ = [
    "Fp",
    "Mlp",
    "LinearClassifier",
    "GcnBlock",
    "Softmax",
    "Lp",
    "NetworkSpec",
    "CompiledNetwork",
    "CostEstimate",
    "ForwardStates",
    "PRESET_NAMES",
    "DEFAULT_HIDDEN_DIM",
    "preset",
    "spec_to_dict",
    "spec_from_dict",
    "validate_spec",
    "compile_network",
    "init_params",
    "forward",
    "backward",
    "estimate_cost",
    "with_dtype",
    "restrict",
    "SPARSE_INPUT_DENSITY",
]

# A folded input whose density bound lies below this share is held as CSR.
# Dropout on the stored entries plus the first linear's forward, weight vjp and
# inference forward measured faster sparse than dense up to about 40% density
# on 2708x1433 and 19717x500 inputs (2 cores; CHANGES.md has the numbers).
SPARSE_INPUT_DENSITY = 0.4

# The hidden width of a preset, an Mlp and a GcnBlock unless one is given.
DEFAULT_HIDDEN_DIM = 16


# ---------------------------------------------------------------------------
# Stages


@dataclass(frozen=True)
class Fp:
    """Feature propagation: `layers` parameter-free smoothings of the input."""

    layers: int = 2
    operator: str = "symmetric"

    def __post_init__(self) -> None:
        if self.layers < 0:
            raise UsageError(f"fp layers must be >= 0, got {self.layers}")


@dataclass(frozen=True)
class Mlp:
    """Hidden feed-forward layers only; the output layer is LinearClassifier."""

    hidden_dims: tuple[int, ...] = (DEFAULT_HIDDEN_DIM,)
    activation: str = "relu"

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))
        if any(d < 1 for d in self.hidden_dims):
            raise UsageError(f"mlp hidden dims must be positive, got {self.hidden_dims}")
        if self.activation not in ("relu", "identity"):
            raise UsageError(f"unknown mlp activation {self.activation!r}")


@dataclass(frozen=True)
class LinearClassifier:
    """Single linear map onto the class dimension."""


@dataclass(frozen=True)
class GcnBlock:
    """`layers` graph-convolution layers: each smooths (while smoothings last)
    then applies a linear map, with relu between layers. hidden_dims sizes the
    first layers-1 outputs; the final layer maps onto the class dimension."""

    layers: int = 2
    hidden_dims: tuple[int, ...] = (DEFAULT_HIDDEN_DIM,)
    operator: str = "symmetric"
    smoothings: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))
        if self.layers < 1:
            raise UsageError(f"gcn block needs at least one layer, got {self.layers}")
        if len(self.hidden_dims) != self.layers - 1:
            raise UsageError(
                f"gcn block with {self.layers} layers needs {self.layers - 1} hidden dims, "
                f"got {len(self.hidden_dims)}"
            )
        if any(d < 1 for d in self.hidden_dims):
            raise UsageError(f"gcn hidden dims must be positive, got {self.hidden_dims}")
        s = self.layers if self.smoothings is None else self.smoothings
        if not (0 <= s <= self.layers):
            raise UsageError(
                f"gcn block smoothings must lie in [0, {self.layers}], got {self.smoothings}"
            )

    @property
    def effective_smoothings(self) -> int:
        return self.layers if self.smoothings is None else self.smoothings


@dataclass(frozen=True)
class Softmax:
    """Row-wise softmax producing the class probability matrix."""


@dataclass(frozen=True)
class Lp:
    """Label propagation: `layers` parameter-free smoothings of probabilities."""

    layers: int = 1
    operator: str = "row"

    def __post_init__(self) -> None:
        if self.layers < 0:
            raise UsageError(f"lp layers must be >= 0, got {self.layers}")


Stage = Fp | Mlp | LinearClassifier | GcnBlock | Softmax | Lp
_PARAMETERIZED = (Mlp, LinearClassifier, GcnBlock)


@dataclass(frozen=True)
class NetworkSpec:
    name: str
    stages: tuple[Stage, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))

    @property
    def hidden_dims(self) -> tuple[int, ...]:
        """Widths of the hidden layers, in stage order."""
        return tuple(
            d for s in self.stages if isinstance(s, (Mlp, GcnBlock)) for d in s.hidden_dims
        )


def validate_spec(spec: NetworkSpec) -> None:
    """Structural rules that need no operator set."""
    softmax_positions = [i for i, s in enumerate(spec.stages) if isinstance(s, Softmax)]
    if len(softmax_positions) != 1:
        raise UsageError(
            f"network {spec.name!r} must contain exactly one softmax stage, "
            f"found {len(softmax_positions)}"
        )
    sm = softmax_positions[0]
    for i, stage in enumerate(spec.stages):
        if isinstance(stage, Lp) and i < sm:
            raise UsageError(f"network {spec.name!r}: lp stages must come after the softmax")
        if i > sm and not isinstance(stage, Lp):
            raise UsageError(f"network {spec.name!r}: only lp stages may follow the softmax")
    first_param = next(
        (i for i, s in enumerate(spec.stages) if isinstance(s, _PARAMETERIZED)), sm
    )
    for i, stage in enumerate(spec.stages):
        if isinstance(stage, Fp) and i > first_param:
            raise UsageError(
                f"network {spec.name!r}: fp stages must come before any parameterized stage"
            )


# ---------------------------------------------------------------------------
# Presets


PRESET_NAMES = ("gcn", "sgcn", "fp-mlp", "sgcn-lp", "gcn-lp", "linear-lp", "mlp-lp")


def preset(
    name: str,
    *,
    hidden_dim: int = DEFAULT_HIDDEN_DIM,
    depth: int | None = None,
    lp_layers: int | None = None,
) -> NetworkSpec:
    """Build one of the named network shapes.

    depth is the total propagation/feed-forward budget L (default 2). For the
    split variants (sgcn-lp, gcn-lp) the budget is divided between the feature
    side and lp_layers on the label side, so lp_layers=0 reduces them to their
    propagation-free ancestors exactly. Stages keep their default operator
    names ("symmetric" on the feature side, "row" for lp); the operator set a
    network compiles against decides what each name means.
    """
    if name not in PRESET_NAMES:
        raise UsageError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    length = 2 if depth is None else depth
    if length < 1:
        raise UsageError(f"network depth must be >= 1, got {length}")
    if hidden_dim < 1:
        raise UsageError(f"hidden width must be >= 1, got {hidden_dim}")
    hid = (hidden_dim,) * (length - 1)

    def with_lp(stages: list[Stage], ll: int) -> tuple[Stage, ...]:
        if ll > 0:
            stages.append(Lp(layers=ll))
        return tuple(stages)

    if name == "gcn":
        return NetworkSpec(name, (GcnBlock(length, hid, smoothings=length), Softmax()))
    if name == "sgcn":
        return NetworkSpec(name, (Fp(length), LinearClassifier(), Softmax()))
    if name == "fp-mlp":
        return NetworkSpec(name, (Fp(length), Mlp(hid), LinearClassifier(), Softmax()))
    if name == "sgcn-lp":
        ll = 1 if lp_layers is None else lp_layers
        fp = max(length - ll, 0)
        stages: list[Stage] = []
        if fp > 0:
            stages.append(Fp(fp))
        stages += [LinearClassifier(), Softmax()]
        return NetworkSpec(name, with_lp(stages, ll))
    if name == "gcn-lp":
        ll = 1 if lp_layers is None else lp_layers
        s = max(length - ll, 0)
        stages = [GcnBlock(length, hid, smoothings=s), Softmax()]
        return NetworkSpec(name, with_lp(stages, ll))
    if name == "linear-lp":
        ll = length if lp_layers is None else lp_layers
        return NetworkSpec(name, with_lp([LinearClassifier(), Softmax()], ll))
    # mlp-lp
    ll = length if lp_layers is None else lp_layers
    return NetworkSpec(name, with_lp([Mlp(hid), LinearClassifier(), Softmax()], ll))


# ---------------------------------------------------------------------------
# Spec serialization


_STAGE_KINDS: dict[str, type] = {
    "fp": Fp,
    "mlp": Mlp,
    "linear_classifier": LinearClassifier,
    "gcn_block": GcnBlock,
    "softmax": Softmax,
    "lp": Lp,
}
_KIND_OF_STAGE = {cls: kind for kind, cls in _STAGE_KINDS.items()}


def spec_to_dict(spec: NetworkSpec) -> dict:
    """One document per stage: its kind, then its fields in declaration order."""
    stages = []
    for stage in spec.stages:
        doc = {"kind": _KIND_OF_STAGE[type(stage)]}
        for f in dataclasses.fields(stage):
            value = getattr(stage, f.name)
            doc[f.name] = list(value) if isinstance(value, tuple) else value
        stages.append(doc)
    return {"name": spec.name, "stages": stages}


def spec_from_dict(doc: dict) -> NetworkSpec:
    """Inverse of spec_to_dict; a stage field missing from its document takes
    the stage's default."""
    if not isinstance(doc, dict) or "name" not in doc or "stages" not in doc:
        raise UsageError("network spec document needs 'name' and 'stages' fields")
    stages: list[Stage] = []
    for entry in doc["stages"]:
        kind = entry.get("kind")
        if kind not in _STAGE_KINDS:
            raise UsageError(f"unknown stage kind {kind!r} in network spec document")
        cls = _STAGE_KINDS[kind]
        given = {f.name: entry[f.name] for f in dataclasses.fields(cls) if f.name in entry}
        stages.append(cls(**given))
    return NetworkSpec(str(doc["name"]), tuple(stages))


# ---------------------------------------------------------------------------
# Compiled form


# Chain entries. Each owns its forward and vjp: forward(h, params, rng,
# training) returns (output, cache) and vjp(cache, params, upstream, grads)
# returns the upstream gradient for the previous entry, adding any parameter
# gradient into grads. The layer primitives are looked up as module globals at
# call time, so they can be wrapped (for example by a profiler).


class _Entry:
    kind: str

    def cast(self, cast_matrix) -> "_Entry":
        """This entry with its operator matrix recast by cast_matrix (if it
        has one)."""
        return self


@dataclass(frozen=True, eq=False)
class _Smooth(_Entry):
    """Feature-side smoothing S @ h. The CSR matrix is the operator's, or the
    block of it that a restricted copy reads (so it need not be square)."""

    matrix: sp.csr_matrix
    kind = "smooth"

    def forward(self, h, params, rng, training):
        return spmm(self.matrix, h), None

    def vjp(self, cache, params, u, grads):
        return spmm_transposed(self.matrix, u)

    def cast(self, cast_matrix) -> "_Smooth":
        return dataclasses.replace(self, matrix=cast_matrix(self.matrix))


class _LabelProp(_Smooth):
    """Smoothing of class probabilities, after the softmax."""

    kind = "lp"


@dataclass(frozen=True)
class _Linear(_Entry):
    index: int
    kind = "linear"

    def forward(self, h, params, rng, training):
        return linear_forward(h, params[self.index]), h

    def vjp(self, cache, params, u, grads):
        # Only parameter-free entries precede the first linear, so its input
        # gradient is never needed and backward stops at its None.
        u, dw = linear_vjp(cache, params[self.index], u, self.index > 0)
        grads[self.index] += dw
        return u


@dataclass(frozen=True)
class _Relu(_Entry):
    kind = "relu"

    def forward(self, h, params, rng, training):
        return relu_forward(h), h

    def vjp(self, cache, params, u, grads):
        return relu_vjp(cache, u)


@dataclass(frozen=True)
class _Softmax(_Entry):
    kind = "softmax"

    def forward(self, h, params, rng, training):
        p = softmax_rows_forward(h)
        return p, p

    def vjp(self, cache, params, u, grads):
        return softmax_rows_vjp(cache, u)


@dataclass(frozen=True)
class _Dropout(_Entry):
    rate: float
    kind = "dropout"

    def forward(self, h, params, rng, training):
        return dropout_forward(h, self.rate, rng, training)

    def vjp(self, cache, params, u, grads):
        return dropout_vjp(cache, self.rate, u)


@dataclass(frozen=True, eq=False)
class CostEstimate:
    """Operation counts mirroring the four cost terms of the composed models:
    in-training feature smoothing, hidden feed-forward work, the softmax
    classifier map, and label propagation."""

    feature_prop: int = 0
    hidden: int = 0
    classifier: int = 0
    label_prop: int = 0

    @property
    def total(self) -> int:
        return self.feature_prop + self.hidden + self.classifier + self.label_prop


@dataclass(frozen=True, eq=False)
class CompiledNetwork:
    """The entry chain and its input (None for a network compiled without
    features, which can be inspected but not run). A copy made by restrict()
    computes only some output rows; its positions give where each requested
    row sits in its output (None for a network over every node)."""

    layers: tuple
    param_shapes: tuple[tuple[int, int], ...]
    num_classes: int
    x_bar: np.ndarray | sp.csr_matrix | None
    dropout: float
    cost: CostEstimate | None
    positions: np.ndarray | None = None

    def describe(self) -> tuple[str, ...]:
        return tuple(entry.kind for entry in self.layers)


@dataclass
class ForwardStates:
    """Per-layer caches from a train-mode forward, consumed by backward."""

    params: list
    caches: list


def compile_network(
    spec: NetworkSpec,
    operators,
    input_dim: int,
    num_classes: int,
    *,
    features=None,
    dropout: float = 0.0,
    num_edges: int | None = None,
) -> CompiledNetwork:
    """Validate a spec against an operator set and produce the executable chain.

    operators maps the names used by stages (usually "symmetric" and "row") to
    built PropagationOperator instances. Features are the network's only
    input: when they are given, the leading smoothing prefix is folded into a
    precomputed input matrix (CSR when it is sparse, see _fold) that forward
    and restrict run from.
    """
    validate_spec(spec)
    if input_dim < 1 or num_classes < 1:
        raise UsageError(f"need positive input_dim and num_classes, got {input_dim}, {num_classes}")
    if not (0.0 <= dropout < 1.0):
        raise UsageError(f"dropout must lie in [0, 1), got {dropout}")

    # Flatten stages into the entry chain; dropout precedes every linear.
    chain: list[_Entry] = []
    shapes: list[tuple[int, int]] = []
    dim = input_dim
    num_nodes: int | None = None

    def resolve(name: str) -> PropagationOperator:
        nonlocal num_nodes
        if name not in operators:
            raise UsageError(
                f"network {spec.name!r} references operator {name!r}; "
                f"available: {sorted(operators)}"
            )
        op = operators[name]
        if num_nodes is None:
            num_nodes = op.num_nodes
        elif num_nodes != op.num_nodes:
            raise UsageError(
                f"operators disagree on node count: {num_nodes} vs {op.num_nodes}"
            )
        return op

    def linear(out_dim: int) -> None:
        nonlocal dim
        if dropout > 0.0:
            chain.append(_Dropout(dropout))
        chain.append(_Linear(len(shapes)))
        shapes.append((dim, out_dim))
        dim = out_dim

    for pos, stage in enumerate(spec.stages):
        if isinstance(stage, Fp):
            chain += [_Smooth(resolve(stage.operator).matrix)] * stage.layers
        elif isinstance(stage, Mlp):
            for h in stage.hidden_dims:
                linear(h)
                if stage.activation == "relu":
                    chain.append(_Relu())
        elif isinstance(stage, LinearClassifier):
            linear(num_classes)
        elif isinstance(stage, GcnBlock):
            op = resolve(stage.operator)
            dims = stage.hidden_dims + (num_classes,)
            for k in range(stage.layers):
                if k < stage.effective_smoothings:
                    chain.append(_Smooth(op.matrix))
                linear(dims[k])
                if k < stage.layers - 1:
                    chain.append(_Relu())
        elif isinstance(stage, Softmax):
            if dim != num_classes:
                raise UsageError(
                    f"network {spec.name!r}: stage {pos} (softmax) expects dimension "
                    f"{num_classes} but the preceding stage ends at {dim}"
                )
            chain.append(_Softmax())
        elif isinstance(stage, Lp):
            op = resolve(stage.operator)
            if op.kind == "symmetric":
                raise UsageError(
                    f"network {spec.name!r}: label propagation requires a row-normalized "
                    f"(or general) operator, got kind {op.kind!r}"
                )
            chain += [_LabelProp(op.matrix)] * stage.layers

    # Fold the leading smoothing run into a precomputed input when possible.
    x_bar = None
    if features is not None:
        features = np.asarray(features)
        if features.ndim != 2 or features.shape[1] != input_dim:
            raise UsageError(
                f"features shape {features.shape} does not match input_dim {input_dim}"
            )
        if num_nodes is not None and features.shape[0] != num_nodes:
            raise UsageError(
                f"features have {features.shape[0]} rows but operators have "
                f"{num_nodes} nodes"
            )
        num_nodes = features.shape[0]
        prefix = 0
        while prefix < len(chain) and chain[prefix].kind == "smooth":
            prefix += 1
        # Only a linear (or the dropout before it) can take a CSR input.
        x_bar = _fold(features, [entry.matrix for entry in chain[:prefix]], sparse=bool(shapes))
        chain = chain[prefix:]

    cost = None
    if num_edges is not None:
        d = _representative_dim(spec, input_dim)
        n_for_cost = num_nodes if num_nodes is not None else 1
        cost = estimate_cost(spec, n_for_cost, num_edges, d, num_classes)

    return CompiledNetwork(
        layers=tuple(chain),
        param_shapes=tuple(shapes),
        num_classes=num_classes,
        x_bar=x_bar,
        dropout=dropout,
        cost=cost,
    )


def _fold(features: np.ndarray, matrices, sparse: bool):
    """S_k ... S_1 X over the folded operator matrices.

    When sparse is allowed and a bound on the result's density lies below
    SPARSE_INPUT_DENSITY, X is converted to CSR and folded with sparse
    products. The bound needs only row counts: row i of S @ Y stores at most d
    entries and at most the summed counts of the rows of Y that row i of S
    reads.
    """
    n, d = features.shape
    x = features
    if sparse:
        nonzero = features != 0
        counts = np.count_nonzero(nonzero, axis=1)
        bound = counts
        for m in matrices:
            pattern = sp.csr_matrix((np.ones(m.nnz), m.indices, m.indptr), shape=m.shape)
            bound = np.minimum(spmm(pattern, bound[:, None])[:, 0], d)
        if bound.sum() < SPARSE_INPUT_DENSITY * n * d:
            flat = np.flatnonzero(nonzero)
            offsets = np.concatenate(([0], np.cumsum(counts)))
            x = sp.csr_matrix((features.ravel()[flat], flat % d, offsets), shape=(n, d))
    for m in matrices:
        x = spmm(m, x)
    if sp.issparse(x):
        x.sort_indices()
    return x


def _representative_dim(spec: NetworkSpec, input_dim: int) -> int:
    hiddens = spec.hidden_dims
    return hiddens[0] if hiddens else input_dim


def init_params(net: CompiledNetwork, rng, dtype=np.float64) -> list[np.ndarray]:
    """Glorot-uniform weights, drawn in chain order from the given stream."""
    params = []
    for fan_in, fan_out in net.param_shapes:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        params.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype))
    return params


def forward(net: CompiledNetwork, params, *, mode: str = "infer", rng=None):
    """Run the chain from the network's input. Returns (output, states);
    states is None in infer mode."""
    if net.x_bar is None:
        raise UsageError("network was compiled without features; it has no input to run")
    if mode not in ("train", "infer"):
        raise UsageError(f"forward mode must be 'train' or 'infer', got {mode!r}")
    if len(params) != len(net.param_shapes):
        raise UsageError(
            f"expected {len(net.param_shapes)} parameter matrices, got {len(params)}"
        )
    h = net.x_bar
    training = mode == "train"
    caches: list = []
    for entry in net.layers:
        h, cache = entry.forward(h, params, rng, training)
        if training:
            caches.append(cache)
    if training:
        return h, ForwardStates(params=list(params), caches=caches)
    return h, None


def backward(net: CompiledNetwork, states: ForwardStates | None, d_output):
    """Gradients for every linear parameter, via the chain's vjps in reverse.
    Label propagation backpropagates through the transposed operator, which is
    how neighboring class distributions enter each labeled node's gradient.
    The pass ends at the first linear: nothing before it has parameters."""
    if states is None:
        raise UsageError("backward needs the states returned by a train-mode forward")
    grads = [np.zeros(s, dtype=p.dtype) for s, p in zip(net.param_shapes, states.params)]
    u = np.asarray(d_output)
    for entry, cache in zip(reversed(net.layers), reversed(states.caches)):
        u = entry.vjp(cache, states.params, u, grads)
        if u is None:
            break
    return grads


def estimate_cost(spec: NetworkSpec, n: int, num_edges: int, d: int, num_classes: int) -> CostEstimate:
    """Per-term operation counts for the composed shape.

    Convention: L is the total feed-forward layer count; the in-training
    feature smoothing term L*N_E*d appears only for GCN blocks (propagation
    folded into a precomputed input is a one-time cost, not charged here); the
    hidden term L*n*d^2 appears only when hidden layers exist; the classifier
    term n*d*M is always present; label propagation charges L_l*N_E*M.
    """
    if n < 1 or d < 1 or num_classes < 1 or num_edges < 0:
        raise UsageError(
            f"cost estimate needs positive sizes, got n={n}, edges={num_edges}, "
            f"d={d}, classes={num_classes}"
        )
    validate_spec(spec)
    linear_count = 0
    lp_depth = 0
    has_block = False
    for stage in spec.stages:
        if isinstance(stage, Mlp):
            linear_count += len(stage.hidden_dims)
        elif isinstance(stage, LinearClassifier):
            linear_count += 1
        elif isinstance(stage, GcnBlock):
            linear_count += stage.layers
            has_block = True
        elif isinstance(stage, Lp):
            lp_depth += stage.layers
    return CostEstimate(
        feature_prop=linear_count * num_edges * d if has_block else 0,
        hidden=linear_count * n * d * d if linear_count >= 2 else 0,
        classifier=n * d * num_classes,
        label_prop=lp_depth * num_edges * num_classes,
    )


def with_dtype(net: CompiledNetwork, dtype) -> CompiledNetwork:
    """Recast the network's numeric payload (operator matrices and
    precomputed input, which stays CSR when it is CSR)."""
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise UsageError(f"unsupported dtype {dtype}")
    recast: dict[int, sp.csr_matrix] = {}

    def cast_matrix(m: sp.csr_matrix) -> sp.csr_matrix:
        if id(m) not in recast:
            recast[id(m)] = m.astype(dtype)
        return recast[id(m)]

    return dataclasses.replace(
        net,
        layers=tuple(entry.cast(cast_matrix) for entry in net.layers),
        x_bar=None if net.x_bar is None else net.x_bar.astype(dtype),
    )


def restrict(net: CompiledNetwork, rows) -> CompiledNetwork:
    """A copy of net that computes only the output rows `rows` and what they
    read.

    The chain is walked backward from those rows. A smooth or lp entry widens
    the row set to the columns its matrix reads on the rows after it, and the
    copy holds the block S[rows_out][:, rows_in] as CSR; every other entry
    acts row by row and keeps the row set. The copy's input is the network's
    input on the first row set. Its output holds the rows np.unique(rows) in
    order, and its positions field maps each requested row to its output row.
    Rows outside the receptive field contribute nothing to the rows read, so
    the copy's outputs on them and its parameter gradients equal the full
    chain's. Train-mode dropout draws over the restricted rows only.
    """
    source = net.x_bar
    if source is None:
        raise UsageError("network was compiled without features; it has no input to restrict")
    rows = np.asarray(rows, dtype=np.int64).ravel()
    if rows.size == 0 or rows.min() < 0 or rows.max() >= source.shape[0]:
        raise UsageError(f"restrict needs a nonempty set of rows in [0, {source.shape[0]})")
    kept = np.unique(rows)
    needed = kept
    layers = []
    for entry in reversed(net.layers):
        if isinstance(entry, _Smooth):
            block = entry.matrix[needed]
            cols = np.unique(block.indices)
            # Renumbering columns in sorted order keeps each row's entries
            # sorted, so the block stays canonical.
            block = sp.csr_matrix(
                (block.data, np.searchsorted(cols, block.indices), block.indptr),
                shape=(needed.size, cols.size),
            )
            entry = dataclasses.replace(entry, matrix=block)
            needed = cols
        layers.append(entry)
    return dataclasses.replace(
        net,
        layers=tuple(reversed(layers)),
        x_bar=source[needed],
        positions=np.searchsorted(kept, rows),
    )
