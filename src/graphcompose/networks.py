"""Declarative network specs, their compiler, and the chain executor.

A NetworkSpec is an ordered list of stages: feature propagation (FP), MLP,
linear classifier, GCN block, softmax, and label propagation (LP). Compilation
validates the composition rules, splits any leading smoothing prefix off the
chain when features are supplied, and produces a flat layer chain executed by
forward/backward. restrict() cuts a compiled network down to the rows a set of
output rows depends on and folds the prefix into those rows of its input,
held as scipy CSR when it is sparse (see SPARSE_INPUT_DENSITY); a copy for
inference on a CSR fold instead smooths after the first linear.

The Primitives section holds each chain entry's math: spmm (smoothing) and
the linear, relu, row-softmax and dropout forwards, each with its vjp. Chain
entries call them as module globals; lpnn reuses the softmax pair.

Composition rules enforced here: exactly one softmax; LP stages only after the
softmax, and never with a symmetric operator (a row-normalized one keeps
probability rows probability rows; a general one is a propagation-model
choice); FP stages only before any parameterized stage.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DataError, UsageError, _is_int
from .graph import PropagationOperator

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
    "restrict",
    "SPARSE_INPUT_DENSITY",
    "MAX_SIZE",
]

# A folded input whose density bound lies below this share is held as CSR.
# Dropout (survivors only, 16-bit draw, rate 0.5) plus the first linear's forward,
# weight vjp and inference forward ran faster sparse than dense below 0.30-0.40
# density on a 2708x1433 input and below 0.40-0.45 on 19717x500 (2 cores, width
# 16): sparse/dense time 0.95 at 0.35 and 1.03 at 0.40 on the first, 0.91 at 0.40
# and 1.04 at 0.45 on the second (CHANGES.md has the rest). Moving the constant
# flips inputs between the two paths, which changes their seeded masks.
SPARSE_INPUT_DENSITY = 0.4

# Output entries per block of a densified fold hop (1 MiB in float64, as
# data._NORM_BLOCK): a block's sparse product and its dense form are the fold's
# only temporaries beside its input and output.
_FOLD_BLOCK = 2**17

# The hidden width of a preset, an Mlp and a GcnBlock unless one is given.
DEFAULT_HIDDEN_DIM = 16

# The largest hidden width or layer count a network takes. A larger one is a
# usage error before any array is sized from it, not a numpy traceback.
MAX_SIZE = 4096


def _check_size(what: str, value: int, low: int) -> int:
    """value as a Python int, if it is an integer in [low, MAX_SIZE]."""
    if not _is_int(value):
        raise UsageError(f"{what} must be an integer, got {value!r}")
    if value < low:
        raise UsageError(f"{what} must be >= {low}, got {value}")
    if value > MAX_SIZE:
        raise UsageError(f"{what} must be <= {MAX_SIZE}, got {value}")
    return int(value)


# ---------------------------------------------------------------------------
# Stages


@dataclass(frozen=True)
class Fp:
    """Feature propagation: `layers` parameter-free smoothings of the input."""

    layers: int = 2
    operator: str = "symmetric"

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", _check_size("fp layers", self.layers, 0))


@dataclass(frozen=True)
class Mlp:
    """Hidden feed-forward layers only; the output layer is LinearClassifier."""

    hidden_dims: tuple[int, ...] = (DEFAULT_HIDDEN_DIM,)
    activation: str = "relu"

    def __post_init__(self) -> None:
        widths = tuple(_check_size("mlp hidden width", d, 1) for d in self.hidden_dims)
        object.__setattr__(self, "hidden_dims", widths)
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
        object.__setattr__(self, "layers", _check_size("gcn block layers", self.layers, 1))
        widths = tuple(_check_size("gcn hidden width", d, 1) for d in self.hidden_dims)
        object.__setattr__(self, "hidden_dims", widths)
        if len(widths) != self.layers - 1:
            raise UsageError(
                f"gcn block with {self.layers} layers needs {self.layers - 1} hidden dims, "
                f"got {len(widths)}"
            )
        if not (_is_int(self.effective_smoothings) and 0 <= self.effective_smoothings <= self.layers):
            raise UsageError(
                f"gcn block smoothings must lie in [0, {self.layers}], got {self.smoothings}"
            )
        if self.smoothings is not None:
            object.__setattr__(self, "smoothings", int(self.smoothings))

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
        object.__setattr__(self, "layers", _check_size("lp layers", self.layers, 0))


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

# The feature side of each preset family, from the budget L, the smoothings
# s = max(L - ll, 0) left to it, and its L - 1 hidden widths.
_FEATURE_SIDE = {
    "gcn": lambda length, s, hid: [GcnBlock(length, hid, smoothings=s)],
    "sgcn": lambda length, s, hid: [Fp(s)] * (s > 0) + [LinearClassifier()],
    "fp-mlp": lambda length, s, hid: [Fp(s), Mlp(hid), LinearClassifier()],
    "linear": lambda length, s, hid: [LinearClassifier()],
    "mlp": lambda length, s, hid: [Mlp(hid), LinearClassifier()],
}


def preset(
    name: str,
    *,
    hidden_dim: int = DEFAULT_HIDDEN_DIM,
    depth: int | None = None,
    lp_layers: int | None = None,
) -> NetworkSpec:
    """Build one of the named network shapes: a feature side that smooths
    max(L - ll, 0) times, a softmax, then ll label propagation layers.

    depth is the total propagation/feed-forward budget L (default 2). A "-lp"
    preset takes ll from lp_layers, by default 1 for sgcn-lp/gcn-lp and L for
    linear-lp/mlp-lp; the others have ll = 0, so gcn and sgcn are gcn-lp and
    sgcn-lp at lp_layers=0. Stages keep their default operator names
    ("symmetric" on the feature side, "row" for lp); the operator set a
    network compiles against decides what each name means.
    """
    if name not in PRESET_NAMES:
        raise UsageError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    length = 2 if depth is None else depth
    _check_size("network depth", length, 1)
    _check_size("hidden width", hidden_dim, 1)
    if lp_layers is not None:
        _check_size("lp layers", lp_layers, 0)
    ll = 0  # gcn, sgcn and fp-mlp have no label side
    if name.endswith("-lp"):
        ll = (1 if name in ("sgcn-lp", "gcn-lp") else length) if lp_layers is None else lp_layers
    hid = (hidden_dim,) * (length - 1)
    stages = _FEATURE_SIDE[name.removesuffix("-lp")](length, max(length - ll, 0), hid)
    stages.append(Softmax())
    if ll > 0:
        stages.append(Lp(layers=ll))
    return NetworkSpec(name, tuple(stages))


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


# The JSON value each stage field annotation accepts, and how to name it.
_FIELD_TYPES = {
    "int": ("an integer", _is_int),
    "str": ("a string", lambda v: isinstance(v, str)),
    "tuple[int, ...]": ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v))),
    "int | None": ("an integer or null", lambda v: v is None or _is_int(v)),
}


_SPEC_NAME = r"[A-Za-z0-9][A-Za-z0-9._-]*"  # it names a run directory: no "/", no leading "."


def spec_from_dict(doc: dict) -> NetworkSpec:
    """Inverse of spec_to_dict; a stage field missing from its document takes
    the stage's default. A name not matching _SPEC_NAME, a field the stage
    does not have, or one of the wrong JSON type, is a UsageError."""
    if not isinstance(doc, dict) or "name" not in doc or "stages" not in doc:
        raise UsageError("network spec document needs 'name' and 'stages' fields")
    if not isinstance(doc["name"], str) or not re.fullmatch(_SPEC_NAME, doc["name"]):
        raise UsageError(f"network spec 'name' must match {_SPEC_NAME}, got {doc['name']!r}")
    if not isinstance(doc["stages"], list):
        raise UsageError(f"network spec 'stages' must be a list, got {doc['stages']!r}")
    stages: list[Stage] = []
    for index, entry in enumerate(doc["stages"]):
        if not isinstance(entry, dict):
            raise UsageError(f"network spec stage {index} must be an object, got {entry!r}")
        if "kind" not in entry:
            raise UsageError(f"network spec stage {index} is missing its 'kind' field")
        if not isinstance(kind := entry["kind"], str) or kind not in _STAGE_KINDS:
            raise UsageError(f"unknown stage kind {kind!r} in network spec document")
        cls = _STAGE_KINDS[kind]
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        given = {name: value for name, value in entry.items() if name != "kind"}
        for name, value in given.items():
            if name not in types:
                raise UsageError(
                    f"network spec stage {index} has unknown field {name!r}; "
                    f"{kind} stages take {', '.join(types) or 'no fields'}"
                )
            expected, accepts = _FIELD_TYPES[types[name]]
            if not accepts(value):
                raise UsageError(
                    f"network spec stage {index} field {name!r} must be {expected}, got {value!r}"
                )
        stages.append(cls(**given))
    return NetworkSpec(doc["name"], tuple(stages))


# ---------------------------------------------------------------------------
# Primitives


# Each chain entry's math: a pure forward function and its vector-Jacobian
# product (vjp). Smoothing is spmm, with spmm_transposed as its vjp. The
# softmax vjp applies the full Jacobian rather than assuming a fused
# cross-entropy, because lp smoothings may follow the softmax. Dropout draws 16
# random bits per entry. It and the linear map also take a sparse folded input
# (see _fold); dropout then masks the stored entries and keeps only the
# survivors, so the first linear's products skip the dropped ones. Canonical
# scipy CSR's sequential kernels make every product bitwise deterministic.
# Nothing here checks its operands:
# compile_network fixes every shape and rate; forward checks what callers pass.


def spmm(s: sp.csr_matrix, x):
    """Product S @ X: dense for a dense X, scipy CSR for a scipy sparse X.
    Deterministic for fixed inputs."""
    return s @ x


def spmm_transposed(s: sp.csr_matrix, x) -> np.ndarray:
    """Product S.T @ X computed through a CSC view, without materializing S.T."""
    return s.T @ x


def linear_forward(x, w) -> np.ndarray:
    return x @ w


def linear_vjp(x, w, upstream, input_grad: bool = True):
    """Returns (d_input, d_weight) for the cached forward input; d_input is
    None when input_grad is false."""
    d_input = upstream @ w.T if input_grad else None
    return d_input, x.T @ upstream


def relu_forward(x) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_vjp(x, upstream) -> np.ndarray:
    """Subgradient at exactly zero input is taken as zero."""
    return upstream * (x > 0.0)


def _row_reduce(ufunc, a) -> np.ndarray:
    """ufunc.reduce(a, axis=1, keepdims=True) for 2-D a (np.add or np.maximum).
    A row of fewer than 8 entries is reduced column by column, left to right,
    from the ufunc's identity if it has one: numpy sums such a row the same
    way (from +0.0, so a row of -0.0 sums to +0.0; its pairwise sum starts at
    8 entries) and a max is exact, so the bytes are the same, several times
    faster than numpy's loop over short rows."""
    if not 0 < a.shape[1] < 8:
        return ufunc.reduce(a, axis=1, keepdims=True)
    out = a[:, :1].copy() if ufunc.identity is None else ufunc(ufunc.identity, a[:, :1])
    for j in range(1, a.shape[1]):
        ufunc(out, a[:, j : j + 1], out=out)
    return out


def softmax_rows_forward(z) -> np.ndarray:
    shifted = z - _row_reduce(np.maximum, z)
    e = np.exp(shifted)
    return e / _row_reduce(np.add, e)


def softmax_rows_vjp(p, upstream) -> np.ndarray:
    """Full per-row softmax Jacobian product: p * (u - (u . p))."""
    dot = _row_reduce(np.add, upstream * p)
    return p * (upstream - dot)


def _keep(rng, size: int, rate: float) -> np.ndarray:
    """Keep flags for `size` entries, 16 random bits each (see dropout_forward)."""
    bits = rng.bit_generator.random_raw(-(-size // 4)).view("<u2")[:size]
    return bits >= round(rate * 65536)


def dropout_forward(x, rate: float, rng, training: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout: survivors are scaled by 1/(1-rate) so inference needs
    no rescaling. Inference mode and rate 0 return x and no mask, drawing nothing.
    Each entry draws 16 random bits and is kept when they reach t = round(rate *
    65536), with probability (65536 - t)/65536: exactly 1 - rate at 0.5, and at
    any other rate close enough that the survivors' expected scale is off by at
    most 2^-17/(1 - rate). A t that rounds to 65536 drops every entry.

    A canonical CSR input draws per stored entry (the mask covers only those)
    and returns canonical CSR holding only the survivors. For finite parameters
    a product with it is bitwise the product with the dropped entries stored as
    zeros: scipy's CSR and CSC kernels build each output element from +0.0 in
    stored order, a dropped term is +-0.0, and under round-to-nearest such a
    running sum is never -0.0, so adding +-0.0 changes nothing.
    """
    if not training or rate == 0.0:
        return x, None
    if sp.issparse(x):
        mask = _keep(rng, x.nnz, rate)
        # take() on survivor positions: boolean indexing is several times slower.
        kept = np.flatnonzero(mask)
        values = x.data.take(kept) / (1.0 - rate)
        indptr = np.searchsorted(kept, x.indptr)
        return sp.csr_matrix((values, x.indices.take(kept), indptr), shape=x.shape), mask
    mask = _keep(rng, x.size, rate).reshape(x.shape)
    out = x * mask
    out /= 1.0 - rate  # in place: the same bytes as x * mask / (1 - rate)
    return out, mask


def dropout_vjp(mask, rate: float, upstream) -> np.ndarray:
    out = upstream * mask
    out /= 1.0 - rate
    return out


# ---------------------------------------------------------------------------
# Compiled form


# Chain entries. Each owns its forward and vjp: forward(h, params, rng,
# training) returns (output, cache) and vjp(cache, upstream, grads) returns
# the upstream gradient for the previous entry, storing any parameter gradient
# in grads. The primitives above are looked up as module globals at call
# time, so they can be wrapped (for example by a profiler).


class _Entry:
    kind: str


@dataclass(frozen=True, eq=False)
class _Smooth(_Entry):
    """Feature-side smoothing S @ h. The CSR matrix is the operator's, or the
    block of it that a restricted copy reads (so it need not be square)."""

    matrix: sp.csr_matrix
    kind = "smooth"

    def forward(self, h, params, rng, training):
        return spmm(self.matrix, h), None

    def vjp(self, cache, u, grads):
        return spmm_transposed(self.matrix, u)


class _LabelProp(_Smooth):
    """Smoothing of class probabilities, after the softmax."""

    kind = "lp"


@dataclass(frozen=True)
class _Linear(_Entry):
    index: int
    kind = "linear"

    def forward(self, h, params, rng, training):
        w = params[self.index]
        return linear_forward(h, w), (h, w)

    def vjp(self, cache, u, grads):
        # Only parameter-free entries precede the first linear, so its input
        # gradient is never needed and backward stops at its None.
        u, grads[self.index] = linear_vjp(*cache, u, self.index > 0)
        return u


@dataclass(frozen=True)
class _Relu(_Entry):
    kind = "relu"

    def forward(self, h, params, rng, training):
        # The vjp needs only where h > 0: a bool mask, a quarter of float32 h's
        # bytes, and relu_vjp reads it as it would read h.
        return relu_forward(h), (h > 0.0 if training else None)

    def vjp(self, cache, u, grads):
        return relu_vjp(cache, u)


@dataclass(frozen=True)
class _Softmax(_Entry):
    kind = "softmax"

    def forward(self, h, params, rng, training):
        p = softmax_rows_forward(h)
        return p, p

    def vjp(self, cache, u, grads):
        return softmax_rows_vjp(cache, u)


@dataclass(frozen=True)
class _Dropout(_Entry):
    rate: float
    kind = "dropout"

    def forward(self, h, params, rng, training):
        return dropout_forward(h, self.rate, rng, training)

    def vjp(self, cache, u, grads):
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
    """The entry chain and its input: the features, with the smoothing prefix
    to fold into them at the densify hop (see _fold_plan), or None for a
    network compiled without features, which can be inspected but not run.
    A copy made by restrict() (memoized in `restricted`) holds a folded input,
    or, when infer_only, the raw feature rows with the prefix blocks run after
    the first linear; its positions map requested rows to output rows (None
    over every node)."""

    layers: tuple
    param_shapes: tuple[tuple[int, int], ...]
    x_bar: np.ndarray | sp.csr_matrix | None
    dropout: float
    cost: CostEstimate | None
    positions: np.ndarray | None = None
    prefix: tuple = ()
    densify: int | None = None
    infer_only: bool = False
    restricted: dict = dataclasses.field(default_factory=dict, init=False, repr=False)


def feature_csr(features) -> sp.csr_matrix:
    """Features as canonical float64 CSR with no stored zeros. A matrix
    already in that form is returned itself; none is changed in place. A
    non-finite value is a DataError naming its node and feature."""
    if not (
        isinstance(features, sp.csr_matrix)
        and features.dtype == np.float64
        and features.has_canonical_format
        and features.data.all()
    ):
        if not sp.issparse(features) and np.ndim(features) != 2:
            raise UsageError(f"features must be 2-D, got shape {np.shape(features)}")
        features = sp.csr_matrix(features, dtype=np.float64, copy=True)
        features.sum_duplicates()
        features.eliminate_zeros()
    bad = np.flatnonzero(~np.isfinite(features.data))
    if bad.size:
        node = np.searchsorted(features.indptr, bad[0], side="right") - 1
        raise DataError(
            f"node {node} feature {features.indices[bad[0]]} has non-finite value "
            f"{features.data[bad[0]]}"
        )
    return features


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
    input: when they are given, the leading smoothing prefix leaves the chain,
    for restrict to fold into them over only the rows a pass reads.
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

    # Split the leading smoothing run off the chain and plan its fold.
    prefix, densify = (), None
    if features is not None:
        features = feature_csr(features)
        if features.shape[1] != input_dim:
            raise UsageError(
                f"features shape {features.shape} does not match input_dim {input_dim}"
            )
        if num_nodes is not None and features.shape[0] != num_nodes:
            raise UsageError(
                f"features have {features.shape[0]} rows but operators have "
                f"{num_nodes} nodes"
            )
        num_nodes = features.shape[0]
        while len(prefix) < len(chain) and chain[len(prefix)].kind == "smooth":
            prefix += (chain[len(prefix)].matrix,)
        # Only a linear (or the dropout before it) can take a CSR input.
        densify = _fold_plan(features, prefix, sparse=bool(shapes))
        chain = chain[len(prefix):]

    cost = None
    if num_edges is not None:
        d = _representative_dim(spec, input_dim)
        n_for_cost = num_nodes if num_nodes is not None else 1
        cost = estimate_cost(spec, n_for_cost, num_edges, d, num_classes)

    return CompiledNetwork(
        layers=tuple(chain), param_shapes=tuple(shapes), x_bar=features, dropout=dropout,
        cost=cost, prefix=prefix, densify=densify,
    )


def _fold_plan(features: sp.csr_matrix, matrices, sparse: bool) -> int | None:
    """How many hops of the fold S_k ... S_1 X of canonical CSR X run sparse
    before it densifies, or None when it stays CSR; planned over all n rows.

    The fold stays CSR when sparse is allowed and a bound on its density lies
    below SPARSE_INPUT_DENSITY. The bound needs only row counts: row i of
    S @ Y stores at most d entries and at most the summed counts of the rows
    of Y that row i of S reads. A dense result is folded with sparse products
    up to the first hop whose bound reaches SPARSE_INPUT_DENSITY (X itself,
    if its own does), densified there and finished with dense products, so
    dense features never sit beside a dense output. Either way the fold is
    bitwise that of dense X: a sparse product adds the same nonzero terms in
    the same order and skips only zeros.
    """
    n, d = features.shape
    bound = np.diff(features.indptr)
    reached = [bound.sum() >= SPARSE_INPUT_DENSITY * n * d]
    for m in matrices:
        pattern = sp.csr_matrix((np.ones(m.nnz), m.indices, m.indptr), shape=m.shape)
        bound = np.minimum(spmm(pattern, bound[:, None])[:, 0], d)
        reached.append(bound.sum() >= SPARSE_INPUT_DENSITY * n * d)
    if sparse and not reached[-1]:
        return None
    return reached.index(True) if any(reached) else len(matrices)


def _fold(x, matrices, densify: int | None, dtype):
    """x folded through matrices as _fold_plan chose, in dtype. From the
    densify hop on, each hop runs over blocks of _FOLD_BLOCK output entries
    and writes them into one array, in dtype at the last hop and in float64
    before it; the arithmetic is float64 throughout. A product's rows depend
    only on their own rows of the matrix and a float64 to float32 cast is
    elementwise, so the result is bitwise the whole products' cast to dtype,
    without a whole sparse product or a float64 twin of the result."""
    if densify is None:  # x may be a copy's dense input, restricted again
        for m in matrices:
            x = spmm(m, x)
        if sp.issparse(x):
            x.sort_indices()
        return x.astype(dtype, copy=False)
    whole = max(densify - 1, 0)
    for m in matrices[:whole]:
        x = spmm(m, x)
    # At densify 0 a first blocked pass densifies the features themselves.
    hops = ([None] if densify == 0 else []) + list(matrices[whole:])
    step = max(_FOLD_BLOCK // x.shape[1], 1)
    for i, m in enumerate(hops, 1):
        rows = x.shape[0] if m is None else m.shape[0]
        out = np.empty((rows, x.shape[1]), dtype if i == len(hops) else np.float64)
        for start in range(0, rows, step):
            part = x[start : start + step] if m is None else spmm(m[start : start + step], x)
            out[start : start + step] = part.toarray() if sp.issparse(part) else part
        x = out
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


_INFER_ONLY = (
    "this copy was restricted for infer mode: it smooths after the first linear, "
    "so train-mode dropout would fall on unsmoothed features"
)


def forward(net: CompiledNetwork, params, *, mode: str = "infer", rng=None):
    """Run the chain from the network's input. Returns (output, states):
    states is the list of entry caches in chain order, which backward consumes,
    or None in infer mode. The parameters must have the network's shapes, and
    a train-mode pass of a network compiled with dropout needs its rng."""
    if net.x_bar is None:
        raise UsageError("network was compiled without features; it has no input to run")
    if mode not in ("train", "infer"):
        raise UsageError(f"forward mode must be 'train' or 'infer', got {mode!r}")
    shapes = tuple(np.shape(p) for p in params)
    if shapes != net.param_shapes:
        raise UsageError(f"expected parameter shapes {net.param_shapes}, got {shapes}")
    training = mode == "train"
    if training and net.infer_only:
        raise UsageError(_INFER_ONLY)
    if training and net.dropout > 0.0 and rng is None:
        raise UsageError("a train-mode forward with dropout needs an explicit rng stream")
    if net.prefix or net.densify is not None:  # fold once: run the copy over every row
        net = restrict(net, np.arange(net.x_bar.shape[0]))
    h = net.x_bar
    caches: list = []
    for entry in net.layers:
        h, cache = entry.forward(h, params, rng, training)
        if training:
            caches.append(cache)
    return h, caches if training else None


def backward(net: CompiledNetwork, states: list | None, d_output):
    """Gradients for every linear parameter, via the chain's vjps in reverse.
    Label propagation backpropagates through the transposed operator, which is
    how neighboring class distributions enter each labeled node's gradient.
    The pass ends at the first linear: nothing before it has parameters.
    It consumes states (one backward per train-mode forward): each cache is
    popped as its vjp runs, freeing it then, and the list is left empty."""
    if states is None:
        raise UsageError("backward needs the states returned by a train-mode forward")
    if net.infer_only:
        raise UsageError(_INFER_ONLY)
    if net.prefix or net.densify is not None:  # forward ran its copy over every row
        net = restrict(net, np.arange(net.x_bar.shape[0]))
    if len(states) != len(net.layers):  # another chain's states, or a consumed list
        raise UsageError(f"backward got {len(states)} states for {len(net.layers)} chain entries")
    grads = [None] * len(net.param_shapes)
    u = np.asarray(d_output)
    for entry in reversed(net.layers):
        u = entry.vjp(states.pop(), u, grads)
        if u is None:
            break
    states.clear()
    return grads


def estimate_cost(spec: NetworkSpec, n: int, num_edges: int, d: int, num_classes: int) -> CostEstimate:
    """Per-term operation counts for the composed shape.

    Convention: L is the total feed-forward layer count; the in-training
    feature smoothing term L*N_E*d appears only for GCN blocks (propagation
    folded into a precomputed input is a one-time cost of training, not
    charged here; an inference copy of a CSR fold plan smooths on every pass
    instead, see restrict); the hidden term L*n*d^2 appears only when hidden layers exist; the classifier
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


def _row_ids(rows, what: str) -> np.ndarray:
    """rows as a flat int64 array. Python and numpy integers pass; floats and
    bools, which numpy would truncate or read as 0 and 1, are a UsageError."""
    ids = np.asarray(rows)
    if ids.size and ids.dtype.kind not in "iu":
        raise UsageError(f"{what} needs integer row ids, got {ids.dtype} values")
    return ids.astype(np.int64, copy=False).ravel()


def restrict(net: CompiledNetwork, rows, dtype=np.float64, mode: str = "train") -> CompiledNetwork:
    """A copy of net, in precision dtype (float32 or float64), that computes
    only the output rows `rows` and what they read, for forwards in mode.

    The chain is walked backward from those rows. A smooth or lp entry widens
    the row set to the columns its matrix reads on the rows after it, and the
    copy holds the block S[rows_out][:, rows_in] as CSR; every other entry
    acts row by row and keeps the row set. The walk goes on through the
    smoothing prefix, whose blocks fold the input on the last row set (see
    _fold). The copy's output holds the rows np.unique(rows) in order, and
    its positions field maps each requested row to its output row. Rows
    outside the receptive field contribute nothing to the rows read, so the
    copy's outputs on them and its parameter gradients equal the full chain's.
    Train-mode dropout draws over the restricted rows only. The fold computes
    in float64 and writes its dense rows in dtype block by block; the blocks
    and a CSR input are cast to dtype once built. Either way each value is
    its float64 value rounded once to dtype, and a CSR input stays CSR.
    Row ids that are not integers (floats, bools) are a UsageError.

    An infer-mode copy of a network whose fold stays CSR (densify None) does
    not fold: with no dropout, (S_k ... S_1 X) W equals S_k ... S_1 (X W), so
    it keeps the raw rows of X as its input and runs the prefix blocks as
    smooth entries straight after the first linear, which multiplies fewer
    stored entries. Its outputs match the fold's to rounding, not bitwise,
    and it refuses train-mode passes. Any other infer-mode copy is the
    train-mode one. The copy is memoized on net by the rows as given, dtype
    and mode."""
    if net.x_bar is None:
        raise UsageError("network was compiled without features; it has no input to restrict")
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise UsageError(f"unsupported dtype {dtype}")
    if mode not in ("train", "infer"):
        raise UsageError(f"restrict mode must be 'train' or 'infer', got {mode!r}")
    infer_only = mode == "infer" and bool(net.prefix) and net.densify is None
    rows = _row_ids(rows, "restrict")
    if (key := (rows.tobytes(), dtype.str, infer_only)) in net.restricted:
        return net.restricted[key]
    if rows.size == 0 or rows.min() < 0 or rows.max() >= net.x_bar.shape[0]:
        raise UsageError(f"restrict needs a nonempty set of rows in [0, {net.x_bar.shape[0]})")
    needed = kept = np.unique(rows)
    layers, blocks = [], []
    for entry in (*reversed(net.layers), *map(_Smooth, reversed(net.prefix))):
        if isinstance(entry, _Smooth):
            block = entry.matrix[needed]
            read = np.zeros(block.shape[1], dtype=bool)
            read[block.indices] = True
            cols = np.flatnonzero(read)
            # Renumbering columns in sorted order keeps each row's entries
            # sorted, so the block stays canonical.
            block = sp.csr_matrix(
                (block.data, (np.cumsum(read) - 1)[block.indices], block.indptr),
                shape=(needed.size, cols.size),
            )
            needed = cols
            if len(layers) == len(net.layers):  # a prefix hop, folded below
                blocks.insert(0, block)
                continue
            entry = dataclasses.replace(entry, matrix=block.astype(dtype, copy=False))
        layers.append(entry)
    layers.reverse()
    x_bar = net.x_bar[needed]
    if infer_only:
        first = next(i for i, entry in enumerate(layers) if entry.kind == "linear") + 1
        layers[first:first] = [_Smooth(block.astype(dtype, copy=False)) for block in blocks]
        x_bar = x_bar.astype(dtype, copy=False)
    else:
        x_bar = _fold(x_bar, blocks, net.densify, dtype)
    return net.restricted.setdefault(key, dataclasses.replace(
        net, layers=tuple(layers), x_bar=x_bar,
        positions=np.searchsorted(kept, rows), prefix=(), densify=None,
        infer_only=infer_only or net.infer_only,
    ))
