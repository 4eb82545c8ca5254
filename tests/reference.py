"""A dense reference for NetworkSpec, sharing no code with the executor.

unroll() reads a spec's stages into steps and run() evaluates them with dense
numpy over every node: each smoothing multiplies by the whole operator, and
each linear's input is multiplied by its dropout keep flags and 1/(1 - rate)
when masks are given. Its gradients come from its own reverse pass.
"""

import itertools

import numpy as np
import scipy.sparse as sp

from graphcompose.networks import Fp, GcnBlock, LinearClassifier, Lp, Mlp

from .conftest import dense, np_softmax


def unroll(spec, operators) -> list[tuple]:
    """The stages as steps: ("smooth", S) with S the operator's CSR matrix,
    ("linear",), ("relu",) or ("softmax",)."""
    steps = []
    for stage in spec.stages:
        if isinstance(stage, (Fp, Lp)):
            steps += [("smooth", operators[stage.operator].matrix)] * stage.layers
        elif isinstance(stage, Mlp):
            for _ in stage.hidden_dims:
                steps += [("linear",)] + [("relu",)] * (stage.activation == "relu")
        elif isinstance(stage, GcnBlock):
            smooth = ("smooth", operators[stage.operator].matrix)
            for k in range(stage.layers):
                steps += [smooth] * (k < stage.effective_smoothings)
                steps += [("linear",)] + [("relu",)] * (k < stage.layers - 1)
        else:
            steps.append(("linear",) if isinstance(stage, LinearClassifier) else ("softmax",))
    return steps


def rows_read(steps, rows) -> list[np.ndarray]:
    """The rows each step reads when only `rows` of the output are needed."""
    needed, read = np.unique(rows), []
    for step in reversed(steps):
        if step[0] == "smooth":
            needed = np.flatnonzero(dense(step[1])[needed].any(axis=0))
        read.append(needed)
    return read[::-1]


def run(steps, features, params, masks=None, rate=0.0):
    """The output on every node, in float64, and its vjp: d_output -> the
    gradient of each weight. masks[i], if given, keeps the i-th linear's
    input entries where it is true."""
    h = features.toarray() if sp.issparse(features) else np.array(features, dtype=np.float64)
    params = [np.asarray(p, dtype=np.float64) for p in params]
    tape, linears = [], itertools.count()
    for step in steps:
        if step[0] == "smooth":
            tape.append(dense(step[1]))
            h = tape[-1] @ h
        elif step[0] == "linear":
            i = next(linears)
            scale = 1.0 if masks is None else masks[i] / (1.0 - rate)
            x = h * scale
            tape.append((i, scale, x))
            h = x @ params[i]
        elif step[0] == "relu":
            tape.append(h > 0)
            h = np.maximum(h, 0.0)
        else:
            h = np_softmax(h)
            tape.append(h)

    def vjp(u):
        grads = [None] * len(params)
        for step, saved in zip(reversed(steps), reversed(tape)):
            if step[0] == "smooth":
                u = saved.T @ u
            elif step[0] == "linear":
                i, scale, x = saved
                grads[i] = x.T @ u
                u = (u @ params[i].T) * scale
            elif step[0] == "relu":
                u = u * saved
            else:
                u = saved * (u - (u * saved).sum(axis=1, keepdims=True))
        return grads

    return h, vjp
