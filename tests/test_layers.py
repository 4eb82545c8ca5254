import numpy as np
import pytest
import scipy.sparse as sp

from graphcompose.errors import UsageError
from graphcompose.graph import build_operator
from graphcompose.networks import (
    _Dropout,
    _Relu,
    Fp,
    LinearClassifier,
    Mlp,
    NetworkSpec,
    Softmax,
    compile_network,
    forward,
    init_params,
    preset,
    dropout_forward,
    dropout_vjp,
    linear_forward,
    linear_vjp,
    relu_forward,
    relu_vjp,
    softmax_rows_forward,
    softmax_rows_vjp,
    spmm,
    spmm_transposed,
)

from graphcompose.training import TrainConfig

from .conftest import dense, np_softmax, ring_topology

# A six-node ring's operator, for networks built only to reach forward's checks.
OP = build_operator(ring_topology(6), "symmetric")


def finite_diff(fn, x, upstream, eps=1e-6):
    """Central-difference gradient of sum(fn(x) * upstream) with respect to x."""
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        grad[idx] = ((fn(xp) * upstream).sum() - (fn(xm) * upstream).sum()) / (2 * eps)
    return grad


def random_sparse(rng, rows, cols, density=0.3):
    mask = rng.random((rows, cols)) < density
    a = np.where(mask, rng.normal(size=(rows, cols)), 0.0)
    return sp.csr_matrix(a), a


def dropout_input(sparse):
    """A 100k-entry dropout input: dense, or canonical CSR with 100k stored entries."""
    if sparse:
        return sp.random(1000, 400, density=0.25, format="csr", random_state=5)
    return np.random.default_rng(18).normal(size=(400, 250))


def compiled_chain(op, stages, width):
    spec = NetworkSpec("chain", (*stages, LinearClassifier(), Softmax()))
    return compile_network(spec, {"symmetric": op}, width, 2).layers


class TestSmoothing:
    """Smoothing is spmm in a compiled chain, with spmm_transposed as its vjp."""

    def test_forward_matches_dense(self):
        g = ring_topology(8, extra_edges=3, seed=1)
        op = build_operator(g, "symmetric")
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 4))
        np.testing.assert_allclose(spmm(op.matrix, x), dense(op.matrix) @ x, atol=1e-13)
        smooth = compiled_chain(op, (Fp(1),), 4)[0]
        assert smooth.kind == "smooth"
        out, cache = smooth.forward(x, [], None, True)
        np.testing.assert_array_equal(out, spmm(op.matrix, x))
        assert cache is None

    def test_relu_activation(self):
        g = ring_topology(6, seed=2)
        op = build_operator(g, "symmetric")
        x = np.random.default_rng(1).normal(size=(6, 3))
        smooth, relu = compiled_chain(op, (Fp(1), Mlp((3,), "relu")), 3)[0:3:2]
        assert relu.kind == "relu"
        out, _ = relu.forward(smooth.forward(x, [], None, False)[0], [], None, False)
        np.testing.assert_allclose(out, np.maximum(dense(op.matrix) @ x, 0.0), atol=1e-13)

    def test_unknown_activation(self):
        with pytest.raises(UsageError):
            Mlp((4,), activation="tanh")

    def test_vjp_is_transpose_product(self):
        g = ring_topology(7, extra_edges=2, seed=3)
        op = build_operator(g, "general", alpha=0.2, beta=0.9)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(7, 5))
        up = rng.normal(size=(7, 5))
        smooth = compiled_chain(op, (Fp(1),), 5)[0]
        analytic = smooth.vjp(None, up, [])
        np.testing.assert_array_equal(analytic, spmm_transposed(op.matrix, up))
        numeric = finite_diff(lambda z: spmm(op.matrix, z), x, up)
        np.testing.assert_allclose(analytic, numeric, atol=1e-8)


class TestProducts:
    def test_spmm_matches_dense(self):
        rng = np.random.default_rng(1)
        for rows, cols, k in [(6, 4, 3), (1, 5, 2), (8, 8, 8)]:
            s, a = random_sparse(rng, rows, cols)
            x = rng.normal(size=(cols, k))
            np.testing.assert_allclose(spmm(s, x), a @ x, rtol=0, atol=1e-14)

    def test_spmm_transposed_matches_dense(self):
        rng = np.random.default_rng(2)
        s, a = random_sparse(rng, 6, 4)
        x = rng.normal(size=(6, 3))
        np.testing.assert_allclose(spmm_transposed(s, x), a.T @ x, rtol=0, atol=1e-14)

    def test_spmm_deterministic(self):
        rng = np.random.default_rng(3)
        s, _ = random_sparse(rng, 50, 50, density=0.1)
        x = rng.normal(size=(50, 7))
        first = spmm(s, x)
        for _ in range(5):
            np.testing.assert_array_equal(spmm(s, x), first)


def test_dense_helper_roundtrip():
    rng = np.random.default_rng(6)
    s, a = random_sparse(rng, 5, 6)
    np.testing.assert_array_equal(dense(s), a)


class TestLinear:
    def test_forward(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 2))
        np.testing.assert_array_equal(linear_forward(x, w), x @ w)

    def test_shape_mismatch(self):
        # linear_forward trusts the compiler; forward checks every weight's
        # shape, including an output width the product alone would accept.
        net = compile_network(preset("fp-mlp", hidden_dim=4), {"symmetric": OP}, 3, 2,
                              features=np.ones((6, 3)))
        good = init_params(net, np.random.default_rng(0))
        expected = r"expected parameter shapes \(\(3, 4\), \(4, 2\)\), got"
        for bad in ([np.zeros((4, 4)), good[1]], [good[0], np.zeros((4, 5))], good[:1]):
            with pytest.raises(UsageError, match=expected):
                forward(net, bad)
        assert forward(net, [p.astype(np.float32) for p in good])[0].shape == (6, 2)

    def test_vjp_against_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 3))
        w = rng.normal(size=(3, 2))
        up = rng.normal(size=(5, 2))
        d_x, d_w = linear_vjp(x, w, up)
        np.testing.assert_allclose(d_x, finite_diff(lambda z: z @ w, x, up), atol=1e-8)
        np.testing.assert_allclose(d_w, finite_diff(lambda z: x @ z, w, up), atol=1e-8)

    def test_vjp_without_input_gradient(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 3))
        w = rng.normal(size=(3, 2))
        up = rng.normal(size=(5, 2))
        d_x, d_w = linear_vjp(x, w, up, False)
        assert d_x is None
        np.testing.assert_array_equal(d_w, linear_vjp(x, w, up)[1])

    def test_csr_input_matches_dense(self):
        rng = np.random.default_rng(13)
        x = sp.random(7, 5, density=0.3, format="csr", random_state=3)
        w = rng.normal(size=(5, 2))
        up = rng.normal(size=(7, 2))
        np.testing.assert_allclose(linear_forward(x, w), x.toarray() @ w, atol=1e-14)
        d_x, d_w = linear_vjp(x, w, up, False)
        assert d_x is None
        np.testing.assert_allclose(d_w, x.toarray().T @ up, atol=1e-14)


class TestRelu:
    def test_forward(self):
        x = np.array([[-1.0, 0.0, 2.5]])
        np.testing.assert_array_equal(relu_forward(x), [[0.0, 0.0, 2.5]])

    def test_vjp_gates_on_positive_input(self):
        x = np.array([[-1.0, 0.0, 2.5]])
        up = np.array([[10.0, 10.0, 10.0]])
        np.testing.assert_array_equal(relu_vjp(x, up), [[0.0, 0.0, 10.0]])

    def test_vjp_against_finite_differences_away_from_kink(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 4))
        x[np.abs(x) < 1e-3] = 0.5
        up = rng.normal(size=(6, 4))
        np.testing.assert_allclose(
            relu_vjp(x, up), finite_diff(relu_forward, x, up), atol=1e-8
        )


class TestSoftmaxRows:
    def test_matches_reference(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(5, 4)) * 3
        np.testing.assert_allclose(softmax_rows_forward(z), np_softmax(z), atol=1e-14)

    def test_rows_sum_to_one(self):
        z = np.random.default_rng(7).normal(size=(9, 6))
        p = softmax_rows_forward(z)
        np.testing.assert_allclose(p.sum(axis=1), np.ones(9), atol=1e-14)
        assert (p > 0).all()

    def test_shift_invariance_handles_large_logits(self):
        z = np.array([[1000.0, 1001.0], [-1000.0, -999.0]])
        p = softmax_rows_forward(z)
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p[0], p[1], atol=1e-12)

    def test_vjp_full_jacobian(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(4, 5))
        up = rng.normal(size=(4, 5))
        p = softmax_rows_forward(z)
        np.testing.assert_allclose(
            softmax_rows_vjp(p, up), finite_diff(softmax_rows_forward, z, up), atol=1e-7
        )

    def test_vjp_kills_constant_upstream(self):
        # Rows of the Jacobian are orthogonal to constants: probabilities are
        # invariant to per-row logit shifts.
        p = softmax_rows_forward(np.random.default_rng(9).normal(size=(3, 4)))
        out = softmax_rows_vjp(p, np.ones((3, 4)))
        np.testing.assert_allclose(out, np.zeros((3, 4)), atol=1e-14)


def hard_rows(m, dtype, rows=600):
    """Logits and upstreams of width m that tell summation orders apart:
    magnitudes from 1e-20 to 1e20 with mixed signs, plus rows of ties, of
    +0.0 and -0.0, and of huge logits."""
    rng = np.random.default_rng(np.random.SeedSequence([m, 31]))

    def draw():
        a = rng.standard_normal((rows, m)) * 10.0 ** rng.uniform(-20, 20, (rows, m))
        a[0::10] = rng.standard_normal((rows // 10, m)) * 3.0  # ordinary logits
        a[1::10] = np.where(rng.random((rows // 10, m)) < 0.5, 0.0, -0.0)
        a[2::10] = np.round(rng.standard_normal((rows // 10, m)))  # ties
        a[3::10] = rng.choice([-1e30, 1e30], (rows // 10, m))
        a[4::10, :] = a[4::10, :1]  # every entry tied
        return a.astype(dtype)

    return draw(), draw()


def row_sum_left_to_right(a):
    out = a[:, :1] + 0.0
    for j in range(1, a.shape[1]):
        out += a[:, j : j + 1]
    return out


class TestShortClassRows:
    """Below 8 classes the softmax reduces its rows column by column; the
    bytes must be those of numpy's row reduce, for every width."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8, 16])
    def test_forward_and_vjp_keep_the_row_reduce_bytes(self, m, dtype):
        z, u = hard_rows(m, dtype)
        p = softmax_rows_forward(z)
        assert p.dtype == dtype and p.tobytes() == np_softmax(z).tobytes()
        products = u * p
        expected = p * (u - products.sum(axis=1, keepdims=True))
        assert softmax_rows_vjp(p, u).tobytes() == expected.tobytes()
        # The rows must tell the orders apart: a right-to-left sum differs
        # from numpy's below 8 columns, and a left-to-right one from 8 on.
        if m >= 3:
            reordered = row_sum_left_to_right(products[:, ::-1] if m < 8 else products)
            assert reordered.tobytes() != products.sum(axis=1, keepdims=True).tobytes()


class TestTrainModeCaches:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.5, 0.9])
    def test_relu_and_dropout_keep_the_formula_bytes(self, rate, dtype):
        # relu caches a bool mask and dropout divides its product in place;
        # forward and vjp must equal the plain formulas byte for byte.
        rng = np.random.default_rng(20)
        h = (rng.standard_normal((300, 16)) * 10.0 ** rng.uniform(-5, 5, (300, 16))).astype(dtype)
        h[::7, 3], h[::5, 2] = 0.0, -0.0
        u = rng.standard_normal((300, 16)).astype(dtype)
        relu = _Relu()
        out, cache = relu.forward(h, [], None, True)
        assert out.tobytes() == np.maximum(h, 0.0).tobytes() and out.dtype == dtype
        assert cache.dtype == bool
        assert relu.vjp(cache, u, []).tobytes() == (u * (h > 0.0)).tobytes()
        assert relu.forward(h, [], None, False)[1] is None
        drop = _Dropout(rate)
        out, mask = drop.forward(h, [], np.random.default_rng(21), True)
        assert out.dtype == dtype and out.tobytes() == (h * mask / (1.0 - rate)).tobytes()
        grad = drop.vjp(mask, u, [])
        assert grad.dtype == dtype and grad.tobytes() == (u * mask / (1.0 - rate)).tobytes()


class TestDropout:
    def test_inference_is_identity(self):
        x = np.random.default_rng(10).normal(size=(4, 4))
        out, mask = dropout_forward(x, 0.5, None, training=False)
        np.testing.assert_array_equal(out, x)
        assert mask is None

    def test_zero_rate_is_identity_even_in_training(self):
        x = np.ones((2, 2))
        out, mask = dropout_forward(x, 0.0, np.random.default_rng(0), training=True)
        np.testing.assert_array_equal(out, x)
        assert mask is None

    def test_training_scales_survivors(self):
        rng = np.random.default_rng(11)
        x = np.ones((200, 50))
        out, mask = dropout_forward(x, 0.4, rng, training=True)
        assert mask is not None
        kept = out[mask]
        np.testing.assert_allclose(kept, np.full(kept.shape, 1.0 / 0.6), atol=1e-12)
        np.testing.assert_array_equal(out[~mask], 0.0)
        # Fraction of survivors concentrates near 1 - rate.
        assert abs(mask.mean() - 0.6) < 0.02

    def test_csr_input_masks_stored_entries_only(self):
        x = sp.random(60, 40, density=0.1, format="csr", random_state=4) + 0.5 * sp.eye(60, 40)
        x = sp.csr_matrix(x)
        out, mask = dropout_forward(x, 0.4, np.random.default_rng(14), training=True)
        assert sp.issparse(out) and out.format == "csr" and mask.shape == (x.nnz,)
        # Only the survivors are stored, in canonical order.
        assert out.nnz == mask.sum() and out.has_canonical_format
        assert 0 < mask.sum() < x.nnz
        kept = np.zeros(x.shape, dtype=bool)
        kept[np.repeat(np.arange(60), np.diff(x.indptr))[mask], x.indices[mask]] = True
        dense_x, dense_out = x.toarray(), out.toarray()
        np.testing.assert_array_equal(dense_out[kept], dense_x[kept] / (1.0 - 0.4))
        np.testing.assert_array_equal(dense_out[~kept], 0.0)
        # Inference passes the CSR input through untouched.
        same, none = dropout_forward(x, 0.4, None, training=False)
        assert same is x and none is None

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    @pytest.mark.parametrize("rate", [0.1, 0.5, 0.9, 0.3])
    def test_keep_share_is_the_16_bit_probability(self, rate, sparse):
        # An entry survives when its 16 bits reach t = round(rate * 65536).
        _, mask = dropout_forward(dropout_input(sparse), rate, np.random.default_rng(15), True)
        p = (65536 - round(rate * 65536)) / 65536
        n = mask.size
        assert mask.dtype == bool and n == 100_000
        assert abs(mask.sum() - n * p) <= 5 * np.sqrt(n * p * (1 - p))

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_rate_zero_draws_nothing(self, sparse):
        x, rng = dropout_input(sparse), np.random.default_rng(16)
        before = rng.bit_generator.state
        out, mask = dropout_forward(x, 0.0, rng, training=True)
        assert out is x and mask is None and rng.bit_generator.state == before

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_rate_rounding_to_65536_drops_every_entry(self, sparse):
        rate = 1 - 2**-18  # t = round(rate * 65536) is 65536, above every 16-bit draw
        x = dropout_input(sparse)
        out, mask = dropout_forward(x, rate, np.random.default_rng(17), training=True)
        assert mask.dtype == bool and mask.size == 100_000 and not mask.any()
        if sparse:
            assert out.shape == x.shape and out.nnz == 0 and out.has_canonical_format
        else:
            assert out.shape == x.shape and not out.any()

    def test_requires_rng_in_training(self):
        # dropout_forward trusts its caller; forward refuses the train-mode
        # pass of a network compiled with dropout when it has no rng.
        net = compile_network(preset("fp-mlp"), {"symmetric": OP}, 3, 2,
                              features=np.ones((6, 3)), dropout=0.5)
        params = init_params(net, np.random.default_rng(0))
        with pytest.raises(UsageError, match="forward with dropout needs an explicit rng"):
            forward(net, params, mode="train")
        assert forward(net, params)[1] is None
        no_dropout = compile_network(preset("fp-mlp"), {"symmetric": OP}, 3, 2,
                                     features=np.ones((6, 3)))
        assert len(forward(no_dropout, params, mode="train")[1]) == len(no_dropout.layers)

    def test_rejects_rate_one(self):
        # The rate is checked where it enters: the compiler and the run config.
        for rate in (1.0, 1.5, -0.1):
            with pytest.raises(UsageError, match=r"dropout must lie in \[0, 1\)"):
                compile_network(preset("sgcn"), {"symmetric": OP}, 3, 2, dropout=rate)
            with pytest.raises(UsageError, match=r"dropout must lie in \[0, 1\)"):
                TrainConfig(dropout=rate)

    def test_vjp_reuses_mask(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(6, 3))
        out, mask = dropout_forward(x, 0.3, rng, training=True)
        up = rng.normal(size=(6, 3))
        expected = up * mask / 0.7
        np.testing.assert_allclose(dropout_vjp(mask, 0.3, up), expected, atol=1e-14)
