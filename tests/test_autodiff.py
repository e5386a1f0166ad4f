"""Finite-difference validation of every autodiff primitive."""

import numpy as np
import pytest

from maskgram import autodiff as ad
from maskgram.autodiff import Tensor


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central differences of a scalar-valued fn at x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn(x)
        flat[i] = orig - eps
        down = fn(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return grad


def check_op(build, shape, seed=0, eps=1e-6, tol=1e-7):
    """build(tensor) -> Tensor output; compares backward vs finite differences."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, shape)
    t = Tensor(x.copy(), requires_grad=True)
    out = build(t)
    w = np.asarray(np.random.default_rng(seed + 1).normal(size=out.data.shape))
    loss = ad.tsum(out * w)
    loss.backward()

    def scalar(arr):
        with ad.no_grad():
            return float((build(Tensor(arr)).data * w).sum())

    fd = numeric_grad(scalar, x.copy(), eps)
    np.testing.assert_allclose(t.grad, fd, rtol=tol, atol=tol)


@pytest.mark.parametrize("shape", [(3,), (2, 4), (2, 3, 4)])
def test_elementwise_ops(shape):
    rng = np.random.default_rng(7)
    other = rng.normal(size=shape) + 3.0
    check_op(lambda t: t + Tensor(other), shape)
    check_op(lambda t: t * Tensor(other), shape)
    check_op(lambda t: t - Tensor(other), shape)
    check_op(lambda t: t / Tensor(other), shape)
    check_op(lambda t: ad.exp(t), shape)
    check_op(lambda t: ad.tanh(t), shape)
    check_op(lambda t: ad.gelu(t), shape)
    check_op(lambda t: ad.sqrt(t * t + 1.0), shape)
    check_op(lambda t: ad.log(t * t + 0.5), shape)
    check_op(lambda t: ad.pow_const(t, 3.0), shape)


def test_broadcast_grads():
    check_op(lambda t: t + Tensor(np.ones((5, 1, 3))), (3,))
    check_op(lambda t: t * Tensor(np.full((4, 2, 3), 2.0)), (2, 3))
    check_op(lambda t: ad.broadcast_to(t, (6, 2, 3)), (2, 3))


def test_matmul_grads():
    rng = np.random.default_rng(1)
    b = Tensor(rng.normal(size=(4, 5)))
    lhs = Tensor(rng.normal(size=(6, 3)))
    check_op(lambda t: ad.matmul(t, b), (3, 4))
    check_op(lambda t: ad.matmul(lhs, t), (3, 4))
    # batched against unbatched weight
    check_op(lambda t: ad.matmul(t, b), (2, 3, 4))
    # fully batched
    b3 = Tensor(rng.normal(size=(2, 4, 5)))
    check_op(lambda t: ad.matmul(t, b3), (2, 3, 4))


def test_matmul_rejects_vectors():
    with pytest.raises(ValueError):
        ad.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


def test_reductions_and_shapes():
    check_op(lambda t: ad.tsum(t, axis=1), (3, 4))
    check_op(lambda t: ad.tsum(t, axis=(0, 2), keepdims=True), (2, 3, 4))
    check_op(lambda t: ad.tmean(t, axis=-1), (3, 4))
    check_op(lambda t: ad.tmean(t), (2, 3))
    check_op(lambda t: ad.reshape(t, (6, 2)), (3, 4))
    check_op(lambda t: ad.transpose(t, (2, 0, 1)), (2, 3, 4))
    check_op(lambda t: ad.swapaxes(t, 0, 1), (3, 4))
    check_op(lambda t: t[1:, ::2], (4, 6))
    check_op(lambda t: t[:, 0, :], (2, 3, 4))


def test_concat_grads():
    rng = np.random.default_rng(2)
    other = Tensor(rng.normal(size=(3, 2)))
    check_op(lambda t: ad.concat([t, other], axis=1), (3, 4))
    check_op(lambda t: ad.concat([other, t, other], axis=-1), (3, 2))


@pytest.mark.parametrize("with_bias", [False, True])
def test_linear_grads_on_3d_input_used_twice(with_bias):
    rng = np.random.default_rng(11)
    w = Tensor(rng.normal(size=(4, 5)))
    b = Tensor(rng.normal(size=5)) if with_bias else None
    x = Tensor(rng.normal(size=(2, 3, 4)))
    # every operand also feeds a second op, so one VJP adds into a set .grad
    check_op(lambda t: ad.concat([ad.linear(t, w, b), t * 2.0], axis=-1), (2, 3, 4))
    check_op(lambda t: ad.linear(x, t, b) + ad.tsum(t * t), (4, 5))
    if with_bias:
        check_op(lambda t: ad.linear(x, w, t) + t * 3.0, (5,))


@pytest.mark.parametrize("swap", [False, True])
def test_pass_through_grads_are_copied(swap):
    # add hands one array to both parents and tsum a read-only broadcast view;
    # both are stored as given, so each parent's gradient stays right only if
    # a later contribution makes a new sum, whichever VJP runs first
    rng = np.random.default_rng(16)
    w1, w2 = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    y = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    first, second = ad.tsum((x + y) * w1), ad.tsum(x * w2) + ad.tsum(y)
    (second + first if swap else first + second).backward()
    np.testing.assert_allclose(x.grad, w1 + w2, rtol=1e-15, atol=1e-15)
    np.testing.assert_allclose(y.grad, w1 + 1.0, rtol=1e-15, atol=1e-15)


# each op as (number of (2, 3) inputs, function of them); inputs are positive
OPS = {
    "add": (2, lambda a, b: a + b),
    "sub": (2, lambda a, b: a - b),
    "mul": (2, lambda a, b: a * b),
    "div": (2, lambda a, b: a / b),
    "pow_const": (1, lambda a: ad.pow_const(a, 3.0)),
    "sqrt": (1, ad.sqrt),
    "exp": (1, ad.exp),
    "log": (1, ad.log),
    "tanh": (1, ad.tanh),
    "gelu": (1, ad.gelu),
    "reshape": (1, lambda a: ad.reshape(a, (3, 2))),
    "transpose": (1, lambda a: ad.transpose(a, (1, 0))),
    "swapaxes": (1, lambda a: ad.swapaxes(a, 0, 1)),
    "concat": (2, lambda a, b: ad.concat([a, b, a], axis=-1)),
    "getitem": (1, lambda a: a[:, 1:]),
    "broadcast_to": (1, lambda a: ad.broadcast_to(a, (4, 2, 3))),
    "tsum": (1, lambda a: ad.tsum(a, axis=0)),
    "tmean": (1, lambda a: ad.tmean(a, axis=1, keepdims=True)),
    "matmul": (2, lambda a, b: ad.matmul(a, ad.swapaxes(b, 0, 1))),
    "linear": (2, lambda a, b: ad.linear(a, ad.swapaxes(b, 0, 1), a[0, :2])),
    "softmax": (1, lambda a: ad.softmax(a, axis=0)),
    "log_softmax": (1, ad.log_softmax),
    "layer_norm": (1, ad.layer_norm),
    "layer_norm_affine": (2, lambda a, b: ad.layer_norm(a, b[0], b[1])),
    "embedding": (1, lambda a: ad.embedding(a, np.array([[1, 0], [1, 1]]))),
    "index_select": (1, lambda a: ad.index_select(a, 1, np.array([2, 0, 2]))),
    "take_along_last": (1, lambda a: ad.take_along_last(a, np.array([2, 2]))),
    "where": (2, lambda a, b: ad.where(np.array([[True, False, True]]), a, b)),
    "l2_normalize": (1, ad.l2_normalize),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_backward_reads_a_read_only_seed(name):
    # no VJP writes into the gradient it is handed, nor into a stored one
    n_inputs, op = OPS[name]
    rng = np.random.default_rng(18)
    leaves = [Tensor(rng.uniform(0.5, 2.0, (2, 3)), requires_grad=True)
              for _ in range(n_inputs)]
    out = op(*leaves)
    seed = rng.normal(size=out.shape)
    kept = seed.copy()
    seed.flags.writeable = False
    out.backward(seed)
    assert seed.tobytes() == kept.tobytes()
    for leaf in leaves:
        assert leaf.grad.shape == leaf.shape and np.isfinite(leaf.grad).all()


@pytest.mark.parametrize("fan_out", ["add", "tsum"])
def test_second_contribution_to_a_pass_through_grad(fan_out):
    # x's first gradient is a view (of the read-only seed, or a broadcast of
    # ones); the second contribution must leave it, and the seed, untouched
    rng = np.random.default_rng(19)
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    y = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    if fan_out == "add":
        out = ad.concat([x + y, x * 2.0], axis=-1)
        seed = rng.normal(size=(2, 6))
        want_x, want_y = seed[:, :3] + 2.0 * seed[:, 3:], seed[:, :3]
    else:
        out = ad.tsum(x) + ad.tsum(x * y)
        seed = np.array(1.5)
        want_x, want_y = 1.5 * (1.0 + y.data), 1.5 * x.data
    kept = seed.copy()
    seed.flags.writeable = False
    out.backward(seed)
    np.testing.assert_allclose(x.grad, want_x, rtol=1e-15, atol=1e-15)
    np.testing.assert_allclose(y.grad, want_y, rtol=1e-15, atol=1e-15)
    assert seed.tobytes() == kept.tobytes()


def test_only_leaves_keep_grads():
    rng = np.random.default_rng(20)
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    h = x * w
    t = ad.tanh(h)
    out = ad.tsum(t)
    out.backward()
    assert h.grad is None and t.grad is None and out.grad is None
    d = 1.0 - np.tanh(x.data * w.data) ** 2
    np.testing.assert_allclose(x.grad, d * w.data, rtol=1e-15, atol=1e-15)
    np.testing.assert_allclose(w.grad, d * x.data, rtol=1e-15, atol=1e-15)


def test_linear_grads_add_onto_existing_grads():
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=5), requires_grad=True)
    seed = rng.normal(size=(2, 3, 5))
    ad.linear(x, w, b).backward(seed)
    first = [t.grad.copy() for t in (x, w, b)]
    ad.linear(x, w, b).backward(seed)
    for t, g in zip((x, w, b), first):
        np.testing.assert_array_equal(t.grad, 2.0 * g)
    np.testing.assert_allclose(w.grad, 2.0 * np.einsum("bli,blo->io", x.data, seed),
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n_in,n_out", [(96, 96), (96, 384), (384, 96), (96, 260)])
def test_linear_row_bytes_do_not_depend_on_batch(n_in, n_out):
    # sample_batch's batched rows equal single-row calls only if this holds, in the
    # float32 that sampling runs and in float64
    rng = np.random.default_rng(13)
    w = rng.uniform(-0.1, 0.1, (n_in, n_out))
    b = rng.normal(size=n_out)
    x = rng.normal(size=(200, 32, n_in))
    for dtype in (np.float32, np.float64):
        wt, bt = Tensor(w.astype(dtype)), Tensor(b.astype(dtype))
        batched = ad.linear(Tensor(x.astype(dtype)), wt, bt).data
        assert batched.dtype == dtype
        for row in (0, 117, 199):
            single = ad.linear(Tensor(x[row:row + 1].astype(dtype)), wt, bt).data
            assert single.tobytes() == batched[row:row + 1].tobytes()


def test_tensor_keeps_float32_and_float64_and_makes_the_rest_float64():
    for data, dtype in ((np.zeros(3, np.float32), np.float32), (np.zeros(3), np.float64),
                        (np.zeros(3, np.float16), np.float64), ([1, 2], np.float64),
                        (2, np.float64), (np.float32(2.0), np.float32)):
        assert Tensor(data).data.dtype == dtype, data


def test_constant_operands_take_the_tensor_dtype():
    # under NEP 50 a float64 scalar is not weak: wrapped as is, it would promote
    t32 = Tensor(np.arange(1.0, 4.0, dtype=np.float32), requires_grad=True)
    outs = [ad.mul(t32, np.float64(0.125)), -t32, 0.5 + t32, 1.0 - t32, t32 / 2.0,
            2.0 / t32, t32 * np.array([1.0, 2.0, 3.0])]
    assert [o.data.dtype for o in outs] == [np.float32] * len(outs)
    ad.tsum(outs[0] * outs[1]).backward()
    assert t32.grad.dtype == np.float32
    t64 = Tensor(np.ones(3))
    assert ad.mul(t64, np.float32(0.125)).data.dtype == np.float64
    assert (t64 + t32).data.dtype == np.float64


def test_softmax_and_log_softmax_grads():
    check_op(lambda t: ad.softmax(t, axis=-1), (3, 5))
    check_op(lambda t: ad.log_softmax(t, axis=-1), (3, 5))
    check_op(lambda t: ad.softmax(t, axis=1), (2, 4, 3))


def test_layer_norm_grads():
    rng = np.random.default_rng(3)
    g = Tensor(rng.normal(size=(6,)) + 1.0, requires_grad=True)
    b = Tensor(rng.normal(size=(6,)), requires_grad=True)
    check_op(lambda t: ad.layer_norm(t), (4, 6), tol=1e-6)
    check_op(lambda t: ad.layer_norm(t, g, b), (4, 6), tol=1e-6)

    # affine parameter grads
    g.grad = None
    b.grad = None
    x = rng.normal(size=(5, 6))
    out = ad.layer_norm(Tensor(x), g, b)
    w = rng.normal(size=out.data.shape)
    ad.tsum(out * w).backward()

    def loss_for(gamma):
        with ad.no_grad():
            return float((ad.layer_norm(Tensor(x), Tensor(gamma), Tensor(b.data)).data * w).sum())

    fd = numeric_grad(loss_for, g.data.copy())
    np.testing.assert_allclose(g.grad, fd, rtol=1e-6, atol=1e-7)


def test_gather_ops():
    rng = np.random.default_rng(4)
    idx = rng.integers(0, 5, size=(3, 4))
    check_op(lambda t: ad.embedding(t, idx), (5, 6))
    sel = np.array([0, 2, 2, 1])
    check_op(lambda t: ad.index_select(t, 1, sel), (2, 3, 4))
    pick = rng.integers(0, 4, size=(2, 3))
    check_op(lambda t: ad.take_along_last(t, pick), (2, 3, 4))


def test_embedding_grad_with_repeats_matches_add_at():
    rng = np.random.default_rng(14)
    table = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    idx = np.array([[0, 2, 2, 5], [5, 0, 2, 2]])
    seed = rng.normal(size=(2, 4, 3))
    ad.embedding(table, idx).backward(seed)
    expected = np.zeros((6, 3))
    np.add.at(expected, idx, seed)
    np.testing.assert_allclose(table.grad, expected, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("axis", [0, 1, 2, -1])
def test_index_select_grad_with_repeats_matches_add_at(axis):
    rng = np.random.default_rng(15)
    a = Tensor(rng.normal(size=(4, 5, 3)), requires_grad=True)
    sel = np.array([2, 0, 2, 2, 1, 0])
    out = ad.index_select(a, axis, sel)
    seed = rng.normal(size=out.shape)
    out.backward(seed)
    expected = np.zeros(a.shape)
    key = [slice(None)] * 3
    key[axis] = sel
    np.add.at(expected, tuple(key), seed)
    np.testing.assert_allclose(a.grad, expected, rtol=1e-13, atol=1e-13)


def test_where_grads():
    rng = np.random.default_rng(5)
    cond = rng.random((3, 4)) < 0.5
    other = Tensor(rng.normal(size=(3, 4)))
    check_op(lambda t: ad.where(cond, t, other), (3, 4))
    check_op(lambda t: ad.where(cond[:, :1], other, t), (3, 4))


def test_l2_normalize_grad():
    check_op(lambda t: ad.l2_normalize(t), (4, 5))


def test_no_grad_suppresses_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        y = x * 2.0
    assert not y.requires_grad
    assert y._parents == ()


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_grad_accumulates_across_uses():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = ad.tsum(x * x + x * 3.0)
    y.backward()
    np.testing.assert_allclose(x.grad, 2.0 * x.data + 3.0)


# -- row-wise forward kernels ---------------------------------------------------------


def whole_softmax(x, axis=-1):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def whole_log_softmax(x, axis=-1):
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def whole_layer_norm(x, g=None, b=None, eps=1e-6):
    xc = x - x.mean(axis=-1, keepdims=True)
    xhat = xc * (1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps))
    return xhat if g is None else xhat * g + b


def whole_gelu(x):
    t = np.tanh(ad._GELU_C * x * (1.0 + ad._GELU_A * (x * x)))
    return 0.5 * x * (1.0 + t)


def kernel_case(name, x, g, b):
    """The op under test (Tensor -> Tensor) and its whole-array output."""
    if name == "layer_norm_affine":
        op = lambda t: ad.layer_norm(t, Tensor(g, requires_grad=True),
                                     Tensor(b, requires_grad=True))
        return op, whole_layer_norm(x, g, b)
    op, whole = {"softmax": (ad.softmax, whole_softmax),
                 "log_softmax": (ad.log_softmax, whole_log_softmax),
                 "layer_norm": (ad.layer_norm, whole_layer_norm),
                 "gelu": (ad.gelu, whole_gelu)}[name]
    return op, whole(x)


# _BLOCK_ELEMS is patched to 24: GELU then runs (3, 8) as exactly one block,
# (4, 2, 6) as two full blocks, (5, 7) as blocks of 3 and 2 rows, and (3, 40) as
# one row per block; `calls` counts them. The other kernels are one numpy pass
# whatever the block size, so they walk no blocks.
@pytest.mark.parametrize("shape, calls", [((3, 8), 1), ((4, 2, 6), 2), ((5, 7), 2),
                                          ((3, 40), 3)])
@pytest.mark.parametrize("name", ["softmax", "log_softmax", "layer_norm",
                                  "layer_norm_affine", "gelu"])
def test_row_blocks_match_whole_array(monkeypatch, name, shape, calls):
    rng = np.random.default_rng(7)
    x = rng.normal(0.0, 2.0, shape)
    op, want = kernel_case(name, x, rng.normal(size=shape[-1]), rng.normal(size=shape[-1]))
    seed = rng.normal(size=shape)

    def run():
        t = Tensor(x.copy(), requires_grad=True)
        out = op(t)
        out.backward(seed)
        return out.data, t.grad

    unblocked_grad = run()[1]
    blocks = []
    row_blocks = ad._row_blocks

    def counted(kernel, *arrays):
        row_blocks(lambda *a: blocks.append(1) or kernel(*a), *arrays)

    monkeypatch.setattr(ad, "_BLOCK_ELEMS", 24)
    monkeypatch.setattr(ad, "_row_blocks", counted)
    out, grad = run()
    assert len(blocks) == (calls if name == "gelu" else 0)
    assert out.tobytes() == want.tobytes()
    assert grad.tobytes() == unblocked_grad.tobytes()  # the VJP reads the kept arrays
    with ad.no_grad():  # without a graph, GELU keeps no arrays for its VJP
        assert op(Tensor(x)).data.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape, axis", [((5, 7), 0), ((3, 4, 6), 1), ((3, 4, 6), -2)])
def test_softmax_along_other_axis_is_unchanged(shape, axis):
    x = np.random.default_rng(8).normal(size=shape)
    assert ad.softmax(Tensor(x), axis=axis).data.tobytes() == whole_softmax(x, axis).tobytes()
    want = whole_log_softmax(x, axis).tobytes()
    assert ad.log_softmax(Tensor(x), axis=axis).data.tobytes() == want
