"""Engine contracts: forward values, gradients vs finite differences, errors."""

import zlib

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from mgsgan import autodiff as ad
from mgsgan.errors import ContractError, NumericError, ShapeError
from mgsgan.layers import BatchNorm1d

from conftest import fd_gradcheck, random_probe, reduce_to_scalar

GRAD_TOL = 1e-4
N_CASES = 20


def test_add_elementwise():
    out = ad.add(ad.const([1.0, 2.0]), ad.const([3.0, 4.0]))
    np.testing.assert_array_equal(out.data, [4.0, 6.0])


def test_sigmoid_at_zero():
    assert ad.sigmoid(ad.const([0.0])).data[0] == 0.5


def test_conv1d_output_length():
    x = ad.const(np.zeros((1, 1, 5)))
    w = ad.const(np.zeros((1, 1, 3)))
    assert ad.conv1d(x, w, stride=1, pad=0).shape == (1, 1, 3)


def test_backward_product_rule():
    x = ad.param([2.0])
    w = ad.param([3.0])
    ad.backward(ad.sum_(ad.mul(w, x)))
    np.testing.assert_array_equal(w.grad, [2.0])
    np.testing.assert_array_equal(x.grad, [3.0])


def test_backward_sigmoid_quarter():
    w = ad.param([0.0])
    ad.backward(ad.sum_(ad.sigmoid(w)))
    np.testing.assert_allclose(w.grad, [0.25], atol=1e-15)


def test_backward_requires_scalar_loss():
    x = ad.param([1.0, 2.0])
    with pytest.raises(ContractError):
        ad.backward(ad.mul(x, x))


def test_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        ad.add(ad.const(np.zeros((2, 3))), ad.const(np.zeros((2, 4))))
    assert "(2, 3)" in str(err.value) and "(2, 4)" in str(err.value)


def test_bank_ops_reject_bounds_that_do_not_split_the_rows():
    x = ad.const(np.zeros((3, 2)))
    w, bias = ad.const(np.zeros((2, 2, 4))), ad.const(np.zeros((2, 4)))
    for bounds in ([0, 3], [0, 1, 2], [1, 2, 3], [0, 4, 3]):
        with pytest.raises(ShapeError):
            ad.bank_dense(x, w, bias, bounds)
    y = ad.const(np.zeros((3, 2, 4)))
    with pytest.raises(ShapeError):
        ad.bank_convt(y, ad.const(np.zeros((2, 2, 1, 4))), ad.const(np.zeros((2, 1))),
                      [0, 1, 2], stride=2, pad=1)
    with pytest.raises(ContractError):
        ad.permute_rows(x, [0, 0, 2])


def test_non_finite_output_rejected():
    with pytest.raises(NumericError):
        ad.log(ad.const([0.0]))
    with pytest.raises(NumericError):
        ad.log(ad.const([-1.0]))


def test_three_layer_conv_net_gradients():
    rng = np.random.default_rng(7)
    x = ad.param(rng.standard_normal((2, 2, 9)))
    w1 = ad.param(rng.standard_normal((3, 2, 3)) * 0.6)
    b1 = ad.param(rng.standard_normal(3) * 0.1)
    w2 = ad.param(rng.standard_normal((3, 2, 3)) * 0.6)
    b2 = ad.param(rng.standard_normal(2) * 0.1)
    w3 = ad.param(rng.standard_normal((2, 2, 3)) * 0.6)
    probe = random_probe(rng, (2, 2, 9))

    def loss():
        h = ad.leaky_relu(ad.conv1d(x, w1, b1, stride=2, pad=1), 0.2)
        h = ad.tanh(ad.conv1d_transpose(h, w2, b2, stride=2, pad=1, output_length=9))
        h = ad.conv1d(h, w3, stride=1, pad=1)
        return reduce_to_scalar(h, probe)

    assert fd_gradcheck(loss, [x, w1, b1, w2, b2, w3]) < GRAD_TOL


def _case(rng, kind):
    """One random gradient-check case per op kind; returns (loss_fn, leaves)."""
    if kind in ("add", "mul"):
        shape = tuple(rng.integers(2, 5, size=int(rng.integers(1, 3))))
        a = ad.param(rng.standard_normal(shape))
        b = ad.param(rng.standard_normal(shape[-1:]) if rng.random() < 0.5
                     else rng.standard_normal(shape))
        probe = random_probe(rng, shape)
        op = ad.OP_KINDS[kind]
        return lambda: reduce_to_scalar(op(a, b), probe), [a, b]
    if kind == "matmul":
        n, k, m = rng.integers(2, 5, size=3)
        a = ad.param(rng.standard_normal((n, k)))
        b = ad.param(rng.standard_normal((k, m)))
        probe = random_probe(rng, (n, m))
        return lambda: reduce_to_scalar(ad.matmul(a, b), probe), [a, b]
    if kind in ("conv1d", "conv1d_transpose"):
        b_, ci, co = rng.integers(1, 4, size=3)
        k = int(rng.integers(1, 5))
        s = int(rng.integers(1, 3))
        p = int(rng.integers(0, 2))
        length = int(rng.integers(max(k - 2 * p, 1), max(k - 2 * p, 1) + 8))
        t = (length + 2 * p - k) // s + 1
        w = ad.param(rng.standard_normal((co, ci, k)))
        if kind == "conv1d":
            x = ad.param(rng.standard_normal((b_, ci, length)))
            bias = ad.param(rng.standard_normal(co) * 0.2)
            probe = random_probe(rng, (b_, co, t))
            return (lambda: reduce_to_scalar(ad.conv1d(x, w, bias, stride=s, pad=p), probe),
                    [x, w, bias])
        y = ad.param(rng.standard_normal((b_, co, t)))
        bias = ad.param(rng.standard_normal(ci) * 0.2)
        probe = random_probe(rng, (b_, ci, length))
        return (lambda: reduce_to_scalar(
            ad.conv1d_transpose(y, w, bias, stride=s, pad=p, output_length=length), probe),
            [y, w, bias])
    if kind in ("leaky_relu", "sigmoid", "tanh"):
        shape = (int(rng.integers(2, 5)), int(rng.integers(2, 6)))
        vals = rng.standard_normal(shape)
        if kind == "leaky_relu":  # keep away from the kink for finite differences
            vals = np.where(np.abs(vals) < 0.01, 0.5, vals)
        x = ad.param(vals)
        probe = random_probe(rng, shape)
        op = ad.OP_KINDS[kind]
        return lambda: reduce_to_scalar(op(x), probe), [x]
    if kind == "log":
        shape = (int(rng.integers(2, 5)),)
        x = ad.param(rng.uniform(0.2, 3.0, size=shape))
        probe = random_probe(rng, shape)
        return lambda: reduce_to_scalar(ad.log(x), probe), [x]
    if kind == "softmax":
        shape = (int(rng.integers(2, 5)), int(rng.integers(2, 6)))
        x = ad.param(rng.standard_normal(shape))
        probe = random_probe(rng, shape)
        return lambda: reduce_to_scalar(ad.softmax(x, axis=1), probe), [x]
    if kind == "reshape":
        x = ad.param(rng.standard_normal((2, 6)))
        probe = random_probe(rng, (3, 4))
        return lambda: reduce_to_scalar(ad.reshape(x, (3, 4)), probe), [x]
    if kind == "concat":
        a = ad.param(rng.standard_normal((2, 3)))
        b = ad.param(rng.standard_normal((2, 2)))
        probe = random_probe(rng, (2, 5))
        return lambda: reduce_to_scalar(ad.concat([a, b], axis=1), probe), [a, b]
    if kind == "clamp":
        # keep samples off the bounds so the subgradient matches differences
        vals = rng.uniform(-2, 2, size=(3, 4))
        vals = np.where(np.abs(np.abs(vals) - 1.0) < 0.01, 0.5, vals)
        x = ad.param(vals)
        probe = random_probe(rng, (3, 4))
        return lambda: reduce_to_scalar(ad.clamp(x, -1.0, 1.0), probe), [x]
    if kind == "gather":
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        x = ad.param(rng.standard_normal((n, m)))
        idx = rng.integers(0, m, size=n)
        probe = random_probe(rng, (n,))
        return lambda: reduce_to_scalar(ad.gather(x, idx), probe), [x]
    if kind in ("sum", "mean"):
        shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        x = ad.param(rng.standard_normal(shape))
        axis = [None, 0, 1][int(rng.integers(0, 3))]
        op = ad.OP_KINDS[kind]
        out_shape = () if axis is None else (shape[1 - axis],)
        probe = random_probe(rng, out_shape)
        return lambda: reduce_to_scalar(op(x, axis=axis), probe), [x]
    if kind == "batch_norm":
        b_, c = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        shape = (b_, c) if rng.random() < 0.5 else (b_, c, int(rng.integers(2, 6)))
        x = ad.param(rng.standard_normal(shape))
        gamma = ad.param(rng.uniform(0.5, 1.5, size=c))
        beta = ad.param(rng.standard_normal(c))
        probe = random_probe(rng, shape)
        return lambda: reduce_to_scalar(ad.batch_norm(x, gamma, beta), probe), [x, gamma, beta]
    if kind == "batch_norm_eval":
        b_, c = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        shape = (b_, c) if rng.random() < 0.5 else (b_, c, int(rng.integers(2, 6)))
        x = ad.param(rng.standard_normal(shape))
        gamma = ad.param(rng.uniform(0.5, 1.5, size=c))
        beta = ad.param(rng.standard_normal(c))
        rm = rng.standard_normal(c)
        rv = rng.uniform(0.5, 2.0, size=c)
        probe = random_probe(rng, shape)
        return (lambda: reduce_to_scalar(
            ad.batch_norm_eval(x, gamma, beta, rm, rv), probe), [x, gamma, beta])
    if kind == "permute_rows":
        shape = (int(rng.integers(2, 6)), int(rng.integers(1, 4)))
        x = ad.param(rng.standard_normal(shape))
        perm = rng.permutation(shape[0])
        probe = random_probe(rng, shape)
        return lambda: reduce_to_scalar(ad.permute_rows(x, perm), probe), [x]
    if kind in ("bank_dense", "bank_convt"):
        # N experts over row segments of 0-2 rows (an empty one is skipped), >= 1 row in all
        n = int(rng.integers(1, 4))
        sizes = rng.integers(0, 3, size=n)
        sizes[int(rng.integers(0, n))] += 1
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        rows = int(bounds[-1])
        if kind == "bank_dense":
            i, o = (int(v) for v in rng.integers(1, 4, size=2))
            x = ad.param(rng.standard_normal((rows, i)))
            w = ad.param(rng.standard_normal((n, i, o)))
            bias = ad.param(rng.standard_normal((n, o)) * 0.2)
            probe = random_probe(rng, (rows, o))
            return (lambda: reduce_to_scalar(ad.bank_dense(x, w, bias, bounds), probe),
                    [x, w, bias])
        ci, co = (int(v) for v in rng.integers(1, 4, size=2))
        k = int(rng.integers(1, 5))
        s = int(rng.integers(1, 3))
        p = int(rng.integers(0, 2))
        length = int(rng.integers(max(k - 2 * p, 1), max(k - 2 * p, 1) + 8))
        t = (length + 2 * p - k) // s + 1
        y = ad.param(rng.standard_normal((rows, co, t)))
        w = ad.param(rng.standard_normal((n, co, ci, k)))
        bias = ad.param(rng.standard_normal((n, ci)) * 0.2)
        probe = random_probe(rng, (rows, ci, length))
        return (lambda: reduce_to_scalar(
            ad.bank_convt(y, w, bias, bounds, stride=s, pad=p, output_length=length), probe),
            [y, w, bias])
    raise AssertionError(f"no case generator for op kind {kind}")


@pytest.mark.parametrize("kind", sorted(ad.OP_KINDS))
def test_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    for case in range(N_CASES):
        loss, leaves = _case(rng, kind)
        err = fd_gradcheck(loss, leaves)
        assert err < GRAD_TOL, f"{kind} case {case}: scaled gradient error {err}"


def test_bank_dense_skips_the_gradient_of_a_constant_input():
    # expert 1 owns no rows: its weight-gradient rows are zero, the others the
    # same bits as when the input needs a gradient
    rng = np.random.default_rng(12)
    rows = rng.standard_normal((5, 3))
    w = ad.param(rng.standard_normal((3, 3, 4)))
    bias = ad.param(rng.standard_normal((3, 4)))
    probe = random_probe(rng, (5, 4))
    grads = {}
    for x in (ad.const(rows), ad.param(rows)):
        w.grad = bias.grad = None
        out = ad.bank_dense(x, w, bias, [0, 2, 2, 5])
        gx, _, _ = out._vjp(probe.data)
        assert (gx is None) == (not x.requires_grad)
        ad.backward(reduce_to_scalar(out, probe))
        grads[x.requires_grad] = (w.grad.tobytes(), bias.grad.tobytes())
    assert grads[False] == grads[True]
    assert not w.grad[1].any()


def test_backward_linearity():
    rng = np.random.default_rng(11)
    x = ad.param(rng.standard_normal((3, 4)))
    probe_f = random_probe(rng, (3, 4))
    probe_g = random_probe(rng, (3, 4))
    a, b = 1.7, -0.4

    def grads_of(fn):
        x.grad = None
        ad.backward(fn())
        return x.grad.copy()

    f = lambda: reduce_to_scalar(ad.tanh(x), probe_f)
    g = lambda: reduce_to_scalar(ad.sigmoid(x), probe_g)
    combined = lambda: ad.add(ad.mul(f(), ad.const(a)), ad.mul(g(), ad.const(b)))
    lhs = grads_of(combined)
    rhs = a * grads_of(f) + b * grads_of(g)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_forward_and_gradient_determinism():
    def run():
        rng = np.random.default_rng(123)
        x = ad.param(rng.standard_normal((4, 3, 8)))
        w = ad.param(rng.standard_normal((2, 3, 3)))
        out = ad.sigmoid(ad.conv1d(x, w, stride=2, pad=1))
        loss = ad.mean_(out)
        ad.backward(loss)
        return out.data.tobytes(), x.grad.tobytes(), w.grad.tobytes()

    assert run() == run()


def test_grad_accumulates_over_reuse():
    x = ad.param([1.5])
    y = ad.add(ad.mul(x, x), x)  # x^2 + x -> dy/dx = 2x + 1
    ad.backward(ad.sum_(y))
    np.testing.assert_allclose(x.grad, [4.0], atol=1e-12)


def test_detach_blocks_gradient():
    x = ad.param([2.0])
    y = ad.mul(x, x).detach()
    loss = ad.sum_(ad.mul(y, ad.const([3.0])))
    ad.backward(loss)
    assert x.grad is None


# ---------------------------------------------------------------------------
# hot-path kernels vs the formulations they replaced: same bits, same layout
# (later reductions sum in memory order, so the layout is part of the result)

def _old_leaky_relu(x, slope):
    neg = x < 0
    return np.where(neg, slope * x, x), lambda g: np.where(neg, slope * g, g)


def _old_im2col(x, k, stride, pad, t):
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    win = sliding_window_view(x, k, axis=2)[:, :, ::stride][:, :, :t]
    b, c = x.shape[0], x.shape[1]
    return np.ascontiguousarray(win.transpose(0, 2, 1, 3)).reshape(b * t, c * k)


def _old_batch_norm(x, gamma, beta, eps=1e-5):
    axes = (0,) if x.ndim == 2 else (0, 2)
    view = (1, -1) if x.ndim == 2 else (1, -1, 1)
    mu = x.mean(axis=axes, keepdims=True)
    var = x.var(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    gview, bview = gamma.reshape(view), beta.reshape(view)
    n = x.size // x.shape[1]

    def vjp(g):
        dgamma = (g * xhat).sum(axis=axes)
        dbeta = g.sum(axis=axes)
        gsum = g.sum(axis=axes, keepdims=True)
        gxsum = (g * xhat).sum(axis=axes, keepdims=True)
        return gview * inv * (g - gsum / n - xhat * gxsum / n), dgamma, dbeta

    return gview * xhat + bview, vjp


def _conv_layout(rng, shape):
    """A (B, C, L) array laid out like a conv1d output (length axis innermost in memory)."""
    b, c, length = shape
    x = ad.const(rng.standard_normal((b, 3, length + 2)))
    w = ad.const(rng.standard_normal((c, 3, 3)))
    out = ad.conv1d(x, w, ad.const(rng.standard_normal(c))).data
    assert out.shape == shape and not out.flags.c_contiguous
    return out


def _layouts(rng, shape):
    if len(shape) == 2:
        return [rng.standard_normal(shape), np.asfortranarray(rng.standard_normal(shape))]
    return [rng.standard_normal(shape), _conv_layout(rng, shape)]


def _assert_same_bits(new, old):
    assert (new.shape, new.dtype, new.strides) == (old.shape, old.dtype, old.strides)
    assert new.tobytes() == old.tobytes()


@pytest.mark.parametrize("slope", [0.2, 0.0, 1.0])
def test_leaky_relu_matches_where_formulation(slope):
    rng = np.random.default_rng(31)
    for x in _layouts(rng, (6, 4, 9)):
        x[:, :, ::4] = 0.0
        x[:, :, 1::4] = -0.0
        out = ad.leaky_relu(ad.param(x), slope)
        old_out, old_vjp = _old_leaky_relu(x, slope)
        _assert_same_bits(out.data, old_out)
        for g in _layouts(rng, x.shape):
            g[::2, :, ::3] = -0.0
            (dx,) = out._vjp(g)
            _assert_same_bits(dx, old_vjp(g))


@pytest.mark.parametrize("slope", [-0.1, 1.5])
def test_leaky_relu_rejects_slope_outside_unit_interval(slope):
    with pytest.raises(ContractError):
        ad.leaky_relu(ad.const(np.ones((2, 3))), slope)


@pytest.mark.parametrize("k,stride,pad", [(3, 1, 1), (4, 2, 1), (1, 1, 0), (5, 2, 0), (7, 3, 3)])
def test_im2col_matches_pad_and_window_formulation(k, stride, pad):
    rng = np.random.default_rng(32)
    for x in _layouts(rng, (5, 3, 12)):
        t = ad._conv_out_len(x.shape[2], k, stride, pad)
        _assert_same_bits(ad._im2col(x, k, stride, pad, t), _old_im2col(x, k, stride, pad, t))


@pytest.mark.parametrize("shape", [(7, 4), (6, 4, 9)])
def test_batch_norm_matches_mean_var_formulation(shape):
    rng = np.random.default_rng(33)
    c = shape[1]
    gamma, beta = rng.uniform(0.5, 1.5, size=c), rng.standard_normal(c)
    axes = (0,) if len(shape) == 2 else (0, 2)
    for x in _layouts(rng, shape):
        stats = {}
        out = ad.batch_norm(ad.param(x), ad.param(gamma), ad.param(beta), stats=stats)
        old_out, old_vjp = _old_batch_norm(x, gamma, beta)
        _assert_same_bits(out.data, old_out)
        _assert_same_bits(stats["mean"], np.mean(x, axis=axes))
        _assert_same_bits(stats["var"], np.var(x, axis=axes))
        for g in _layouts(rng, shape):
            for new, old in zip(out._vjp(g), old_vjp(g)):
                _assert_same_bits(new, old)


def test_batchnorm1d_running_stats_match_mean_and_var():
    rng = np.random.default_rng(34)
    for shape in [(7, 4), (6, 4, 9)]:
        axes = (0,) if len(shape) == 2 else (0, 2)
        bn = BatchNorm1d(shape[1])
        rm, rv = bn.running_mean.copy(), bn.running_var.copy()
        for x in _layouts(rng, shape):
            bn.forward(ad.const(x), train=True)
            m = bn.momentum
            rm = (1 - m) * rm + m * np.mean(x, axis=axes)
            rv = (1 - m) * rv + m * np.var(x, axis=axes)
            _assert_same_bits(bn.running_mean, rm)
            _assert_same_bits(bn.running_var, rv)
