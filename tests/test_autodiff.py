"""Engine contracts: forward values, gradients vs finite differences, errors."""

import zlib

import numpy as np
import pytest

from mgsgan import autodiff as ad
from mgsgan.errors import ContractError, NumericError, ShapeError

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
    raise AssertionError(f"no case generator for op kind {kind}")


@pytest.mark.parametrize("kind", sorted(ad.OP_KINDS))
def test_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    for case in range(N_CASES):
        loss, leaves = _case(rng, kind)
        err = fd_gradcheck(loss, leaves)
        assert err < GRAD_TOL, f"{kind} case {case}: scaled gradient error {err}"


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
