"""Layer/optimizer contracts: Xavier, Adam, batchnorm, conv adjoint pair."""

import math

import numpy as np
import pytest

from mgsgan import autodiff as ad
from mgsgan.errors import ContractError
from mgsgan.layers import (ADAM_BLOCK, Adam, BatchNorm1d, Conv1d, ConvTranspose1d, Dense,
                           xavier_init, xavier_std)

from conftest import fd_gradcheck, random_probe, reduce_to_scalar


def test_xavier_std_formula_exact():
    assert abs(xavier_std(100, 100) - 0.1) < 1e-12
    assert abs(xavier_std(1, 1) - 1.0) < 1e-12
    rng = np.random.default_rng(5)
    for _ in range(50):
        fi, fo = int(rng.integers(1, 5000)), int(rng.integers(1, 5000))
        assert abs(xavier_std(fi, fo) - math.sqrt(2.0 / (fi + fo))) < 1e-12


def test_xavier_rejects_bad_fans():
    rng = np.random.default_rng(0)
    with pytest.raises(ContractError):
        xavier_init(0, 5, rng)
    with pytest.raises(ContractError):
        xavier_init(5, -1, rng)


def test_xavier_monte_carlo_moments():
    rng = np.random.default_rng(99)
    target = xavier_std(100, 100)
    draws = xavier_init(100, 100, rng, shape=(10**6,))
    assert abs(draws.mean()) < 0.01 * target
    assert abs(draws.std() - target) < 0.01 * target


def test_adam_zero_gradient_keeps_params():
    p = ad.param([1.0, -2.0, 3.0])
    before = p.data.copy()
    opt = Adam([p], lr=0.01)
    p.grad = np.zeros(3)
    opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_adam_moves_against_constant_gradient():
    p = ad.param([0.0])
    opt = Adam([p], lr=0.01)
    for _ in range(50):
        p.grad = np.array([1.0])
        opt.step()
    assert p.data[0] < 0.0
    p2 = ad.param([0.0])
    opt2 = Adam([p2], lr=0.01)
    for _ in range(50):
        p2.grad = np.array([-1.0])
        opt2.step()
    assert p2.data[0] > 0.0


def test_adam_first_step_magnitude_equals_lr():
    # m_hat/sqrt(v_hat) = 1 after one unit-gradient step, so |update| = lr
    p = ad.param([5.0])
    opt = Adam([p], lr=0.0002, beta1=0.5, beta2=0.999)
    p.grad = np.array([1.0])
    opt.step()
    assert abs((5.0 - p.data[0]) - 0.0002) < 1e-9


def test_adam_lr_zero_bit_identical():
    rng = np.random.default_rng(3)
    p = ad.param(rng.standard_normal((4, 5)))
    before = p.data.tobytes()
    opt = Adam([p], lr=0.0)
    for _ in range(10):
        p.grad = rng.standard_normal((4, 5))
        opt.step()
    assert p.data.tobytes() == before


def test_adam_missing_grad_is_contract_error():
    p = ad.param([1.0])
    opt = Adam([p], lr=0.01)
    with pytest.raises(ContractError):
        opt.step()


def test_adam_step_counter_increases():
    p = ad.param([1.0])
    opt = Adam([p], lr=0.01)
    for t in range(1, 4):
        p.grad = np.array([0.5])
        opt.step()
        assert opt.t == t


def test_adam_blocked_in_place_step_matches_allocating_formula():
    rng = np.random.default_rng(21)
    shapes = [(1,), (ADAM_BLOCK + 7,), (4, 3, 5)]  # one crosses a block boundary
    params = [ad.param(rng.standard_normal(s)) for s in shapes]
    buffers = [p.data for p in params]
    want = [p.data.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    lr, b1, b2, eps = 0.01, 0.5, 0.999, 1e-8
    opt = Adam(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
    for t in range(1, 5):
        for i, p in enumerate(params):
            p.grad = g = rng.standard_normal(shapes[i])
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            m_hat = m[i] / (1 - b1 ** t)
            v_hat = v[i] / (1 - b2 ** t)
            want[i] = want[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
        opt.step()
        for p, buf, w in zip(params, buffers, want):
            assert p.data is buf  # updated in place: earlier references see the step
            assert p.data.tobytes() == w.tobytes()


def test_adam_rejects_non_contiguous_parameter():
    strided = ad.param(np.zeros((4, 6))[:, ::2])
    with pytest.raises(ContractError):
        Adam([ad.param(np.zeros(3)), strided])
    p = ad.param(np.zeros((4, 6)))
    opt = Adam([p])
    p.data = p.data.T
    p.grad = np.zeros((6, 4))
    with pytest.raises(ContractError):
        opt.step()


def test_batchnorm_train_normalizes_per_channel():
    rng = np.random.default_rng(8)
    bn = BatchNorm1d(3)
    x = ad.const(rng.standard_normal((16, 3, 7)) * 4.0 + 2.0)
    out = bn.forward(x, train=True).data
    np.testing.assert_allclose(out.mean(axis=(0, 2)), 0.0, atol=1e-6)
    np.testing.assert_allclose(out.var(axis=(0, 2)), 1.0, atol=1e-4)


def test_batchnorm_eval_identity_with_unit_stats():
    bn = BatchNorm1d(4, eps=0.0)
    x = ad.const(np.random.default_rng(1).standard_normal((3, 4)))
    out = bn.forward(x, train=False).data
    np.testing.assert_allclose(out, x.data, atol=1e-12)


def test_batchnorm_batch_of_one_rejected_in_train():
    bn = BatchNorm1d(2)
    with pytest.raises(ContractError):
        bn.forward(ad.const(np.zeros((1, 2))), train=True)


def test_batchnorm_gradients_vs_finite_differences():
    rng = np.random.default_rng(21)
    bn = BatchNorm1d(3)
    x = ad.param(rng.standard_normal((5, 3, 4)))
    probe = random_probe(rng, (5, 3, 4))

    def loss():
        return reduce_to_scalar(bn.forward(x, train=True), probe)

    assert fd_gradcheck(loss, [x, bn.gamma, bn.beta]) < 1e-4


def test_batchnorm_running_stats_update_only_in_train():
    rng = np.random.default_rng(4)
    bn = BatchNorm1d(2)
    x = ad.const(rng.standard_normal((8, 2)) + 3.0)
    bn.forward(x, train=False)
    np.testing.assert_array_equal(bn.running_mean, np.zeros(2))
    bn.forward(x, train=True)
    assert np.all(bn.running_mean != 0.0)


def _hold_fixed(layer):
    for p in layer.parameters():
        p.requires_grad = False


def test_frozen_batchnorm_keeps_running_stats():
    rng = np.random.default_rng(4)
    bn = BatchNorm1d(2)
    _hold_fixed(bn)
    before = (bn.running_mean.copy(), bn.running_var.copy())
    bn.forward(ad.const(rng.standard_normal((8, 2)) + 3.0), train=True)
    np.testing.assert_array_equal(bn.running_mean, before[0])
    np.testing.assert_array_equal(bn.running_var, before[1])


def test_conv_adjoint_identity_random_geometries():
    rng = np.random.default_rng(17)
    for _ in range(40):
        b = int(rng.integers(1, 4))
        c = int(rng.integers(1, 4))
        o = int(rng.integers(1, 4))
        k = int(rng.integers(1, 6))
        s = int(rng.integers(1, 4))
        p = int(rng.integers(0, 3))
        length = int(rng.integers(max(k - 2 * p, 1), max(k - 2 * p, 1) + 14))
        t = (length + 2 * p - k) // s + 1
        if t < 1:
            continue
        x = rng.standard_normal((b, c, length))
        w = rng.standard_normal((o, c, k))
        y = rng.standard_normal((b, o, t))
        cx = ad.conv1d(ad.const(x), ad.const(w), stride=s, pad=p)
        cty = ad.conv1d_transpose(ad.const(y), ad.const(w), stride=s, pad=p,
                                  output_length=length)
        lhs = float((cx.data * y).sum())
        rhs = float((x * cty.data).sum())
        assert abs(lhs - rhs) < 1e-8


def test_dense_and_conv_layer_gradients():
    rng = np.random.default_rng(33)
    dense = Dense(20, 4, rng)
    conv = Conv1d(2, 3, 3, rng, stride=2, pad=1)
    convt = ConvTranspose1d(3, 2, 4, rng, stride=2, pad=1, output_length=10)
    x = ad.param(rng.standard_normal((3, 2, 10)))
    probe = random_probe(rng, (3, 4))

    def loss():
        h = ad.tanh(conv.forward(x))
        h = ad.leaky_relu(convt.forward(h), 0.2)
        h = dense.forward(ad.reshape(h, (3, 20)))
        return reduce_to_scalar(h, probe)

    leaves = [x] + dense.parameters() + conv.parameters() + convt.parameters()
    assert fd_gradcheck(loss, leaves) < 1e-4


def test_frozen_layer_blocks_parameter_gradients():
    rng = np.random.default_rng(2)
    dense = Dense(3, 2, rng)
    _hold_fixed(dense)
    x = ad.param(rng.standard_normal((4, 3)))
    out = dense.forward(x)
    ad.backward(ad.sum_(out))
    assert dense.weight.grad is None and dense.bias.grad is None
    # d sum(x W + b) / dx = 1 W^T: the input gradient flows through the fixed weight
    np.testing.assert_array_equal(x.grad, np.ones((4, 2)) @ dense.weight.data.T)
