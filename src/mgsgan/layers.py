"""Layer and optimizer primitives built on the autodiff engine.

Layers own their parameter tensors and know how to run forward in train or
eval mode. A layer can be frozen: its forward then uses constant views of the
parameters, so gradients still flow through the activations to the inputs but
never reach the frozen weights (this is how the game updates keep the other
players fixed).
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .errors import ContractError

ADAM_EPS = 1e-8
BATCHNORM_EPS = 1e-5


def xavier_std(fan_in: int, fan_out: int, gain: float = 1.0) -> float:
    if fan_in < 1 or fan_out < 1:
        raise ContractError(f"xavier_std: fans must be positive, got ({fan_in}, {fan_out})")
    return gain * math.sqrt(2.0 / (fan_in + fan_out))


def xavier_init(fan_in: int, fan_out: int, gain: float, rng: np.random.Generator,
                shape=None) -> np.ndarray:
    """Normal draw with std = gain * sqrt(2 / (fan_in + fan_out))."""
    std = xavier_std(fan_in, fan_out, gain)
    if shape is None:
        shape = (fan_in, fan_out)
    return rng.normal(0.0, std, size=shape)


class Layer:
    """Base: parameter bookkeeping plus the freeze mechanism."""

    def __init__(self):
        self.frozen = False

    def parameters(self) -> list[ad.Tensor]:
        return []

    def _p(self, t: ad.Tensor) -> ad.Tensor:
        return ad.Tensor(t.data) if self.frozen else t


class Dense(Layer):
    def __init__(self, fan_in: int, fan_out: int, rng: np.random.Generator, gain: float = 1.0):
        super().__init__()
        self.fan_in = fan_in
        self.fan_out = fan_out
        self.weight = ad.param(xavier_init(fan_in, fan_out, gain, rng))
        self.bias = ad.param(np.zeros(fan_out))

    def parameters(self):
        return [self.weight, self.bias]

    def forward(self, x: ad.Tensor) -> ad.Tensor:
        return ad.add(ad.matmul(x, self._p(self.weight)), self._p(self.bias))


class Conv1d(Layer):
    def __init__(self, c_in: int, c_out: int, kernel: int, rng: np.random.Generator,
                 stride: int = 1, pad: int = 0, gain: float = 1.0):
        super().__init__()
        self.stride = stride
        self.pad = pad
        self.fan_in = c_in * kernel
        self.fan_out = c_out * kernel
        self.weight = ad.param(
            xavier_init(self.fan_in, self.fan_out, gain, rng, shape=(c_out, c_in, kernel))
        )
        self.bias = ad.param(np.zeros(c_out))

    def parameters(self):
        return [self.weight, self.bias]

    def forward(self, x: ad.Tensor) -> ad.Tensor:
        return ad.conv1d(x, self._p(self.weight), self._p(self.bias),
                         stride=self.stride, pad=self.pad)


class ConvTranspose1d(Layer):
    """Upsampling adjoint of Conv1d; kernels stored as (c_in, c_out, K)."""

    def __init__(self, c_in: int, c_out: int, kernel: int, rng: np.random.Generator,
                 stride: int = 1, pad: int = 0, output_length: int | None = None,
                 gain: float = 1.0):
        super().__init__()
        self.stride = stride
        self.pad = pad
        self.output_length = output_length
        self.fan_in = c_in * kernel
        self.fan_out = c_out * kernel
        self.weight = ad.param(
            xavier_init(self.fan_in, self.fan_out, gain, rng, shape=(c_in, c_out, kernel))
        )
        self.bias = ad.param(np.zeros(c_out))

    def parameters(self):
        return [self.weight, self.bias]

    def forward(self, x: ad.Tensor) -> ad.Tensor:
        return ad.conv1d_transpose(x, self._p(self.weight), self._p(self.bias),
                                   stride=self.stride, pad=self.pad,
                                   output_length=self.output_length)


class BatchNorm1d(Layer):
    """Per-feature normalization; running stats kept as plain arrays."""

    def __init__(self, num_features: int, eps: float = BATCHNORM_EPS, momentum: float = 0.1):
        super().__init__()
        self.eps = eps
        self.momentum = momentum
        self.gamma = ad.param(np.ones(num_features))
        self.beta = ad.param(np.zeros(num_features))
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def parameters(self):
        return [self.gamma, self.beta]

    def forward(self, x: ad.Tensor, train: bool) -> ad.Tensor:
        if train:
            stats = {}
            out = ad.batch_norm(x, self._p(self.gamma), self._p(self.beta), eps=self.eps,
                                stats=stats)
            if not self.frozen:  # a frozen player's state must not drift
                m = self.momentum
                self.running_mean = (1 - m) * self.running_mean + m * stats["mean"]
                self.running_var = (1 - m) * self.running_var + m * stats["var"]
            return out
        return ad.batch_norm_eval(x, self._p(self.gamma), self._p(self.beta),
                                  self.running_mean, self.running_var, eps=self.eps)

    def state_arrays(self) -> list[np.ndarray]:
        return [self.gamma.data, self.beta.data, self.running_mean, self.running_var]

    def load_state_arrays(self, arrays):
        g, b, rm, rv = arrays
        self.gamma.data = np.asarray(g, dtype=np.float64)
        self.beta.data = np.asarray(b, dtype=np.float64)
        self.running_mean = np.asarray(rm, dtype=np.float64)
        self.running_var = np.asarray(rv, dtype=np.float64)


class Adam:
    """Adam with bias correction; moments live next to their parameters."""

    def __init__(self, params: list[ad.Tensor], lr: float = 0.0002,
                 beta1: float = 0.5, beta2: float = 0.999, eps: float = ADAM_EPS):
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ContractError(f"Adam: betas must lie in [0, 1), got ({beta1}, {beta2})")
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ContractError(f"Adam.step: parameter {i} has no gradient")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            m_hat = self.m[i] / (1 - b1 ** self.t)
            v_hat = self.v[i] / (1 - b2 ** self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
