"""Layer and optimizer primitives built on the autodiff engine.

Layers own their parameter tensors and know how to run forward in train or
eval mode. A layer has no freeze switch of its own: a parameter whose
`requires_grad` is False is a constant to the engine, so gradients still flow
through the activations to the inputs but never reach it. The training loop
holds the players it is not updating fixed that way, and a batch norm whose
`gamma` is held fixed leaves its running statistics alone too.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .errors import ContractError

ADAM_EPS = 1e-8
ADAM_BLOCK = 1 << 16  # elements per in-place Adam block: its temporaries stay in cache
BATCHNORM_EPS = 1e-5
BATCHNORM_MOMENTUM = 0.1  # weight of each batch in the running statistics


def xavier_std(fan_in: int, fan_out: int) -> float:
    if fan_in < 1 or fan_out < 1:
        raise ContractError(f"xavier_std: fans must be positive, got ({fan_in}, {fan_out})")
    return math.sqrt(2.0 / (fan_in + fan_out))


def xavier_init(fan_in: int, fan_out: int, rng: np.random.Generator, shape=None) -> np.ndarray:
    """Normal draw with std = sqrt(2 / (fan_in + fan_out))."""
    std = xavier_std(fan_in, fan_out)
    if shape is None:
        shape = (fan_in, fan_out)
    return rng.normal(0.0, std, size=shape)


class Dense:
    def __init__(self, fan_in: int, fan_out: int, rng: np.random.Generator):
        self.fan_in = fan_in
        self.fan_out = fan_out
        self.weight = ad.param(xavier_init(fan_in, fan_out, rng))
        self.bias = ad.param(np.zeros(fan_out))

    def parameters(self):
        return [self.weight, self.bias]

    def forward(self, x: ad.Tensor) -> ad.Tensor:
        return ad.add(ad.matmul(x, self.weight), self.bias)

    def state_arrays(self) -> list[np.ndarray]:
        return [self.weight.data, self.bias.data]


class Conv1d:
    def __init__(self, c_in: int, c_out: int, kernel: int, rng: np.random.Generator,
                 stride: int = 1, pad: int = 0):
        self.stride = stride
        self.pad = pad
        self.fan_in = c_in * kernel
        self.fan_out = c_out * kernel
        self.weight = ad.param(
            xavier_init(self.fan_in, self.fan_out, rng, shape=(c_out, c_in, kernel))
        )
        self.bias = ad.param(np.zeros(c_out))

    def parameters(self):
        return [self.weight, self.bias]

    def forward(self, x: ad.Tensor) -> ad.Tensor:
        return ad.conv1d(x, self.weight, self.bias, stride=self.stride, pad=self.pad)

    def state_arrays(self) -> list[np.ndarray]:
        return [self.weight.data, self.bias.data]


class ConvTranspose1d:
    """Upsampling adjoint of Conv1d; kernels stored as (c_in, c_out, K)."""

    def __init__(self, c_in: int, c_out: int, kernel: int, rng: np.random.Generator,
                 stride: int = 1, pad: int = 0, output_length: int | None = None):
        self.stride = stride
        self.pad = pad
        self.output_length = output_length
        self.fan_in = c_in * kernel
        self.fan_out = c_out * kernel
        self.weight = ad.param(
            xavier_init(self.fan_in, self.fan_out, rng, shape=(c_in, c_out, kernel))
        )
        self.bias = ad.param(np.zeros(c_out))

    def parameters(self):
        return [self.weight, self.bias]

    def forward(self, x: ad.Tensor) -> ad.Tensor:
        return ad.conv1d_transpose(x, self.weight, self.bias, stride=self.stride,
                                   pad=self.pad, output_length=self.output_length)


class BatchNorm1d:
    """Per-feature normalization; running stats kept as plain arrays."""

    def __init__(self, num_features: int, eps: float = BATCHNORM_EPS):
        self.eps = eps
        self.gamma = ad.param(np.ones(num_features))
        self.beta = ad.param(np.zeros(num_features))
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def parameters(self):
        return [self.gamma, self.beta]

    def forward(self, x: ad.Tensor, train: bool) -> ad.Tensor:
        if train:
            stats = {}
            out = ad.batch_norm(x, self.gamma, self.beta, eps=self.eps, stats=stats)
            if self.gamma.requires_grad:  # a player held fixed must not drift
                m = BATCHNORM_MOMENTUM
                self.running_mean = (1 - m) * self.running_mean + m * stats["mean"]
                self.running_var = (1 - m) * self.running_var + m * stats["var"]
            return out
        return ad.batch_norm_eval(x, self.gamma, self.beta, self.running_mean,
                                  self.running_var, eps=self.eps)

    def state_arrays(self) -> list[np.ndarray]:
        return [self.gamma.data, self.beta.data, self.running_mean, self.running_var]


class Adam:
    """Adam with bias correction; moments live next to their parameters.

    The update runs in place, ADAM_BLOCK elements at a time, with the same
    ufuncs in the same order as the allocating formula, so it gives the same
    bits; an array that shares a parameter's buffer sees every step.
    """

    def __init__(self, params: list[ad.Tensor], lr: float = 0.0002,
                 beta1: float = 0.5, beta2: float = 0.999, eps: float = ADAM_EPS):
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ContractError(f"Adam: betas must lie in [0, 1), got ({beta1}, {beta2})")
        self.params = list(params)
        self._check_contiguous()
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        block = min(ADAM_BLOCK, max((p.size for p in self.params), default=0))
        dtype = self.params[0].data.dtype if self.params else np.float64
        self._scratch = np.empty((2, block), dtype=dtype)  # temporaries in the parameters' dtype

    def _check_contiguous(self):
        for i, p in enumerate(self.params):
            if not p.data.flags.c_contiguous:
                raise ContractError(f"Adam: parameter {i} is not C-contiguous, "
                                    "so it cannot be updated in place")

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ContractError(f"Adam.step: parameter {i} has no gradient")
            if p.grad.shape != p.shape:
                raise ContractError(f"Adam.step: parameter {i} has shape {p.shape} "
                                    f"but its gradient {p.grad.shape}")
        self._check_contiguous()
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            flat = (p.data.reshape(-1), p.grad.reshape(-1), m.reshape(-1), v.reshape(-1))
            for lo in range(0, p.size, ADAM_BLOCK):
                w, g, mb, vb = (a[lo : lo + ADAM_BLOCK] for a in flat)
                t1, t2 = self._scratch[:, : w.size]
                # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g
                np.multiply(mb, b1, out=mb)
                np.multiply(g, 1 - b1, out=t1)
                np.add(mb, t1, out=mb)
                np.multiply(vb, b2, out=vb)
                np.multiply(g, 1 - b2, out=t1)
                np.multiply(t1, g, out=t1)
                np.add(vb, t1, out=vb)
                # w = w - lr * (m / c1) / (sqrt(v / c2) + eps)
                np.divide(mb, c1, out=t1)
                np.multiply(t1, self.lr, out=t1)
                np.divide(vb, c2, out=t2)
                np.sqrt(t2, out=t2)
                np.add(t2, self.eps, out=t2)
                np.divide(t1, t2, out=t1)
                np.subtract(w, t1, out=w)
