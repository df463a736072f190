"""Stateful layers over the functional ops, plus SGD with momentum.

Layers cache their forward input and accumulate parameter gradients into
`Param.grad`; `sgd_step` consumes and zeroes those buffers.  Weight init
is He-style scaled-uniform (+-sqrt(6 / fan_in)), which keeps activation
variance roughly constant through deep ReLU stacks; biases start at zero.
"""

from __future__ import annotations

import numpy as np

from ..errors import MissingGradient
from . import ops
from .ops import ConvSpec, DeconvSpec


class Param:
    """A learnable array with optional gradient and momentum buffers."""

    __slots__ = ("data", "grad", "vel")

    def __init__(self, data: np.ndarray):
        self.data = data
        self.grad: np.ndarray | None = None
        self.vel: np.ndarray | None = None

    @property
    def shape(self):
        return self.data.shape

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g


def he_uniform(shape, fan_in: int, rng: np.random.Generator,
               dtype=np.float32) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def sgd_step(params, lr: float, momentum: float = 0.0) -> None:
    """v <- momentum*v - lr*grad; param <- param + v; grads zeroed."""
    params = list(params)
    for p in params:
        if p.grad is None:
            raise MissingGradient(f"parameter with shape {p.shape} has no gradient buffer")
    for p in params:
        if p.vel is None:
            p.vel = np.zeros_like(p.data)
        p.vel = momentum * p.vel - lr * p.grad
        p.data = p.data + p.vel
        p.grad[...] = 0.0


class Layer:
    def params(self) -> list[tuple[str, Param]]:
        return []

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, gy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    __call__ = forward


class Conv2d(Layer):
    def __init__(self, spec: ConvSpec, rng: np.random.Generator, dtype=np.float32):
        kh, kw = spec.kernel
        fan_in = spec.in_channels * kh * kw
        self.spec = spec
        self.w = Param(he_uniform(spec.weight_shape(), fan_in, rng, dtype))
        self.b = Param(np.zeros(spec.out_channels, dtype=dtype))
        self._x: np.ndarray | None = None

    def forward(self, x):
        self._x = x
        return ops.conv2d(x, self.spec, self.w.data, self.b.data)

    def backward(self, gy):
        gx, gw, gb = ops.conv2d_vjp(self._x, self.spec, self.w.data, gy)
        self.w.accumulate(gw)
        self.b.accumulate(gb)
        return gx

    def params(self):
        return [("w", self.w), ("b", self.b)]


class TransposedConv2d(Layer):
    def __init__(self, spec: DeconvSpec, rng: np.random.Generator, dtype=np.float32):
        kh, kw = spec.kernel
        # each output pixel receives kh*kw/stride^2 scattered contributions
        fan_in = max(1, spec.in_channels * kh * kw // (spec.stride * spec.stride))
        self.spec = spec
        self.w = Param(he_uniform(spec.weight_shape(), fan_in, rng, dtype))
        self.b = Param(np.zeros(spec.out_channels, dtype=dtype))
        self._x: np.ndarray | None = None

    def forward(self, x):
        self._x = x
        return ops.transposed_conv2d(x, self.spec, self.w.data, self.b.data)

    def backward(self, gy):
        gx, gw, gb = ops.transposed_conv2d_vjp(self._x, self.spec, self.w.data, gy)
        self.w.accumulate(gw)
        self.b.accumulate(gb)
        return gx

    def params(self):
        return [("w", self.w), ("b", self.b)]


class ReLU(Layer):
    def __init__(self):
        self._x: np.ndarray | None = None

    def forward(self, x):
        self._x = x
        return ops.relu(x)

    def backward(self, gy):
        return ops.relu_vjp(self._x, gy)


class MaxPool2d(Layer):
    def __init__(self, window: int, stride: int, ceil_mode: bool = False):
        self.window = window
        self.stride = stride
        self.ceil_mode = ceil_mode
        self._x: np.ndarray | None = None
        self._y: np.ndarray | None = None

    def forward(self, x):
        self._x = x
        self._y = ops.maxpool2d(x, self.window, self.stride, self.ceil_mode)
        return self._y

    def backward(self, gy):
        return ops.maxpool2d_vjp(self._x, self.window, self.stride, gy, self.ceil_mode,
                                 y=self._y)


class Sequential(Layer):
    def __init__(self, layers: list[Layer], name: str = "seq"):
        self.layers = layers
        self.name = name

    def forward(self, x):
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, gy):
        for layer in reversed(self.layers):
            gy = layer.backward(gy)
        return gy

    def params(self):
        out = []
        for i, layer in enumerate(self.layers):
            for pname, p in layer.params():
                out.append((f"{self.name}.{i}.{pname}", p))
        return out
