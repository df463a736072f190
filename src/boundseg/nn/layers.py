"""Stateful layers over the functional ops, plus SGD with momentum.

A forward with keep=True saves what the layer's backward needs, and
nothing more: `Conv2d` and `TransposedConv2d` their input, `ReLU` its
output (which is the next layer's input, so the array is held once),
`MaxPool2d` its input and output.  Backward consumes the saved arrays,
so activations are freed as the backward walks down, and a second
backward without a new forward raises `ShapeMismatch`.  A forward with
keep=False (inference) saves nothing, and there `ReLU` overwrites its
input: that is the conv output just made, which nothing else holds.  In
training that would be just as sound (the conv keeps its input, not its
output), but there it raised the `train` benchmark's peak RSS from 411
to 416 MB, so training makes a new array.  A gradient lives from
backward to `sgd_step`: `Param.grad` takes over the first fresh vjp
array and adds later ones into it; `sgd_step` skips a parameter whose
grad is None (a head the loss weight leaves out) and drops each grad it
uses.  Weight init is He-style scaled-uniform (+-sqrt(6 / fan_in)), which
keeps activation variance roughly constant through deep ReLU stacks;
biases start at zero.  Without an rng the weights are left uninitialised,
for a caller that fills them (`models.load_model`).
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatch
from . import ops
from .ops import ConvSpec, DeconvSpec


class Param:
    """A learnable array with its gradient and momentum buffers, None while unused."""

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
            self.grad = g.astype(self.data.dtype, copy=False)
        else:
            self.grad += g


def he_uniform(shape, fan_in: int, rng: np.random.Generator | None,
               dtype=np.float32) -> np.ndarray:
    if rng is None:
        return np.empty(shape, dtype=dtype)
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def sgd_step(params, lr: float, momentum: float = 0.0) -> None:
    """v <- momentum*v - lr*grad; param <- param + v; grad <- None.

    Runs in place on each parameter's own buffers, with the same three
    roundings as the expressions above and no parameter-sized temporaries;
    `p.data` keeps its identity.  A parameter whose grad is None is skipped."""
    for p in params:
        if p.grad is None:
            continue
        if p.vel is None:
            p.vel = np.zeros_like(p.data)
        p.vel *= momentum
        p.grad *= lr
        p.vel -= p.grad
        p.data += p.vel
        p.grad = None


class Layer:
    """Base of the layers: `forward(x, keep)` saves what `backward` needs
    in `_saved` when keep is true, and `backward` takes it back out."""

    _saved = None

    def params(self) -> list[tuple[str, Param]]:
        return []

    def forward(self, x: np.ndarray, keep: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, gy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _take(self):
        """What the last forward(keep=True) saved; no layer holds it after."""
        saved, self._saved = self._saved, None
        if saved is None:
            raise ShapeMismatch(
                f"{type(self).__name__}.backward has nothing to consume: it runs "
                f"once after each forward(keep=True)")
        return saved


class Conv2d(Layer):
    def __init__(self, spec: ConvSpec, rng: np.random.Generator | None,
                 dtype=np.float32):
        kh, kw = spec.kernel
        fan_in = spec.in_channels * kh * kw
        self.spec = spec
        self.w = Param(he_uniform(spec.weight_shape(), fan_in, rng, dtype))
        self.b = Param(np.zeros(spec.out_channels, dtype=dtype))

    def forward(self, x, keep=True):
        if keep:
            self._saved = x
        return ops.conv2d(x, self.spec, self.w.data, self.b.data)

    def backward(self, gy):
        gx, gw, gb = ops.conv2d_vjp(self._take(), self.spec, self.w.data, gy)
        self.w.accumulate(gw)
        self.b.accumulate(gb)
        return gx

    def params(self):
        return [("w", self.w), ("b", self.b)]


class TransposedConv2d(Layer):
    def __init__(self, spec: DeconvSpec, rng: np.random.Generator | None,
                 dtype=np.float32):
        kh, kw = spec.kernel
        # each output pixel receives kh*kw/stride^2 scattered contributions
        fan_in = max(1, spec.in_channels * kh * kw // (spec.stride * spec.stride))
        self.spec = spec
        self.w = Param(he_uniform(spec.weight_shape(), fan_in, rng, dtype))
        self.b = Param(np.zeros(spec.out_channels, dtype=dtype))

    def forward(self, x, keep=True):
        if keep:
            self._saved = x
        return ops.transposed_conv2d(x, self.spec, self.w.data, self.b.data)

    def backward(self, gy):
        gx, gw, gb = ops.transposed_conv2d_vjp(self._take(), self.spec, self.w.data, gy)
        self.w.accumulate(gw)
        self.b.accumulate(gb)
        return gx

    def params(self):
        return [("w", self.w), ("b", self.b)]


class ReLU(Layer):
    def forward(self, x, keep=True):
        if not keep:
            return ops.relu(x, out=x)
        self._saved = ops.relu(x)  # > 0 exactly where x > 0
        return self._saved

    def backward(self, gy):
        return ops.relu_vjp(self._take(), gy)


class MaxPool2d(Layer):
    def __init__(self, window: int, stride: int, ceil_mode: bool = False):
        self.window = window
        self.stride = stride
        self.ceil_mode = ceil_mode

    def forward(self, x, keep=True):
        y = ops.maxpool2d(x, self.window, self.stride, self.ceil_mode)
        if keep:
            self._saved = (x, y)
        return y

    def backward(self, gy):
        x, y = self._take()
        return ops.maxpool2d_vjp(x, self.window, self.stride, gy, self.ceil_mode, y=y)


class Sequential(Layer):
    def __init__(self, layers: list[Layer], name: str = "seq"):
        self.layers = layers
        self.name = name

    def forward(self, x, keep=True):
        for layer in self.layers:
            x = layer.forward(x, keep)
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
