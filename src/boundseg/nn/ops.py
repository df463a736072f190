"""Pure forward ops and their vector-Jacobian products.

Every activation is a 4-D array shaped (batch, channels, rows, cols).
Convolution is implemented as cross-correlation (no kernel flip); the
transposed convolution is its exact adjoint, so for shared weights and
zero bias  <conv2d(x), y> == <x, transposed_conv2d(y)>.

Layout: every windowed op indexes kernel tap (i, j) through `_tap`, the
strided slice of the padded input that the tap reads.  Convolutions run
on pixel-major columns: `_columns` copies each tap slice once into a
(c, kh·kw, n, oh, ow) buffer, so every row of the lowered
(c·kh·kw, n·oh·ow) matrix is a contiguous run of output pixels, and each
conv function is one channels-first GEMM over it.  The columns, the
channels-first copy and the scatter product come from `_gemm_matrix`,
whose rows are padded by 16 elements when their length is a multiple of
4 KiB: at such a stride (64² pixels times a batch, in float32) every row
of a packed panel maps onto the same cache sets, and a 4×16×64² 3×3 conv
forward ran 14× slower.  `_gather` (weights @ columns) is the forward of
conv2d and the input gradient of transposed_conv2d_vjp; `_weight_grad`
(g @ columns.T) is both weight gradients.  `_scatter`, the adjoint of
`_gather`, computes weights.T @ g as (c, kh·kw, n, gh, gw), adds it tap by
tap onto a zero grid and crops the padding: the input gradient of
conv2d_vjp and the forward of transposed_conv2d.  For a 1×1 kernel at
stride 1 the one tap covers the grid, so the product plus 0.0 is the
result, with no grid.  The max-pool takes np.maximum over its tap slices,
and its vjp walks the same taps in row-major order, routing gy to the
first that holds the window max.  `_pool_taps` clips each pool tap to the
input: a trailing partial window of a ceil-mode pool reads only the taps
that lie inside it, so no −inf-padded copy of the input is made.

Chunks: the columns and the scatter product hold kh·kw copies of their
input, so each is built one chunk at a time, along an axis its GEMM does
not reduce.  `_gather` builds the columns one band of output rows of one
image at a time and writes each band's product into its rows of the
output; `_weight_grad` builds them one chunk of input channels at a time
and writes each product into its columns of the weight gradient;
`_scatter` computes the product one chunk of channels at a time and adds
its taps into those channels of the grid.  Every chunk's GEMM reduces
over the same full axis as the whole one.  `_spans` sizes the chunks
from bytes: nearly equal, each at least `_CHUNK_BYTES` and at least the
operand the GEMM reads again on every chunk (the weights for row bands,
g for channel chunks).  A buffer smaller than two such chunks is built
whole, as is every buffer of a desk training batch; the desk validation
forward (8 images) builds its 16→16 classifier columns one image at a
time.  At the reference shapes the float32 results
keep the bytes of the whole GEMMs on OpenBLAS; at small sizes, or in
float64, a narrower GEMM may take a BLAS kernel that rounds differently.
A 1×1 kernel at stride 1 is never chunked: its columns are the (padded)
input itself, channels first, so there is no copy to bound, and with one
output channel its GEMMs are matrix-vector products, whose bytes change
when their columns are split.  transposed_conv2d_vjp reduces its columns
over channels and taps for gx and over pixels for gw, so when they are
chunked it builds them twice, once along each axis.

Arithmetic runs in the dtype of the inputs: float32 for training,
float64 when the gradient checker drives the ops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import LabelOutOfRange, ShapeMismatch


def _as_pair(v) -> tuple[int, int]:
    if isinstance(v, (tuple, list)):
        a, b = v
        return int(a), int(b)
    return int(v), int(v)


def _check_4d(x: np.ndarray, what: str) -> None:
    if x.ndim != 4:
        raise ShapeMismatch(f"{what} must be 4-D (n, c, h, w), got shape {x.shape}")


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of a (possibly dilated) convolution."""

    in_channels: int
    out_channels: int
    kernel: tuple[int, int]
    stride: int = 1
    padding: int = 0
    dilation: int = 1

    def __post_init__(self):
        object.__setattr__(self, "kernel", _as_pair(self.kernel))
        if min(self.in_channels, self.out_channels, *self.kernel) < 1:
            raise ShapeMismatch(f"non-positive dimension in {self}")
        if self.stride < 1 or self.dilation < 1 or self.padding < 0:
            raise ShapeMismatch(f"bad stride/padding/dilation in {self}")

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        kh, kw = self.kernel
        oh = (h + 2 * self.padding - self.dilation * (kh - 1) - 1) // self.stride + 1
        ow = (w + 2 * self.padding - self.dilation * (kw - 1) - 1) // self.stride + 1
        if oh < 1 or ow < 1:
            raise ShapeMismatch(f"conv output {oh}x{ow} < 1 for input {h}x{w} with {self}")
        return oh, ow

    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.out_channels, self.in_channels) + self.kernel


@dataclass(frozen=True)
class DeconvSpec:
    """Geometry of a transposed convolution (adjoint of a strided conv)."""

    in_channels: int
    out_channels: int
    kernel: tuple[int, int]
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        object.__setattr__(self, "kernel", _as_pair(self.kernel))
        if min(self.in_channels, self.out_channels, *self.kernel) < 1:
            raise ShapeMismatch(f"non-positive dimension in {self}")
        if self.stride < 1 or self.padding < 0:
            raise ShapeMismatch(f"bad stride/padding in {self}")

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        kh, kw = self.kernel
        oh = (h - 1) * self.stride - 2 * self.padding + kh
        ow = (w - 1) * self.stride - 2 * self.padding + kw
        if oh < 1 or ow < 1:
            raise ShapeMismatch(f"deconv output {oh}x{ow} < 1 for input {h}x{w} with {self}")
        return oh, ow

    def weight_shape(self) -> tuple[int, int, int, int]:
        # dim 0 is this layer's input side so conv/deconv can share weights
        return (self.in_channels, self.out_channels) + self.kernel


def _tap(i: int, j: int, stride: int, oh: int, ow: int):
    """Index of the strided (n, c, oh, ow) slice that kernel tap (i, j) reads."""
    return (slice(None), slice(None),
            slice(i, i + stride * (oh - 1) + 1, stride),
            slice(j, j + stride * (ow - 1) + 1, stride))


def _pad_hw(x: np.ndarray, p: int) -> np.ndarray:
    """x with p zeros around its last two axes (np.pad costs several times
    more at small shapes)."""
    if p == 0:
        return x
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
    xp[:, :, p : p + h, p : p + w] = x
    return xp


# Smallest chunk of a conv temporary (columns or scatter product), in bytes.
_CHUNK_BYTES = 8 << 20


def _leading_dim(n: int, dtype) -> int:
    """Row length in elements of a BLAS operand with n columns: n, or n + 16
    when n·itemsize is a multiple of 4 KiB."""
    return n + 16 if n * np.dtype(dtype).itemsize % 4096 == 0 else n


def _gemm_matrix(m: int, n: int, dtype) -> np.ndarray:
    """Uninitialised (m, n) BLAS operand: a view of an (m, _leading_dim) buffer."""
    return np.empty((m, _leading_dim(n, dtype)), dtype=dtype)[:, :n]


def _pointwise(kernel, stride: int) -> bool:
    """A 1×1 kernel at stride 1 reads each (padded) input pixel once."""
    return tuple(kernel) == (1, 1) and stride == 1


def _spans(kernel, stride: int, units: int, unit_bytes: int,
           reread: int) -> list[tuple[int, int]]:
    """range(units) as nearly equal runs of at least max(_CHUNK_BYTES, reread)
    bytes each: [(0, units)] when two such runs do not fit, or when the
    kernel is pointwise."""
    if _pointwise(kernel, stride):
        return [(0, units)]
    per = -(-max(_CHUNK_BYTES, reread) // unit_bytes)
    m = max(1, units // per)
    return [(i * units // m, (i + 1) * units // m) for i in range(m)]


def _columns(xp: np.ndarray, kernel, stride: int, dilation: int, oh: int, ow: int):
    """Pixel-major im2col of xp: (c·kh·kw, n·oh·ow), rows in (c, i, j) order."""
    if _pointwise(kernel, stride):
        return _channels_first(xp)
    n, c = xp.shape[:2]
    kh, kw = kernel
    cols = _gemm_matrix(c * kh * kw, n * oh * ow, xp.dtype)
    taps = cols.reshape((c, kh * kw, n, oh, ow))
    for i in range(kh):
        for j in range(kw):
            tap = xp[_tap(i * dilation, j * dilation, stride, oh, ow)]
            taps[:, i * kw + j] = tap.transpose(1, 0, 2, 3)
    return cols


def _channels_first(a: np.ndarray) -> np.ndarray:
    """(n, c, h, w) -> (c, n·h·w); a free reshape when n == 1 and the rows
    need no padding."""
    n, c, h, w = a.shape
    if n == 1 and _leading_dim(h * w, a.dtype) == h * w:
        return a.reshape(c, h * w)
    out = _gemm_matrix(c, n * h * w, a.dtype)
    out.reshape((c, n, h, w))[...] = a.transpose(1, 0, 2, 3)
    return out


def _gather(xp: np.ndarray, w: np.ndarray, stride: int, dilation: int, oh: int, ow: int):
    """w (k, c, kh, kw) times the columns of the padded (n, c) input xp.

    Returns (y, cols): y is (n, k, oh, ow); cols are the whole columns, or
    None when they were built one band of output rows of one image at a
    time, each band's product written straight into its rows of y."""
    n, c = xp.shape[:2]
    k, _, kh, kw = w.shape
    wm = w.reshape(k, -1)
    row = c * kh * kw * ow * xp.dtype.itemsize  # the columns of one output row
    if len(_spans((kh, kw), stride, n * oh, row, wm.nbytes)) == 1:
        cols = _columns(xp, (kh, kw), stride, dilation, oh, ow)
        y = (wm @ cols).reshape(k, n, oh, ow)
        return np.ascontiguousarray(y.transpose(1, 0, 2, 3)), cols
    y = np.empty((n, k, oh, ow), dtype=np.result_type(w, xp))
    flat = y.reshape(n, k, oh * ow)
    for b in range(n):
        for r0, r1 in _spans((kh, kw), stride, oh, row, wm.nbytes):
            band = xp[b : b + 1, :, stride * r0 : stride * (r1 - 1) + dilation * (kh - 1) + 1]
            np.matmul(wm, _columns(band, (kh, kw), stride, dilation, r1 - r0, ow),
                      out=flat[b, :, r0 * ow : r1 * ow])
    return y, None


def _weight_grad(g: np.ndarray, xp: np.ndarray, kernel, stride: int, dilation: int,
                 oh: int, ow: int, cols: np.ndarray | None = None) -> np.ndarray:
    """g (k, n·oh·ow) times the transposed columns of the padded (n, c) input
    xp: (k, c·kh·kw).  Unless cols gives the whole columns, they are built one
    chunk of input channels at a time, each product written into its columns
    of the result."""
    if cols is not None:
        return g @ cols.T
    c = xp.shape[1]
    kk = kernel[0] * kernel[1]
    gw = np.empty((g.shape[0], c * kk), dtype=np.result_type(g, xp))
    for c0, c1 in _spans(kernel, stride, c, kk * g.shape[1] * xp.dtype.itemsize, g.nbytes):
        np.matmul(g, _columns(xp[:, c0:c1], kernel, stride, dilation, oh, ow).T,
                  out=gw[:, c0 * kk : c1 * kk])
    return gw


def _scatter(g: np.ndarray, w: np.ndarray, stride: int, dilation: int, p: int,
             hw: tuple[int, int], dtype) -> np.ndarray:
    """Adjoint of _gather: w (k, c, kh, kw) transposed times g (n, k, gh, gw),
    added tap by tap onto a zero (n, c) grid of size hw padded by p, then
    cropped to hw.  The product is computed one chunk of the c channels at a
    time, and each chunk's taps are added into its channels of the grid.  A
    1×1 kernel at stride 1 has one tap, which covers the grid: its product
    plus 0.0, C-contiguous, is the result."""
    n, k, gh, gw = g.shape
    _, c, kh, kw = w.shape
    h, wd = hw
    kk = kh * kw
    wt = w.reshape(k, -1).T
    gcf = _channels_first(g)
    prod_type = np.result_type(w, g)
    if _pointwise((kh, kw), stride):
        prod = np.matmul(wt, gcf, out=_gemm_matrix(c, n * gh * gw, prod_type))
        grid = prod.reshape(c, n, gh, gw).transpose(1, 0, 2, 3)[:, :, p : p + h, p : p + wd]
        # + 0.0, as when added onto the zero grid, turns every -0.0 into +0.0
        if grid.flags.c_contiguous and grid.dtype == dtype:
            grid += 0.0
            return grid
        return np.add(grid, 0.0, out=np.empty((n, c, h, wd), dtype=dtype))
    full = np.zeros((n, c, h + 2 * p, wd + 2 * p), dtype=dtype)
    for c0, c1 in _spans((kh, kw), stride, c, kk * gcf.shape[1] * prod_type.itemsize,
                         gcf.nbytes):
        prod = np.matmul(wt[c0 * kk : c1 * kk], gcf,
                         out=_gemm_matrix((c1 - c0) * kk, n * gh * gw, prod_type))
        prod = prod.reshape((c1 - c0, kk, n, gh, gw))
        part = full[:, c0:c1]
        for i in range(kh):
            for j in range(kw):
                part[_tap(i * dilation, j * dilation, stride, gh, gw)] += (
                    prod[:, i * kw + j].transpose(1, 0, 2, 3))
    return full[:, :, p : p + h, p : p + wd] if p else full


def conv2d(x: np.ndarray, spec: ConvSpec, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross-correlation with dilation; weights (out_c, in_c, kh, kw)."""
    _check_4d(x, "conv2d input")
    if w.shape != spec.weight_shape():
        raise ShapeMismatch(f"conv2d weights {w.shape} != {spec.weight_shape()}")
    if x.shape[1] != spec.in_channels:
        raise ShapeMismatch(f"conv2d input has {x.shape[1]} channels, spec wants {spec.in_channels}")
    if b.shape != (spec.out_channels,):
        raise ShapeMismatch(f"conv2d bias {b.shape} != ({spec.out_channels},)")
    oh, ow = spec.out_hw(x.shape[2], x.shape[3])
    y, _ = _gather(_pad_hw(x, spec.padding), w, spec.stride, spec.dilation, oh, ow)
    y += b.reshape(1, -1, 1, 1)
    return y


def conv2d_vjp(x: np.ndarray, spec: ConvSpec, w: np.ndarray, gy: np.ndarray):
    """Gradients of conv2d w.r.t. (input, weights, bias) given upstream gy."""
    _check_4d(gy, "conv2d upstream gradient")
    oh, ow = spec.out_hw(x.shape[2], x.shape[3])
    if gy.shape != (x.shape[0], spec.out_channels, oh, ow):
        raise ShapeMismatch(f"conv2d gy {gy.shape} != {(x.shape[0], spec.out_channels, oh, ow)}")
    s, p, d = spec.stride, spec.padding, spec.dilation
    gw = _weight_grad(_channels_first(gy), _pad_hw(x, p), spec.kernel, s, d, oh, ow)
    gb = gy.sum(axis=(0, 2, 3))
    gx = _scatter(gy, w, s, d, p, x.shape[2:], x.dtype)
    return gx, gw.reshape(w.shape), gb


def transposed_conv2d(x: np.ndarray, spec: DeconvSpec, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Adjoint of conv2d; weights (in_c, out_c, kh, kw)."""
    _check_4d(x, "transposed_conv2d input")
    if w.shape != spec.weight_shape():
        raise ShapeMismatch(f"transposed_conv2d weights {w.shape} != {spec.weight_shape()}")
    if x.shape[1] != spec.in_channels:
        raise ShapeMismatch(
            f"transposed_conv2d input has {x.shape[1]} channels, spec wants {spec.in_channels}")
    if b.shape != (spec.out_channels,):
        raise ShapeMismatch(f"transposed_conv2d bias {b.shape} != ({spec.out_channels},)")
    oh, ow = spec.out_hw(x.shape[2], x.shape[3])
    y = _scatter(x, w, spec.stride, 1, spec.padding, (oh, ow), x.dtype)
    y += b.reshape(1, -1, 1, 1)
    return y


def transposed_conv2d_vjp(x: np.ndarray, spec: DeconvSpec, w: np.ndarray, gy: np.ndarray):
    """Gradients of transposed_conv2d w.r.t. (input, weights, bias)."""
    _check_4d(gy, "transposed_conv2d upstream gradient")
    n, _, ih, iw = x.shape
    oh, ow = spec.out_hw(ih, iw)
    if gy.shape != (n, spec.out_channels, oh, ow):
        raise ShapeMismatch(f"transposed_conv2d gy {gy.shape} != {(n, spec.out_channels, oh, ow)}")
    # the padded gy windows seen from each input position; gx reduces their
    # columns over channels and taps, gw over pixels, so chunked columns are
    # built once for each
    gyp = _pad_hw(gy, spec.padding)
    gx, cols = _gather(gyp, w, spec.stride, 1, ih, iw)
    gw = _weight_grad(_channels_first(x), gyp, spec.kernel, spec.stride, 1, ih, iw, cols)
    gb = gy.sum(axis=(0, 2, 3))
    return gx, gw.reshape(w.shape), gb


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0), into `out` when given (out=x overwrites x)."""
    return np.maximum(x, 0, out=out)


def relu_vjp(x: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """gy where x > 0, else 0 (the subgradient at exactly 0 is 0).

    x may be the ReLU's input or its output relu(x): relu(x) > 0 exactly
    where x > 0, NaN included, so both give the same bytes.

    Computed as gy * (x > 0), several times faster than np.where; adding
    0.0 turns the -0.0 of a negative gy times 0 into +0.0, so every zero of
    the result is +0.0.  A non-finite gy where x <= 0 gives NaN, not 0."""
    g = gy * (x > 0)
    g += 0.0
    return g


def _pool_geometry(h: int, w: int, window: int, stride: int, ceil_mode: bool):
    if window < 1 or stride < 1:
        raise ShapeMismatch(f"bad pool window={window} stride={stride}")
    if window > h or window > w:
        raise ShapeMismatch(f"pool window {window} exceeds spatial extent {h}x{w}")
    if not ceil_mode:
        return (h - window) // stride + 1, (w - window) // stride + 1

    def ceil_size(n: int) -> int:
        # a trailing window that would start at or past the edge is dropped
        o = math.ceil((n - window) / stride) + 1
        return o - 1 if (o - 1) * stride >= n else o

    return ceil_size(h), ceil_size(w)


def _pool_taps(x: np.ndarray, window: int, stride: int, ceil_mode: bool):
    """(output shape, the taps in row-major order).  Tap (i, j) is the pair
    (index into x, index into the output) of the windows whose tap (i, j)
    lies inside x: a window that overhangs the bottom or right edge skips
    the taps outside it, where a padded input would hold -inf."""
    _check_4d(x, "maxpool2d input")
    h, w = x.shape[2:]
    oh, ow = _pool_geometry(h, w, window, stride, ceil_mode)
    taps = []
    for i in range(window):
        rows = min(oh, -(-(h - i) // stride))  # windows whose row i is inside x
        for j in range(window):
            cols = min(ow, -(-(w - j) // stride))
            taps.append((_tap(i, j, stride, rows, cols),
                         (slice(None), slice(None), slice(rows), slice(cols))))
    return x.shape[:2] + (oh, ow), taps


def _pool_max(x: np.ndarray, out_shape, taps) -> np.ndarray:
    """The maximum of each window's taps inside x.  Every window has at
    least its first tap there: ceil mode drops a window that would start
    past the edge."""
    y = np.full(out_shape, -np.inf, dtype=x.dtype)
    for t, o in taps:
        np.maximum(y[o], x[t], out=y[o])
    return y


def maxpool2d(x: np.ndarray, window: int, stride: int, ceil_mode: bool = False) -> np.ndarray:
    """Per-window maxima.  ceil_mode lets a trailing partial window count."""
    return _pool_max(x, *_pool_taps(x, window, stride, ceil_mode))


def maxpool2d_vjp(x: np.ndarray, window: int, stride: int, gy: np.ndarray,
                  ceil_mode: bool = False, y: np.ndarray | None = None) -> np.ndarray:
    """Route gy to the argmax of each window (first in row-major order on ties).

    y is maxpool2d(x, ...) when the caller kept it; None recomputes it."""
    out_shape, taps = _pool_taps(x, window, stride, ceil_mode)
    if gy.shape != out_shape:
        raise ShapeMismatch(f"maxpool2d gy {gy.shape} != {out_shape}")
    if y is None:
        y = _pool_max(x, out_shape, taps)
    elif y.shape != out_shape:
        raise ShapeMismatch(f"maxpool2d y {y.shape} != {out_shape}")
    gx = np.zeros(x.shape, dtype=x.dtype)
    todo = np.ones(out_shape, dtype=bool)  # windows whose gy is not yet routed
    for t, o in taps:
        hit = x[t] == y[o]
        pending = todo[o]
        hit &= pending
        pending ^= hit
        gx[t] += gy[o] * hit
    return gx


def l2_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean over all elements of (pred - target)^2."""
    if pred.shape != target.shape:
        raise ShapeMismatch(f"l2_loss shapes differ: {pred.shape} vs {target.shape}")
    d = pred - target
    return float(np.mean(d * d))


def l2_loss_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    if pred.shape != target.shape:
        raise ShapeMismatch(f"l2_loss shapes differ: {pred.shape} vs {target.shape}")
    return 2.0 * (pred - target) / pred.size


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=1, keepdims=True)
    z = logits - m
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _check_labels(logits: np.ndarray, labels: np.ndarray) -> None:
    _check_4d(logits, "softmax logits")
    if labels.shape != (logits.shape[0],) + logits.shape[2:]:
        raise ShapeMismatch(
            f"labels {labels.shape} do not match logits {logits.shape} spatial dims")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise LabelOutOfRange(
            f"labels must lie in [0, {logits.shape[1]}), got range "
            f"[{labels.min()}, {labels.max()}]")


def softmax_ce_loss(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean per-pixel cross-entropy after a channel-wise softmax."""
    _check_labels(logits, labels)
    logp = _log_softmax(logits)
    picked = np.take_along_axis(logp, labels[:, None].astype(np.int64), axis=1)
    return float(-picked.mean())


def softmax_ce_grad(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """(softmax - one_hot) / pixel_count."""
    _check_labels(logits, labels)
    p = np.exp(_log_softmax(logits))
    lab = labels[:, None].astype(np.int64)
    onehot = np.zeros_like(p)
    np.put_along_axis(onehot, lab, 1.0, axis=1)
    count = labels.size
    return (p - onehot) / count
