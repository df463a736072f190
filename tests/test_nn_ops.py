"""Forward ops against naive loop oracles; backward passes against the
finite-difference checker (float64 throughout)."""

import math

import numpy as np
import pytest

from boundseg.errors import LabelOutOfRange, ShapeMismatch
from boundseg.nn import (
    ConvSpec,
    DeconvSpec,
    conv2d,
    conv2d_vjp,
    grad_check,
    l2_loss,
    l2_loss_grad,
    maxpool2d,
    maxpool2d_vjp,
    ops,
    relu,
    relu_vjp,
    softmax_ce_grad,
    softmax_ce_loss,
    transposed_conv2d,
    transposed_conv2d_vjp,
)

rng = np.random.default_rng(2024)


def naive_conv2d(x, spec, w, b):
    """Direct-sum cross-correlation. Slow, obviously correct."""
    n, _, h, wd = x.shape
    kh, kw = spec.kernel
    s, p, d = spec.stride, spec.padding, spec.dilation
    oh, ow = spec.out_hw(h, wd)
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    y = np.zeros((n, spec.out_channels, oh, ow), dtype=x.dtype)
    for bi in range(n):
        for oc in range(spec.out_channels):
            for i in range(oh):
                for j in range(ow):
                    acc = b[oc]
                    for ic in range(spec.in_channels):
                        for u in range(kh):
                            for v in range(kw):
                                acc += (xp[bi, ic, i * s + u * d, j * s + v * d]
                                        * w[oc, ic, u, v])
                    y[bi, oc, i, j] = acc
    return y


def naive_transposed_conv2d(x, spec, w, b):
    """Scatter-add each input tap into the output."""
    n, _, ih, iw = x.shape
    kh, kw = spec.kernel
    s, p = spec.stride, spec.padding
    oh, ow = spec.out_hw(ih, iw)
    full = np.zeros((n, spec.out_channels, oh + 2 * p, ow + 2 * p), dtype=x.dtype)
    for bi in range(n):
        for ic in range(spec.in_channels):
            for i in range(ih):
                for j in range(iw):
                    for oc in range(spec.out_channels):
                        for u in range(kh):
                            for v in range(kw):
                                full[bi, oc, i * s + u, j * s + v] += (
                                    x[bi, ic, i, j] * w[ic, oc, u, v])
    y = full[:, :, p : p + oh, p : p + ow]
    return y + b.reshape(1, -1, 1, 1)


def naive_maxpool2d(x, window, stride, ceil_mode=False):
    n, c, h, w = x.shape
    if ceil_mode:
        # PyTorch's rule: a last window starting at or past the edge is dropped
        oh = math.ceil((h - window) / stride) + 1
        ow = math.ceil((w - window) / stride) + 1
        oh -= (oh - 1) * stride >= h
        ow -= (ow - 1) * stride >= w
    else:
        oh = (h - window) // stride + 1
        ow = (w - window) // stride + 1
    y = np.full((n, c, oh, ow), -np.inf, dtype=x.dtype)
    for i in range(oh):
        for j in range(ow):
            part = x[:, :, i * stride : i * stride + window, j * stride : j * stride + window]
            y[:, :, i, j] = part.max(axis=(2, 3)) if part.size else -np.inf
    return y


def naive_maxpool2d_vjp(x, window, stride, gy):
    """Add each gy to the first row-major argmax of its window."""
    n, c, h, w = x.shape
    gx = np.zeros_like(x)
    for b in range(n):
        for ch in range(c):
            for i in range(gy.shape[2]):
                for j in range(gy.shape[3]):
                    part = x[b, ch, i * stride : i * stride + window, j * stride : j * stride + window]
                    u, v = np.unravel_index(np.argmax(part), part.shape)
                    gx[b, ch, i * stride + u, j * stride + v] += gy[b, ch, i, j]
    return gx


CONV_CASES = [
    ConvSpec(2, 3, (3, 3)),
    ConvSpec(3, 2, (3, 3), stride=2, padding=1),
    ConvSpec(2, 2, (3, 3), padding=2, dilation=2),
    ConvSpec(1, 4, (3, 3), padding=4, dilation=4),
    ConvSpec(3, 1, (1, 1)),
    ConvSpec(2, 2, (2, 3), stride=2, padding=1),
]


@pytest.mark.parametrize("spec", CONV_CASES)
def test_conv2d_matches_naive(spec):
    h, w = 9, 11
    x = rng.standard_normal((2, spec.in_channels, h, w))
    wt = rng.standard_normal(spec.weight_shape())
    b = rng.standard_normal(spec.out_channels)
    got = conv2d(x, spec, wt, b)
    want = naive_conv2d(x, spec, wt, b)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("spec", CONV_CASES)
def test_conv2d_gradients(spec):
    x = rng.standard_normal((2, spec.in_channels, 8, 9))
    wt = rng.standard_normal(spec.weight_shape())
    b = rng.standard_normal(spec.out_channels)

    def fwd(x, w, b):
        return conv2d(x, spec, w, b)

    def vjp(gy, x, w, b):
        gx, gw, gb = conv2d_vjp(x, spec, w, gy)
        return {"x": gx, "w": gw, "b": gb}

    rep = grad_check(fwd, vjp, {"x": x, "w": wt, "b": b}, tolerance=1e-6)
    assert rep.ok, rep.per_input


DECONV_CASES = [
    DeconvSpec(2, 3, (3, 3)),
    DeconvSpec(3, 2, (4, 4), stride=2, padding=1),
    DeconvSpec(2, 1, (2, 2), stride=2),
    DeconvSpec(1, 2, (3, 3), stride=2, padding=1),
]


@pytest.mark.parametrize("spec", DECONV_CASES)
def test_transposed_conv2d_matches_naive(spec):
    x = rng.standard_normal((2, spec.in_channels, 5, 6))
    wt = rng.standard_normal(spec.weight_shape())
    b = rng.standard_normal(spec.out_channels)
    got = transposed_conv2d(x, spec, wt, b)
    want = naive_transposed_conv2d(x, spec, wt, b)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("spec", DECONV_CASES)
def test_transposed_conv2d_gradients(spec):
    x = rng.standard_normal((2, spec.in_channels, 4, 5))
    wt = rng.standard_normal(spec.weight_shape())
    b = rng.standard_normal(spec.out_channels)

    def fwd(x, w, b):
        return transposed_conv2d(x, spec, w, b)

    def vjp(gy, x, w, b):
        gx, gw, gb = transposed_conv2d_vjp(x, spec, w, gy)
        return {"x": gx, "w": gw, "b": gb}

    rep = grad_check(fwd, vjp, {"x": x, "w": wt, "b": b}, tolerance=1e-6)
    assert rep.ok, rep.per_input


def naive_conv2d_vjp(x, spec, w, gy):
    """Direct sums: each gy[b, o, y, x] times the inputs and weights it saw."""
    n, c, h, wd = x.shape
    kh, kw = spec.kernel
    s, p, d = spec.stride, spec.padding, spec.dilation
    gxp = np.zeros((n, c, h + 2 * p, wd + 2 * p))
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    gw = np.zeros_like(w)
    for b, o, i, j in np.ndindex(*gy.shape):
        for ic, u, v in np.ndindex(c, kh, kw):
            gxp[b, ic, i * s + u * d, j * s + v * d] += gy[b, o, i, j] * w[o, ic, u, v]
            gw[o, ic, u, v] += gy[b, o, i, j] * xp[b, ic, i * s + u * d, j * s + v * d]
    return gxp[:, :, p : p + h, p : p + wd], gw, gy.sum(axis=(0, 2, 3))


def naive_transposed_conv2d_vjp(x, spec, w, gy):
    """Direct sums over the padded output grid each input pixel wrote to."""
    n, c, ih, iw = x.shape
    kh, kw = spec.kernel
    s, p = spec.stride, spec.padding
    gyp = np.pad(gy, ((0, 0), (0, 0), (p, p), (p, p)))  # cropped rows get no gradient
    gx = np.zeros_like(x)
    gw = np.zeros_like(w)
    for b, ic, i, j in np.ndindex(*x.shape):
        for o, u, v in np.ndindex(spec.out_channels, kh, kw):
            gx[b, ic, i, j] += gyp[b, o, i * s + u, j * s + v] * w[ic, o, u, v]
            gw[ic, o, u, v] += x[b, ic, i, j] * gyp[b, o, i * s + u, j * s + v]
    return gx, gw, gy.sum(axis=(0, 2, 3))


def _random_geometries(count, seed):
    """(n, spec, h, w) draws: kernel 1-4 (often non-square), stride 1-2,
    padding 0-2, dilation 1-3, batch 1-3; every third input is the
    smallest the geometry allows, the rest add 0-5 rows and columns."""
    g = np.random.default_rng(seed)
    out = []
    for t in range(count):
        kh, kw, n, c, k = (int(v) for v in g.integers(1, [5, 5, 4, 4, 4]))
        s, p, d = (int(v) for v in g.integers([1, 0, 1], [3, 3, 4]))
        if t % 2:
            spec = ConvSpec(c, k, (kh, kw), stride=s, padding=p, dilation=d)
            small = [max(1, d * (kk - 1) + 1 - 2 * p) for kk in (kh, kw)]
        else:
            spec = DeconvSpec(c, k, (kh, kw), stride=s, padding=p)
            small = [1 + max(0, -(-(2 * p + 1 - kk) // s)) for kk in (kh, kw)]
        h, w = small if t % 3 == 0 else (v + int(g.integers(0, 6)) for v in small)
        out.append((n, spec, h, w))
    return out


def _gemm_width(n, spec, h, w):
    """Columns of the conv functions' GEMM matrices: n·oh·ow for a conv,
    n·h·w (the input's pixels) for a deconv."""
    return n * math.prod(spec.out_hw(h, w)) if isinstance(spec, ConvSpec) else n * h * w


# the last two have 2·16² float64 columns, a 4 KiB row, so their GEMM
# operands are padded views that _columns and _scatter write through
GEOMETRIES = _random_geometries(60, 7) + [
    (2, ConvSpec(2, 3, (3, 2), stride=2, padding=1, dilation=2), 9, 8),
    (2, ConvSpec(2, 2, (3, 3), padding=1), 16, 16),
    (2, DeconvSpec(2, 2, (4, 4), stride=2, padding=1), 16, 16),
]


def test_random_geometries_cover_the_corners():
    convs = [(n, s, h, w) for n, s, h, w in GEOMETRIES if isinstance(s, ConvSpec)]
    assert any(s.stride == 2 and s.dilation == 2 for _, s, _, _ in convs)
    assert any(s.out_hw(h, w)[0] == 1 for _, s, h, w in convs)
    assert {s.dilation for _, s, _, _ in convs} == {1, 2, 3}
    assert {s.padding for _, s, _, _ in GEOMETRIES} == {0, 1, 2}
    assert {n for n, _, _, _ in GEOMETRIES} == {1, 2, 3}
    assert any(s.kernel[0] != s.kernel[1] for _, s, _, _ in GEOMETRIES)
    assert any(h % 2 and w % 2 for _, _, h, w in GEOMETRIES)
    padded = [s for n, s, h, w in GEOMETRIES if _gemm_width(n, s, h, w) * 8 % 4096 == 0]
    assert {type(s) for s in padded} == {ConvSpec, DeconvSpec}


def _draw(n, spec, h, w, dtype=np.float64):
    """Input, weights, bias and upstream gradient for one geometry."""
    g = np.random.default_rng([n, h, w, *spec.kernel, spec.stride, spec.padding])
    x = g.standard_normal((n, spec.in_channels, h, w))
    wt = g.standard_normal(spec.weight_shape())
    b = g.standard_normal(spec.out_channels)
    gy = g.standard_normal((n, spec.out_channels) + spec.out_hw(h, w))
    return [a.astype(dtype) for a in (x, wt, b, gy)]


def _program(spec, x, wt, b, gy):
    """The forward and the three gradients."""
    if isinstance(spec, ConvSpec):
        return [conv2d(x, spec, wt, b), *conv2d_vjp(x, spec, wt, gy)]
    return [transposed_conv2d(x, spec, wt, b), *transposed_conv2d_vjp(x, spec, wt, gy)]


def _loops(spec, x, wt, b, gy):
    if isinstance(spec, ConvSpec):
        return [naive_conv2d(x, spec, wt, b), *naive_conv2d_vjp(x, spec, wt, gy)]
    return [naive_transposed_conv2d(x, spec, wt, b),
            *naive_transposed_conv2d_vjp(x, spec, wt, gy)]


def _assert_match_loops(n, spec, h, w):
    args = _draw(n, spec, h, w)
    for got, want in zip(_program(spec, *args), _loops(spec, *args), strict=True):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n,spec,h,w", GEOMETRIES)
def test_conv_functions_match_loops_on_random_geometries(n, spec, h, w):
    _assert_match_loops(n, spec, h, w)


# Under a 1-byte budget a chunk is as large as the operand its GEMM reads
# again (the weights for row bands, g for channel chunks).  Each of the
# first three then splits every path it takes into chunks of unequal size.
CHUNKED = [
    (2, ConvSpec(5, 12, (3, 3), padding=2, dilation=2), 7, 5),
    (1, DeconvSpec(17, 5, (4, 4), stride=2, padding=1), 13, 3),
    (1, ConvSpec(15, 7, (1, 1), stride=2), 9, 9),
    (2, ConvSpec(3, 1, (1, 1)), 6, 7),  # never chunked
]


@pytest.fixture
def spans_taken(monkeypatch):
    """Every split the conv functions make."""
    taken = []
    spans = ops._spans

    def spy(*args):
        taken.append(spans(*args))
        return taken[-1]

    monkeypatch.setattr(ops, "_spans", spy)
    return taken


@pytest.mark.parametrize("n,spec,h,w", CHUNKED)
def test_chunked_conv_functions_match_loops(monkeypatch, spans_taken, n, spec, h, w):
    monkeypatch.setattr(ops, "_CHUNK_BYTES", 1)
    _assert_match_loops(n, spec, h, w)
    if spec.kernel == (1, 1) and spec.stride == 1:
        assert spans_taken and all(len(spans) == 1 for spans in spans_taken)
        x = _draw(1, spec, h, w)[0]
        assert np.shares_memory(ops._columns(x, spec.kernel, 1, 1, h, w), x)
        return
    assert spans_taken
    for spans in spans_taken:
        widths = {stop - start for start, stop in spans}
        assert len(spans) >= 2 and len(widths) == 2, spans


def test_chunked_conv_functions_match_loops_on_random_geometries(monkeypatch, spans_taken):
    monkeypatch.setattr(ops, "_CHUNK_BYTES", 1)
    split = 0
    for n, spec, h, w in GEOMETRIES:
        spans_taken.clear()
        _assert_match_loops(n, spec, h, w)
        split += any(len(spans) >= 2 for spans in spans_taken)
    assert split >= len(GEOMETRIES) * 3 // 4, split


# the reference layers whose columns or scatter products are chunked at
# the default budget (batch 1, float32, as the reference step runs them)
REFERENCE_CHUNKED = [
    (1, ConvSpec(64, 128, (3, 3), padding=1), 161, 161),
    (1, ConvSpec(128, 256, (3, 3), padding=1), 81, 81),
    (1, ConvSpec(512, 1024, (3, 3), padding=4, dilation=4), 41, 41),
    (1, DeconvSpec(128, 64, (4, 4), stride=2, padding=1), 82, 82),
    (1, DeconvSpec(64, 32, (4, 4), stride=2, padding=1), 164, 164),
]


@pytest.mark.parametrize("n,spec,h,w", REFERENCE_CHUNKED)
def test_chunks_keep_float32_bytes_at_reference_shapes(monkeypatch, spans_taken,
                                                      n, spec, h, w):
    """Every chunk's GEMM reduces over the same full axis as the whole one.
    With OpenBLAS at these sizes that gives the same bytes; at small sizes,
    or in float64, a narrower GEMM may take a kernel that rounds
    differently."""
    args = _draw(n, spec, h, w, np.float32)
    chunked = _program(spec, *args)
    assert max(len(spans) for spans in spans_taken) >= 2
    monkeypatch.setattr(ops, "_CHUNK_BYTES", 1 << 62)
    for got, whole in zip(chunked, _program(spec, *args), strict=True):
        assert got.dtype == np.float32
        assert got.tobytes() == whole.tobytes()


def test_conv_operands_avoid_4k_row_strides():
    """At a row stride that is a multiple of 4 KiB every row of a packed
    GEMM panel maps onto the same cache sets; the desk shapes have one."""
    x = np.zeros((4, 16, 64, 64), dtype=np.float32)
    cols = ops._columns(ops._pad_hw(x, 1), (3, 3), 1, 1, 64, 64)
    assert cols.shape == (144, 4 * 64 * 64)
    assert cols.strides[0] % 4096 != 0
    cf = ops._channels_first(x)
    assert cf.shape == (16, 4 * 64 * 64)
    assert cf.strides[0] % 4096 != 0
    # a reference-size image needs no padding and keeps the free reshape
    x = np.zeros((1, 4, 321, 321), dtype=np.float32)
    assert np.shares_memory(ops._channels_first(x), x)


def test_conv_deconv_adjoint_identity():
    """<conv(x), y> == <x, deconv(y)> for shared weights, zero bias."""
    cspec = ConvSpec(3, 4, (3, 3), stride=2, padding=1)
    x = rng.standard_normal((2, 3, 9, 9))
    w = rng.standard_normal(cspec.weight_shape())
    y_shape = (2, 4) + cspec.out_hw(9, 9)
    y = rng.standard_normal(y_shape)

    fx = conv2d(x, cspec, w, np.zeros(4))
    # conv weights (out=4, in=3, kh, kw) serve the adjoint deconv unchanged:
    # its dim 0 is the deconv's input side (4 channels)
    dspec = DeconvSpec(4, 3, (3, 3), stride=2, padding=1)
    bty = transposed_conv2d(y, dspec, w, np.zeros(3))
    lhs = float(np.sum(fx * y))
    rhs = float(np.sum(x * bty))
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_deconv_doubles_resolution():
    spec = DeconvSpec(1, 1, (4, 4), stride=2, padding=1)
    assert spec.out_hw(41, 41) == (82, 82)
    assert spec.out_hw(82, 82) == (164, 164)
    assert spec.out_hw(164, 164) == (328, 328)


POOL_CASES = [
    (2, 2, False, (8, 8)),
    (3, 2, False, (9, 9)),
    (3, 2, True, (9, 9)),
    (3, 2, True, (321, 5)),
    (2, 2, True, (7, 7)),
    (1, 3, True, (5, 5)),  # stride > window: no window may start past the edge
]


@pytest.mark.parametrize("window,stride,ceil_mode,hw", POOL_CASES)
def test_maxpool2d_matches_naive(window, stride, ceil_mode, hw):
    x = rng.standard_normal((2, 3) + hw)
    got = maxpool2d(x, window, stride, ceil_mode)
    want = naive_maxpool2d(x, window, stride, ceil_mode)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def test_maxpool_ceil_chain_321():
    """Three ceil-mode window-2 pools take 321 to 41 (the ceil(h/8) contract)."""
    x = rng.standard_normal((1, 1, 321, 321))
    for want in (161, 81, 41):
        x = maxpool2d(x, 2, 2, ceil_mode=True)
        assert x.shape[2:] == (want, want)


def test_maxpool_ceil_drops_windows_past_the_edge():
    """Windows start at 0 and 3 of 5; a third would start at 6, past the
    edge, and read nothing."""
    x = np.ones((1, 1, 5, 5))
    y = maxpool2d(x, 1, 3, ceil_mode=True)
    assert y.shape == (1, 1, 2, 2)
    assert np.isfinite(y).all()
    gy = np.arange(1.0, 5.0).reshape(1, 1, 2, 2)
    gx = maxpool2d_vjp(x, 1, 3, gy, ceil_mode=True)
    assert gx.sum() == gy.sum()  # every gy is routed
    np.testing.assert_array_equal(gx[0, 0, ::3, ::3], gy[0, 0])
    # the models' window-2 stride-2 pools keep their sizes
    for s in (321, 161, 81, 64, 32, 16):
        assert maxpool2d(np.zeros((1, 1, s, s)), 2, 2, True).shape[2:] == ((s + 1) // 2,) * 2


@pytest.mark.parametrize("window,stride,ceil_mode,hw", POOL_CASES)
def test_maxpool2d_gradients(window, stride, ceil_mode, hw):
    h, w = hw
    h, w = min(h, 11), min(w, 11)
    # distinct values spaced 1/size apart: FD steps cannot flip an argmax,
    # and keeping |x| <= 1 keeps FD rounding noise well under tolerance
    size = 2 * 2 * h * w
    x = rng.permutation(np.arange(size, dtype=np.float64)).reshape(2, 2, h, w) / size

    def fwd(x):
        return maxpool2d(x, window, stride, ceil_mode)

    def vjp(gy, x):
        return {"x": maxpool2d_vjp(x, window, stride, gy, ceil_mode)}

    rep = grad_check(fwd, vjp, {"x": x}, tolerance=1e-6)
    assert rep.ok, rep.per_input


@pytest.mark.parametrize("window,stride,ceil_mode,hw", POOL_CASES)
def test_maxpool2d_vjp_matches_naive_on_ties(window, stride, ceil_mode, hw):
    # rounded, then a ReLU: 69% of the inputs are 0 and 24% are 1, so
    # most windows hold their maximum more than once
    x = np.maximum(np.round(rng.standard_normal((2, 3) + hw)), 0)
    gy = rng.standard_normal((2, 3) + naive_maxpool2d(x, window, stride, ceil_mode).shape[2:])
    got = maxpool2d_vjp(x, window, stride, gy, ceil_mode)
    want = naive_maxpool2d_vjp(x, window, stride, gy)
    # the forward's maxima, when the caller kept them, route the same bytes
    kept = maxpool2d_vjp(x, window, stride, gy, ceil_mode, y=maxpool2d(x, window, stride, ceil_mode))
    assert kept.tobytes() == got.tobytes()
    with pytest.raises(ShapeMismatch):
        maxpool2d_vjp(x, window, stride, gy, ceil_mode, y=gy[:, :, :-1])
    if window == stride:
        np.testing.assert_array_equal(got, want)
    else:
        # overlapping windows: a pixel sums at most m gy values, and only
        # the order of that sum may differ from the oracle's
        m = math.ceil(window / stride) ** 2
        tol = m * m * np.finfo(np.float64).eps * np.abs(gy).max()
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)


def test_maxpool_tie_routes_to_first():
    x = np.zeros((1, 1, 2, 2))
    gy = np.ones((1, 1, 1, 1))
    gx = maxpool2d_vjp(x, 2, 2, gy)
    want = np.zeros((1, 1, 2, 2))
    want[0, 0, 0, 0] = 1.0  # row-major first occurrence
    np.testing.assert_array_equal(gx, want)


def test_maxpool_overlapping_windows_accumulate():
    # stride 1, window 2: the global max feeds several windows
    x = np.array([[[[0.0, 1.0, 0.0],
                    [0.0, 2.0, 0.0],
                    [0.0, 0.0, 0.0]]]])
    gy = np.ones((1, 1, 2, 2))
    gx = maxpool2d_vjp(x, 2, 1, gy)
    assert gx[0, 0, 1, 1] == 4.0  # max of all four windows
    assert gx.sum() == 4.0


def test_relu_and_gradient():
    for dtype in (np.float32, np.float64):
        x = rng.standard_normal((2, 3, 4, 5)).astype(dtype)
        x[:, :, 0] = 0.0  # exact zeros: the subgradient there is 0
        assert (relu(x) == np.maximum(x, 0)).all()
        gy = rng.standard_normal(x.shape).astype(dtype)
        assert (gy < 0).any()
        gx = relu_vjp(x, gy)
        # same bytes, so a negative gy times 0 must not leave a -0.0
        assert gx.dtype == dtype
        assert gx.tobytes() == np.where(x > 0, gy, 0).tobytes()
    # subgradient at exactly zero is zero
    assert relu_vjp(np.zeros((1, 1, 1, 1)), np.ones((1, 1, 1, 1)))[0, 0, 0, 0] == 0.0


def test_l2_loss_examples():
    a = np.zeros((1, 1, 2, 2))
    b = np.ones((1, 1, 2, 2))
    assert l2_loss(a, a) == 0.0
    assert l2_loss(a, b) == 1.0
    with pytest.raises(ShapeMismatch):
        l2_loss(a, np.ones((1, 1, 2, 3)))


def test_l2_loss_gradient():
    pred = rng.standard_normal((2, 1, 5, 5))
    target = rng.standard_normal((2, 1, 5, 5))

    def fwd(pred):
        return np.array([[[[l2_loss(pred, target)]]]])

    def vjp(gy, pred):
        return {"pred": l2_loss_grad(pred, target) * gy[0, 0, 0, 0]}

    rep = grad_check(fwd, vjp, {"pred": pred}, tolerance=1e-6)
    assert rep.ok, rep.per_input


def test_softmax_ce_uniform_logits_is_ln2():
    logits = np.zeros((1, 2, 3, 3))
    labels = np.zeros((1, 3, 3), dtype=np.int64)
    assert abs(softmax_ce_loss(logits, labels) - np.log(2.0)) < 1e-12


def test_softmax_ce_correct_confident_prediction_near_zero():
    logits = np.zeros((1, 2, 2, 2))
    logits[0, 1] = 50.0
    labels = np.ones((1, 2, 2), dtype=np.int64)
    assert softmax_ce_loss(logits, labels) < 1e-12


def test_softmax_ce_rejects_bad_labels():
    logits = np.zeros((1, 2, 2, 2))
    labels = np.full((1, 2, 2), 2, dtype=np.int64)
    with pytest.raises(LabelOutOfRange):
        softmax_ce_loss(logits, labels)


def test_softmax_ce_gradient():
    logits = rng.standard_normal((2, 2, 4, 4))
    labels = rng.integers(0, 2, size=(2, 4, 4))

    def fwd(logits):
        return np.array([[[[softmax_ce_loss(logits, labels)]]]])

    def vjp(gy, logits):
        return {"logits": softmax_ce_grad(logits, labels) * gy[0, 0, 0, 0]}

    rep = grad_check(fwd, vjp, {"logits": logits}, tolerance=1e-6)
    assert rep.ok, rep.per_input


def test_softmax_ce_grad_sums_to_zero_over_channels():
    logits = rng.standard_normal((1, 2, 3, 3))
    labels = rng.integers(0, 2, size=(1, 3, 3))
    g = softmax_ce_grad(logits, labels)
    np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-15)


def test_conv_rejects_mismatched_shapes():
    spec = ConvSpec(2, 3, (3, 3))
    x = rng.standard_normal((1, 2, 8, 8))
    w = rng.standard_normal(spec.weight_shape())
    b = np.zeros(3)
    with pytest.raises(ShapeMismatch):
        conv2d(x[:, :1], spec, w, b)
    with pytest.raises(ShapeMismatch):
        conv2d(x, spec, w[:, :, :2], b)
    with pytest.raises(ShapeMismatch):
        conv2d(x, spec, w, np.zeros(4))
    with pytest.raises(ShapeMismatch):
        ConvSpec(1, 1, (3, 3)).out_hw(2, 2)


def test_float32_inputs_stay_float32():
    spec = ConvSpec(1, 2, (3, 3), padding=1)
    x = rng.standard_normal((1, 1, 8, 8)).astype(np.float32)
    w = rng.standard_normal(spec.weight_shape()).astype(np.float32)
    b = np.zeros(2, dtype=np.float32)
    assert conv2d(x, spec, w, b).dtype == np.float32
    dspec = DeconvSpec(1, 1, (4, 4), stride=2, padding=1)
    wd = rng.standard_normal(dspec.weight_shape()).astype(np.float32)
    assert transposed_conv2d(x, dspec, wd, np.zeros(1, np.float32)).dtype == np.float32
