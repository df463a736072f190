"""What the layers hold: each activation once, only until the backward
that needs it has run, and nothing after an inference forward; what the
conv and pool ops allocate while they run; what loading a model
allocates; and what thinning a contour band and rendering a phantom bean
allocate."""

import tracemalloc

import numpy as np
import pytest

from boundseg import phantom
from boundseg.contour import thin
from boundseg.errors import ShapeMismatch
from boundseg.models import (
    ClassifierSpec,
    EncoderSpec,
    HeadSpec,
    PipelineConfig,
    SegmentationModel,
    desk_config,
    load_model,
    predict_dmap,
    pseudo_color,
    save_model,
    segment_batch,
)
from boundseg.nn import (
    Conv2d,
    ConvSpec,
    DeconvSpec,
    MaxPool2d,
    Param,
    ReLU,
    Sequential,
    TransposedConv2d,
    conv2d_vjp,
    maxpool2d,
    maxpool2d_vjp,
    ops,
    relu,
    relu_vjp,
    sgd_step,
    transposed_conv2d_vjp,
)


def small_mirrored_config(size: int = 32) -> PipelineConfig:
    return PipelineConfig(
        input_size=(size, size),
        encoder=EncoderSpec(widths=(4, 4, 8, 8, 8)),
        head=HeadSpec(project=8, deconv_widths=(8, 4, 4)),
        classifier=ClassifierSpec(mirror=True))


CONFIGS = {"desk": desk_config, "mirrored": small_mirrored_config}


def leaf_layers(model: SegmentationModel):
    """Every layer in forward order."""
    return model.encoder.layers + model.head.layers + model.classifier.layers


def forward_input(model: SegmentationModel, seed: int = 0, n: int = 2):
    h, w = model.config.input_size
    return pseudo_color(np.random.default_rng(seed).random((n, h, w)), model.dtype)


def saved_input(layer):
    return layer._saved[0] if isinstance(layer, MaxPool2d) else layer._saved


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_relu_output_is_the_next_layers_input(name):
    model = SegmentationModel(CONFIGS[name](), seed=1)
    model.forward(forward_input(model))
    layers = leaf_layers(model)
    pairs = [(a, b) for a, b in zip(layers, layers[1:]) if isinstance(a, ReLU)]
    assert pairs
    for relu_layer, nxt in pairs:
        assert isinstance(relu_layer._saved, np.ndarray)
        assert saved_input(nxt) is relu_layer._saved, type(nxt).__name__


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("cotangents", ["both", "pred_only", "logits_only"])
def test_backward_leaves_no_layer_holding_anything(name, cotangents):
    # a map-only step runs `predict`, as training at lambda = 1 does
    model = SegmentationModel(CONFIGS[name](), seed=1)
    if cotangents == "pred_only":
        pred, logits = model.predict(forward_input(model)), None
        ran = model.encoder.layers + model.head.layers
    else:
        pred, logits = model.forward(forward_input(model))
        ran = leaf_layers(model)
    assert all(layer._saved is not None for layer in ran)
    g_pred = None if cotangents == "logits_only" else np.ones_like(pred)
    g_logits = None if cotangents == "pred_only" else np.ones_like(logits)
    model.backward(g_pred, g_logits)
    assert [layer for layer in leaf_layers(model) if layer._saved is not None] == []


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_inference_keeps_nothing(name):
    model = SegmentationModel(CONFIGS[name](), seed=1)
    h, w = model.config.input_size
    imgs = np.random.default_rng(2).random((2, h, w)).astype(np.float32)
    segment_batch(imgs, model)
    assert all(layer._saved is None for layer in leaf_layers(model))
    predict_dmap(imgs[0], model)
    assert all(layer._saved is None for layer in leaf_layers(model))


def test_inference_forward_peaks_below_half_of_training_forward():
    # the desk topology with the reference's mirrored classifier
    model = SegmentationModel(PipelineConfig(classifier=ClassifierSpec(mirror=True)), seed=0)
    x = forward_input(model, n=1)
    model.forward(x, keep=False)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        out = model.forward(x, keep=False)
        del out
        tracemalloc.reset_peak()
        model.forward(x, keep=False)
        inference = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        out = model.forward(x)
        training = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inference < training / 2, (inference, training)


def old_sgd(data, vel, grad, lr, momentum):
    vel = momentum * vel - lr * grad
    return data + vel, vel


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("momentum", [0.0, 0.9])
def test_sgd_step_in_place_matches_old_expressions(dtype, momentum):
    rng = np.random.default_rng(4)
    p = Param(rng.standard_normal((3, 5, 7)).astype(dtype))
    original = p.data
    data, vel = p.data.copy(), np.zeros_like(p.data)
    for step in range(3):
        grad = rng.standard_normal(p.shape).astype(dtype)
        p.grad = grad.copy()
        sgd_step([p], lr=0.037, momentum=momentum)
        data, vel = old_sgd(data, vel, grad, 0.037, momentum)
        assert p.data.tobytes() == data.tobytes(), step
        assert p.vel.tobytes() == vel.tobytes(), step
        assert p.data.dtype == dtype and p.grad is None
    assert p.data is original


def test_relu_vjp_of_output_equals_relu_vjp_of_input():
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.5, 1e-30, -1e-30]
    for dtype in (np.float32, np.float64):
        x = np.array(specials, dtype=dtype).reshape(1, 1, 3, 3)
        for gy_value in (1.0, -1.0, -0.0, 0.0, 2.5):
            gy = np.full_like(x, gy_value)
            assert relu_vjp(relu(x), gy).tobytes() == relu_vjp(x, gy).tobytes()
        gy = np.random.default_rng(0).standard_normal(x.shape).astype(dtype)
        assert relu_vjp(relu(x), gy).tobytes() == relu_vjp(x, gy).tobytes()


def make_layers():
    rng = np.random.default_rng(3)
    return {
        "Conv2d": Conv2d(ConvSpec(2, 2, (3, 3), padding=1), rng),
        "TransposedConv2d": TransposedConv2d(DeconvSpec(2, 2, (4, 4), stride=2, padding=1), rng),
        "ReLU": ReLU(),
        "MaxPool2d": MaxPool2d(2, 2, ceil_mode=True),
        "Sequential": Sequential([Conv2d(ConvSpec(2, 2, (3, 3), padding=1), rng), ReLU()]),
    }


@pytest.mark.parametrize("kind", sorted(make_layers()))
def test_layer_backward_without_a_saved_forward_is_shape_mismatch(kind):
    layer = make_layers()[kind]
    x = np.random.default_rng(5).standard_normal((1, 2, 6, 6)).astype(np.float32)
    gy = np.ones_like(layer.forward(x, keep=False))
    with pytest.raises(ShapeMismatch, match="nothing to consume"):
        layer.backward(gy)  # the forward kept nothing
    layer = make_layers()[kind]
    with pytest.raises(ShapeMismatch, match="nothing to consume"):
        layer.backward(gy)  # no forward at all
    layer.forward(x)
    layer.backward(gy)
    with pytest.raises(ShapeMismatch, match="nothing to consume") as err:
        layer.backward(gy)  # the first backward consumed the cache
    leaf = layer.layers[-1] if kind == "Sequential" else layer
    assert type(leaf).__name__ in str(err.value)


def test_model_backward_after_predict_has_no_classifier_to_consume():
    model = SegmentationModel(small_mirrored_config(), seed=0)
    x = forward_input(model, n=1)
    _, logits = model.forward(x, keep=False)
    model.predict(x)
    with pytest.raises(ShapeMismatch, match="nothing to consume"):
        model.backward(None, np.ones_like(logits))


def test_model_backward_without_a_saved_forward_is_shape_mismatch():
    model = SegmentationModel(small_mirrored_config(), seed=0)
    x = forward_input(model, n=1)
    pred, logits = model.forward(x, keep=False)
    g_pred, g_logits = np.ones_like(pred), np.ones_like(logits)
    for args in ((g_pred, g_logits), (g_pred, None), (None, g_logits)):
        with pytest.raises(ShapeMismatch, match="nothing to consume"):
            model.backward(*args)
    model.forward(x)
    model.backward(g_pred, g_logits)
    for args in ((g_pred, g_logits), (g_pred, None), (None, g_logits)):
        with pytest.raises(ShapeMismatch, match="nothing to consume"):
            model.backward(*args)


@pytest.mark.parametrize("vjp,spec,hw", [
    (conv2d_vjp, ConvSpec(64, 128, (3, 3), padding=1), 161),
    (transposed_conv2d_vjp, DeconvSpec(64, 32, (4, 4), stride=2, padding=1), 164),
])
def test_conv_vjp_peaks_within_inputs_outputs_and_two_chunks(vjp, spec, hw):
    """The k²-fold columns and scatter product are built in chunks: at the
    reference step's largest shapes, whole they were 57-60 MB each."""
    rng = np.random.default_rng(6)
    x = rng.standard_normal((1, spec.in_channels, hw, hw), dtype=np.float32)
    w = rng.standard_normal(spec.weight_shape(), dtype=np.float32)
    gy = rng.standard_normal((1, spec.out_channels) + spec.out_hw(hw, hw), dtype=np.float32)
    # a chunk holds no more than about one and a half times the larger of
    # the budget and the operand its GEMM reads again on every chunk
    chunk = max(ops._CHUNK_BYTES, x.nbytes, w.nbytes, gy.nbytes)
    tracemalloc.start()
    try:
        grads = vjp(x, spec, w, gy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = sum(a.nbytes for a in (x, w, gy, *grads)) + 2 * chunk
    assert peak <= bound, (peak / 1e6, bound / 1e6)


MIB = 1 << 20


def traced_peak(fn, *args, **kwargs):
    """(fn's result, the peak of what it allocated)."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pointwise_conv_vjp_allocates_only_its_outputs():
    """The head's 32 -> 1 1×1 conv at 328²: the input gradient is the
    scatter product itself, with no zero grid to add it onto."""
    rng = np.random.default_rng(7)
    spec = ConvSpec(32, 1, (1, 1))
    x = rng.standard_normal((1, 32, 328, 328), dtype=np.float32)
    w = rng.standard_normal(spec.weight_shape(), dtype=np.float32)
    gy = rng.standard_normal((1, 1, 328, 328), dtype=np.float32)
    grads, peak = traced_peak(conv2d_vjp, x, spec, w, gy)
    assert grads[0].flags.c_contiguous and grads[0].shape == x.shape
    bound = sum(g.nbytes for g in grads) + MIB
    assert peak <= bound, (peak / 1e6, bound / 1e6)


def odd_pool_input():
    """161 -> 81 in ceil mode: the last window row and column overhang the
    input, and are read through clipped taps."""
    return np.random.default_rng(8).standard_normal((1, 32, 161, 161), dtype=np.float32)


def test_pool_makes_no_padded_copy():
    y, peak = traced_peak(maxpool2d, odd_pool_input(), 2, 2, ceil_mode=True)
    assert y.shape == (1, 32, 81, 81)
    assert peak <= y.nbytes + MIB, (peak / 1e6, y.nbytes / 1e6)


def test_pool_vjp_makes_no_padded_copy():
    x = odd_pool_input()
    y = maxpool2d(x, 2, 2, ceil_mode=True)
    gy = np.random.default_rng(9).standard_normal(y.shape, dtype=np.float32)
    for kept in (y, None):
        gx, peak = traced_peak(maxpool2d_vjp, x, 2, 2, gy, True, y=kept)
        bound = gx.nbytes + (gy.nbytes if kept is not None else 2 * gy.nbytes) + MIB
        assert peak <= bound, (peak / 1e6, bound / 1e6)


def test_relu_overwrites_its_input_at_inference_only():
    x = np.random.default_rng(9).standard_normal((1, 2, 5, 5)).astype(np.float32)
    expected = relu(x)
    before = x.copy()
    y = ReLU().forward(x)
    assert not np.shares_memory(y, x) and x.tobytes() == before.tobytes()
    assert y.tobytes() == expected.tobytes()
    y = ReLU().forward(x, keep=False)
    assert np.shares_memory(y, x) and y.tobytes() == expected.tobytes()


def wide_config() -> PipelineConfig:
    return PipelineConfig(
        input_size=(32, 32),
        encoder=EncoderSpec(widths=(32, 64, 128, 256, 256)),
        head=HeadSpec(project=64, deconv_widths=(32, 16, 16)),
        classifier=ClassifierSpec(mirror=True))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_load_model_holds_the_parameters_once(tmp_path, dtype):
    """Each record is read into its parameter's own buffer: no He-init to
    overwrite, no whole-file blob, no per-record copies."""
    ck = tmp_path / "wide.bseg"
    saved = SegmentationModel(wide_config(), seed=4)
    save_model(ck, saved)
    model, peak = traced_peak(load_model, ck, dtype=dtype)
    sizes = [p.data.nbytes for _, p in model.named_params()]
    assert sum(sizes) >= 5e6 * np.dtype(dtype).itemsize / 4
    bound = sum(sizes) + max(sizes) + MIB
    assert peak <= bound, (peak / 1e6, bound / 1e6)
    for (_, a), (_, b) in zip(saved.named_params(), model.named_params()):
        assert a.data.astype(dtype).tobytes() == b.data.tobytes()


def test_thin_allocates_in_proportion_to_the_band():
    """A 5 px ring in a 2048² frame: thinning holds the frame only as
    one-byte grids and works on the band's border pixels, so it stays
    under 8 bytes per frame pixel.  Whole-frame int32 neighbour sums
    peaked at about 25."""
    n = 2048
    ii, jj = np.ogrid[:n, :n]
    r = np.hypot(ii - n / 2, jj - n / 2)
    ring = (r >= 900) & (r < 905)
    skeleton, peak = traced_peak(thin, ring)
    assert skeleton.any() and not (skeleton & ~ring).any()
    assert peak < 8 * ring.size, peak / ring.size


def test_render_bean_allocates_in_proportion_to_the_bean():
    """Half-axes of about 8 px in a 2000² frame: the one-byte output is the
    only frame-sized allocation, so the peak stays under 2 bytes per frame
    pixel.  Whole-frame float64 coordinates peaked at 80."""
    n = 2000
    mask, peak = traced_peak(phantom._render_bean, (n, n), (1000.3, 999.6),
                             (8.0, 6.5), 0.7, 0.3)
    assert mask.dtype == np.uint8 and 100 < int(mask.sum()) < 170
    assert peak < 2 * mask.size, peak / mask.size
