import numpy as np

from boundseg.nn import (
    Conv2d,
    ConvSpec,
    DeconvSpec,
    MaxPool2d,
    Param,
    ReLU,
    Sequential,
    TransposedConv2d,
    he_uniform,
    sgd_step,
)


def test_he_uniform_bounds_and_determinism():
    limit = np.sqrt(6.0 / 100)
    a = he_uniform((100, 50), 100, np.random.default_rng(7))
    b = he_uniform((100, 50), 100, np.random.default_rng(7))
    assert a.dtype == np.float32
    assert np.abs(a).max() <= limit
    assert np.array_equal(a, b)
    # different seed, different draw
    c = he_uniform((100, 50), 100, np.random.default_rng(8))
    assert not np.array_equal(a, c)


def test_sgd_step_momentum_recurrence():
    p = Param(np.array([1.0]))
    p.grad = np.array([1.0])
    sgd_step([p], lr=0.1, momentum=0.9)
    assert np.allclose(p.vel, [-0.1])
    assert np.allclose(p.data, [0.9])
    assert p.grad is None
    p.grad = np.array([1.0])
    sgd_step([p], lr=0.1, momentum=0.9)
    # v = 0.9*(-0.1) - 0.1*1 = -0.19
    assert np.allclose(p.vel, [-0.19])
    assert np.allclose(p.data, [0.71])


def test_sgd_step_skips_parameters_without_gradients():
    stepped = Param(np.ones(2))
    stepped.grad = np.array([1.0, -2.0])
    skipped = Param(np.array([3.0, -4.0]))
    skipped.vel = np.array([0.5, 0.25])
    sgd_step([stepped, skipped], lr=0.1, momentum=0.9)
    assert np.allclose(stepped.vel, [-0.1, 0.2])
    assert np.allclose(stepped.data, [0.9, 1.2])
    assert skipped.data.tolist() == [3.0, -4.0]
    assert skipped.vel.tolist() == [0.5, 0.25]
    assert stepped.grad is None and skipped.grad is None


def test_param_accumulate_adds():
    p = Param(np.zeros(3, dtype=np.float32))
    p.accumulate(np.ones(3))
    p.accumulate(np.ones(3))
    assert (p.grad == 2).all()
    assert p.grad.dtype == np.float32


def test_param_accumulate_takes_over_the_first_gradient():
    p = Param(np.zeros(3, dtype=np.float32))
    g = np.ones(3, dtype=np.float32)
    p.accumulate(g)
    assert p.grad is g
    p.accumulate(np.ones(3, dtype=np.float32))
    assert p.grad is g and (g == 2).all()


def test_conv_layer_backward_accumulates_params():
    rng = np.random.default_rng(0)
    layer = Conv2d(ConvSpec(1, 2, (3, 3), padding=1), rng, dtype=np.float64)
    x = rng.standard_normal((1, 1, 6, 6))
    y = layer.forward(x)
    gx = layer.backward(np.ones_like(y))
    assert gx.shape == x.shape
    assert layer.w.grad is not None and layer.b.grad is not None
    # bias gradient for all-ones upstream = number of output pixels
    assert np.allclose(layer.b.grad, y[0, 0].size)


def test_sequential_param_names_and_roundtrip():
    rng = np.random.default_rng(1)
    net = Sequential([
        Conv2d(ConvSpec(1, 2, (3, 3), padding=1), rng),
        ReLU(),
        MaxPool2d(2, 2, ceil_mode=True),
        TransposedConv2d(DeconvSpec(2, 1, (4, 4), stride=2, padding=1), rng),
    ], name="net")
    names = [n for n, _ in net.params()]
    assert names == ["net.0.w", "net.0.b", "net.3.w", "net.3.b"]

    x = rng.standard_normal((2, 1, 8, 8)).astype(np.float32)
    y = net.forward(x)
    assert y.shape == (2, 1, 8, 8)
    gx = net.backward(np.ones_like(y))
    assert gx.shape == x.shape
    for _, p in net.params():
        assert p.grad is not None


def test_zero_lr_leaves_params_unchanged():
    rng = np.random.default_rng(2)
    layer = Conv2d(ConvSpec(1, 1, (3, 3)), rng)
    before = layer.w.data.copy()
    x = rng.standard_normal((1, 1, 5, 5)).astype(np.float32)
    layer.backward(np.ones_like(layer.forward(x)))
    sgd_step([p for _, p in layer.params()], lr=0.0)
    assert np.array_equal(layer.w.data, before)
