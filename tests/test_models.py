"""Pipeline assembly, shape contracts, loss gating, training plumbing,
and the composed finite-difference gradient check."""

import inspect
import re

import numpy as np
import pytest

from boundseg.errors import (
    DivergedTraining,
    InvalidParams,
    IoFailure,
    ShapeMismatch,
    TruncatedData,
)
from boundseg.models import (
    ClassifierSpec,
    EncoderSpec,
    EpochRecord,
    HeadSpec,
    LossSchedule,
    PipelineConfig,
    SegmentationModel,
    combined_loss,
    desk_config,
    load_model,
    objective,
    predict_dmap,
    pseudo_color,
    read_training_log,
    reference_config,
    save_model,
    segment,
    segment_batch,
    train,
    write_training_log,
)
from boundseg.nn import (
    Sequential,
    load_checkpoint,
    numeric_gradient,
    ops,
    relative_error,
    save_checkpoint,
)
from boundseg.config import read_train_config
from boundseg.phantom import make_dataset, read_manifest


def tiny_config(h=16, w=16):
    """4-channel everything at 16x16: small enough for finite differences."""
    return PipelineConfig(
        input_size=(h, w),
        encoder=EncoderSpec(widths=(4, 4, 4, 4, 4)),
        head=HeadSpec(project=4, deconv_widths=(4, 4, 4)),
        classifier=ClassifierSpec(widths=(4, 4)),
    )


# ---------------------------------------------------------------------------
# configuration invariants

def test_encoder_spec_requires_three_pools():
    with pytest.raises(InvalidParams):
        EncoderSpec(pools=(True, True, False, False, False))
    with pytest.raises(InvalidParams):
        EncoderSpec(pools=(True,) * 5)


def test_head_spec_requires_three_deconvs():
    with pytest.raises(InvalidParams):
        HeadSpec(deconv_widths=(8, 8))
    with pytest.raises(InvalidParams):
        HeadSpec(deconv_widths=(8, 8, 8, 8))


def test_schedule_invariants():
    with pytest.raises(InvalidParams):
        LossSchedule(lambda_start=0.2, lambda_end=0.5, total_epochs=10)
    with pytest.raises(InvalidParams):
        LossSchedule(lambda_start=1.2, lambda_end=0.1, total_epochs=10)
    with pytest.raises(InvalidParams):
        LossSchedule(total_epochs=0)


@pytest.mark.parametrize("epochs", [2.5, True])
def test_schedule_epochs_must_be_int(epochs):
    with pytest.raises(InvalidParams, match="total epochs"):
        LossSchedule(0.9, 0.1, epochs)


def test_schedule_linear_and_monotone():
    s = LossSchedule(0.9, 0.1, 60)
    lams = [s.lambda_at(e) for e in range(60)]
    assert lams[0] == 0.9
    assert lams[-1] == pytest.approx(0.1)
    assert all(a >= b for a, b in zip(lams, lams[1:]))
    # one-epoch schedule degenerates to the start value
    assert LossSchedule(0.7, 0.1, 1).lambda_at(0) == 0.7


# ---------------------------------------------------------------------------
# shape contracts

def thin_widths(size: int) -> PipelineConfig:
    """The desk and reference topology (pools, dilations, kernels) at
    2-channel widths, so that a 321x321 forward actually runs."""
    return PipelineConfig(
        input_size=(size, size),
        encoder=EncoderSpec(widths=(2, 2, 2, 2, 2)),
        head=HeadSpec(project=2, deconv_widths=(2, 2, 2)),
        classifier=ClassifierSpec(widths=(2, 2)))


def test_desk_shape_plan(stage_sizes):
    plan = stage_sizes(SegmentationModel(thin_widths(64), seed=0))
    assert plan["features"] == (8, 8)
    assert plan["deconvs"] == [(16, 16), (32, 32), (64, 64)]
    assert plan["head_raw"] == plan["output"] == (64, 64)  # no crop needed


def test_reference_shape_plan(stage_sizes):
    plan = stage_sizes(SegmentationModel(thin_widths(321), seed=0))
    assert plan["features"] == (41, 41)
    assert plan["deconvs"] == [(82, 82), (164, 164), (328, 328)]
    assert plan["output"] == (321, 321)  # center-crop 328 -> 321


def test_reference_topology_forward_with_thin_widths():
    model = SegmentationModel(thin_widths(321), seed=0)
    x = pseudo_color(np.random.default_rng(0).random((1, 321, 321)))
    pred, logits = model.forward(x)
    assert pred.shape == (1, 1, 321, 321)
    assert logits.shape == (1, 2, 321, 321)
    assert np.isfinite(pred).all() and np.isfinite(logits).all()


def test_forward_shapes_and_finiteness_desk():
    model = SegmentationModel(desk_config(), seed=3)
    x = pseudo_color(np.random.default_rng(1).random((2, 64, 64)))
    pred, logits = model.forward(x)
    assert pred.shape == (2, 1, 64, 64)
    assert logits.shape == (2, 2, 64, 64)
    assert np.isfinite(pred).all() and np.isfinite(logits).all()


def test_forward_rejects_wrong_size():
    model = SegmentationModel(tiny_config(), seed=0)
    with pytest.raises(ShapeMismatch):
        model.forward(pseudo_color(np.zeros((1, 32, 32))))


def test_negative_seed_is_invalid_params():
    with pytest.raises(InvalidParams):
        SegmentationModel(tiny_config(), seed=-1)


def test_mirrored_classifier_shapes():
    cfg = PipelineConfig(
        input_size=(16, 16),
        encoder=EncoderSpec(widths=(2, 2, 2, 2, 2)),
        head=HeadSpec(project=2, deconv_widths=(2, 2, 2)),
        classifier=ClassifierSpec(mirror=True))
    model = SegmentationModel(cfg, seed=0)
    pred, logits = model.forward(pseudo_color(np.random.default_rng(2).random((1, 16, 16))))
    assert pred.shape == (1, 1, 16, 16)
    assert logits.shape == (1, 2, 16, 16)


def test_pseudo_color():
    img = np.random.default_rng(0).random((2, 2)).astype(np.float32)
    t = pseudo_color(img)
    assert t.shape == (1, 3, 2, 2)
    assert np.array_equal(t[0, 0], t[0, 1]) and np.array_equal(t[0, 1], t[0, 2])
    batch = pseudo_color(np.random.default_rng(1).random((5, 4, 4)))
    assert batch.shape == (5, 3, 4, 4)
    with pytest.raises(ShapeMismatch):
        pseudo_color(np.zeros((1, 2, 3, 4)))


# ---------------------------------------------------------------------------
# combined loss

def test_combined_loss_endpoints_and_midpoint():
    rng = np.random.default_rng(0)
    pred = rng.random((1, 1, 8, 8))
    gt = rng.random((1, 1, 8, 8))
    logits = rng.standard_normal((1, 2, 8, 8))
    mask = rng.integers(0, 2, size=(1, 8, 8))
    l2 = ops.l2_loss(pred, gt)
    ce = ops.softmax_ce_loss(logits, mask)
    assert combined_loss(pred, gt, logits, mask, 1.0) == pytest.approx(l2)
    assert combined_loss(pred, gt, logits, mask, 0.0) == pytest.approx(ce)
    assert combined_loss(pred, gt, logits, mask, 0.5) == pytest.approx(0.5 * l2 + 0.5 * ce)
    with pytest.raises(InvalidParams):
        combined_loss(pred, gt, logits, mask, 1.5)


def test_combined_loss_convex_combination_of_equal_losses():
    # When both components equal v, any lambda gives v back.
    pred = np.zeros((1, 1, 2, 2))
    gt = np.full((1, 1, 2, 2), np.sqrt(0.2))
    logits = np.zeros((1, 2, 2, 2))
    mask = np.zeros((1, 2, 2), dtype=np.int64)
    l2 = ops.l2_loss(pred, gt)
    ce = ops.softmax_ce_loss(logits, mask)
    assert l2 == pytest.approx(0.2)
    assert ce == pytest.approx(np.log(2.0))
    got = combined_loss(pred, gt, logits, mask, 0.5)
    assert got == pytest.approx(0.5 * l2 + 0.5 * ce)


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_objective_gates_terms_and_scales_cotangents(lam):
    rng = np.random.default_rng(2)
    pred = rng.random((2, 1, 8, 8), dtype=np.float32)
    gt = rng.random((2, 1, 8, 8), dtype=np.float32)
    logits = rng.standard_normal((2, 2, 8, 8), dtype=np.float32)
    mask = rng.integers(0, 2, size=(2, 8, 8))
    out = objective(pred, gt, logits, mask, lam)
    assert out.l2 == (ops.l2_loss(pred, gt) if lam > 0.0 else 0.0)
    assert out.ce == (ops.softmax_ce_loss(logits, mask) if lam < 1.0 else 0.0)
    assert out.total == lam * out.l2 + (1.0 - lam) * out.ce
    assert out.total == combined_loss(pred, gt, logits, mask, lam)
    if lam > 0.0:
        assert out.g_pred.dtype == np.float32
        assert out.g_pred.tobytes() == (lam * ops.l2_loss_grad(pred, gt)).tobytes()
    else:
        assert out.g_pred is None
    if lam < 1.0:
        assert out.g_logits.dtype == np.float32
        want = (1.0 - lam) * ops.softmax_ce_grad(logits, mask)
        assert out.g_logits.tobytes() == want.tobytes()
    else:
        assert out.g_logits is None


def test_objective_needs_no_distance_map_at_lambda_zero():
    rng = np.random.default_rng(4)
    pred = rng.random((1, 1, 8, 8))
    logits = rng.standard_normal((1, 2, 8, 8))
    mask = rng.integers(0, 2, size=(1, 8, 8))
    out = objective(pred, None, logits, mask, 0.0)
    assert out.l2 == 0.0 and out.g_pred is None
    assert out.total == out.ce == ops.softmax_ce_loss(logits, mask)


# ---------------------------------------------------------------------------
# composed gradient check (tiny config, float64)

def test_composed_pipeline_gradcheck_vs_finite_differences():
    cfg = tiny_config()
    model = SegmentationModel(cfg, seed=11, dtype=np.float64)
    rng = np.random.default_rng(5)
    # Fresh models have all-zero biases, so deconv pixels whose receptive
    # field was entirely ReLU-zeroed land exactly on the next ReLU's kink,
    # where two-sided differences disagree with any subgradient.  Nudge the
    # biases to evaluate at a differentiable point.
    for name, p in model.named_params():
        if name.endswith(".b"):
            p.data += rng.uniform(0.01, 0.05, size=p.data.shape)
    img = rng.random((1, 16, 16))
    x = pseudo_color(img, dtype=np.float64)
    gt_dmap = rng.random((1, 1, 16, 16))
    gt_mask = rng.integers(0, 2, size=(1, 16, 16))
    lam = 0.6

    def loss():
        pred, logits = model.forward(x)
        return combined_loss(pred, gt_dmap, logits, gt_mask, lam)

    # analytic gradients
    pred, logits = model.forward(x)
    out = objective(pred, gt_dmap, logits, gt_mask, lam)
    model.backward(out.g_pred, out.g_logits)

    worst = 0.0
    rng_fd = np.random.default_rng(99)
    for name, p in model.named_params():
        numeric, coords = numeric_gradient(loss, p.data, step=1e-6,
                                           max_coords=6, rng=rng_fd)
        err = relative_error(p.grad.reshape(-1)[coords], numeric)
        worst = max(worst, err)
    assert worst < 1e-5, f"composed gradient mismatch: {worst}"


# ---------------------------------------------------------------------------
# loss gating through training

@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    manifest = make_dataset(root, n_train=4, n_test=2, seed=77, frame=(64, 64))
    return manifest


def test_lambda_one_leaves_classifier_bit_unchanged(small_dataset):
    cfg = tiny_config(64, 64)
    schedule = LossSchedule(1.0, 1.0, 1)
    # Build a twin model to know the classifier's initial bits.
    twin = SegmentationModel(cfg, seed=5)
    before = {n: p.data.copy() for n, p in twin.named_params()}
    model, _ = train(small_dataset, cfg, schedule, lr=0.05, momentum=0.9,
                     batch_size=2, seed=5)
    for name, p in model.named_params():
        if name.startswith("classifier."):
            assert p.data.tobytes() == before[name].tobytes(), name
            assert p.vel is None, name  # never stepped, not stepped by zero
        elif name.endswith(".w"):
            assert not np.array_equal(p.data, before[name]), name


def test_lambda_one_runs_the_classifier_only_in_validation(small_dataset, monkeypatch):
    keeps = []
    forward = Sequential.forward

    def spy(self, x, keep=True):
        if self.name == "classifier":
            keeps.append(keep)
        return forward(self, x, keep)

    monkeypatch.setattr(Sequential, "forward", spy)
    train(small_dataset, tiny_config(64, 64), LossSchedule(1.0, 1.0, 2),
          lr=0.05, batch_size=2, seed=5)
    assert keeps == [False, False]  # one validation pass per epoch


@pytest.mark.parametrize("lam", [(1.0, 1.0), (0.9, 0.1), (0.0, 0.0)])
def test_train_releases_every_gradient(small_dataset, lam):
    model, _ = train(small_dataset, tiny_config(64, 64), LossSchedule(*lam, 2),
                     lr=0.05, batch_size=2, seed=5)
    for name, p in model.named_params():
        assert p.grad is None, name


@pytest.mark.parametrize("batch_size", [0, -1, 2.0, True, "2"])
def test_train_rejects_bad_batch_size(small_dataset, batch_size):
    with pytest.raises(InvalidParams, match="batch_size"):
        train(small_dataset, tiny_config(64, 64), LossSchedule(0.5, 0.5, 1),
              lr=0.05, batch_size=batch_size, seed=5)


@pytest.mark.parametrize("optimiser", [
    {"lr": float("nan")}, {"lr": float("inf")}, {"lr": -0.05},
    {"momentum": -5.0}, {"momentum": 1.0}, {"momentum": float("nan")},
])
def test_train_rejects_an_unusable_optimiser(small_dataset, tmp_path, optimiser):
    args = {"lr": 0.05, "momentum": 0.9} | optimiser
    message = (r"need a finite lr >= 0 and a momentum in \[0, 1\), "
               rf"got lr {args['lr']}, momentum {args['momentum']}$")
    with pytest.raises(InvalidParams, match=message):
        train(small_dataset, tiny_config(64, 64), LossSchedule(0.5, 0.5, 1),
              batch_size=2, seed=5, log_path=tmp_path / "log.tsv", **args)
    assert not (tmp_path / "log.tsv").exists()


def test_lambda_zero_never_reads_distance_maps(small_dataset, tmp_path):
    # Deleting every dmap file proves the regression loss is never
    # evaluated against ground truth when lambda is pinned at 0.
    import shutil
    shadow = tmp_path / "nodmaps"
    shutil.copytree(small_dataset.parent, shadow)
    for r in read_manifest(shadow / "manifest.tsv"):
        r.dmap.unlink()
    model, log = train(shadow / "manifest.tsv", tiny_config(64, 64),
                       LossSchedule(0.0, 0.0, 1), lr=0.05, batch_size=2, seed=5)
    assert log[0].l2 is None
    assert log[0].ce is not None


def test_zero_lr_leaves_parameters_unchanged(small_dataset):
    cfg = tiny_config(64, 64)
    twin = SegmentationModel(cfg, seed=9)
    before = {n: p.data.copy() for n, p in twin.named_params()}
    model, _ = train(small_dataset, cfg, LossSchedule(0.5, 0.5, 2),
                     lr=0.0, batch_size=2, seed=9)
    for name, p in model.named_params():
        assert np.array_equal(p.data, before[name]), name


def test_train_defaults_are_the_training_files(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    _, _, hypers = read_train_config(cfg)
    params = inspect.signature(train).parameters
    assert {k: params[k].default for k in ("momentum", "batch_size", "seed")} == \
        {k: hypers[k] for k in ("momentum", "batch_size", "seed")}
    assert hypers["batch_size"] == 4 and hypers["momentum"] == 0.9


def test_training_log_and_checkpoint_roundtrip(small_dataset, tmp_path):
    cfg = tiny_config(64, 64)
    ck = tmp_path / "model.bseg"
    lg = tmp_path / "log.tsv"
    model, log = train(small_dataset, cfg, LossSchedule(0.9, 0.1, 1),
                       lr=0.05, batch_size=2, seed=1,
                       checkpoint_path=ck, log_path=lg)
    assert len(log) == 1
    assert log[0].epoch == 0 and log[0].lam == 0.9
    assert log[0].l2 is not None and log[0].ce is not None
    assert log[0].val_dice is not None  # manifest has a test split
    back = read_training_log(lg)
    assert back == log

    loaded = load_model(ck)
    for (n1, p1), (n2, p2) in zip(model.named_params(), loaded.named_params()):
        assert n1 == n2
        assert p1.data.tobytes() == p2.data.tobytes()
    # re-saving reproduces the checkpoint bytes
    ck2 = tmp_path / "again.bseg"
    save_model(ck2, loaded)
    assert ck.read_bytes() == ck2.read_bytes()
    assert ck.with_suffix(".json").read_bytes() == ck2.with_suffix(".json").read_bytes()


def test_training_log_keeps_the_epochs_before_a_divergence(small_dataset, tmp_path,
                                                         monkeypatch, caplog):
    import boundseg.models as models

    calls = []

    def nan_in_epoch_two(*args):
        calls.append(None)
        out = objective(*args)
        return out._replace(total=float("nan")) if len(calls) > 4 else out

    # 4 train samples at batch 2: two batches per epoch, epoch 2 is calls 5-6
    monkeypatch.setattr(models, "objective", nan_in_epoch_two)
    lg = tmp_path / "log.tsv"
    with caplog.at_level("INFO", logger="boundseg"), \
            pytest.raises(DivergedTraining, match="at epoch 2, batch 0"):
        train(small_dataset, tiny_config(64, 64), LossSchedule(0.9, 0.1, 4),
              lr=0.05, batch_size=2, seed=1, log_path=lg)
    rows = lg.read_text(encoding="utf-8").splitlines()
    assert rows[0] == "# epoch\tlambda\tl2\tce\tval_dice"
    back = read_training_log(lg)
    assert [r.epoch for r in back] == [0, 1]
    assert [r.message for r in caplog.records] == [
        f"epoch {r.epoch}: lambda {r.lam:.4f} l2 {r.l2:.5f} ce {r.ce:.5f} "
        f"val_dice {r.val_dice:.4f}" for r in back]


@pytest.mark.parametrize("tail", [b"# \xff\n", b"1\t0.5\t1.0\n", b"1\t0.5\tx\tna\tna\n"])
def test_read_training_log_rejects_undecodable_text(tmp_path, tail):
    lg = tmp_path / "log.tsv"
    write_training_log(lg, [EpochRecord(0, 0.5, 1.0, 0.5, None)])
    lg.write_bytes(lg.read_bytes() + tail)
    with pytest.raises(IoFailure):
        read_training_log(lg)


def test_training_deterministic_in_seed(small_dataset):
    cfg = tiny_config(64, 64)
    sched = LossSchedule(0.8, 0.2, 2)
    m1, log1 = train(small_dataset, cfg, sched, lr=0.05, batch_size=2, seed=4)
    m2, log2 = train(small_dataset, cfg, sched, lr=0.05, batch_size=2, seed=4)
    assert log1 == log2
    for (_, p1), (_, p2) in zip(m1.named_params(), m2.named_params()):
        assert p1.data.tobytes() == p2.data.tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_training_diverges_loudly(small_dataset):
    with pytest.raises(DivergedTraining) as err:
        train(small_dataset, tiny_config(64, 64), LossSchedule(0.5, 0.5, 3),
              lr=1e4, batch_size=2, seed=0)
    # the epoch, the batch within it and each non-finite term of the loss
    assert re.fullmatch(r"non-finite loss \S+ at epoch [0-2], batch \d+: "
                        r"(l2|ce) = (nan|-?inf)(, ce = (nan|-?inf))?", str(err.value)), err.value


# ---------------------------------------------------------------------------
# inference

def test_segment_argmax_and_tie_to_background(small_dataset, tmp_path):
    cfg = tiny_config(64, 64)
    model = SegmentationModel(cfg, seed=2)
    img = np.random.default_rng(3).random((64, 64)).astype(np.float32)
    mask = segment(img, model)
    assert mask.shape == (64, 64)
    assert set(np.unique(mask)) <= {0, 1}

    # Force exactly tied logits: zero out the final classifier conv.
    for name, p in model.named_params():
        if name.startswith("classifier.4"):
            p.data[...] = 0.0
    assert segment(img, model).sum() == 0  # ties go to background


def test_segment_loads_checkpoint_path(small_dataset, tmp_path):
    cfg = tiny_config(64, 64)
    ck = tmp_path / "m.bseg"
    model, _ = train(small_dataset, cfg, LossSchedule(0.5, 0.5, 1),
                     lr=0.01, batch_size=2, seed=0, checkpoint_path=ck)
    img = np.random.default_rng(0).random((64, 64)).astype(np.float32)
    assert np.array_equal(segment(img, load_model(ck)), segment(img, model))


@pytest.mark.parametrize("config", [
    desk_config(),
    reference_config(),
    PipelineConfig(input_size=(24, 40),
                   classifier=ClassifierSpec(widths=(4, 6, 2), dilations=(1, 2, 3))),
], ids=["desk", "reference", "dilated_classifier"])
def test_sidecar_round_trips_config(config, tmp_path):
    ck = tmp_path / "m.bseg"
    save_model(ck, SegmentationModel(config, seed=1))
    assert load_model(ck).config == config


def test_predict_dmap_clamped_and_raw():
    model = SegmentationModel(tiny_config(), seed=8)
    img = np.random.default_rng(7).random((16, 16)).astype(np.float32)
    out = predict_dmap(img, model)
    assert out.shape == (16, 16)
    assert out.min() >= 0.0 and out.max() <= 1.0
    raw = model.predict(pseudo_color(img[None]), keep=False)[0, 0]
    assert np.isfinite(raw).all()
    assert np.array_equal(out, np.clip(raw, 0.0, 1.0))


def test_predict_is_forwards_map():
    model = SegmentationModel(tiny_config(), seed=8)
    x = pseudo_color(np.random.default_rng(7).random((2, 16, 16)))
    pred, _ = model.forward(x, keep=False)
    assert np.array_equal(model.predict(x, keep=False), pred)


def test_predict_dmap_never_runs_the_classifier(monkeypatch):
    model = SegmentationModel(tiny_config(), seed=8)

    def refuse(x, keep=True):
        raise AssertionError("classifier ran")

    monkeypatch.setattr(model.classifier, "forward", refuse)
    assert predict_dmap(np.zeros((16, 16), np.float32), model).shape == (16, 16)


def test_segment_batch_matches_single():
    model = SegmentationModel(tiny_config(), seed=6)
    imgs = np.random.default_rng(9).random((3, 16, 16)).astype(np.float32)
    batched = segment_batch(imgs, model)
    for i in range(3):
        assert np.array_equal(batched[i], segment(imgs[i], model))


def test_load_model_rejects_mismatched_checkpoint(tmp_path):
    model = SegmentationModel(tiny_config(), seed=0)
    ck = tmp_path / "m.bseg"
    save_model(ck, model)
    # Sidecar promises a different architecture than the arrays provide.
    other = SegmentationModel(tiny_config(), seed=0)
    other_cfg = PipelineConfig(
        input_size=(16, 16),
        encoder=EncoderSpec(widths=(8, 8, 8, 8, 8)),
        head=HeadSpec(project=4, deconv_widths=(4, 4, 4)),
        classifier=ClassifierSpec(widths=(4, 4)))
    import json
    meta = json.loads(ck.with_suffix(".json").read_text())
    from dataclasses import asdict
    meta["config"] = asdict(other_cfg)
    ck.with_suffix(".json").write_text(json.dumps(meta))
    with pytest.raises(ShapeMismatch):
        load_model(ck)


RECORD_EDITS = {
    "missing": (lambda recs: recs[1:], "missing parameter 'encoder.0.w'"),
    "resized": (lambda recs: [(recs[0][0], recs[0][1][:1])] + recs[1:],
                "'encoder.0.w' has 27 values, model expects 108"),
    "extra": (lambda recs: recs + [("stray", np.ones(2, np.float32))],
              r"extra parameters \['stray'\]"),
}


@pytest.mark.parametrize("edit", sorted(RECORD_EDITS))
def test_load_model_checks_every_record(tmp_path, edit):
    ck = tmp_path / "m.bseg"
    save_model(ck, SegmentationModel(tiny_config(), seed=0))
    change, message = RECORD_EDITS[edit]
    save_checkpoint(ck, change(list(load_checkpoint(ck).items())))
    with pytest.raises(ShapeMismatch, match=message):
        load_model(ck)
    # a malformed file fails on that first, as when it was read whole
    ck.write_bytes(ck.read_bytes()[:-2])
    with pytest.raises(TruncatedData):
        load_model(ck)


def test_load_model_reads_records_in_any_order(tmp_path):
    model = SegmentationModel(tiny_config(), seed=2)
    ck = tmp_path / "m.bseg"
    save_model(ck, model)
    records = list(load_checkpoint(ck).items())
    first = records[0]
    stale = (first[0], np.zeros_like(first[1]))
    save_checkpoint(ck, [stale] + records[::-1])  # the last record of a name wins
    loaded = load_model(ck)
    for (_, a), (_, b) in zip(model.named_params(), loaded.named_params()):
        assert a.data.tobytes() == b.data.tobytes()
