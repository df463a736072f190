"""The three-stage pipeline: encoder -> boundary-distance regression
head -> pixel classifier, trained end-to-end with a shifting loss weight.

The encoder downsamples by 8 (three stride-2 ceil-mode pools) and keeps
resolution through two atrous blocks; each head upsamples with exactly
three stride-2 transposed convolutions and is center-cropped back to the
input size.  The classifier consumes the regression head's output (not
the image), so both losses drive the encoder and regression head.
`SegmentationModel.predict` runs the encoder and head alone, and
`forward` adds the classifier; the classifier runs only where its
logits are read, so lambda = 1 training and `predict_dmap` never run it.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import (  # the schema is part of this module's API too
    DOWNSAMPLE_FACTOR, ClassifierSpec, EncoderSpec, HeadSpec, LossSchedule, PipelineConfig,
    _OPTIMISER_DEFAULTS, _check_type, _from_dict, brn_training_schedule, desk_config,
    reference_config,
)
from .errors import DivergedTraining, InvalidParams, IoFailure, ShapeMismatch, opened
from .imgio import optional, read_fmap, read_pgm_image, read_pgm_mask, read_table, write_table
from .metrics import dice
from .nn import checkpoint as ckpt
from .nn import ops
from .nn.layers import (
    Conv2d,
    Layer,
    MaxPool2d,
    Param,
    ReLU,
    Sequential,
    TransposedConv2d,
    sgd_step,
)
from .nn.ops import ConvSpec, DeconvSpec
from .phantom import check_seed, read_manifest

logger = logging.getLogger("boundseg")

DECONV_KERNEL = 4  # k=4, s=2, p=1 doubles the spatial size exactly


# ---------------------------------------------------------------------------
# model assembly

def _conv_stack(c: int, widths, pools, dilations, rng, dtype) -> list[Layer]:
    """3x3 conv + ReLU blocks from c channels; a pooled block halves the
    resolution (ceil), a dilated one keeps it."""
    layers = []
    for width, pool, dil in zip(widths, pools, dilations):
        layers += [Conv2d(ConvSpec(c, width, (3, 3), padding=dil, dilation=dil), rng, dtype),
                   ReLU()]
        if pool:
            layers.append(MaxPool2d(2, 2, ceil_mode=True))
        c = width
    return layers


def _head(c: int, spec: HeadSpec, out_channels: int, target: tuple[int, int], rng,
          dtype) -> list[Layer]:
    """1x1 projection, three stride-2 deconvs, 1x1 linear output, crop."""
    layers = [Conv2d(ConvSpec(c, spec.project, (1, 1)), rng, dtype), ReLU()]
    c = spec.project
    for width in spec.deconv_widths:
        layers += [TransposedConv2d(
            DeconvSpec(c, width, (DECONV_KERNEL, DECONV_KERNEL), stride=2, padding=1),
            rng, dtype), ReLU()]
        c = width
    return layers + [Conv2d(ConvSpec(c, out_channels, (1, 1)), rng, dtype),
                     _CropToInput(target)]


class _CropToInput(Layer):
    """Differentiable center crop from the head's raw output down to the
    input size; backward scatters the gradient back into a zero frame."""

    def __init__(self, target: tuple[int, int]):
        self.target = target

    def forward(self, raw: np.ndarray, keep: bool = True) -> np.ndarray:
        th, tw = self.target
        rh, rw = raw.shape[2], raw.shape[3]
        if rh < th or rw < tw:
            raise ShapeMismatch(f"head output {rh}x{rw} smaller than input {th}x{tw}")
        t, l = (rh - th) // 2, (rw - tw) // 2
        if keep:
            self._saved = (raw.shape, t, l)
        return raw[:, :, t : t + th, l : l + tw]

    def backward(self, gy: np.ndarray) -> np.ndarray:
        shape, t, l = self._take()
        th, tw = self.target
        g = np.zeros(shape, dtype=gy.dtype)
        g[:, :, t : t + th, l : l + tw] = gy
        return g


class SegmentationModel:
    """Encoder, regression head, and classifier with shared backprop."""

    def __init__(self, config: PipelineConfig, seed: int | None = 0, dtype=np.float32):
        """He-initialised from `seed`; seed None leaves the weights
        uninitialised, for `load_model` to fill."""
        rng = None
        if seed is not None:
            check_seed(seed)
            rng = np.random.default_rng(seed)
        self.config = config
        self.dtype = dtype
        enc, head, cls = config.encoder, config.head, config.classifier
        self.encoder = Sequential(_conv_stack(enc.in_channels, enc.widths, enc.pools,
                                              enc.dilations, rng, dtype), "encoder")
        self.head = Sequential(_head(enc.widths[-1], head, head.out_channels,
                                     config.input_size, rng, dtype), "head")
        if cls.mirror:
            layers = (_conv_stack(1, enc.widths, enc.pools, enc.dilations, rng, dtype)
                      + _head(enc.widths[-1], head, 2, config.input_size, rng, dtype))
        else:
            n = len(cls.widths)
            layers = _conv_stack(1, cls.widths, (False,) * n, cls.dilations or (1,) * n,
                                 rng, dtype)
            layers.append(Conv2d(ConvSpec((1, *cls.widths)[-1], 2, (1, 1)), rng, dtype))
        self.classifier = Sequential(layers, "classifier")

    # -- parameters ---------------------------------------------------------

    def named_params(self) -> list[tuple[str, Param]]:
        return self.encoder.params() + self.head.params() + self.classifier.params()

    # -- forward / backward -------------------------------------------------

    def predict(self, x: np.ndarray, keep: bool = True) -> np.ndarray:
        """x is (n, in_channels, h, w); returns the predicted distance map
        from the encoder and regression head, without the classifier.

        keep=True saves what one `backward` needs; inference passes
        keep=False, and no layer then holds an activation."""
        h, w = self.config.input_size
        if x.ndim != 4 or x.shape[1] != self.config.encoder.in_channels \
                or x.shape[2:] != (h, w):
            raise ShapeMismatch(
                f"input {x.shape} does not match config "
                f"(n, {self.config.encoder.in_channels}, {h}, {w})")
        return self.head.forward(self.encoder.forward(x, keep), keep)

    def forward(self, x: np.ndarray, keep: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """`predict`, then the classifier on its map: (pred_dmap, logits)."""
        pred = self.predict(x, keep)
        return pred, self.classifier.forward(pred, keep)

    def backward(self, g_pred: np.ndarray | None,
                 g_logits: np.ndarray | None) -> None:
        """Accumulate parameter gradients; either cotangent may be None.
        Gradients from the classifier flow through the predicted map into
        the regression head and encoder (end-to-end).  Consumes what the
        last `predict`/`forward` with keep=True saved; the classifier's
        part only when g_logits is given, so a map-only step pairs
        `predict` with `backward(g_pred, None)`."""
        if g_pred is None and g_logits is None:
            raise ShapeMismatch("backward needs at least one cotangent")
        total = g_pred
        if g_logits is not None:
            total = self.classifier.backward(g_logits)
            if g_pred is not None:
                total = total + g_pred
        self.encoder.backward(self.head.backward(total))  # input gradient is discarded


def pseudo_color(img: np.ndarray, dtype=np.float32) -> np.ndarray:
    """Duplicate a grayscale image (h, w) or batch (k, h, w) into three
    identical channels: (k, 3, h, w)."""
    arr = np.asarray(img, dtype=dtype)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3:
        raise ShapeMismatch(f"expected (h, w) or (k, h, w), got {arr.shape}")
    return np.repeat(arr[:, None, :, :], 3, axis=1)


class Objective(NamedTuple):
    total: float
    l2: float
    ce: float
    g_pred: np.ndarray | None    # lambda * d(l2)/d(pred)
    g_logits: np.ndarray | None  # (1 - lambda) * d(ce)/d(logits)


def objective(pred_dmap: np.ndarray, gt_dmap: np.ndarray | None,
              logits: np.ndarray | None, gt_mask: np.ndarray, lam: float) -> Objective:
    """lambda * l2(pred, gt map) + (1 - lambda) * softmax CE(logits, mask),
    its two terms, and the cotangents `SegmentationModel.backward` takes.

    A term whose weight is 0 is not evaluated: it reads 0.0 and its
    cotangent is None, so `gt_dmap` may be None at lambda 0 and `logits`
    at lambda 1.  The cotangents keep the dtype of the arrays (lambda is a
    Python float)."""
    if not 0.0 <= lam <= 1.0:
        raise InvalidParams(f"lambda {lam} outside [0, 1]")
    l2 = ce = 0.0
    g_pred = g_logits = None
    if lam > 0.0:
        l2 = ops.l2_loss(pred_dmap, gt_dmap)
        g_pred = lam * ops.l2_loss_grad(pred_dmap, gt_dmap)
    if lam < 1.0:
        ce = ops.softmax_ce_loss(logits, gt_mask)
        g_logits = (1.0 - lam) * ops.softmax_ce_grad(logits, gt_mask)
    return Objective(lam * l2 + (1.0 - lam) * ce, l2, ce, g_pred, g_logits)


def combined_loss(pred_dmap: np.ndarray, gt_dmap: np.ndarray,
                  logits: np.ndarray, gt_mask: np.ndarray,
                  lam: float) -> float:
    """The value of `objective`."""
    return objective(pred_dmap, gt_dmap, logits, gt_mask, lam).total


# ---------------------------------------------------------------------------
# training

class EpochRecord(NamedTuple):
    epoch: int
    lam: float
    l2: float | None       # None when lambda == 0 for the whole epoch
    ce: float | None       # None when lambda == 1 for the whole epoch
    val_dice: float | None  # None when the manifest has no test split


def _load_split(records, split: str, dtype, with_dmaps: bool):
    imgs, masks, dmaps = [], [], []
    for r in records:
        if r.split != split:
            continue
        imgs.append(read_pgm_image(r.image).astype(dtype))
        masks.append(read_pgm_mask(r.mask))
        if with_dmaps:
            dmaps.append(read_fmap(r.dmap).astype(dtype))
    return imgs, masks, dmaps


def train(manifest, config: PipelineConfig, schedule: LossSchedule, lr: float,
          *, momentum: float = _OPTIMISER_DEFAULTS["momentum"],
          batch_size: int = _OPTIMISER_DEFAULTS["batch_size"],
          seed: int = _OPTIMISER_DEFAULTS["seed"],
          checkpoint_path=None, log_path=None,
          ) -> tuple[SegmentationModel, list[EpochRecord]]:
    """Seeded-shuffled minibatch SGD on `objective`.

    Trains on the manifest's `train` split; the `test` split, when
    present, is scored (Dice) after every epoch for the log.  Ground
    truth distance maps are only ever read when some epoch has
    lambda > 0.  Bit-reproducible given (seed, single-thread numpy).
    Each epoch's row is logged, and appended to `log_path`, as it ends.
    """
    _check_type("batch_size", int, batch_size)
    if batch_size < 1:
        raise InvalidParams(f"batch_size must be >= 1, got {batch_size}")
    if not (0.0 <= lr < math.inf and 0.0 <= momentum < 1.0):
        raise InvalidParams(f"need a finite lr >= 0 and a momentum in [0, 1), "
                            f"got lr {lr}, momentum {momentum}")
    records = manifest if isinstance(manifest, list) else read_manifest(manifest)
    model = SegmentationModel(config, seed=seed)
    dtype = model.dtype

    needs_dmaps = schedule.lambda_start > 0.0  # lambda never increases
    imgs, masks, dmaps = _load_split(records, "train", dtype, needs_dmaps)
    if not imgs:
        raise InvalidParams("manifest has no train samples")
    val_imgs, val_masks, _ = _load_split(records, "test", dtype, False)

    n = len(imgs)
    x_all = pseudo_color(np.stack(imgs), dtype)
    m_all = np.stack(masks).astype(np.int64)
    d_all = np.stack(dmaps)[:, None, :, :] if needs_dmaps else None

    params = [p for _, p in model.named_params()]
    rng = np.random.default_rng(seed)
    log: list[EpochRecord] = []
    if log_path is not None:
        write_training_log(log_path, [])

    for epoch in range(schedule.total_epochs):
        lam = schedule.lambda_at(epoch)
        order = rng.permutation(n)
        l2_sum = ce_sum = 0.0
        for b, start in enumerate(range(0, n, batch_size)):
            idx = order[start : start + batch_size]
            x = x_all[idx]
            pred, logits = model.forward(x) if lam < 1.0 else (model.predict(x), None)
            out = objective(pred, d_all[idx] if lam > 0.0 else None, logits, m_all[idx],
                            lam)
            if not math.isfinite(out.total):
                terms = ", ".join(f"{k} = {v}" for k, v in (("l2", out.l2), ("ce", out.ce))
                                  if not math.isfinite(v))
                raise DivergedTraining(
                    f"non-finite loss {out.total} at epoch {epoch}, batch {b}: "
                    f"{terms or 'their weighted sum overflowed'}")
            l2_sum += out.l2 * len(idx)
            ce_sum += out.ce * len(idx)
            model.backward(out.g_pred, out.g_logits)
            sgd_step(params, lr, momentum)

        val_dice = None
        if val_imgs:
            preds = segment_batch(np.stack(val_imgs), model)
            val_dice = float(np.mean([dice(p, m)
                                      for p, m in zip(preds, val_masks)]))
        rec = EpochRecord(
            epoch=epoch,
            lam=lam,
            l2=(l2_sum / n) if lam > 0.0 else None,
            ce=(ce_sum / n) if lam < 1.0 else None,
            val_dice=val_dice,
        )
        log.append(rec)
        logger.info(
            "epoch %d: lambda %.4f l2 %s ce %s val_dice %s",
            rec.epoch, rec.lam,
            "na" if rec.l2 is None else f"{rec.l2:.5f}",
            "na" if rec.ce is None else f"{rec.ce:.5f}",
            "na" if rec.val_dice is None else f"{rec.val_dice:.4f}",
        )
        if log_path is not None:
            write_table(log_path, "training log", (), [rec], mode="a")

    if checkpoint_path is not None:
        save_model(checkpoint_path, model)
    return model, log


def write_training_log(path, records: list[EpochRecord]) -> None:
    """One structured record per epoch: epoch, lambda, l2, ce, val_dice."""
    write_table(path, "training log", [("epoch", "lambda", "l2", "ce", "val_dice")], records)


def read_training_log(path) -> list[EpochRecord]:
    rows, _ = read_table(path, "training log", (int, float, *[optional(float)] * 3))
    return [EpochRecord._make(row) for row in rows]


# ---------------------------------------------------------------------------
# inference

def segment_batch(imgs: np.ndarray, model: SegmentationModel) -> np.ndarray:
    """Segment a (k, h, w) stack; argmax over logits, ties -> background."""
    _, logits = model.forward(pseudo_color(imgs, model.dtype), keep=False)
    return (logits[:, 1] > logits[:, 0]).astype(np.uint8)


def segment(img: np.ndarray, model: SegmentationModel) -> np.ndarray:
    """Per-pixel argmax over the two logit channels for one image."""
    if np.asarray(img).ndim != 2:
        raise ShapeMismatch(f"expected a single (h, w) image, got {np.asarray(img).shape}")
    return segment_batch(np.asarray(img)[None], model)[0]


def predict_dmap(img: np.ndarray, model: SegmentationModel) -> np.ndarray:
    """Regression-head output for one image, clamped to [0, 1]; the
    classifier does not run."""
    if np.asarray(img).ndim != 2:
        raise ShapeMismatch(f"expected a single (h, w) image, got {np.asarray(img).shape}")
    pred = model.predict(pseudo_color(np.asarray(img)[None], model.dtype), keep=False)
    return np.clip(pred[0, 0], 0.0, 1.0)


# ---------------------------------------------------------------------------
# persistence

def _sidecar(path) -> Path:
    return Path(path).with_suffix(".json")


def _read_sidecar(sidecar: Path) -> PipelineConfig:
    """The pipeline config in a JSON sidecar; malformed or too deeply nested
    JSON, a missing key or a value of the wrong type is a data error, not a
    crash."""
    with opened(sidecar, "r", "config sidecar") as f:
        text = f.read()
    try:
        return _from_dict(PipelineConfig, json.loads(text)["config"])
    except (KeyError, TypeError, ValueError, RecursionError, InvalidParams) as e:
        raise IoFailure(
            f"malformed config sidecar {sidecar}: {type(e).__name__}: {e}") from e


def save_model(path, model: SegmentationModel) -> None:
    """Write parameters in the checkpoint format plus a JSON config
    sidecar next to it, both byte-deterministic."""
    ckpt.save_checkpoint(path, [(n, p.data) for n, p in model.named_params()])
    with opened(_sidecar(path), "w", "config sidecar") as f:
        f.write(json.dumps({"config": asdict(model.config)},
                           sort_keys=True, separators=(",", ":")) + "\n")


def load_model(path, dtype=np.float32) -> SegmentationModel:
    """Rebuild a model from a checkpoint and its config sidecar.

    The model is not initialised: each record is read straight into its
    parameter's buffer, through one record-sized float32 array when dtype
    is not float32.  A missing, mis-sized or extra parameter is checked
    after the whole file is read, so a file that is also malformed fails
    on that first."""
    model = SegmentationModel(_read_sidecar(_sidecar(path)), seed=None, dtype=dtype)
    params = dict(model.named_params())
    sizes: dict[str, int] = {}  # values in the last record of each name

    def fill(name, shape, read):
        sizes[name] = math.prod(shape)
        p = params.get(name)
        if p is None or sizes[name] != p.data.size:
            return
        if p.data.dtype == np.dtype("<f4"):
            read(p.data)
        else:
            p.data[...] = read(np.empty(p.shape, dtype="<f4"))

    ckpt.read_checkpoint(path, fill)
    for name, p in params.items():
        if name not in sizes:
            raise ShapeMismatch(f"checkpoint missing parameter {name!r}")
        if sizes[name] != p.data.size:
            raise ShapeMismatch(
                f"checkpoint parameter {name!r} has {sizes[name]} values, "
                f"model expects {p.data.size}")
    extra = sorted(set(sizes) - set(params))
    if extra:
        raise ShapeMismatch(f"checkpoint has extra parameters {extra}")
    return model
