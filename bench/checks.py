"""Output checks, computed apart from the program wherever the property
allows it.

* The forward check runs a float64 network written here (per-tap
  correlation with dilation, ceil-mode pooling, transposed convolution
  as a scatter, centre crop) from weights parsed out of the checkpoint
  file, and compares the program's float32 logits and predicted map.
* The distance-map, Dice and boundary-distance checks use SciPy's exact
  EDT and plain pixel counts.
* The gradient check is a property of the method: the derivative of the
  combined loss along a random direction, by central differences in
  float64, must equal that direction's dot product with the gradient
  from `SegmentationModel.backward`.

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np
from scipy import ndimage

# |float32 forward - float64 forward| may reach this share of the largest
# magnitude of the compared tensor (measured: under 2e-6)
FORWARD_RTOL = 2e-5
# |central difference - gradient . direction| may reach this share of the
# larger of the two and of the gradient's typical projection on a unit
# direction, |g| / sqrt(n); float64 rounding and ReLU/max-pool kinks
# crossed by the step reached 6e-5 of it at the reference config
GRADIENT_RTOL = 1e-3
BRN_DICE_FLOOR = 0.98


# ---------------------------------------------------------------------------
# files, read without the program's readers

def read_pgm(path) -> np.ndarray:
    """Binary PGM (P5, maxval 255) as a uint8 grid."""
    blob = Path(path).read_bytes()
    magic, w, h, maxval = blob.split(maxsplit=4)[:4]
    if magic != b"P5" or maxval != b"255":
        raise ValueError(f"{path}: not an 8-bit binary PGM")
    w, h = int(w), int(h)
    return np.frombuffer(blob[len(blob) - w * h:], dtype=np.uint8).reshape(h, w)


def read_fmap(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    w, h = struct.unpack("<II", blob[4:12])
    return np.frombuffer(blob[12:12 + 4 * w * h], dtype="<f4").reshape(h, w)


def read_bseg(path) -> list[np.ndarray]:
    """Checkpoint parameters in file order, as float64 arrays."""
    blob = Path(path).read_bytes()
    if blob[:4] != b"BSEG":
        raise ValueError(f"{path}: not a BSEG checkpoint")
    out, pos = [], 8
    while pos < len(blob):
        (nlen,) = struct.unpack_from("<I", blob, pos)
        pos += 4 + nlen
        shape = struct.unpack_from("<4I", blob, pos)
        pos += 16
        count = math.prod(shape)
        out.append(np.frombuffer(blob, "<f4", count, pos).reshape(shape)
                   .astype(np.float64))
        pos += 4 * count
    return out


# ---------------------------------------------------------------------------
# float64 reference forward for one image

def _conv(x, w, b, pad, dil):
    """Cross-correlation, stride 1: one matrix product per kernel tap."""
    _, h, wd = x.shape
    out_c, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    oh, ow = h + 2 * pad - dil * (kh - 1), wd + 2 * pad - dil * (kw - 1)
    y = np.zeros((out_c, oh, ow))
    for u in range(kh):
        for v in range(kw):
            window = xp[:, u * dil:u * dil + oh, v * dil:v * dil + ow]
            y += np.tensordot(w[:, :, u, v], window, axes=(1, 0))
    return y + b.reshape(-1, 1, 1)


def _deconv(x, w, b, stride=2, pad=1):
    """Transposed convolution: every input pixel scatters a weighted
    kernel into the output, one kernel tap at a time."""
    _, ih, iw = x.shape
    _, out_c, kh, kw = w.shape
    full = np.zeros((out_c, (ih - 1) * stride + kh, (iw - 1) * stride + kw))
    for u in range(kh):
        for v in range(kw):
            full[:, u:u + stride * (ih - 1) + 1:stride,
                 v:v + stride * (iw - 1) + 1:stride] += np.tensordot(
                     w[:, :, u, v], x, axes=(0, 0))
    oh, ow = full.shape[1] - 2 * pad, full.shape[2] - 2 * pad
    return full[:, pad:pad + oh, pad:pad + ow] + b.reshape(-1, 1, 1)


def _maxpool2_ceil(x):
    c, h, w = x.shape
    oh, ow = -(-h // 2), -(-w // 2)
    padded = np.full((c, 2 * oh, 2 * ow), -np.inf)
    padded[:, :h, :w] = x
    return padded.reshape(c, oh, 2, ow, 2).max(axis=(2, 4))


def _relu(x):
    return np.maximum(x, 0.0)


def _crop(x, size):
    th, tw = size
    t, l = (x.shape[1] - th) // 2, (x.shape[2] - tw) // 2
    return x[:, t:t + th, l:l + tw]


def _encoder(x, enc, params):
    for _, pool, dil in zip(enc["widths"], enc["pools"], enc["dilations"]):
        x = _relu(_conv(x, next(params), next(params), dil, dil))
        if pool:
            x = _maxpool2_ceil(x)
    return x


def _head(x, params):
    x = _relu(_conv(x, next(params), next(params), 0, 1))
    for _ in range(3):
        x = _relu(_deconv(x, next(params), next(params)))
    return _conv(x, next(params), next(params), 0, 1)


def reference_forward(checkpoint, image: np.ndarray):
    """(predicted map, logits) of one (h, w) image in [0, 1], in float64,
    from a checkpoint file and its JSON config sidecar."""
    cfg = json.loads(Path(checkpoint).with_suffix(".json").read_text())["config"]
    params = iter(read_bseg(checkpoint))
    size = tuple(cfg["input_size"])
    x = np.repeat(np.asarray(image, np.float64)[None],
                  cfg["encoder"]["in_channels"], axis=0)
    pred = _crop(_head(_encoder(x, cfg["encoder"], params), params), size)
    cls = cfg["classifier"]
    if cls["mirror"]:
        logits = _crop(_head(_encoder(pred, cfg["encoder"], params), params), size)
    else:
        y = pred
        for dil in cls["dilations"] or [1] * len(cls["widths"]):
            y = _relu(_conv(y, next(params), next(params), dil, dil))
        logits = _conv(y, next(params), next(params), 0, 1)
    return pred[0], logits


def _tolerance(ref: np.ndarray) -> float:
    return FORWARD_RTOL * max(1.0, float(np.abs(ref).max()))


def check_forward(what: str, pred, logits, ref_pred, ref_logits) -> list[str]:
    """The program's map (h, w) and logits (2, h, w) against the reference."""
    problems = []
    for name, got, want in (("map", pred, ref_pred), ("logits", logits, ref_logits)):
        err = float(np.abs(np.asarray(got, np.float64) - want).max())
        if not err <= _tolerance(want):
            problems.append(f"{what}: {name} differs from the float64 "
                            f"reference by {err:.3g} > {_tolerance(want):.3g}")
    return problems


def check_mask(what: str, mask, ref_logits) -> list[str]:
    """A written mask equals the reference argmax wherever the reference
    margin is wider than the forward tolerance."""
    margin = ref_logits[1] - ref_logits[0]
    decided = np.abs(margin) > 2.0 * _tolerance(ref_logits)
    wrong = int(((np.asarray(mask) != 0) != (margin > 0))[decided].sum())
    return [f"{what}: {wrong} mask pixels disagree with the reference argmax"] \
        if wrong else []


# ---------------------------------------------------------------------------
# geometry: distance maps, masks, report rows

_CROSS = ndimage.generate_binary_structure(2, 1)


def boundary(mask: np.ndarray) -> np.ndarray:
    """Foreground pixels with a background 4-neighbour; outside the frame
    counts as background."""
    m = np.asarray(mask) != 0
    return m & ~ndimage.binary_erosion(m, _CROSS, border_value=0)


def check_dmap(what: str, dmap, gt_mask) -> list[str]:
    """exp(-D), D the exact distance to the mask boundary, to within the
    rounding of one float32 cast; exactly 1.0 on the boundary."""
    edge = boundary(gt_mask)
    want = np.exp(-ndimage.distance_transform_edt(~edge))
    got = np.asarray(dmap, np.float64)
    problems = []
    if not np.all(got[edge] == 1.0):
        problems.append(f"{what}: distance map is not 1.0 on every boundary pixel")
    err = np.abs(got - want)
    if not np.all(err <= np.spacing(np.float32(want)).astype(np.float64) + 1e-44):
        problems.append(f"{what}: distance map differs from exp(-EDT) by "
                        f"up to {float(err.max()):.3g}")
    return problems


def dice(a, b) -> float:
    a, b = np.asarray(a) != 0, np.asarray(b) != 0
    total = int(a.sum()) + int(b.sum())
    return 1.0 if total == 0 else 2.0 * int((a & b).sum()) / total


def boundary_distance(a, b) -> float:
    """Symmetric mean distance between the two mask boundaries."""
    ea, eb = boundary(a), boundary(b)
    to_b = ndimage.distance_transform_edt(~eb)
    to_a = ndimage.distance_transform_edt(~ea)
    return 0.5 * (float(to_b[ea].mean()) + float(to_a[eb].mean()))


def check_brn(what: str, mask, gt_mask) -> list[str]:
    d = dice(mask, gt_mask)
    return [] if d >= BRN_DICE_FLOOR else \
        [f"{what}: BRN mask Dice {d:.4f} < {BRN_DICE_FLOOR}"]


def read_report_rows(path) -> dict[str, tuple[float, float]]:
    """{id: (dice, boundary distance)} from an evaluation report."""
    rows = {}
    for line in Path(path).read_text().splitlines():
        if line and not line.startswith("#"):
            sid, d, m, _ = line.split("\t")
            rows[sid] = (float(d), float(m))
    return rows


def check_report_row(what: str, row_dice: float, row_distance: float,
                     pred_mask, gt_mask) -> list[str]:
    problems = []
    d = dice(pred_mask, gt_mask)
    if not math.isclose(row_dice, d, rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"{what}: report Dice {row_dice!r} != {d!r}")
    m = boundary_distance(pred_mask, gt_mask)
    if not math.isclose(row_distance, m, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"{what}: report boundary distance {row_distance!r} != {m!r}")
    return problems


# ---------------------------------------------------------------------------
# training: epoch records and the directional derivative

def check_epoch_records(what: str, records) -> list[str]:
    bad = [r.epoch for r in records
           if not all(v is None or math.isfinite(v)
                      for v in (r.lam, r.l2, r.ce, r.val_dice))]
    return [f"{what}: non-finite values in epoch records {bad}"] if bad else []


def random_direction(params, seed: int) -> list[np.ndarray]:
    """A unit vector over all parameters, seeded."""
    rng = np.random.default_rng(seed)
    v = [rng.standard_normal(p.data.shape) for p in params]
    norm = math.sqrt(sum(float((a * a).sum()) for a in v))
    return [a / norm for a in v]


def directional_derivative(loss, params, direction, eps: float) -> float:
    """Central difference of loss() along direction; restores params."""
    base = [p.data for p in params]
    values = []
    for sign in (1.0, -1.0):
        for p, p0, v in zip(params, base, direction):
            p.data = p0 + sign * eps * v
        values.append(loss())
    for p, p0 in zip(params, base):
        p.data = p0
    return (values[0] - values[1]) / (2.0 * eps)


def check_gradient(what: str, derivative: float, grads, direction) -> list[str]:
    """`direction` is a unit vector over all n gradient entries."""
    dot = sum(float((g * v).sum()) for g, v in zip(grads, direction))
    norm = math.sqrt(sum(float((g * g).sum()) for g in grads))
    typical = norm / math.sqrt(sum(g.size for g in grads))
    scale = max(abs(dot), abs(derivative), typical)
    if scale == 0.0 or abs(dot - derivative) > GRADIENT_RTOL * scale:
        return [f"{what}: gradient along a random direction {dot:.10g} != "
                f"central difference {derivative:.10g}"]
    return []
