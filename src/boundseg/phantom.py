"""Synthetic ultrasound-like phantoms: bean-shaped masks and layered
speckled images, plus elastic-deformation augmentation and dataset
assembly on disk.

A sample is deterministic in its seed: geometry is drawn from one
seeded stream, the speckle pattern from the sample seed itself, so
regenerating any index in isolation reproduces the dataset file
bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.ndimage import gaussian_filter, map_coordinates

from .config import _check_type
from .distmap import boundary_pixels, euclidean_dt, mask_to_distance_map
from .errors import EmptyMask, InvalidParams, IoFailure, ShapeMismatch
from .imgio import read_table, write_fmap, write_pgm, write_table

# intensity levels of the piecewise phantom (before ramp/blur/speckle)
TISSUE_LEVEL = 0.42
CORTEX_LEVEL = 0.78
MEDULLA_LEVEL = 0.50
SINUS_LEVEL = 0.20
CORTEX_RIM_PX = 2.5     # interior band counted as cortex
SINUS_SCALE = 0.45      # sinus half-axes relative to the kidney's

MIN_AREA_FRACTION = 0.05
MAX_AREA_FRACTION = 0.60

MAX_DISPLACEMENT = 8.0  # hard cap on deformation magnitude, px
MIN_FIELD_SIGMA = 4.0   # smoothness floor for deformation fields

MAX_DRAW_ATTEMPTS = 32


def check_seed(seed: int) -> None:
    """Seeds are integers >= 0, the values NumPy's generators accept."""
    if seed < 0:
        raise InvalidParams(f"seed must be >= 0, got {seed}")


@dataclass(frozen=True)
class PhantomParams:
    """Geometry and appearance of one phantom sample."""

    frame: tuple[int, int] = (64, 64)
    half_axes: tuple[float, float] = (14.0, 9.0)
    angle: float = 0.0
    center: tuple[float, float] | None = None  # defaults to frame middle
    notch: float = 0.3
    blur_sigma: float = 0.8
    speckle: float = 0.15
    gain: tuple[float, float] = (0.0, 0.0)
    seed: int = 0

    def __post_init__(self):
        h, w = self.frame
        if h < 16 or w < 16:
            raise InvalidParams(f"frame {h}x{w} too small (need >= 16)")
        a, b = self.half_axes
        if a < 6.0 or b < 6.0:
            raise InvalidParams(f"half-axes {a}, {b} must be >= 6 px")
        if not 0.0 <= self.notch <= 0.6:
            raise InvalidParams(f"notch {self.notch} outside [0, 0.6]")
        if not 0.0 <= self.speckle <= 1.0:
            raise InvalidParams(f"speckle {self.speckle} outside [0, 1]")
        if not 0.0 <= self.blur_sigma <= max(h, w):
            raise InvalidParams(f"blur sigma {self.blur_sigma} outside [0, {max(h, w)}]")
        if self.center is not None:
            cy, cx = self.center
            if not (0 <= cy < h and 0 <= cx < w):
                raise InvalidParams(f"center {self.center} outside frame {h}x{w}")
        check_seed(self.seed)


def _render_bean(frame: tuple[int, int], center: tuple[float, float],
                 half_axes: tuple[float, float], angle: float,
                 notch: float) -> np.ndarray:
    """Rotated ellipse with a cosine-modulated radial notch."""
    h, w = frame
    cy, cx = center
    a, b = half_axes
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    cos_t, sin_t = math.cos(angle), math.sin(angle)
    u = (yy - cy) * cos_t + (xx - cx) * sin_t
    v = -(yy - cy) * sin_t + (xx - cx) * cos_t
    ru = u / a
    rv = v / b
    r = np.hypot(ru, rv)
    theta = np.arctan2(rv, ru)
    radius = 1.0 - notch * ((1.0 + np.cos(theta)) / 2.0) ** 2
    return (r <= radius).astype(np.uint8)


def _bean_mask(params: PhantomParams) -> np.ndarray:
    h, w = params.frame
    center = params.center if params.center is not None else ((h - 1) / 2.0, (w - 1) / 2.0)
    return _render_bean(params.frame, center, params.half_axes,
                        params.angle, params.notch)


def _check_area(mask: np.ndarray) -> None:
    frac = float(mask.sum()) / mask.size
    if not MIN_AREA_FRACTION <= frac <= MAX_AREA_FRACTION:
        raise InvalidParams(
            f"mask covers {frac:.3f} of the frame, outside "
            f"[{MIN_AREA_FRACTION}, {MAX_AREA_FRACTION}]")


def gen_sample(params: PhantomParams) -> tuple[np.ndarray, np.ndarray]:
    """Render one (image, mask) pair, deterministic in params.seed."""
    h, w = params.frame
    mask = _bean_mask(params)
    _check_area(mask)

    inside = mask.astype(bool)
    d_in = euclidean_dt(boundary_pixels(mask), (h, w))
    cortex = inside & (d_in <= CORTEX_RIM_PX)

    center = params.center if params.center is not None else ((h - 1) / 2.0, (w - 1) / 2.0)
    sinus_axes = (params.half_axes[0] * SINUS_SCALE, params.half_axes[1] * SINUS_SCALE)
    sinus = _render_bean(params.frame, center, sinus_axes,
                         params.angle, 0.0).astype(bool) & inside

    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    gy, gx = params.gain
    img = TISSUE_LEVEL + gy * (yy / h - 0.5) + gx * (xx / w - 0.5)
    img[inside] = MEDULLA_LEVEL
    img[sinus] = SINUS_LEVEL
    img[cortex] = CORTEX_LEVEL

    if params.blur_sigma > 0.0:
        img = gaussian_filter(img, params.blur_sigma)
    if params.speckle > 0.0:
        rng = np.random.default_rng(params.seed)
        img = img * (1.0 + params.speckle * rng.standard_normal((h, w)))
    img = np.clip(img, 0.0, 1.0).astype(np.float32)
    return img, mask


@dataclass
class DeformationField:
    """Smooth per-pixel displacements (dy, dx), both (h, w) grids."""

    dy: np.ndarray
    dx: np.ndarray

    def __post_init__(self):
        if self.dy.shape != self.dx.shape:
            raise ShapeMismatch(f"field grids differ: {self.dy.shape} vs {self.dx.shape}")
        mag = float(np.hypot(self.dy, self.dx).max())
        if mag > MAX_DISPLACEMENT + 1e-9:
            raise InvalidParams(
                f"field magnitude {mag:.2f} exceeds cap {MAX_DISPLACEMENT}")


def random_field(shape: tuple[int, int], rng: np.random.Generator,
                 amplitude: float = 5.0, sigma: float = 6.0) -> DeformationField:
    """Gaussian-smoothed random displacements, scaled to a peak magnitude."""
    if amplitude > MAX_DISPLACEMENT:
        raise InvalidParams(f"amplitude {amplitude} exceeds cap {MAX_DISPLACEMENT}")
    if sigma < MIN_FIELD_SIGMA:
        raise InvalidParams(f"sigma {sigma} below smoothness floor {MIN_FIELD_SIGMA}")
    dy = gaussian_filter(rng.standard_normal(shape), sigma)
    dx = gaussian_filter(rng.standard_normal(shape), sigma)
    peak = float(np.hypot(dy, dx).max())
    if peak > 0:
        dy = dy * (amplitude / peak)
        dx = dx * (amplitude / peak)
    return DeformationField(dy=dy, dx=dx)


def elastic_augment(img: np.ndarray, mask: np.ndarray,
                    field: DeformationField) -> tuple[np.ndarray, np.ndarray]:
    """Warp image (bilinear) and mask (nearest) under one shared field."""
    if img.shape != mask.shape or img.shape != field.dy.shape:
        raise ShapeMismatch(
            f"image {img.shape}, mask {mask.shape}, field {field.dy.shape} must agree")
    h, w = img.shape
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    coords = np.stack([yy + field.dy, xx + field.dx])
    img2 = map_coordinates(img.astype(np.float64), coords, order=1, mode="nearest")
    mask2 = map_coordinates(mask, coords, order=0, mode="nearest")
    return img2.astype(np.float32), mask2.astype(np.uint8)


# ---------------------------------------------------------------------------
# dataset assembly

class SampleRecord(NamedTuple):
    id: str
    image: Path
    mask: Path
    dmap: Path
    split: str


# parameter ranges drawn per sample; half-axes are fractions of min(h, w)
DEFAULT_RANGES = {
    "half_axis_a": (0.20, 0.30),
    "half_axis_b": (0.13, 0.22),
    "angle": (0.0, math.pi),
    "center_jitter": (-0.06, 0.06),   # fraction of the frame
    "notch": (0.0, 0.5),
    "blur_sigma": (0.5, 1.2),
    "speckle": (0.05, 0.25),
    "gain": (-0.12, 0.12),
}


def _merged_ranges(ranges: dict | None) -> dict:
    """DEFAULT_RANGES updated from `ranges`.  An unknown key, or a range a
    uniform draw cannot take (LO > HI, or HI - LO not finite), is InvalidParams."""
    for key, (lo, hi) in (ranges or {}).items():
        if key not in DEFAULT_RANGES:
            raise InvalidParams(f"unknown range {key!r} (choices: {', '.join(DEFAULT_RANGES)})")
        if not (lo <= hi and math.isfinite(hi - lo)):
            raise InvalidParams(f"range {key}: need LO <= HI with HI - LO finite, got {lo},{hi}")
    return {**DEFAULT_RANGES, **(ranges or {})}


def _draw_params(frame: tuple[int, int], sample_seed: int,
                 draw_rng: np.random.Generator, ranges: dict) -> PhantomParams:
    h, w = frame
    s = min(h, w)

    def u(key):
        lo, hi = ranges[key]
        return float(draw_rng.uniform(lo, hi))

    return PhantomParams(
        frame=frame,
        half_axes=(u("half_axis_a") * s, u("half_axis_b") * s),
        angle=u("angle"),
        center=((h - 1) / 2.0 + u("center_jitter") * h,
                (w - 1) / 2.0 + u("center_jitter") * w),
        notch=u("notch"),
        blur_sigma=u("blur_sigma"),
        speckle=u("speckle"),
        gain=(u("gain"), u("gain")),
        seed=sample_seed,
    )


def generate_sample(frame: tuple[int, int], seed: int, index: int,
                    ranges: dict | None = None):
    """Draw-and-render sample `index` of the stream rooted at `seed`.

    Retries invalid geometry within the sample's own stream, so the result
    depends only on (frame, seed, index).  `ranges` overrides some of
    DEFAULT_RANGES; see `_merged_ranges` for what it rejects.
    """
    check_seed(seed)
    if index < 0:
        raise InvalidParams(f"sample index must be >= 0, got {index}")
    merged = _merged_ranges(ranges)
    draw_rng = np.random.default_rng((seed, index))
    last_err = None
    for _ in range(MAX_DRAW_ATTEMPTS):
        params = _draw_params(frame, seed + index, draw_rng, merged)
        try:
            img, mask = gen_sample(params)
            return img, mask, params
        except InvalidParams as e:
            last_err = e
    raise InvalidParams(f"no valid sample after {MAX_DRAW_ATTEMPTS} draws: {last_err}")


def _augmented(img, mask, seed: int, index: int, k: int):
    """k-th elastic variant of a sample; retries fields that break the
    area bounds."""
    for attempt in range(MAX_DRAW_ATTEMPTS):
        rng = np.random.default_rng((seed, index, k + 1, attempt))
        amplitude = float(rng.uniform(2.0, MAX_DISPLACEMENT))
        sigma = float(rng.uniform(MIN_FIELD_SIGMA, 8.0))
        field = random_field(img.shape, rng, amplitude=amplitude, sigma=sigma)
        img2, mask2 = elastic_augment(img, mask, field)
        try:
            _check_area(mask2)
            boundary_pixels(mask2)
        except (InvalidParams, EmptyMask):
            continue
        return img2, mask2
    raise InvalidParams(f"no valid augmentation for sample {index} variant {k}")


def make_dataset(out_dir, n_train: int, n_test: int, seed: int,
                 frame: tuple[int, int] = (64, 64), augment: int = 0,
                 ranges: dict | None = None) -> Path:
    """Write images, masks, and ground-truth distance maps plus a manifest.

    Per-sample seeds are seed + index, so any sample can be regenerated
    in isolation; identical seeds give byte-identical trees.  The
    counts, the seed and the ranges are checked before any directory is made.
    """
    _check_type("n_train, n_test and augment", int, n_train, n_test, augment)
    if n_train < 1 or n_test < 1:
        raise InvalidParams("need at least one sample per split")
    if augment < 0:
        raise InvalidParams(f"augment must be >= 0, got {augment}")
    check_seed(seed)
    ranges = _merged_ranges(ranges)
    out = Path(out_dir)
    try:
        for sub in ("images", "masks", "dmaps"):
            (out / sub).mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise IoFailure(f"cannot create dataset directories under {out}: {e}") from e

    def emit(sid: str, img: np.ndarray, mask: np.ndarray, split: str) -> tuple:
        rel = f"images/{sid}.pgm", f"masks/{sid}.pgm", f"dmaps/{sid}.fmap"
        write_pgm(out / rel[0], img)
        write_pgm(out / rel[1], mask)
        write_fmap(out / rel[2], mask_to_distance_map(mask))
        return sid, *rel, split

    def rows():  # each sample's files are written as its row is drawn
        for split, count, base in (("train", n_train, 0), ("test", n_test, n_train)):
            for i in range(count):
                index = base + i
                img, mask, _ = generate_sample(frame, seed, index, ranges)
                sid = f"{split}_{i:04d}"
                yield emit(sid, img, mask, split)
                for k in range(augment if split == "train" else 0):
                    yield emit(f"{sid}_aug{k}", *_augmented(img, mask, seed, index, k), split)

    manifest = out / "manifest.tsv"
    write_table(manifest, "manifest", [SampleRecord._fields], rows())
    return manifest


def read_manifest(path) -> list[SampleRecord]:
    """Parse a manifest; relative paths are resolved against its directory."""
    base = Path(path).parent
    rows, _ = read_table(path, "manifest", (str, *[base.joinpath] * 3, str))
    return [SampleRecord._make(row) for row in rows]
