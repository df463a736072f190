"""Phantom generation, elastic augmentation, and dataset assembly."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boundseg import distmap, phantom
from boundseg.errors import InvalidParams, ShapeMismatch
from boundseg.imgio import read_fmap, read_pgm_image, read_pgm_mask
from boundseg.metrics import dice
from boundseg.phantom import (
    CORTEX_LEVEL,
    MAX_AREA_FRACTION,
    MEDULLA_LEVEL,
    MIN_AREA_FRACTION,
    SINUS_LEVEL,
    TISSUE_LEVEL,
    DeformationField,
    PhantomParams,
    elastic_augment,
    gen_sample,
    generate_sample,
    make_dataset,
    random_field,
    read_manifest,
)


# ---------------------------------------------------------------------------
# parameter validation

def test_params_reject_small_axes():
    with pytest.raises(InvalidParams):
        PhantomParams(half_axes=(5.9, 9.0))
    with pytest.raises(InvalidParams):
        PhantomParams(half_axes=(14.0, 3.0))


def test_params_reject_bad_ranges():
    with pytest.raises(InvalidParams):
        PhantomParams(notch=0.7)
    with pytest.raises(InvalidParams):
        PhantomParams(notch=-0.1)
    with pytest.raises(InvalidParams):
        PhantomParams(speckle=1.5)
    with pytest.raises(InvalidParams):
        PhantomParams(blur_sigma=-1.0)
    with pytest.raises(InvalidParams):
        PhantomParams(center=(100.0, 10.0))
    with pytest.raises(InvalidParams):
        PhantomParams(frame=(8, 64))


@pytest.mark.parametrize("sigma", [math.nan, math.inf, 64.5, 1e300])
def test_params_reject_a_blur_sigma_beyond_the_frame(sigma):
    with pytest.raises(InvalidParams, match="blur sigma .* outside \\[0, 64\\]"):
        PhantomParams(frame=(48, 64), blur_sigma=sigma)
    PhantomParams(frame=(48, 64), blur_sigma=64.0)


def test_negative_seed_is_invalid_params(tmp_path):
    with pytest.raises(InvalidParams):
        PhantomParams(seed=-1)
    with pytest.raises(InvalidParams):
        generate_sample((64, 64), -1, 0)
    with pytest.raises(InvalidParams):
        make_dataset(tmp_path / "d", 1, 1, seed=-1)
    assert not (tmp_path / "d").exists()


def test_area_bounds_enforced():
    # Tiny kidney in a big frame: under 5 % coverage.
    with pytest.raises(InvalidParams):
        gen_sample(PhantomParams(frame=(200, 200), half_axes=(6.0, 6.0)))
    # Huge kidney: over 60 % coverage.
    with pytest.raises(InvalidParams):
        gen_sample(PhantomParams(frame=(64, 64), half_axes=(31.0, 31.0),
                                 notch=0.0))


# ---------------------------------------------------------------------------
# rendering

def test_same_seed_bit_identical():
    p = PhantomParams(seed=1234, angle=0.7, notch=0.4)
    img1, mask1 = gen_sample(p)
    img2, mask2 = gen_sample(p)
    assert img1.tobytes() == img2.tobytes()
    assert np.array_equal(mask1, mask2)


def test_different_seed_changes_speckle_only():
    p1 = PhantomParams(seed=1, speckle=0.2)
    p2 = PhantomParams(seed=2, speckle=0.2)
    img1, mask1 = gen_sample(p1)
    img2, mask2 = gen_sample(p2)
    assert np.array_equal(mask1, mask2)  # geometry is seed-independent
    assert img1.tobytes() != img2.tobytes()


def test_noise_free_render_is_piecewise_constant():
    img, mask = gen_sample(PhantomParams(speckle=0.0, blur_sigma=0.0,
                                         gain=(0.0, 0.0), notch=0.3))
    levels = np.unique(img)
    expected = {np.float32(TISSUE_LEVEL), np.float32(CORTEX_LEVEL),
                np.float32(MEDULLA_LEVEL), np.float32(SINUS_LEVEL)}
    assert set(levels.tolist()) <= {float(v) for v in expected}
    # Per-region intensity variance is (numerically) zero.
    for lv in levels:
        region = img[img == lv]
        assert float(region.var()) < 1e-4


def test_image_range_and_finiteness():
    for seed in range(10):
        img, mask = gen_sample(PhantomParams(seed=seed, speckle=0.25,
                                             blur_sigma=1.2, gain=(0.1, -0.1)))
        assert np.isfinite(img).all()
        assert img.min() >= 0.0 and img.max() <= 1.0
        assert img.dtype == np.float32
        assert mask.dtype == np.uint8
        assert set(np.unique(mask)) <= {0, 1}


def test_notch_dents_the_ellipse():
    plain = gen_sample(PhantomParams(notch=0.0))[1]
    dented = gen_sample(PhantomParams(notch=0.5))[1]
    assert dented.sum() < plain.sum()
    assert not (dented & ~plain).any()  # dent only removes pixels


def test_gain_tilts_background():
    img, mask = gen_sample(PhantomParams(speckle=0.0, blur_sigma=0.0,
                                         gain=(0.0, 0.2)))
    bg = ~mask.astype(bool)
    left = img[:, :8][bg[:, :8]].mean()
    right = img[:, -8:][bg[:, -8:]].mean()
    assert right > left + 0.05


def test_mask_area_bounds_hold_over_500_samples():
    lo, hi = 1.0, 0.0
    for i in range(500):
        _, mask, _ = generate_sample((64, 64), seed=99, index=i)
        frac = mask.sum() / mask.size
        lo, hi = min(lo, frac), max(hi, frac)
    assert lo >= MIN_AREA_FRACTION
    assert hi <= MAX_AREA_FRACTION


def test_generate_sample_deterministic_in_index():
    a_img, a_mask, a_params = generate_sample((64, 64), seed=5, index=3)
    b_img, b_mask, b_params = generate_sample((64, 64), seed=5, index=3)
    assert a_img.tobytes() == b_img.tobytes()
    assert np.array_equal(a_mask, b_mask)
    assert a_params == b_params


def oracle_render_bean(frame, center, half_axes, angle, notch):
    """The whole-frame renderer that the bounding-box one replaced."""
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


@st.composite
def beans(draw):
    """Frames of 16 to 400 px a side, square or not; centres anywhere in
    the frame or within a few pixels of an edge, on either side of it;
    half-axes from 1 px to past the frame; any angle; notch 0 or not."""
    h, w = draw(st.integers(16, 400)), draw(st.integers(16, 400))

    def coord(n):
        return draw(st.floats(-4.0, 4.0) | st.floats(n - 5.0, n + 3.0) | st.floats(0.0, n))

    axis = st.floats(1.0, 30.0) | st.floats(1.0, 1.5 * max(h, w))
    angle = st.floats(-20.0, 20.0) | st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 4])
    return ((h, w), (coord(h), coord(w)), (draw(axis), draw(axis)), draw(angle),
            draw(st.just(0.0) | st.floats(0.0, 0.6)))


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(beans())
@example(((321, 321), (160.0, 160.0), (80.0, 50.0), 0.4, 0.3))
@example(((16, 200), (15.9, 0.1), (6.0, 90.0), 1.0, 0.0))
@example(((100, 57), (-3.0, 60.0), (200.0, 7.0), -2.5, 0.6))
def test_render_bean_matches_the_whole_frame_oracle(bean):
    got = phantom._render_bean(*bean)
    assert got.dtype == np.uint8 and got.shape == bean[0]
    assert got.tobytes() == oracle_render_bean(*bean).tobytes()


def test_make_dataset_computes_one_transform_per_sample(tmp_path, monkeypatch):
    """One exact transform per drawn sample gives both its cortex rim and
    its written map, and one more per augmented variant gives its map."""
    calls, transform = [], distmap.euclidean_dt

    def counted(sites, shape):
        calls.append(shape)
        return transform(sites, shape)

    monkeypatch.setattr(phantom, "euclidean_dt", counted)
    monkeypatch.setattr(distmap, "euclidean_dt", counted)
    manifest = make_dataset(tmp_path / "ds", n_train=3, n_test=2, seed=7, augment=2)
    assert len(calls) == 3 + 2 + 3 * 2
    monkeypatch.undo()
    for r in read_manifest(manifest):
        assert read_fmap(r.dmap).tobytes() == \
            distmap.mask_to_distance_map(read_pgm_mask(r.mask)).tobytes(), r.id


# ---------------------------------------------------------------------------
# deformation fields and elastic augmentation

def test_zero_field_is_identity():
    img, mask = gen_sample(PhantomParams(seed=3))
    z = np.zeros(img.shape)
    img2, mask2 = elastic_augment(img, mask, DeformationField(z, z))
    assert np.allclose(img2, img, atol=1e-7)
    assert np.array_equal(mask2, mask)


def test_integer_shift_field_translates():
    img, mask = gen_sample(PhantomParams(seed=4))
    h, w = img.shape
    dy, dx = 3, -2
    field = DeformationField(np.full((h, w), float(dy)),
                             np.full((h, w), float(dx)))
    _, mask2 = elastic_augment(img, mask, field)
    # Output at (y, x) samples input at (y + dy, x + dx).
    want = np.zeros_like(mask)
    want[: h - dy, -dx:] = mask[dy:, :dx]
    assert np.array_equal(mask2[: h - dy, -dx:], want[: h - dy, -dx:])


def test_field_cap_and_smoothness_enforced():
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidParams):
        random_field((64, 64), rng, amplitude=9.0)
    with pytest.raises(InvalidParams):
        random_field((64, 64), rng, amplitude=5.0, sigma=2.0)
    big = np.full((8, 8), 7.0)
    with pytest.raises(InvalidParams):
        DeformationField(big, big)  # magnitude ~9.9 > 8


def test_random_field_respects_amplitude():
    rng = np.random.default_rng(7)
    f = random_field((64, 64), rng, amplitude=6.0, sigma=5.0)
    mag = np.hypot(f.dy, f.dx)
    assert mag.max() == pytest.approx(6.0, rel=1e-9)


def test_elastic_shape_mismatch():
    img, mask = gen_sample(PhantomParams(seed=5))
    z = np.zeros((32, 32))
    with pytest.raises(ShapeMismatch):
        elastic_augment(img, mask, DeformationField(z, z))


def test_random_capped_fields_keep_mask_recognizable():
    img, mask = gen_sample(PhantomParams(seed=6))
    rng = np.random.default_rng(2024)
    worst = 1.0
    for _ in range(100):
        amplitude = float(rng.uniform(1.0, 8.0))
        sigma = float(rng.uniform(4.0, 8.0))
        field = random_field(img.shape, rng, amplitude=amplitude, sigma=sigma)
        img2, mask2 = elastic_augment(img, mask, field)
        d = dice(mask, mask2)
        worst = min(worst, d)
        assert 0.6 <= d <= 1.0
        assert np.isfinite(img2).all()
        frac = mask2.sum() / mask2.size
        assert MIN_AREA_FRACTION <= frac <= MAX_AREA_FRACTION
    assert worst < 1.0  # the fields actually moved something


def test_augmentation_deterministic_in_rng():
    img, mask = gen_sample(PhantomParams(seed=8))
    f1 = random_field(img.shape, np.random.default_rng(11), 5.0, 5.0)
    f2 = random_field(img.shape, np.random.default_rng(11), 5.0, 5.0)
    a1 = elastic_augment(img, mask, f1)
    a2 = elastic_augment(img, mask, f2)
    assert a1[0].tobytes() == a2[0].tobytes()
    assert np.array_equal(a1[1], a2[1])


# ---------------------------------------------------------------------------
# dataset assembly

def test_make_dataset_layout_and_manifest(tmp_path):
    manifest = make_dataset(tmp_path / "ds", n_train=3, n_test=2, seed=42)
    records = read_manifest(manifest)
    assert len(records) == 5
    assert [r.split for r in records] == ["train"] * 3 + ["test"] * 2
    assert [r.id for r in records] == [
        "train_0000", "train_0001", "train_0002", "test_0000", "test_0001"]
    for r in records:
        assert r.image.exists() and r.mask.exists() and r.dmap.exists()
        img = read_pgm_image(r.image)
        mask = read_pgm_mask(r.mask)
        dmap = read_fmap(r.dmap)
        assert img.shape == mask.shape == dmap.shape == (64, 64)
        assert 0.0 < dmap.max() <= 1.0


def test_dataset_dmap_matches_mask(tmp_path):
    from boundseg.distmap import mask_to_distance_map
    manifest = make_dataset(tmp_path / "ds", n_train=1, n_test=1, seed=9)
    for r in read_manifest(manifest):
        mask = read_pgm_mask(r.mask)
        dmap = read_fmap(r.dmap)
        assert dmap.tobytes() == mask_to_distance_map(mask).tobytes()


def test_make_dataset_byte_deterministic(tmp_path):
    m1 = make_dataset(tmp_path / "a", n_train=3, n_test=2, seed=7, augment=1)
    m2 = make_dataset(tmp_path / "b", n_train=3, n_test=2, seed=7, augment=1)
    files1 = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel
    assert m1.read_bytes() == m2.read_bytes()


def test_make_dataset_seed_changes_content(tmp_path):
    make_dataset(tmp_path / "a", n_train=2, n_test=1, seed=1)
    make_dataset(tmp_path / "b", n_train=2, n_test=1, seed=2)
    a = (tmp_path / "a/images/train_0000.pgm").read_bytes()
    b = (tmp_path / "b/images/train_0000.pgm").read_bytes()
    assert a != b


def test_sample_regenerated_in_isolation_matches_dataset(tmp_path):
    # A sample depends only on (frame, seed, index), so regenerating one
    # index standalone must reproduce the dataset file byte-for-byte.
    from boundseg.imgio import write_pgm
    make_dataset(tmp_path / "ds", n_train=3, n_test=2, seed=31)
    img, mask, _ = generate_sample((64, 64), seed=31, index=4)  # test_0001
    write_pgm(tmp_path / "solo.pgm", img)
    assert (tmp_path / "solo.pgm").read_bytes() == \
        (tmp_path / "ds/images/test_0001.pgm").read_bytes()


def test_make_dataset_augmented_variants(tmp_path):
    manifest = make_dataset(tmp_path / "ds", n_train=2, n_test=1, seed=13,
                            augment=2)
    records = read_manifest(manifest)
    ids = [r.id for r in records]
    assert ids == ["train_0000", "train_0000_aug0", "train_0000_aug1",
                   "train_0001", "train_0001_aug0", "train_0001_aug1",
                   "test_0000"]
    base = read_pgm_mask(tmp_path / "ds/masks/train_0000.pgm")
    for k in range(2):
        aug = read_pgm_mask(tmp_path / f"ds/masks/train_0000_aug{k}.pgm")
        d = dice(base, aug)
        assert 0.6 <= d <= 1.0
        frac = aug.sum() / aug.size
        assert MIN_AREA_FRACTION <= frac <= MAX_AREA_FRACTION


@pytest.mark.parametrize("name", ["elastic_augment", "_check_area"])
def test_augmentation_does_not_retry_other_failures(monkeypatch, name):
    img, mask = gen_sample(PhantomParams(seed=3))
    calls = []

    def broken(*args):
        calls.append(None)
        raise RuntimeError("not a bad draw")

    monkeypatch.setattr(phantom, name, broken)
    with pytest.raises(RuntimeError, match="not a bad draw"):
        phantom._augmented(img, mask, 0, 0, 0)
    assert len(calls) == 1


@pytest.mark.parametrize("error", [InvalidParams])
def test_augmentation_retries_a_draw_that_breaks_the_bounds(monkeypatch, error):
    img, mask = gen_sample(PhantomParams(seed=3))
    calls = []

    def fails_once(m):
        calls.append(None)
        if len(calls) == 1:
            raise error("bad draw")

    monkeypatch.setattr(phantom, "_check_area", fails_once)
    img2, mask2 = phantom._augmented(img, mask, 0, 0, 0)
    assert len(calls) == 2 and img2.shape == mask2.shape == img.shape


def test_make_dataset_rejects_empty_split(tmp_path):
    with pytest.raises(InvalidParams):
        make_dataset(tmp_path / "ds", n_train=0, n_test=1, seed=0)


def test_make_dataset_rejects_negative_augment(tmp_path):
    with pytest.raises(InvalidParams, match="augment must be >= 0, got -2"):
        make_dataset(tmp_path / "ds", n_train=1, n_test=1, seed=0, augment=-2)
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("ranges, message", [
    ({"bogus": (0.0, 1.0)}, "unknown range 'bogus'"),
    ({"notch": (0.5, 0.1)}, "range notch: need LO <= HI"),
    ({"notch": (0.0, math.inf)}, "range notch: need LO <= HI with HI - LO finite"),
    ({"angle": (-math.inf, 0.0)}, "range angle"),
    ({"gain": (math.nan, 0.0)}, "range gain"),
    ({"angle": (-1e308, 1e308)}, "range angle"),
])
def test_generate_sample_rejects_bad_ranges(tmp_path, ranges, message):
    with pytest.raises(InvalidParams, match=re.escape(message)):
        generate_sample((64, 64), 0, 0, ranges)
    with pytest.raises(InvalidParams, match=re.escape(message)):
        make_dataset(tmp_path / "ds", n_train=1, n_test=1, seed=0, ranges=ranges)
    assert not (tmp_path / "ds").exists()


def test_generate_sample_takes_a_partial_range_override():
    assert generate_sample((64, 64), 0, 0, {"notch": (0.0, 0.0)})[2].notch == 0.0
    assert generate_sample((64, 64), 0, 0, {})[2] == generate_sample((64, 64), 0, 0)[2]


@pytest.mark.parametrize("counts", [{"augment": 1.5}, {"n_train": 1.0}, {"n_test": True},
                                    {"augment": "1"}])
def test_make_dataset_checks_count_types_before_touching_the_disk(tmp_path, counts):
    args = {"n_train": 1, "n_test": 1, "augment": 0} | counts
    with pytest.raises(InvalidParams, match="n_train, n_test and augment must be int"):
        make_dataset(tmp_path / "ds", seed=0, **args)
    assert not (tmp_path / "ds").exists()


def test_negative_index_is_invalid_params():
    with pytest.raises(InvalidParams, match="sample index"):
        generate_sample((64, 64), 0, -1)


def test_read_manifest_rejects_malformed(tmp_path):
    from boundseg.errors import IoFailure
    bad = tmp_path / "manifest.tsv"
    bad.write_text("only\tthree\tfields\n")
    with pytest.raises(IoFailure):
        read_manifest(bad)
