"""Metrics against hand counts, brute-force oracles, and scipy cross-checks."""

import itertools

import numpy as np
import pytest
import scipy.stats

from boundseg.distmap import boundary_pixels
from boundseg.errors import (
    EmptyMask,
    IoFailure,
    ManifestMismatch,
    ShapeMismatch,
    TooFewSamples,
)
from boundseg.imgio import write_pgm
from boundseg.metrics import (
    EvalReport,
    SampleMetrics,
    _approx_p,
    _average_ranks,
    _exact_p,
    dice,
    evaluate,
    mean_boundary_distance,
    pixel_accuracy,
    read_report,
    wilcoxon_signed_rank,
    write_report,
)


def brute_force_mbd(a, b):
    """Symmetric mean boundary distance by all-pairs nearest neighbor."""
    pa = boundary_pixels(a).astype(float)
    pb = boundary_pixels(b).astype(float)
    d = np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2))
    return 0.5 * (d.min(axis=1).mean() + d.min(axis=0).mean())


def random_mask(rng, shape=(32, 32), density=0.3):
    while True:
        m = (rng.random(shape) < density).astype(np.uint8)
        if m.any():
            return m


# ---------------------------------------------------------------------------
# dice

def test_dice_identical_and_disjoint():
    a = np.zeros((6, 6), np.uint8)
    a[1:4, 1:4] = 1
    assert dice(a, a) == 1.0
    b = np.zeros((6, 6), np.uint8)
    b[4:6, 4:6] = 1
    assert dice(a, b) == 0.0


def test_dice_shifted_block_by_hand():
    # 2x2 block against the same block shifted one column: overlap 2.
    a = np.zeros((4, 4), np.uint8)
    a[1:3, 1:3] = 1
    b = np.zeros((4, 4), np.uint8)
    b[1:3, 2:4] = 1
    assert dice(a, b) == 2 * 2 / (4 + 4)


def test_dice_empty_conventions():
    z = np.zeros((5, 5), np.uint8)
    nz = z.copy()
    nz[2, 2] = 1
    assert dice(z, z) == 1.0
    assert dice(z, nz) == 0.0
    assert dice(nz, z) == 0.0


def test_dice_symmetry_and_range():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = random_mask(rng), random_mask(rng)
        d = dice(a, b)
        assert d == dice(b, a)
        assert 0.0 <= d <= 1.0


def test_dice_equality_iff_equal_masks():
    rng = np.random.default_rng(1)
    a = random_mask(rng)
    assert dice(a, a) == 1.0
    b = a.copy()
    y, x = np.argwhere(a)[0]
    b[y, x] = 0
    if not b.any():
        b[0, 0] = 1
    assert dice(a, b) < 1.0


def test_dice_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        dice(np.zeros((3, 3), np.uint8), np.zeros((3, 4), np.uint8))


# ---------------------------------------------------------------------------
# pixel accuracy

def test_accuracy_examples():
    a = np.zeros((10, 10), np.uint8)
    a[2:5, 2:5] = 1
    assert pixel_accuracy(a, a) == 1.0
    assert pixel_accuracy(a, 1 - a) == 0.0
    b = a.copy()
    b[0, 0] = 1
    assert pixel_accuracy(a, b) == 0.99


def test_accuracy_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        pixel_accuracy(np.zeros((3, 3), np.uint8), np.zeros((4, 3), np.uint8))


# ---------------------------------------------------------------------------
# mean boundary distance

def test_mbd_identical_masks_zero():
    m = np.zeros((12, 12), np.uint8)
    m[3:9, 4:10] = 1
    assert mean_boundary_distance(m, m) == 0.0


def test_mbd_concentric_squares():
    a = np.zeros((16, 16), np.uint8)
    a[4:12, 4:12] = 1
    b = np.zeros((16, 16), np.uint8)
    b[6:10, 6:10] = 1
    got = mean_boundary_distance(a, b)
    want = brute_force_mbd(a, b)
    assert got == pytest.approx(want, abs=1e-9)
    # Facing sides are exactly 2 px apart; corners are farther, so the
    # mean sits strictly above 2.
    assert got > 2.0


def test_mbd_matches_brute_force_on_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b = random_mask(rng), random_mask(rng)
        got = mean_boundary_distance(a, b)
        want = brute_force_mbd(a, b)
        assert got == pytest.approx(want, abs=1e-9)
        assert got == mean_boundary_distance(b, a)


def test_mbd_empty_mask_rejected():
    m = np.zeros((8, 8), np.uint8)
    nz = m.copy()
    nz[3, 3] = 1
    with pytest.raises(EmptyMask):
        mean_boundary_distance(m, nz)
    with pytest.raises(EmptyMask):
        mean_boundary_distance(nz, m)


def test_metrics_translation_invariant():
    rng = np.random.default_rng(3)
    a = np.zeros((32, 32), np.uint8)
    a[5:15, 6:14] = 1
    b = np.zeros((32, 32), np.uint8)
    b[7:16, 8:17] = 1
    dy, dx = 9, 11  # joint shift, still inside the frame
    a2 = np.roll(np.roll(a, dy, axis=0), dx, axis=1)
    b2 = np.roll(np.roll(b, dy, axis=0), dx, axis=1)
    assert dice(a, b) == dice(a2, b2)
    assert pixel_accuracy(a, b) == pixel_accuracy(a2, b2)
    assert mean_boundary_distance(a, b) == mean_boundary_distance(a2, b2)


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank

def enumeration_p(diffs):
    """Oracle: walk all 2^n sign assignments of the ranked |d| explicitly."""
    ranks = _average_ranks(np.abs(diffs))
    w_obs = ranks[diffs > 0].sum()
    n = len(diffs)
    ge = le = 0
    for signs in itertools.product([0, 1], repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s)
        ge += w >= w_obs - 1e-12
        le += w <= w_obs + 1e-12
    total = 2 ** n
    return min(1.0, 2.0 * min(ge / total, le / total))


def test_wilcoxon_all_zero_differences():
    x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    with pytest.raises(TooFewSamples):
        wilcoxon_signed_rank(x, x)


def test_wilcoxon_too_few_after_discard():
    x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    y = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0]  # one nonzero difference
    with pytest.raises(TooFewSamples):
        wilcoxon_signed_rank(x, y)


def test_wilcoxon_unequal_lengths():
    with pytest.raises(ShapeMismatch):
        wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0, 3.0])


def test_wilcoxon_all_positive_n8():
    y = [float(i) for i in range(8)]
    x = [v + i + 1 for i, v in enumerate(y)]  # distinct positive differences
    stat, p = wilcoxon_signed_rank(x, y)
    assert stat == 36.0  # 1+2+...+8, the maximal rank sum
    assert p == 2 / 2 ** 8 == 0.0078125


def test_wilcoxon_exact_matches_enumeration_oracle():
    rng = np.random.default_rng(11)
    for trial in range(30):
        n = int(rng.integers(6, 13))
        d = rng.standard_normal(n)
        d[d == 0] = 1.0
        if rng.random() < 0.5:  # force ties in |d| sometimes
            d[1] = -d[0]
        x = rng.standard_normal(n)
        y = x - d
        _, p = wilcoxon_signed_rank(x, y, method="exact")
        assert p == pytest.approx(enumeration_p(np.asarray(x) - np.asarray(y)),
                                  abs=1e-12)


def test_wilcoxon_exact_close_to_approx_mid_n():
    rng = np.random.default_rng(23)
    for trial in range(40):
        n = int(rng.integers(15, 26))
        x = rng.standard_normal(n)
        y = x - rng.standard_normal(n) - 0.3
        d = x - y
        d = d[d != 0]
        ranks = _average_ranks(np.abs(d))
        w = float(ranks[d > 0].sum())
        assert abs(_exact_p(ranks, w) - _approx_p(ranks, w, len(d))) < 0.05


def test_wilcoxon_approx_matches_scipy_with_ties():
    rng = np.random.default_rng(31)
    for trial in range(10):
        n = 40
        x = np.round(rng.standard_normal(n), 1)
        y = np.round(x - rng.standard_normal(n) * 0.5 - 0.2, 1)
        keep = (x - y) != 0
        if keep.sum() < 26:
            continue
        stat, p = wilcoxon_signed_rank(x, y)
        ref = scipy.stats.wilcoxon(x[keep], y[keep], zero_method="wilcox",
                                   correction=True, method="approx")
        assert p == pytest.approx(ref.pvalue, abs=1e-9)


def test_wilcoxon_exact_close_to_scipy_exact():
    rng = np.random.default_rng(37)
    for trial in range(10):
        n = 18
        x = rng.standard_normal(n)
        y = x - rng.standard_normal(n) - 0.4
        _, p = wilcoxon_signed_rank(x, y)
        ref = scipy.stats.wilcoxon(x, y, zero_method="wilcox", method="exact")
        assert p == pytest.approx(ref.pvalue, abs=0.02)


def test_wilcoxon_shifted_samples_significant():
    rng = np.random.default_rng(41)
    x = rng.standard_normal(30) + 1.5
    y = rng.standard_normal(30)
    _, p = wilcoxon_signed_rank(x, y)
    assert p < 0.01


# ---------------------------------------------------------------------------
# evaluate + report files

def write_mask_set(root, masks):
    """Write masks as PGMs plus a manifest; returns the manifest path."""
    (root / "masks").mkdir(parents=True, exist_ok=True)
    lines = ["# id\timage\tmask\tdmap\tsplit\n"]
    for sid, m in masks.items():
        rel = f"masks/{sid}.pgm"
        write_pgm(root / rel, m)
        lines.append(f"{sid}\t{rel}\t{rel}\t{rel}\ttest\n")
    manifest = root / "manifest.tsv"
    manifest.write_text("".join(lines))
    return manifest


def blob(y0, y1, x0, x1, shape=(24, 24)):
    m = np.zeros(shape, np.uint8)
    m[y0:y1, x0:x1] = 1
    return m


def test_evaluate_perfect_predictions(tmp_path):
    masks = {f"s{i:02d}": blob(4 + i, 14 + i, 5, 15) for i in range(6)}
    gt = write_mask_set(tmp_path / "gt", masks)
    pred = write_mask_set(tmp_path / "pred", masks)
    report = evaluate(pred, gt)
    agg = report.aggregate()
    assert agg["dice"] == (1.0, 0.0)
    assert agg["mean_distance"] == (0.0, 0.0)
    assert agg["accuracy"] == (1.0, 0.0)
    assert [r.id for r in report.rows] == sorted(masks)


def test_evaluate_dominating_method_significant(tmp_path):
    gt_masks, good, bad = {}, {}, {}
    for i in range(8):
        m = blob(4, 16, 4 + i % 3, 16 + i % 3)
        gt_masks[f"s{i}"] = m
        good[f"s{i}"] = m  # exact
        worse = m.copy()
        worse[:, : 6 + i % 3] = 0  # clip a strip: strictly worse dice
        bad[f"s{i}"] = worse
    gt = write_mask_set(tmp_path / "gt", gt_masks)
    pg = write_mask_set(tmp_path / "good", good)
    pb = write_mask_set(tmp_path / "bad", bad)
    report = evaluate(pg, gt, compare_manifest=pb)
    assert report.p_values is not None
    assert report.p_values["dice"] < 0.05


def test_evaluate_identical_methods_p_undefined(tmp_path):
    masks = {f"s{i}": blob(3, 12, 3, 12) for i in range(6)}
    gt = write_mask_set(tmp_path / "gt", masks)
    pred = write_mask_set(tmp_path / "pred", masks)
    report = evaluate(pred, gt, compare_manifest=pred)
    assert report.p_values == {"dice": None, "mean_distance": None,
                               "accuracy": None}


def test_evaluate_manifest_mismatch(tmp_path):
    gt = write_mask_set(tmp_path / "gt", {"a": blob(2, 8, 2, 8)})
    pred = write_mask_set(tmp_path / "pred", {"b": blob(2, 8, 2, 8)})
    with pytest.raises(ManifestMismatch):
        evaluate(pred, gt)


def test_report_roundtrip_byte_exact(tmp_path):
    rows = [SampleMetrics("s0", 0.9871234567891234, 1.4142135623730951, 0.993),
            SampleMetrics("s1", 1 / 3, 2 / 7, 0.75)]
    report = EvalReport(rows=rows, p_values={"dice": 0.03125,
                                             "mean_distance": None,
                                             "accuracy": 1 / 1024})
    p1 = tmp_path / "r1.tsv"
    p2 = tmp_path / "r2.tsv"
    write_report(p1, report)
    back = read_report(p1)
    assert back.rows == rows
    assert back.p_values == report.p_values
    write_report(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_evaluate_scores_empty_masks_and_pairs_only_defined_rows(tmp_path):
    gt_masks, good, bad = {}, {}, {}
    for i in range(9):
        m = blob(4, 16, 4 + i % 3, 16 + i % 3)
        gt_masks[f"s{i}"] = m
        good[f"s{i}"] = m
        worse = m.copy()
        worse[:, : 6 + i % 4] = 0
        bad[f"s{i}"] = worse
    good["s0"] = np.zeros_like(good["s0"])  # undefined on the first side
    bad["s1"] = np.zeros_like(bad["s1"])    # and on the second
    gt = write_mask_set(tmp_path / "gt", gt_masks)
    report = evaluate(write_mask_set(tmp_path / "good", good), gt,
                      compare_manifest=write_mask_set(tmp_path / "bad", bad))
    rows = {r.id: r for r in report.rows}
    assert rows["s0"].mean_distance is None and rows["s0"].dice == 0.0
    assert all(rows[f"s{i}"].mean_distance == 0.0 for i in range(1, 9))
    defined = [i for i in range(9) if i not in (0, 1)]
    others = [mean_boundary_distance(bad[f"s{i}"], gt_masks[f"s{i}"]) for i in defined]
    _, p = wilcoxon_signed_rank([0.0] * len(defined), others)
    assert report.p_values["mean_distance"] == p
    _, p_dice = wilcoxon_signed_rank([r.dice for r in report.rows],
                                     [dice(bad[f"s{i}"], gt_masks[f"s{i}"]) for i in range(9)])
    assert report.p_values["dice"] == p_dice
    agg = report.aggregate()
    assert agg["mean_distance"] == (0.0, 0.0)  # over the eight defined rows
    assert agg["dice"][0] == pytest.approx(8 / 9)


def test_report_with_undefined_distances_roundtrips(tmp_path):
    report = EvalReport([SampleMetrics("a", 0.0, None, 0.5), SampleMetrics("b", 1.0, 2.5, 1.0)],
                        {"dice": None, "mean_distance": None, "accuracy": 0.25})
    path = tmp_path / "r.tsv"
    write_report(path, report)
    lines = path.read_text().splitlines()
    assert lines[2] == "a\t0.0\tna\t0.5"
    assert "# aggregate\tmean_distance\t2.5\t0.0" in lines
    back = read_report(path)
    assert back == report
    write_report(tmp_path / "again.tsv", back)
    assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()


def test_aggregate_of_a_metric_defined_on_no_row_is_nan():
    agg = EvalReport([SampleMetrics("a", 0.0, None, 0.5)]).aggregate()
    assert np.isnan(agg["mean_distance"]).all()
    assert agg["dice"] == (0.0, 0.0)


def test_report_aggregate_recomputable():
    rows = [SampleMetrics("a", 0.8, 2.0, 0.9), SampleMetrics("b", 1.0, 0.0, 1.0)]
    agg = EvalReport(rows=rows).aggregate()
    assert agg["dice"] == (pytest.approx(0.9), pytest.approx(0.1))
    assert agg["mean_distance"] == (pytest.approx(1.0), pytest.approx(1.0))


def test_read_report_rejects_malformed(tmp_path):
    bad = tmp_path / "r.tsv"
    bad.write_text("s0\t0.5\t1.0\n")  # three fields, not four
    with pytest.raises(IoFailure):
        read_report(bad)


@pytest.mark.parametrize("body", [b"# boundseg evaluation report\n# \xff\n",
                                  b"s0\t0.5\tx\t1.0\n",
                                  b"# pvalue\tdice\tx\n"])
def test_read_report_rejects_undecodable_text(tmp_path, body):
    bad = tmp_path / "r.tsv"
    bad.write_bytes(body)
    with pytest.raises(IoFailure):
        read_report(bad)
