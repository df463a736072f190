"""Evaluation metrics: Dice overlap, pixel accuracy, symmetric mean
boundary distance, and a paired Wilcoxon signed-rank test, plus report
assembly over prediction/ground-truth manifests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .distmap import boundary_pixels, euclidean_dt
from .errors import EmptyMask, IoFailure, ManifestMismatch, ShapeMismatch, TooFewSamples
from .imgio import optional, read_pgm_mask, read_table, write_table
from .phantom import read_manifest

EXACT_WILCOXON_MAX_N = 25
MIN_WILCOXON_N = 6

METRIC_NAMES = ("dice", "mean_distance", "accuracy")


def dice(a: np.ndarray, b: np.ndarray) -> float:
    """Overlap coefficient 2|a∩b| / (|a|+|b|); 1 when both masks are empty."""
    if a.shape != b.shape:
        raise ShapeMismatch(f"mask shapes differ: {a.shape} vs {b.shape}")
    a = np.asarray(a) != 0
    b = np.asarray(b) != 0
    total = int(a.sum()) + int(b.sum())
    if total == 0:
        return 1.0
    return 2.0 * int(np.logical_and(a, b).sum()) / total


def pixel_accuracy(a: np.ndarray, b: np.ndarray) -> float:
    """Fraction of pixels on which the two masks agree."""
    if a.shape != b.shape:
        raise ShapeMismatch(f"mask shapes differ: {a.shape} vs {b.shape}")
    return float(((np.asarray(a) != 0) == (np.asarray(b) != 0)).mean())


def mean_boundary_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric mean distance between the two mask boundaries, in pixels:
    the average of (mean over a's boundary of the distance to b's boundary)
    and the reverse direction.
    """
    if a.shape != b.shape:
        raise ShapeMismatch(f"mask shapes differ: {a.shape} vs {b.shape}")
    pa = boundary_pixels(a)  # raises EmptyMask for empty inputs
    pb = boundary_pixels(b)
    dist_to_b = euclidean_dt(pb, a.shape)
    dist_to_a = euclidean_dt(pa, a.shape)
    m_ab = float(dist_to_b[pa[:, 0], pa[:, 1]].mean())
    m_ba = float(dist_to_a[pb[:, 0], pb[:, 1]].mean())
    return 0.5 * (m_ab + m_ba)


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank test

def _average_ranks(v: np.ndarray) -> np.ndarray:
    """Ranks 1..n with tied values sharing the average of their ranks."""
    order = np.argsort(v, kind="stable")
    sv = v[order]
    ranks = np.empty(v.size, dtype=np.float64)
    base = np.arange(1, v.size + 1, dtype=np.float64)
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i : j + 1]] = base[i : j + 1].mean()
        i = j + 1
    return ranks


def _exact_p(ranks: np.ndarray, w_pos: float) -> float:
    """Two-sided p from the exact null distribution of W+ over all 2^n
    sign assignments, counted by dynamic programming.  Average ranks are
    multiples of 1/2, so doubling makes every rank an integer.
    """
    scaled = np.rint(ranks * 2.0).astype(np.int64)
    total = int(scaled.sum())
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    for s in scaled:
        shifted = np.zeros_like(counts)
        shifted[s:] = counts[: total + 1 - s]
        counts += shifted
    counts /= 2.0 ** len(ranks)
    w2 = int(round(w_pos * 2.0))
    p_ge = float(counts[w2:].sum())
    p_le = float(counts[: w2 + 1].sum())
    return min(1.0, 2.0 * min(p_ge, p_le))


def _approx_p(ranks: np.ndarray, w_pos: float, n: int) -> float:
    """Two-sided p from the normal approximation with continuity
    correction and tie-corrected variance.
    """
    mean = n * (n + 1) / 4.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    tie_term = float((tie_counts.astype(np.float64) ** 3 - tie_counts).sum()) / 48.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    diff = w_pos - mean
    if diff == 0.0 or var <= 0.0:
        return 1.0
    z = (abs(diff) - 0.5) / math.sqrt(var)
    if z < 0.0:
        z = 0.0
    return min(1.0, math.erfc(z / math.sqrt(2.0)))


def wilcoxon_signed_rank(x, y, method: str = "auto") -> tuple[float, float]:
    """Paired two-sided Wilcoxon signed-rank test.

    Returns (W+, p) where W+ is the sum of ranks of positive differences.
    Zero differences are discarded; ties get average ranks.  The exact
    null distribution is enumerated for n <= 25, otherwise the normal
    approximation with continuity correction and tie-corrected variance
    is used; `method` can force either path.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ShapeMismatch(f"paired samples must be equal-length 1-D, "
                            f"got {x.shape} and {y.shape}")
    d = x - y
    d = d[d != 0.0]
    n = int(d.size)
    if n < MIN_WILCOXON_N:
        raise TooFewSamples(
            f"{n} nonzero differences after discarding zeros, need >= {MIN_WILCOXON_N}")
    ranks = _average_ranks(np.abs(d))
    w_pos = float(ranks[d > 0.0].sum())
    if method == "auto":
        method = "exact" if n <= EXACT_WILCOXON_MAX_N else "approx"
    if method == "exact":
        p = _exact_p(ranks, w_pos)
    elif method == "approx":
        p = _approx_p(ranks, w_pos, n)
    else:
        raise ValueError(f"unknown method {method!r}")
    return w_pos, p


# ---------------------------------------------------------------------------
# report assembly

class SampleMetrics(NamedTuple):
    id: str
    dice: float
    mean_distance: float | None  # None when either mask is empty
    accuracy: float


@dataclass
class EvalReport:
    """Per-sample metric rows plus optional paired p-values between two
    methods; aggregates are always recomputed from the rows."""

    rows: list[SampleMetrics] = field(default_factory=list)
    p_values: dict[str, float | None] | None = None

    def aggregate(self) -> dict[str, tuple[float, float]]:
        """(mean, std) of each metric over the rows where it is defined;
        nan when it is defined on none."""
        out = {}
        for name in METRIC_NAMES:
            vals = np.array([v for r in self.rows if (v := getattr(r, name)) is not None],
                            dtype=np.float64)
            out[name] = (float(vals.mean()), float(vals.std())) if vals.size else (math.nan,) * 2
        return out


def _records_by_id(manifest) -> dict:
    records = manifest if isinstance(manifest, list) else read_manifest(manifest)
    by_id = {}
    for r in records:
        if r.id in by_id:
            raise ManifestMismatch(f"duplicate sample id {r.id!r}")
        by_id[r.id] = r
    return by_id


def _sample_row(sid: str, pred_mask: np.ndarray, gt_mask: np.ndarray) -> SampleMetrics:
    d = dice(pred_mask, gt_mask)
    try:
        distance = mean_boundary_distance(pred_mask, gt_mask)
    except EmptyMask:  # no boundary to measure from
        distance = None
    return SampleMetrics(sid, d, distance, pixel_accuracy(pred_mask, gt_mask))


def evaluate(pred_manifest, gt_manifest, compare_manifest=None) -> EvalReport:
    """Score predictions against ground truth, sample by sample.

    Manifests are matched on sample id (every id must appear in both).
    An empty mask on either side leaves the sample's boundary distance
    None.  With `compare_manifest`, per-metric paired Wilcoxon p-values
    between the two prediction sets are added, over the samples where the
    metric is defined in both; a metric where the test is undefined (fewer
    than 6 nonzero differences) records None.
    """
    preds = _records_by_id(pred_manifest)
    gts = _records_by_id(gt_manifest)
    if set(preds) != set(gts):
        only_p = sorted(set(preds) - set(gts))[:3]
        only_g = sorted(set(gts) - set(preds))[:3]
        raise ManifestMismatch(
            f"manifest ids differ (pred-only {only_p}, gt-only {only_g})")
    others = _records_by_id(compare_manifest) if compare_manifest is not None else None
    if others is not None and set(others) != set(gts):
        raise ManifestMismatch("comparison manifest ids differ from ground truth")

    rows = []
    other_rows = []
    for sid, gt in gts.items():  # in the ground-truth manifest's order
        gt_mask = read_pgm_mask(gt.mask)
        rows.append(_sample_row(sid, read_pgm_mask(preds[sid].mask), gt_mask))
        if others is not None:
            other_rows.append(_sample_row(sid, read_pgm_mask(others[sid].mask), gt_mask))

    p_values = None
    if others is not None:
        p_values = {}
        for name in METRIC_NAMES:
            pairs = [(getattr(r, name), getattr(o, name)) for r, o in zip(rows, other_rows)]
            a, b = np.reshape([p for p in pairs if None not in p], (-1, 2)).T
            try:
                _, p_values[name] = wilcoxon_signed_rank(a, b)
            except TooFewSamples:
                p_values[name] = None
    return EvalReport(rows=rows, p_values=p_values)


def write_report(path, report: EvalReport) -> None:
    """Write per-sample rows, an aggregate footer, and any p-values.

    Floats are written with repr, which round-trips exactly, so
    read_report followed by write_report reproduces the bytes.
    """
    tail = [("aggregate", name, *stats) for name, stats in report.aggregate().items()]
    if report.p_values is not None:
        tail += [("pvalue", name, report.p_values.get(name)) for name in METRIC_NAMES]
    write_table(path, "report", [("boundseg evaluation report",), ("id", *METRIC_NAMES)],
                report.rows, tail)


def read_report(path) -> EvalReport:
    """Parse a report file; aggregates are recomputed, not trusted."""
    rows, comments = read_table(path, "report", (str, float, optional(float), float))
    try:
        p_values = {c[1]: optional(float)(c[2]) for c in comments
                    if c[0] == "pvalue" and len(c) == 3}
    except ValueError as e:
        raise IoFailure(f"malformed report {path}: {e}") from e
    return EvalReport([SampleMetrics._make(row) for row in rows], p_values or None)
