"""Self-tests of the benchmark itself.

    python3 -m pytest bench/selftest.py -q

Each output check must pass on the program's real output and fail when
one value of it is corrupted; the same seed must give the same inputs;
a traced run's top-level spans must time the same operations as the
untraced clock; and BENCHMARK.json must list exactly what the runs print.
Takes about a minute and a half on one core.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from boundseg import contour, distmap, imgio, metrics, models, phantom  # noqa: E402


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(spans.LAYER_METRICS)


# ---------------------------------------------------------------------------
# each check passes on real output and fails on one corrupted value

@pytest.fixture(scope="module")
def desk_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "desk.bseg"
    models.save_model(path, models.SegmentationModel(models.desk_config(), seed=3))
    return path


@pytest.fixture(scope="module")
def sample():
    img, mask, _ = phantom.generate_sample((64, 64), 11, 0)
    return np.rint(img * 255.0) / 255.0, mask


def test_forward_check_catches_one_logit_and_one_map_pixel(desk_checkpoint, sample):
    image, _ = sample
    model = models.load_model(desk_checkpoint)
    pred, logits = model.forward(models.pseudo_color(image, np.float32))
    pred, logits = pred[0, 0], logits[0]
    ref_pred, ref_logits = checks.reference_forward(desk_checkpoint, image)
    assert checks.check_forward("x", pred, logits, ref_pred, ref_logits) == []

    bad_logits = logits.copy()
    bad_logits[1, 30, 17] += 0.01
    assert checks.check_forward("x", pred, bad_logits, ref_pred, ref_logits)
    bad_pred = pred.copy()
    bad_pred[5, 40] -= 0.01
    assert checks.check_forward("x", bad_pred, logits, ref_pred, ref_logits)


def test_mask_check_catches_one_mask_pixel(desk_checkpoint, sample):
    image, _ = sample
    mask = models.segment(image, models.load_model(desk_checkpoint))
    _, ref_logits = checks.reference_forward(desk_checkpoint, image)
    assert checks.check_mask("x", mask, ref_logits) == []
    bad = mask.copy()
    bad[32, 32] ^= 1
    assert checks.check_mask("x", bad, ref_logits)


def test_dmap_check_catches_one_map_pixel(sample):
    _, mask = sample
    dmap = distmap.mask_to_distance_map(mask)
    assert checks.check_dmap("x", dmap, mask) == []
    y, x = np.argwhere(checks.boundary(mask))[0]
    for where in ((y, x), (2, 3)):
        bad = dmap.copy()
        bad[where] *= np.float32(1.0 - 1e-4)
        assert checks.check_dmap("x", bad, mask)


def test_brn_floor_and_report_rows_catch_corrupted_masks(tmp_path, sample):
    _, gt = sample
    brn = contour.brn_segment(distmap.mask_to_distance_map(gt), tau=0.2)
    assert checks.check_brn("x", brn, gt) == []
    # a Dice floor cannot see one pixel; it sees a lost stripe of the mask
    bad = brn.copy()
    bad[:, 28:34] = 0
    assert checks.check_brn("x", bad, gt)

    row = metrics.evaluate(
        [phantom.SampleRecord("a", None, _write(tmp_path / "p.pgm", brn), None, "test")],
        [phantom.SampleRecord("a", None, _write(tmp_path / "g.pgm", gt), None, "test")],
    ).rows[0]
    assert checks.check_report_row("x", row.dice, row.mean_distance, brn, gt) == []
    y, x = np.argwhere(checks.boundary(brn))[0]
    bad = brn.copy()
    bad[y, x] = 0
    assert checks.check_report_row("x", row.dice, row.mean_distance, bad, gt)


def _write(path, mask):
    imgio.write_pgm(path, mask)
    return path


def test_gradient_check_catches_one_gradient_entry():
    model = models.SegmentationModel(models.desk_config(), seed=5, dtype=np.float64)
    imgs, masks = zip(*(phantom.generate_sample((64, 64), 7, i)[:2] for i in range(2)))
    x = models.pseudo_color(np.stack(imgs), np.float64)
    gt = np.stack([distmap.mask_to_distance_map(m) for m in masks])[:, None]
    derivative, grads, direction = workloads.directional_gradient(
        model, x, gt.astype(np.float64), np.stack(masks).astype(np.int64),
        0.5, 1, workloads.Train.CHECK_EPS)
    assert checks.check_gradient("x", derivative, grads, direction) == []
    k = int(np.argmax([np.abs(v).max() for v in direction]))
    i = int(np.argmax(np.abs(direction[k])))
    grads[k].flat[i] += 1.0
    assert checks.check_gradient("x", derivative, grads, direction)


def test_epoch_record_check_catches_a_non_finite_loss():
    good = models.EpochRecord(0, 0.9, 0.1, 0.7, 0.5)
    assert checks.check_epoch_records("x", [good]) == []
    assert checks.check_epoch_records("x", [good, good._replace(epoch=1, ce=float("nan"))])


# ---------------------------------------------------------------------------
# inputs depend on the seed alone

def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _inputs(cls, seed: int, work: Path) -> dict[str, bytes]:
    work.mkdir()
    w = cls(seed, work)
    w.setup()
    if cls is workloads.Geometry:
        w.round(0)  # its inputs are the dataset each round generates
        return {k: v for k, v in _tree(work).items()
                if "/pred/" not in k and not k.endswith("report.tsv")}
    return _tree(work)


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_same_seed_gives_identical_inputs(cls, tmp_path):
    first = _inputs(cls, 4, tmp_path / "a")
    assert first and first == _inputs(cls, 4, tmp_path / "b")
    assert first != _inputs(cls, 5, tmp_path / "c")


# ---------------------------------------------------------------------------
# a traced run's top-level spans time what the untraced clock times

# allowance for run-to-run noise of short runs on a shared host
NOISE = 0.15
# a wrapper's clock reads, list appends and work bookkeeping
WRAPPER_SLACK = 50e-6


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_top_level_spans_agree_with_untraced_wall_time(cls, tmp_path):
    rounds = 1 if cls is workloads.Train else 2
    plain = cls(6, tmp_path / "plain")
    plain.work.mkdir()
    plain.setup()
    for r in range(rounds):
        plain.round(r)

    tracer = spans.Tracer()
    traced = cls(6, tmp_path / "traced")
    traced.work.mkdir()
    tracer.install()
    try:
        traced.setup()
        window_start = len(tracer.spans)
        for r in range(rounds):
            traced.round(r)
    finally:
        tracer.uninstall()

    overhead = (sum(map(sum, traced.op_seconds.values()))
                / sum(map(sum, plain.op_seconds.values())) - 1.0)
    top = {}
    for name, start, end, parent, _ in tracer.spans[window_start:]:
        if parent == -1:
            top.setdefault(name.rsplit(".", 1)[-1], []).append(end - start)
    for op, seconds in traced.op_seconds.items():
        # same call, two clocks: they differ by the wrapper's own work
        # (and, now and then, a garbage collection it triggers)
        assert len(top[op]) == len(seconds)
        gaps = [wall - span for span, wall in zip(top[op], seconds)]
        assert min(gaps) >= 0.0 and statistics.median(gaps) <= WRAPPER_SLACK, op
        # against the untraced process; below a millisecond the two
        # processes' cache states decide, not the tracing
        untraced = statistics.median(plain.op_seconds[op])
        if untraced >= 1e-3:
            span = statistics.median(top[op])
            assert abs(span / untraced - 1.0) <= max(overhead, 0.0) + NOISE, \
                (op, span, untraced, overhead)
