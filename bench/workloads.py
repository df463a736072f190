"""The three workloads: set-up, one round of work, figures, output checks.

Each workload drives the program only through the public functions its
subcommands call, on inputs generated here from the seed.  A run is
set-up followed by whole rounds of the same operations until the time
budget is spent.  Program functions are always reached through their
module (`models.train`, never a local alias), so the tracer's wrappers
see every call.
"""

from __future__ import annotations

import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import checks
from boundseg import contour, imgio, metrics, models, phantom
from boundseg.errors import BoundsegError
from boundseg.nn import ops

DESK = (64, 64)
REF = (321, 321)


def _p95(values) -> float:
    return statistics.quantiles(values, n=20)[-1]


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.op_seconds: dict[str, list[float]] = {}  # by function name

    def attempt(self, fn, *args, **kwargs):
        """Call one program operation; returns (result, seconds), or
        (None, None) when it fails with one of the program's errors."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BoundsegError:
            self.failed += 1
            return None, None
        secs = time.perf_counter() - start
        self.op_seconds.setdefault(fn.__name__, []).append(secs)
        return result, secs

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, r: int) -> None:
        raise NotImplementedError

    def figures(self) -> dict[str, tuple[float, str]]:
        """Every figure of the run, by its own name, with its unit."""
        raise NotImplementedError

    def end_to_end(self) -> dict[str, float]:
        """The figures behind the shared metrics rate_per_s, median_ms, ref_s."""
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError


# ---------------------------------------------------------------------------

class Train(Workload):
    """Desk training (64², batch 4, validation every epoch), then batch-1
    SGD steps of the reference configuration on train records only."""

    name = "train"
    DESK_TRAIN, DESK_TEST, DESK_EPOCHS, DESK_BATCH, DESK_LR = 40, 8, 2, 4, 0.1
    REF_STEPS, REF_LR = 1, 0.01
    CHECK_SAMPLES, CHECK_LAMBDA, CHECK_EPS = 4, 0.5, 1e-5

    def setup(self):
        desk = phantom.make_dataset(self.work / "desk", self.DESK_TRAIN,
                                    self.DESK_TEST, self.seed, frame=DESK)
        self.desk = phantom.read_manifest(desk)
        ref = phantom.make_dataset(self.work / "ref", self.REF_STEPS, 1,
                                   self.seed, frame=REF)
        self.ref = [r for r in phantom.read_manifest(ref) if r.split == "train"]
        self.desk_s, self.ref_s = [], []
        self.desk_out = self.ref_out = None

    def round(self, r):
        # the previous round's models hold their activations; free them first
        self.desk_out = self.ref_out = None
        out, secs = self.attempt(
            models.train, self.desk, models.desk_config(),
            models.LossSchedule(0.9, 0.1, self.DESK_EPOCHS), self.DESK_LR,
            batch_size=self.DESK_BATCH, seed=self.seed)
        if out is not None:
            self.desk_out = out
            self.desk_s.append(secs)
        out, secs = self.attempt(
            models.train, self.ref, models.reference_config(),
            models.LossSchedule(0.9, 0.1, 1), self.REF_LR,
            batch_size=1, seed=self.seed)
        if out is not None:
            self.ref_out = out
            self.ref_s.append(secs / self.REF_STEPS)

    def figures(self):
        samples = self.DESK_TRAIN * self.DESK_EPOCHS * len(self.desk_s)
        return {
            "train_samples_per_s": (samples / sum(self.desk_s), "samples/s"),
            "desk_train_call_ms": (1000.0 * statistics.median(self.desk_s), "ms"),
            "ref_step_s": (statistics.median(self.ref_s), "s"),
        }

    def end_to_end(self):
        f = self.figures()
        return {"rate_per_s": f["train_samples_per_s"][0],
                "median_ms": f["desk_train_call_ms"][0],
                "ref_s": f["ref_step_s"][0]}

    def check(self):
        problems, saved = [], []
        for what, out, records in (("desk", self.desk_out, self.desk),
                                   ("reference", self.ref_out, self.ref)):
            if out is not None:
                model, log = out
                problems += checks.check_epoch_records(what, log)
                path = self.work / f"{what}-trained.bseg"
                models.save_model(path, model)
                saved.append((what, path, [r for r in records if r.split == "train"]))
        # let the float32 models and their cached activations go before
        # the float64 copies are built
        self.desk_out = self.ref_out = out = model = None
        for what, path, records in saved:
            problems += self._gradient_problems(what, path, records[:self.CHECK_SAMPLES])
        return problems

    def _gradient_problems(self, what, path, records):
        model = models.load_model(path, dtype=np.float64)
        x = models.pseudo_color(
            np.stack([imgio.read_pgm_image(r.image) for r in records]), np.float64)
        gt = np.stack([imgio.read_fmap(r.dmap) for r in records])[:, None]
        mask = np.stack([imgio.read_pgm_mask(r.mask) for r in records])
        derivative, grads, direction = directional_gradient(
            model, x, gt.astype(np.float64), mask.astype(np.int64),
            self.CHECK_LAMBDA, self.seed, self.CHECK_EPS)
        return checks.check_gradient(what, derivative, grads, direction)


def directional_gradient(model, x, gt, mask, lam: float, seed: int, eps: float):
    """The combined loss's central difference along a seeded unit
    direction, the gradient from `SegmentationModel.backward`, and the
    direction."""
    params = [p for _, p in model.named_params()]
    for p in params:
        p.grad = None
    pred, logits = model.forward(x)
    model.backward(lam * ops.l2_loss_grad(pred, gt),
                   (1.0 - lam) * ops.softmax_ce_grad(logits, mask))
    grads = [p.grad for p in params]

    def loss():
        pred, logits = model.forward(x)
        return models.combined_loss(pred, gt, logits, mask, lam)

    direction = checks.random_direction(params, seed)
    return checks.directional_derivative(loss, params, direction, eps), grads, direction


# ---------------------------------------------------------------------------

class Segment(Workload):
    """Closed loop, one caller: read PGM, classifier-mode segment, write
    PGM, one image per call, with a desk and a reference checkpoint."""

    name = "segment"
    N_DESK, N_REF = 200, 3
    DESK_PER_ROUND, REF_PER_ROUND = 100, 1
    CHECK_DESK, CHECK_REF = 8, 1

    def setup(self):
        (self.work / "in").mkdir(parents=True)
        for size, count, tag in ((DESK, self.N_DESK, "desk"), (REF, self.N_REF, "ref")):
            for i in range(count):
                img, _, _ = phantom.generate_sample(size, self.seed, i)
                imgio.write_pgm(self.work / "in" / f"{tag}{i}.pgm", img)
        self.models = {}
        for tag, config in (("desk", models.desk_config()),
                            ("ref", models.reference_config())):
            path = self.work / f"{tag}.bseg"
            models.save_model(path, models.SegmentationModel(config, seed=self.seed))
            self.models[tag] = models.load_model(path)
        self.desk_s, self.ref_s = [], []
        self.last_round: list[str] = []

    def _call(self, tag, i):
        name = f"{tag}{i}.pgm"
        img, secs_read = self.attempt(imgio.read_pgm_image, self.work / "in" / name)
        if img is None:
            return None
        mask, secs_seg = self.attempt(models.segment, img, self.models[tag])
        if mask is None:
            return None
        _, secs_write = self.attempt(imgio.write_pgm, self.work / "out" / name, mask)
        if secs_write is None:
            return None
        self.last_round.append(name)
        return secs_read + secs_seg + secs_write

    def round(self, r):
        # Masks go to new files: on ext4 truncating a file whose blocks
        # are already allocated can block for 0.1 s, which would time the
        # disk, not the program.  Only the last round's masks are kept.
        shutil.rmtree(self.work / "out", ignore_errors=True)
        (self.work / "out").mkdir()
        self.last_round = []
        for j in range(self.DESK_PER_ROUND):
            secs = self._call("desk", (r * self.DESK_PER_ROUND + j) % self.N_DESK)
            if secs is not None:
                self.desk_s.append(secs)
        for j in range(self.REF_PER_ROUND):
            secs = self._call("ref", (r * self.REF_PER_ROUND + j) % self.N_REF)
            if secs is not None:
                self.ref_s.append(secs)

    def figures(self):
        return {
            "segment_ms": (1000.0 * statistics.median(self.desk_s), "ms"),
            "segment_ms_p95": (1000.0 * _p95(self.desk_s), "ms"),
            "segment_calls": (len(self.desk_s), "count"),
            "desk_images_per_s": (len(self.desk_s) / sum(self.desk_s), "images/s"),
            "ref_segment_s": (statistics.median(self.ref_s), "s"),
        }

    def end_to_end(self):
        f = self.figures()
        return {"rate_per_s": f["desk_images_per_s"][0],
                "median_ms": f["segment_ms"][0],
                "ref_s": f["ref_segment_s"][0]}

    def check(self):
        """Forward and mask checks on the first images of each shape
        segmented in the last round."""
        problems = []
        for tag, count in (("desk", self.CHECK_DESK), ("ref", self.CHECK_REF)):
            model = self.models[tag]
            for name in [n for n in self.last_round if n.startswith(tag)][:count]:
                image = checks.read_pgm(self.work / "in" / name) / 255.0
                ref_pred, ref_logits = checks.reference_forward(
                    self.work / f"{tag}.bseg", image)
                pred, logits = model.forward(models.pseudo_color(
                    imgio.read_pgm_image(self.work / "in" / name), model.dtype))
                problems += checks.check_forward(name, pred[0, 0], logits[0],
                                                 ref_pred, ref_logits)
                problems += checks.check_mask(
                    name, checks.read_pgm(self.work / "out" / name), ref_logits)
        return problems


# ---------------------------------------------------------------------------

class Geometry(Workload):
    """No network: generate a 321² dataset, BRN-reconstruct every
    ground-truth map, score the BRN masks against the ground truth."""

    name = "geometry"
    N_TRAIN, N_TEST = 3, 1  # make_dataset wants both splits
    TAU = 0.2

    def setup(self):
        self.gen_s, self.brn_s, self.eval_s = [], [], []
        self.generated = self.evaluated = 0
        self.rounds = []  # (round dir, ground-truth records, predicted records)

    def round(self, r):
        root = self.work / f"round{r}"
        per_round = self.N_TRAIN + self.N_TEST
        manifest, secs = self.attempt(
            phantom.make_dataset, root, self.N_TRAIN, self.N_TEST,
            self.seed * 1000 + r * per_round, frame=REF)
        if manifest is None:
            return
        self.gen_s.append(secs)
        self.generated += per_round
        (root / "pred").mkdir()
        gts, preds = [], []
        for rec in phantom.read_manifest(manifest):
            dmap = imgio.read_fmap(rec.dmap)
            mask, secs = self.attempt(contour.brn_segment, dmap, tau=self.TAU)
            if mask is None:
                continue
            self.brn_s.append(secs)
            out = root / "pred" / f"{rec.id}.pgm"
            imgio.write_pgm(out, mask)
            gts.append(rec)
            preds.append(rec._replace(mask=out))
        start = time.perf_counter()
        report, _ = self.attempt(metrics.evaluate, preds, gts)
        if report is not None:
            metrics.write_report(root / "report.tsv", report)
            self.eval_s.append(time.perf_counter() - start)
            self.evaluated += len(gts)
            self.rounds.append((root, gts, preds))

    def figures(self):
        return {
            "gen_samples_per_s": (self.generated / sum(self.gen_s), "samples/s"),
            "brn_ms": (1000.0 * statistics.median(self.brn_s), "ms"),
            "eval_samples_per_s": (self.evaluated / sum(self.eval_s), "samples/s"),
        }

    def end_to_end(self):
        f = self.figures()
        return {"rate_per_s": f["gen_samples_per_s"][0],
                "median_ms": f["brn_ms"][0],
                "ref_s": 1.0 / f["eval_samples_per_s"][0]}

    def check(self):
        problems = []
        for root, gts, preds in self.rounds:
            rows = checks.read_report_rows(root / "report.tsv")
            if sorted(rows) != sorted(r.id for r in gts):
                problems.append(f"{root.name}: report ids differ from the samples")
                continue
            for gt, pred in zip(gts, preds):
                gt_mask = checks.read_pgm(gt.mask)
                pred_mask = checks.read_pgm(pred.mask)
                what = f"{root.name}/{gt.id}"
                problems += checks.check_dmap(what, checks.read_fmap(gt.dmap), gt_mask)
                problems += checks.check_brn(what, pred_mask, gt_mask)
                problems += checks.check_report_row(what, *rows[gt.id],
                                                    pred_mask, gt_mask)
        return problems


WORKLOADS = {w.name: w for w in (Train, Segment, Geometry)}
