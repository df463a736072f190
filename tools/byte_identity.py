"""Check that two checkouts of boundseg produce byte-identical outputs.

    python tools/byte_identity.py PARENT CHILD

PARENT and CHILD are the roots of two checkouts (each with `src/boundseg`).
In each, with BLAS pinned to one thread and the program imported from that
checkout's `src`, this runs the same recipe in a fresh directory:

- `gen` of a 64² dataset (12 train, 8 test, seed 5) and of a 321² one
  with `--augment 1` (2 train, 1 test, seed 9); and `make_dataset` of a
  100×57 and a 60×150 dataset (3 train, 2 test, one augmented variant
  each) whose centre jitter pushes the beans against the right and the top
  edge, so that a bean's bounding box is clipped by the frame;
- desk `train` for 2 and for 12 epochs (batch 4, seed 3), a
  regression-only `train` (lambda pinned at 1, 2 epochs), a
  classification-only one (lambda pinned at 0, 2 epochs) and one whose
  lambda starts at 1 and ends at 0.5 (3 epochs), so each branch of the
  loss weighting is trained, and the classifier is first left out and
  then stepped; and a 1-epoch `train` from a file that sets every config
  key away from its default (a two-value input size, four encoder
  blocks, a mirrored classifier), so each key's parse reaches the model,
  the sidecar and the log;
- `segment` of every test image with each of the six checkpoints, in
  classifier mode with `--overlay` and in `--mode brn --tau 0.2`;
- `eval` of each model's classifier masks against the ground truth
  (after so few epochs most of them are empty, which `eval` scores), and
  of the regression-only model's with the ground truth as the compared
  set;
- one `reference_config()` SGD step (321², batch 1, lr 0.01, seed 7),
  with its checkpoint saved;
- `segment` of that dataset's 321² test image with the reference
  checkpoint, in classifier mode, so the checkpoint is loaded at full
  scale and the odd pool sizes (321 -> 161 -> 81 -> 41, each with a
  partial last window) run forward;
- `contour.brn_segment` at tau 0.2 and at the default tau on every
  ground-truth distance map of every dataset above; on a ring cut into three
  arcs, which only the fallback link radius joins; on the maps of discs
  clipped by a frame corner and by each frame edge; and on two disjoint
  rings of different sizes.  The clipped and the paired shapes are where
  an error in cropping to the band's bounding box, or in pasting the
  mask back, would show.  Each writes its mask, or the class and
  message of the error it raised.  The desk models' BRN segments above
  mostly fail, so these runs are what check the contours;
- `eval` of the 321² dataset's BRN masks at tau 0.2 against their ground
  truth, so the boundary distance runs on large boundaries.

Every file written and every command's exit code, stdout and stderr are
kept.  The two output trees are then compared file by file; only the
per-image latency lines that `segment` prints are ignored.  Prints each
difference and exits 1 if there is one, else prints a summary and exits 0.
"""

from __future__ import annotations

import filecmp
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ONE_THREAD = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                   "VECLIB_MAXIMUM_THREADS")}

TRAIN_CONFIGS = {
    "desk2": "epochs = 2\nbatch_size = 4\nseed = 3\n",
    "desk12": "epochs = 12\nbatch_size = 4\nseed = 3\n",
    "brn2": "epochs = 2\nbatch_size = 4\nseed = 3\nlambda_start = 1\nlambda_end = 1\n",
    "ce2": "epochs = 2\nbatch_size = 4\nseed = 3\nlambda_start = 0\nlambda_end = 0\n",
    "brn-to-half3": "epochs = 3\nbatch_size = 4\nseed = 3\nlambda_start = 1\n"
                    "lambda_end = 0.5\n",
    "every-key1": "input_size = 64,64\nencoder_widths = 6,8,10,12\nencoder_pools = 1,0,1,1\n"
                  "encoder_dilations = 1,2,1,1\nhead_project = 12\n"
                  "head_deconv_widths = 10,8,6\nclassifier_widths = 5,7\n"
                  "classifier_mirror = true\nlambda_start = 0.8\nlambda_end = 0.3\n"
                  "epochs = 1\nlr = 0.05\nmomentum = 0.5\nbatch_size = 3\nseed = 4\n",
}

NON_SQUARE = """\
from boundseg import phantom
phantom.make_dataset("tall", 3, 2, 13, frame=(100, 57), augment=1,
                     ranges={"center_jitter": (0.25, 0.35)})
phantom.make_dataset("wide", 3, 2, 17, frame=(60, 150), augment=1,
                     ranges={"center_jitter": (-0.35, -0.25)})
"""

REFERENCE_STEP = """\
from boundseg import models, phantom
manifest = phantom.make_dataset("ref", 1, 1, 7, frame=(321, 321))
records = [r for r in phantom.read_manifest(manifest) if r.split == "train"]
models.train(records, models.reference_config(), models.LossSchedule(0.9, 0.1, 1),
             0.01, batch_size=1, seed=7, checkpoint_path="ref/step.bseg",
             log_path="ref/step.log.tsv")
"""

BRN_CONTOURS = """\
from pathlib import Path
import numpy as np
from boundseg import contour, errors, imgio, phantom
from boundseg.distmap import mask_to_distance_map

ring = np.zeros((24, 24), dtype=np.float32)
ring[4, 4:20] = ring[19, 4:20] = ring[4:20, 4] = ring[4:20, 19] = 1.0
ring[4, 10:12] = ring[12:14, 19] = ring[19, 8:10] = 0.0
maps = [(f"{root}-{rec.id}", imgio.read_fmap(rec.dmap))
        for root in ("d64", "ref", "d321", "tall", "wide")
        for rec in phantom.read_manifest(Path(root) / "manifest.tsv")]
maps.append(("fragmented-ring", ring))
ii, jj = np.mgrid[0:80, 0:96]
for name, cy, cx, r in [("corner", -5, -7, 38), ("top", -9, 50, 30), ("bottom", 88, 40, 30),
                        ("left", 40, -9, 28), ("right", 36, 104, 28)]:
    disc = (np.hypot(ii - cy, jj - cx) <= r).astype(np.uint8)
    maps.append((f"disc-{name}", mask_to_distance_map(disc)))
rings = np.hypot(ii - 30, jj - 28) <= 22
rings ^= np.hypot(ii - 30, jj - 28) <= 18
rings |= (np.hypot(ii - 62, jj - 78) <= 9) & (np.hypot(ii - 62, jj - 78) > 6)
maps.append(("two-rings", rings.astype(np.float32)))
out = Path("brn")
out.mkdir()
for name, dmap in maps:
    for tau in (0.2, contour.DEFAULT_TAU):
        try:
            mask = contour.brn_segment(dmap, tau=tau)
        except errors.BoundsegError as e:
            (out / f"{name}-tau{tau}.txt").write_text(f"{type(e).__name__}: {e}\\n",
                                                      encoding="utf-8")
        else:
            imgio.write_pgm(out / f"{name}-tau{tau}.pgm", mask)
"""

# `segment` prints "<image>: <seconds>s (<mode>)"
LATENCY = re.compile(rb"^\S+: \d+\.\d+s \((classifier|brn)\)$", re.MULTILINE)


class Runner:
    """Runs commands of one checkout in its output directory, keeping each
    command's exit code, stdout and stderr under `runs/`."""

    def __init__(self, tree: Path, out: Path):
        self.out = out
        self.env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(tree / "src")}
        self.count = 0
        (out / "runs").mkdir(parents=True)

    def run(self, *args: str) -> int:
        proc = subprocess.run([sys.executable, *args], cwd=self.out, env=self.env,
                              capture_output=True)
        self.count += 1
        stem = self.out / "runs" / f"{self.count:03d}"
        stem.with_suffix(".cmd").write_text(" ".join(args) + f"\nexit {proc.returncode}\n",
                                            encoding="utf-8")
        stem.with_suffix(".out").write_bytes(proc.stdout)
        stem.with_suffix(".err").write_bytes(proc.stderr)
        return proc.returncode

    def cli(self, *args: str) -> int:
        return self.run("-m", "boundseg", "--threads", "1", *args)


def manifest_rows(path: Path) -> list[list[str]]:
    """(id, image, mask, dmap, split) of each row of a dataset manifest."""
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()
            if not line.startswith("#")]


def recipe(tree: Path, out: Path) -> None:
    r = Runner(tree, out)
    for size, counts, seed, augment in (("64", ("12", "8"), "5", "0"),
                                        ("321", ("2", "1"), "9", "1")):
        if r.cli("gen", "--out", f"d{size}", "--n-train", counts[0], "--n-test", counts[1],
                 "--size", size, "--seed", seed, "--augment", augment):
            raise SystemExit(f"{tree}: gen failed; see {out / 'runs'}")
    r.run("-c", NON_SQUARE)
    for name, text in TRAIN_CONFIGS.items():
        (out / f"{name}.cfg").write_text(text, encoding="utf-8")
        r.cli("train", "--config", f"{name}.cfg", "--data", "d64", "--out", f"{name}.bseg")
    tests = [(sample, image, mask) for sample, image, mask, _, split
             in manifest_rows(out / "d64" / "manifest.tsv") if split == "test"]
    (out / "gt").mkdir()
    for sample, _, mask in tests:
        shutil.copyfile(out / "d64" / mask, out / "gt" / f"{sample}.pgm")
    for name in TRAIN_CONFIGS:
        for mode in ("classifier", "brn"):
            masks = Path("masks") / f"{name}-{mode}"
            (out / masks).mkdir(parents=True)
            (out / "overlays" / name).mkdir(parents=True, exist_ok=True)
            for sample, image, _ in tests:
                args = ["segment", "--ckpt", f"{name}.bseg", "--image", f"d64/{image}",
                        "--out", str(masks / f"{sample}.pgm")]
                if mode == "brn":
                    args += ["--mode", "brn", "--tau", "0.2"]
                else:
                    args += ["--overlay", f"overlays/{name}/{sample}.pgm"]
                r.cli(*args)
    for name in TRAIN_CONFIGS:
        r.cli("eval", "--pred", f"masks/{name}-classifier", "--gt", "gt",
              "--report", f"eval-{name}.tsv")
    r.cli("eval", "--pred", "masks/brn2-classifier", "--gt", "gt", "--compare", "gt",
          "--report", "eval.tsv")
    r.run("-c", REFERENCE_STEP)
    (image,) = [image for _, image, _, _, split
                in manifest_rows(out / "ref" / "manifest.tsv") if split == "test"]
    r.cli("segment", "--ckpt", "ref/step.bseg", "--image", f"ref/{image}",
          "--out", "ref/segment.pgm")
    r.run("-c", BRN_CONTOURS)
    for sub in ("brn321", "gt321"):
        (out / sub).mkdir()
    for sample, _, mask, _, _ in manifest_rows(out / "d321" / "manifest.tsv"):
        brn = out / "brn" / f"d321-{sample}-tau0.2.pgm"
        if brn.is_file():
            shutil.copyfile(brn, out / "brn321" / f"{sample}.pgm")
            shutil.copyfile(out / "d321" / mask, out / "gt321" / f"{sample}.pgm")
    r.cli("eval", "--pred", "brn321", "--gt", "gt321", "--report", "eval-brn321.tsv")


def differences(a: Path, b: Path) -> tuple[list[str], int]:
    """Paths (relative) that differ between the trees, and files compared."""
    names_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    names_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    diffs = [f"only in {a.name}: {n}" for n in sorted(names_a - names_b)]
    diffs += [f"only in {b.name}: {n}" for n in sorted(names_b - names_a)]
    for name in sorted(names_a & names_b):
        if filecmp.cmp(a / name, b / name, shallow=False):
            continue
        if name.suffix == ".out":
            da, db = (LATENCY.sub(b"", (t / name).read_bytes()) for t in (a, b))
            if da == db:
                continue
        diffs.append(f"differs: {name}")
    return diffs, len(names_a | names_b)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    trees = [Path(t).resolve() for t in argv]
    for tree in trees:
        if not (tree / "src" / "boundseg" / "__init__.py").is_file():
            print(f"no boundseg sources under {tree}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="byte-identity-") as tmp:
        outs = [Path(tmp) / side for side in ("parent", "child")]
        for tree, out in zip(trees, outs):
            recipe(tree, out)
        diffs, count = differences(*outs)
        failed = [cmd.read_text(encoding="utf-8").replace("\n", " ")
                  for cmd in sorted((outs[0] / "runs").glob("*.cmd"))
                  if not cmd.read_text(encoding="utf-8").endswith("exit 0\n")]
    for line in failed:
        print(f"non-zero exit in {trees[0].name}: {line[:160]}")
    for line in diffs:
        print(line)
    print(f"{count} files compared, {len(diffs)} differ; "
          f"{len(failed)} commands exited non-zero")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
