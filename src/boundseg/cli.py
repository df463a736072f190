"""Operator-facing command line: gen / distmap / train / segment / eval.

`config`, all the parser needs, imports no numpy, and heavy imports are
deferred into the subcommand handlers, so the --threads flag can pin BLAS
thread pools before numpy is loaded.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.
Log verbosity is taken from the BOUNDSEG_LOG environment variable
(debug/info/warning/error; default info).  Logs go to stderr; results
and per-image latency go to stdout.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from pathlib import Path

from .config import DEFAULT_LINK_RADIUS, DEFAULT_TAU, TRAIN_CONFIG_DEFAULTS, read_train_config

log = logging.getLogger("boundseg")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _setup_logging() -> None:
    level_name = os.environ.get("BOUNDSEG_LOG", "info").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.INFO
    logging.basicConfig(
        level=level,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _pin_threads(n: int) -> None:
    for var in _THREAD_ENV:
        os.environ[var] = str(n)


def _log_resolved(args: argparse.Namespace) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    log.info("resolved config: %s", resolved)


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen(args) -> int:
    from .errors import InvalidParams
    from .phantom import make_dataset, read_manifest

    ranges = {}
    for spec in args.range or []:
        key, _, val = spec.partition("=")
        try:
            lo, hi = (float(tok) for tok in val.split(","))
        except ValueError as exc:
            raise InvalidParams(f"--range expects KEY=LO,HI floats, got {spec!r}") from exc
        ranges[key] = (lo, hi)

    manifest = make_dataset(
        args.out,
        n_train=args.n_train,
        n_test=args.n_test,
        seed=args.seed,
        frame=(args.size, args.size),
        augment=args.augment,
        ranges=ranges,
    )
    print(f"wrote {len(read_manifest(manifest))} samples to {args.out}")
    return EXIT_OK


def cmd_distmap(args) -> int:
    from .distmap import mask_to_distance_map
    from .imgio import read_pgm_mask, write_fmap

    mask = read_pgm_mask(args.mask)
    write_fmap(args.out, mask_to_distance_map(mask))
    print(f"wrote distance map to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    from .errors import IoFailure
    from .models import train

    config, schedule, hypers = read_train_config(args.config)
    log.info("training config: %s, %s, %s", config, schedule, hypers)
    data = Path(args.data)
    manifest = data / "manifest.tsv" if data.is_dir() else data
    if not manifest.is_file():
        raise IoFailure(f"no manifest at {manifest}")
    out = Path(args.out)
    log_path = Path(args.log) if args.log else out.with_suffix(".log.tsv")

    model, records = train(
        manifest,
        config,
        schedule,
        lr=hypers["lr"],
        momentum=hypers["momentum"],
        batch_size=hypers["batch_size"],
        seed=hypers["seed"],
        checkpoint_path=out,
        log_path=log_path,
    )
    final = records[-1]
    summary = ("na" if final.val_dice is None else f"{final.val_dice:.4f}")
    print(f"trained {len(records)} epochs, final val dice {summary}, "
          f"checkpoint {out}, log {log_path}")
    return EXIT_OK


def _paint_overlay(img, mask):
    """Triptych PGM: input | input with boundary burned in | mask."""
    import numpy as np

    from .distmap import boundary_pixels

    mid = img.copy()
    if mask.any():
        edge = boundary_pixels(mask)
        mid[edge[:, 0], edge[:, 1]] = 1.0
    return np.hstack([img, mid, mask.astype(img.dtype)])


def cmd_segment(args) -> int:
    from .contour import brn_segment
    from .imgio import read_pgm_image, write_pgm
    from .models import load_model, predict_dmap, segment

    model = load_model(args.ckpt)
    img = read_pgm_image(args.image)

    start = time.perf_counter()
    if args.mode == "classifier":
        mask = segment(img, model)
    else:
        dmap = predict_dmap(img, model)
        mask = brn_segment(dmap, tau=args.tau, link_radius=args.link_radius)
    elapsed = time.perf_counter() - start

    write_pgm(args.out, mask)
    if args.overlay:
        write_pgm(args.overlay, _paint_overlay(img, mask))
    print(f"{Path(args.image).name}: {elapsed:.3f}s ({args.mode})")
    return EXIT_OK


def _mask_records(path):
    """Records for evaluation: a manifest file, or a directory of .pgm
    masks matched by file stem."""
    from .errors import IoFailure
    from .phantom import SampleRecord, read_manifest

    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob("*.pgm"))
        if not files:
            raise IoFailure(f"no .pgm masks in {path}")
        return [SampleRecord(id=f.stem, image=f, mask=f, dmap=f, split="test")
                for f in files]
    return read_manifest(path)


def cmd_eval(args) -> int:
    from .metrics import METRIC_NAMES, evaluate, write_report

    report = evaluate(
        _mask_records(args.pred),
        _mask_records(args.gt),
        _mask_records(args.compare) if args.compare else None,
    )
    write_report(args.report, report)
    undefined = sum(r.mean_distance is None for r in report.rows)
    if undefined:
        print(f"{undefined} of {len(report.rows)} samples have an empty mask: "
              "no boundary distance")
    agg = report.aggregate()
    for name in METRIC_NAMES:
        mean, std = agg[name]
        line = f"{name}: {mean:.4f} +/- {std:.4f}"
        if report.p_values is not None:
            p = report.p_values[name]
            line += "  p=na" if p is None else f"  p={p:.6g}"
        print(line)
    print(f"report written to {args.report}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boundseg",
        description="Boundary-distance-regression segmentation toolkit.",
    )
    parser.add_argument("--threads", type=int, default=1, metavar="N",
                        help="BLAS/OpenMP thread count (default 1, reproducible)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic phantom dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--n-train", type=int, required=True)
    p.add_argument("--n-test", type=int, required=True)
    p.add_argument("--size", type=int, default=64, help="square frame side (default 64)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--augment", type=int, default=0,
                   help="elastic variants per training sample (default 0)")
    p.add_argument("--range", action="append", metavar="KEY=LO,HI",
                   help="override a parameter range; repeatable")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("distmap", help="exact boundary distance map of a mask")
    p.add_argument("--mask", required=True, help="input mask (PGM)")
    p.add_argument("--out", required=True, help="output distance map (FMAP)")
    p.set_defaults(func=cmd_distmap)

    p = sub.add_parser("train", help="train a segmentation model")
    p.add_argument("--config", required=True,
                   help="key=value training config file; keys and defaults: "
                        + ", ".join(f"{k}={v}" for k, v in TRAIN_CONFIG_DEFAULTS.items()))
    p.add_argument("--data", required=True,
                   help="dataset directory (or manifest.tsv path)")
    p.add_argument("--out", required=True, help="checkpoint path (BSEG)")
    p.add_argument("--log", default=None,
                   help="training log path (default: checkpoint with .log.tsv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("segment", help="segment one image with a trained model")
    p.add_argument("--ckpt", required=True, help="model checkpoint (BSEG)")
    p.add_argument("--image", required=True, help="input image (PGM)")
    p.add_argument("--out", required=True, help="output mask (PGM)")
    p.add_argument("--mode", choices=("classifier", "brn"), default="classifier",
                   help="classifier head or distance-map contour reconstruction")
    p.add_argument("--tau", type=float, default=DEFAULT_TAU,
                   help="BRN threshold (default %(default)s)")
    p.add_argument("--link-radius", type=float, default=DEFAULT_LINK_RADIUS,
                   help="BRN site-linking radius in pixels, finite and >= 1 "
                        "(default %(default)s)")
    p.add_argument("--overlay", default=None,
                   help="optional triptych PGM (image | boundary | mask)")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("eval", help="score predicted masks against ground truth")
    p.add_argument("--pred", required=True,
                   help="directory of predicted masks (or manifest.tsv)")
    p.add_argument("--gt", required=True,
                   help="directory of ground-truth masks (or manifest.tsv)")
    p.add_argument("--compare", default=None,
                   help="second prediction set; adds paired Wilcoxon p-values")
    p.add_argument("--report", required=True, help="output report (TSV)")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads < 1:
        print("boundseg: --threads must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    _pin_threads(args.threads)
    _setup_logging()

    from .errors import DataError, NumericError

    _log_resolved(args)

    try:
        return args.func(args)
    except DataError as exc:
        print(f"boundseg: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"boundseg: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
