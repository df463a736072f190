"""Spans around the program's public functions, recorded from outside.

`Tracer.install` replaces each traced function with a timing wrapper in
every `boundseg` module that holds a reference to it (a name imported
with `from .x import f` is a separate binding, so patching only the
defining module would miss those calls).  Spans are kept in memory as
(name, start, end, parent, work) rows and written out once, when the run
ends.  `layer_metrics` turns them into the per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

MB = float(1 << 20)

# (module, attribute) of every traced function; the span name is the
# last module component plus the attribute.
TARGETS = (
    ("boundseg.nn.ops", "conv2d"),
    ("boundseg.nn.ops", "conv2d_vjp"),
    ("boundseg.nn.ops", "transposed_conv2d"),
    ("boundseg.nn.ops", "transposed_conv2d_vjp"),
    ("boundseg.nn.ops", "maxpool2d"),
    ("boundseg.nn.ops", "maxpool2d_vjp"),
    ("boundseg.nn.ops", "relu"),
    ("boundseg.nn.ops", "relu_vjp"),
    ("boundseg.nn.ops", "l2_loss"),
    ("boundseg.nn.ops", "l2_loss_grad"),
    ("boundseg.nn.ops", "softmax_ce_loss"),
    ("boundseg.nn.ops", "softmax_ce_grad"),
    ("boundseg.nn.layers", "sgd_step"),
    ("boundseg.nn.checkpoint", "save_checkpoint"),
    ("boundseg.nn.checkpoint", "load_checkpoint"),
    ("boundseg.models", "SegmentationModel.forward"),
    ("boundseg.models", "SegmentationModel.backward"),
    ("boundseg.models", "segment_batch"),
    ("boundseg.models", "segment"),
    ("boundseg.models", "train"),
    ("boundseg.models", "load_model"),
    ("boundseg.models", "save_model"),
    ("boundseg.phantom", "generate_sample"),
    ("boundseg.phantom", "make_dataset"),
    ("boundseg.distmap", "euclidean_dt"),
    ("boundseg.contour", "thin"),
    ("boundseg.contour", "build_graph"),
    ("boundseg.contour", "mst_max_path"),
    ("boundseg.contour", "close_and_fill"),
    ("boundseg.contour", "brn_segment"),
    ("boundseg.metrics", "dice"),
    ("boundseg.metrics", "mean_boundary_distance"),
    ("boundseg.metrics", "evaluate"),
    ("boundseg.imgio", "read_pgm_image"),
    ("boundseg.imgio", "read_pgm_mask"),
    ("boundseg.imgio", "read_fmap"),
    ("boundseg.imgio", "write_pgm"),
    ("boundseg.imgio", "write_fmap"),
)


# -- work done by a call, from its arguments' shapes -------------------------

def _conv_work(x, spec, *_):
    n, _, h, w = x.shape
    oh, ow = spec.out_hw(h, w)
    kh, kw = spec.kernel
    macs = n * oh * ow * spec.out_channels * spec.in_channels * kh * kw
    windows = n * spec.in_channels * oh * ow * kh * kw * x.itemsize
    return 2 * macs, windows


def _deconv_work(x, spec, *_):
    n, _, ih, iw = x.shape
    kh, kw = spec.kernel
    macs = n * ih * iw * spec.in_channels * spec.out_channels * kh * kw
    windows = n * spec.out_channels * ih * iw * kh * kw * x.itemsize
    return 2 * macs, windows


def _conv_fwd(args, result):
    flops, windows = _conv_work(*args)
    return {"flop": flops, "window_bytes": windows}


def _conv_bwd(args, result):
    # gw and gx each cost one forward; the patch tensor and the
    # per-tap product tensor are both k^2-sized
    flops, windows = _conv_work(*args)
    return {"flop": 2 * flops, "window_bytes": 2 * windows}


def _deconv_fwd(args, result):
    flops, windows = _deconv_work(*args)
    return {"flop": flops, "window_bytes": windows}


def _deconv_bwd(args, result):
    flops, windows = _deconv_work(*args)
    return {"flop": 2 * flops, "window_bytes": 2 * windows}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


WORK = {
    "ops.conv2d": _conv_fwd,
    "ops.conv2d_vjp": _conv_bwd,
    "ops.transposed_conv2d": _deconv_fwd,
    "ops.transposed_conv2d_vjp": _deconv_bwd,
    "imgio.read_pgm_image": _file_bytes,
    "imgio.read_pgm_mask": _file_bytes,
    "imgio.read_fmap": _file_bytes,
    "imgio.write_pgm": _file_bytes,
    "imgio.write_fmap": _file_bytes,
    "checkpoint.save_checkpoint": _file_bytes,
    "checkpoint.load_checkpoint": _file_bytes,
}


def span_name(module: str, attr: str) -> str:
    """'boundseg.nn.ops', 'conv2d' -> 'ops.conv2d';
    'boundseg.models', 'SegmentationModel.forward' -> 'models.forward'."""
    return f"{module.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Records one span per call of each traced function."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, work]
        self._open: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn):
        work = WORK.get(name)
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [name, clock(), 0.0, open_[-1] if open_ else -1, None]
            spans.append(row)
            open_.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                open_.pop()
            if work is not None:
                row[4] = work(args, result)
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        for module_name, attr in targets:
            module = importlib.import_module(module_name)
            name = span_name(module_name, attr)
            if "." in attr:  # a method: rebind it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for holder in list(sys.modules.values()):
                if not getattr(holder, "__name__", "").startswith("boundseg"):
                    continue
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"columns": ["name", "start", "end", "parent", "work"],
                       "spans": self.spans}, f, separators=(",", ":"))


# -- per-layer figures -------------------------------------------------------

class _Sums:
    __slots__ = ("calls", "incl", "self_", "work")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_ = 0.0
        self.work: dict[str, float] = {}


def _aggregate(spans, keep) -> dict[str, _Sums]:
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, _Sums] = {}
    for i, (name, start, end, parent, work) in enumerate(spans):
        if not keep(i):
            continue
        s = out.setdefault(name, _Sums())
        s.calls += 1
        s.incl += end - start
        s.self_ += end - start - child_time[i]
        for k, v in (work or {}).items():
            s.work[k] = s.work.get(k, 0.0) + v
    return out


def _has_ancestor(spans, i: int, name: str) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


# name, unit, better: the per-layer metrics every traced run prints
LAYER_METRICS = (
    ("ops.conv2d.ms", "ms", "lower"),
    ("ops.conv2d_vjp.ms", "ms", "lower"),
    ("ops.transposed_conv2d.ms", "ms", "lower"),
    ("ops.transposed_conv2d_vjp.ms", "ms", "lower"),
    ("ops.maxpool2d.ms", "ms", "lower"),
    ("ops.maxpool2d_vjp.ms", "ms", "lower"),
    ("ops.relu.ms", "ms", "lower"),
    ("ops.loss.ms", "ms", "lower"),
    ("ops.conv.gflop", "GFLOP", "lower"),
    ("ops.conv.gflop_per_s", "GFLOP/s", "higher"),
    ("ops.conv.window_mb", "MB", "lower"),
    ("layers.sgd_step.ms", "ms", "lower"),
    ("models.forward.ms", "ms", "lower"),
    ("models.backward.ms", "ms", "lower"),
    ("models.validate.ms", "ms", "lower"),
    ("models.train.self_ms", "ms", "lower"),
    ("models.load_model.ms", "ms", "lower"),
    ("models.save_model.ms", "ms", "lower"),
    ("phantom.generate_sample.self_ms", "ms", "lower"),
    ("distmap.euclidean_dt.ms", "ms", "lower"),
    ("distmap.euclidean_dt.calls", "count", "lower"),
    ("contour.thin.ms", "ms", "lower"),
    ("contour.build_graph.ms", "ms", "lower"),
    ("contour.mst_max_path.ms", "ms", "lower"),
    ("contour.close_and_fill.ms", "ms", "lower"),
    ("contour.graphs_per_brn", "count", "lower"),
    ("metrics.mean_boundary_distance.self_ms", "ms", "lower"),
    ("metrics.dice.ms", "ms", "lower"),
    ("imgio.read.ms", "ms", "lower"),
    ("imgio.write.ms", "ms", "lower"),
    ("imgio.mb", "MB", "lower"),
    ("checkpoint.mb", "MB", "lower"),
)

CONV_SPANS = ("ops.conv2d", "ops.conv2d_vjp",
              "ops.transposed_conv2d", "ops.transposed_conv2d_vjp")
LOSS_SPANS = ("ops.l2_loss", "ops.l2_loss_grad",
              "ops.softmax_ce_loss", "ops.softmax_ce_grad")
READ_SPANS = ("imgio.read_pgm_image", "imgio.read_pgm_mask", "imgio.read_fmap")
WRITE_SPANS = ("imgio.write_pgm", "imgio.write_fmap")


def layer_metrics(spans, window_start: float, rounds: int) -> dict[str, float]:
    """Per-layer figures of one traced run.

    Spans that start inside the measured window are summed and divided
    by the number of rounds run in it.  The functions that on some
    workload run only during set-up (checkpoint load/save, sample
    rendering, the distance transform) are reported per call over the
    whole run instead, so they are measured on every workload.
    """
    in_window = _aggregate(spans, lambda i: spans[i][1] >= window_start)
    whole_run = _aggregate(spans, lambda i: True)
    empty = _Sums()

    def win(*names) -> list[_Sums]:
        return [in_window.get(n, empty) for n in names]

    def per_round(value: float) -> float:
        return value / rounds

    def ms_per_round(*names) -> float:
        return per_round(1000.0 * sum(s.incl for s in win(*names)))

    def ms_per_call(name: str, self_time: bool = False) -> float:
        s = whole_run.get(name, empty)
        if not s.calls:
            return 0.0
        return 1000.0 * (s.self_ if self_time else s.incl) / s.calls

    conv = win(*CONV_SPANS)
    conv_flop = sum(s.work.get("flop", 0.0) for s in conv)
    conv_time = sum(s.incl for s in conv)
    validate = sum(spans[i][2] - spans[i][1] for i in range(len(spans))
                   if spans[i][0] == "models.segment_batch"
                   and spans[i][1] >= window_start
                   and _has_ancestor(spans, i, "models.train"))
    io_bytes = sum(s.work.get("bytes", 0.0) for s in win(*READ_SPANS, *WRITE_SPANS))
    ckpt = [whole_run.get(n, empty)
            for n in ("checkpoint.save_checkpoint", "checkpoint.load_checkpoint")]
    ckpt_calls = sum(s.calls for s in ckpt)
    (brn,), (graphs,) = win("contour.brn_segment"), win("contour.build_graph")

    return {
        "ops.conv2d.ms": ms_per_round("ops.conv2d"),
        "ops.conv2d_vjp.ms": ms_per_round("ops.conv2d_vjp"),
        "ops.transposed_conv2d.ms": ms_per_round("ops.transposed_conv2d"),
        "ops.transposed_conv2d_vjp.ms": ms_per_round("ops.transposed_conv2d_vjp"),
        "ops.maxpool2d.ms": ms_per_round("ops.maxpool2d"),
        "ops.maxpool2d_vjp.ms": ms_per_round("ops.maxpool2d_vjp"),
        "ops.relu.ms": ms_per_round("ops.relu", "ops.relu_vjp"),
        "ops.loss.ms": ms_per_round(*LOSS_SPANS),
        "ops.conv.gflop": per_round(conv_flop / 1e9),
        "ops.conv.gflop_per_s": conv_flop / 1e9 / conv_time if conv_time else 0.0,
        "ops.conv.window_mb": per_round(
            sum(s.work.get("window_bytes", 0.0) for s in conv) / MB),
        "layers.sgd_step.ms": ms_per_round("layers.sgd_step"),
        "models.forward.ms": ms_per_round("models.forward"),
        "models.backward.ms": ms_per_round("models.backward"),
        "models.validate.ms": per_round(1000.0 * validate),
        "models.train.self_ms": per_round(
            1000.0 * in_window.get("models.train", empty).self_),
        "models.load_model.ms": ms_per_call("models.load_model"),
        "models.save_model.ms": ms_per_call("models.save_model"),
        "phantom.generate_sample.self_ms": ms_per_call(
            "phantom.generate_sample", self_time=True),
        "distmap.euclidean_dt.ms": ms_per_call("distmap.euclidean_dt"),
        "distmap.euclidean_dt.calls": per_round(
            in_window.get("distmap.euclidean_dt", empty).calls),
        "contour.thin.ms": ms_per_round("contour.thin"),
        "contour.build_graph.ms": ms_per_round("contour.build_graph"),
        "contour.mst_max_path.ms": ms_per_round("contour.mst_max_path"),
        "contour.close_and_fill.ms": ms_per_round("contour.close_and_fill"),
        "contour.graphs_per_brn": graphs.calls / brn.calls if brn.calls else 0.0,
        "metrics.mean_boundary_distance.self_ms": per_round(
            1000.0 * in_window.get("metrics.mean_boundary_distance", empty).self_),
        "metrics.dice.ms": ms_per_round("metrics.dice"),
        "imgio.read.ms": ms_per_round(*READ_SPANS),
        "imgio.write.ms": ms_per_round(*WRITE_SPANS),
        "imgio.mb": per_round(io_bytes / MB),
        "checkpoint.mb": (sum(s.work.get("bytes", 0.0) for s in ckpt) / MB / ckpt_calls
                          if ckpt_calls else 0.0),
    }
