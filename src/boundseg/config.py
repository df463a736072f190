"""The config schema: the frozen dataclasses the pipeline is built from
(the JSON sidecar is their `asdict`), and the training file whose keys,
defaults and value types are read off them.  Only `dataclasses` and
`.errors` are imported, so the CLI parses its arguments before NumPy
loads and --threads can pin the BLAS thread pools first.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace

from .errors import InvalidParams, opened

DOWNSAMPLE_FACTOR = 8
DEFAULT_TAU = 0.6          # BRN threshold on the predicted map
DEFAULT_LINK_RADIUS = 1.5  # BRN skeleton-linking radius, px


def _check_type(what: str, kind: type, *values) -> None:
    """Sizes are exactly int and switches exactly bool: a float width fails
    deep in the engine, and a string switch is silently truthy."""
    for v in values:
        if type(v) is not kind:
            raise InvalidParams(f"{what} must be {kind.__name__}, got {v!r}")


@dataclass(frozen=True)
class EncoderSpec:
    """Stack of 3x3 conv blocks; pooled blocks halve resolution (ceil),
    later blocks keep it with atrous dilation."""

    in_channels: int = 3
    widths: tuple[int, ...] = (16, 32, 64, 64, 64)
    pools: tuple[bool, ...] = (True, True, True, False, False)
    dilations: tuple[int, ...] = (1, 1, 1, 2, 4)

    def __post_init__(self):
        _check_type("encoder sizes", int, self.in_channels, *self.widths, *self.dilations)
        _check_type("encoder pools", bool, *self.pools)
        if not (len(self.widths) == len(self.pools) == len(self.dilations)):
            raise InvalidParams("encoder widths/pools/dilations lengths differ")
        if sum(self.pools) != 3:
            raise InvalidParams(
                f"encoder needs exactly 3 pooling stages for the x{DOWNSAMPLE_FACTOR} "
                f"downsampling factor, got {sum(self.pools)}")
        if any(d < 1 for d in self.dilations) or any(w < 1 for w in self.widths):
            raise InvalidParams("encoder widths and dilations must be >= 1")


@dataclass(frozen=True)
class HeadSpec:
    """1x1 projection, three stride-2 deconvs, 1x1 linear output."""

    project: int = 128
    deconv_widths: tuple[int, int, int] = (64, 32, 16)
    out_channels: int = 1

    def __post_init__(self):
        _check_type("head widths", int, self.project, *self.deconv_widths,
                    self.out_channels)
        if len(self.deconv_widths) != 3:
            raise InvalidParams(
                f"head needs exactly 3 stride-2 deconv layers, "
                f"got {len(self.deconv_widths)}")
        if self.project < 1 or self.out_channels < 1 or min(self.deconv_widths) < 1:
            raise InvalidParams("head widths must be >= 1")


@dataclass(frozen=True)
class ClassifierSpec:
    """Two 3x3 conv layers (ReLU) then 1x1 conv to 2 channels, run at
    full resolution on the predicted map; `mirror` swaps in the full
    encoder+head architecture instead."""

    widths: tuple[int, ...] = (16, 16)
    dilations: tuple[int, ...] | None = None
    mirror: bool = False

    def __post_init__(self):
        _check_type("classifier sizes", int, *self.widths, *(self.dilations or ()))
        _check_type("classifier mirror", bool, self.mirror)
        if self.dilations is not None and len(self.dilations) != len(self.widths):
            raise InvalidParams("classifier dilations must match widths")
        if min(self.widths, default=1) < 1:
            raise InvalidParams("classifier widths must be >= 1")


@dataclass(frozen=True)
class PipelineConfig:
    input_size: tuple[int, int] = (64, 64)
    encoder: EncoderSpec = EncoderSpec()
    head: HeadSpec = HeadSpec()
    classifier: ClassifierSpec = ClassifierSpec()

    def __post_init__(self):
        h, w = self.input_size
        _check_type("input size", int, h, w)
        if h < 16 or w < 16:
            raise InvalidParams(f"input size {h}x{w} too small (need >= 16)")


@dataclass(frozen=True)
class LossSchedule:
    """Per-epoch loss weight: lambda * l2 + (1 - lambda) * cross-entropy,
    interpolated linearly from start to end over the run."""

    lambda_start: float = 0.9
    lambda_end: float = 0.1
    total_epochs: int = 60

    def __post_init__(self):
        for v in (self.lambda_start, self.lambda_end):
            if not 0.0 <= v <= 1.0:
                raise InvalidParams(f"lambda {v} outside [0, 1]")
        if self.lambda_start < self.lambda_end:
            raise InvalidParams("lambda must not increase over training")
        _check_type("total epochs", int, self.total_epochs)
        if self.total_epochs < 1:
            raise InvalidParams("need at least one epoch")

    def lambda_at(self, epoch: int) -> float:
        if self.total_epochs == 1:
            return self.lambda_start
        t = epoch / (self.total_epochs - 1)
        lam = self.lambda_start + (self.lambda_end - self.lambda_start) * t
        return min(1.0, max(0.0, lam))


def desk_config() -> PipelineConfig:
    """Small configuration that trains in minutes on a CPU."""
    return PipelineConfig()


def reference_config() -> PipelineConfig:
    """Full-scale topology: 321x321 inputs, 41x41x1024 features, and a
    mirrored classifier."""
    return PipelineConfig(
        input_size=(321, 321),
        encoder=EncoderSpec(widths=(64, 128, 256, 512, 1024)),
        head=HeadSpec(project=256, deconv_widths=(128, 64, 32)),
        classifier=ClassifierSpec(mirror=True),
    )


def brn_training_schedule(total_epochs: int = 60) -> LossSchedule:
    """Regression-only training (lambda pinned at 1): the standalone
    boundary regression network used as the BRN baseline."""
    return LossSchedule(1.0, 1.0, total_epochs)


def _from_dict(cls, d):
    """The inverse of `asdict` on the config dataclasses: a field whose
    default is a dataclass is read as one, and JSON lists become tuples."""
    values = {}
    for f in fields(cls):
        v = d[f.name]
        if is_dataclass(f.default):
            v = _from_dict(type(f.default), v)
        values[f.name] = tuple(v) if isinstance(v, list) else v
    return cls(**values)


# ---------------------------------------------------------------------------
# training config files

# Besides `input_size`, a training file sets these `<section>_<field>`s of
# the desk config, the schedule's fields under their own names, and SGD.
_PIPELINE_KEYS = ("encoder_widths", "encoder_pools", "encoder_dilations", "head_project",
                  "head_deconv_widths", "classifier_widths", "classifier_mirror")
_SCHEDULE_KEYS = {"lambda_start": "lambda_start", "lambda_end": "lambda_end",
                  "epochs": "total_epochs"}
_OPTIMISER_DEFAULTS = {"lr": 0.1, "momentum": 0.9, "batch_size": 4, "seed": 0}
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _typed_defaults() -> dict:
    """Every training-file key with its default, in file order."""
    config, schedule = desk_config(), LossSchedule()
    h, w = config.input_size
    values = {"input_size": (h,) if h == w else (h, w)}  # a square size is written once
    for key in _PIPELINE_KEYS:
        section, _, name = key.partition("_")
        values[key] = getattr(getattr(config, section), name)
    values.update({key: getattr(schedule, name) for key, name in _SCHEDULE_KEYS.items()})
    return values | _OPTIMISER_DEFAULTS


def _parse(default, text: str):
    """`text` as a value of `default`'s type: comma-separated for a tuple,
    true/false, 1/0 or yes/no for a bool."""
    if isinstance(default, tuple):
        return tuple(_parse(default[0], tok) for tok in text.split(","))
    if isinstance(default, bool):
        if text.strip().lower() not in _BOOLS:
            raise ValueError(f"expected a boolean, got {text!r}")
        return _BOOLS[text.strip().lower()]
    return type(default)(text)


# Every knob a training config file may set, with its default as the file
# writes it.  Unknown keys are rejected.  Lists are comma-separated.
TRAIN_CONFIG_DEFAULTS = {key: ",".join(str(int(v)) for v in d) if isinstance(d, tuple)
                         else str(d).lower() for key, d in _typed_defaults().items()}


def read_train_config(path):
    """Parse a key=value training config file into
    (PipelineConfig, LossSchedule, hyperparameter dict)."""
    defaults = _typed_defaults()
    values = dict(defaults)
    with opened(path, "r", "config") as f:
        text = f.read()
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidParams(f"{path}:{lineno}: expected key = value, got {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in defaults:
                raise InvalidParams(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _parse(defaults[key], val.strip())

        sections = {}
        for key in _PIPELINE_KEYS:
            section, _, name = key.partition("_")
            sections.setdefault(section, {})[name] = values[key]
        base, size = desk_config(), values["input_size"]
        config = replace(base, input_size=size * 2 if len(size) == 1 else size,
                         **{s: replace(getattr(base, s), **kw) for s, kw in sections.items()})
    except ValueError as exc:
        raise InvalidParams(f"{path}: bad value: {exc}") from exc
    schedule = LossSchedule(**{name: values[key] for key, name in _SCHEDULE_KEYS.items()})
    return config, schedule, {key: values[key] for key in _OPTIMISER_DEFAULTS}
