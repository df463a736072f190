"""Command-line surface: flag contracts, exit codes, determinism."""

import json
import logging
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from boundseg.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    TRAIN_CONFIG_DEFAULTS,
    build_parser,
    main,
    read_train_config,
)
from boundseg.contour import DEFAULT_LINK_RADIUS, DEFAULT_TAU
from boundseg.distmap import mask_to_distance_map
from boundseg.errors import InvalidParams
from boundseg.imgio import read_fmap, read_pgm_mask, write_pgm
from boundseg.metrics import read_report
from boundseg.models import (
    ClassifierSpec,
    EncoderSpec,
    HeadSpec,
    LossSchedule,
    PipelineConfig,
    desk_config,
)


def run_cli(*argv, env=None):
    """Spawn the CLI as a subprocess (fresh interpreter, real exit codes)."""
    return subprocess.run(
        [sys.executable, "-m", "boundseg", *map(str, argv)],
        capture_output=True, text=True, env=env)


def tree_bytes(root):
    """{relative path: content} for every file under root."""
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


TINY_CONFIG = """\
# desk-scale smoke config
input_size = 64
encoder_widths = 4,4,4,4,4
head_project = 4
head_deconv_widths = 4,4,4
classifier_widths = 4,4
lambda_start = 0.9
lambda_end = 0.1
epochs = 2
lr = 0.05
batch_size = 2
seed = 3
"""


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_ds") / "data"
    assert main(["gen", "--out", str(root), "--n-train", "4",
                 "--n-test", "2", "--seed", "11"]) == EXIT_OK
    return root


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory, dataset):
    root = tmp_path_factory.mktemp("cli_ck")
    cfg = root / "train.cfg"
    cfg.write_text(TINY_CONFIG)
    ck = root / "model.bseg"
    assert main(["train", "--config", str(cfg), "--data", str(dataset),
                 "--out", str(ck)]) == EXIT_OK
    return ck


# ---------------------------------------------------------------------------
# parser surface

def test_help_exits_zero_and_documents_subcommands():
    res = run_cli("--help")
    assert res.returncode == 0
    for name in ("gen", "distmap", "train", "segment", "eval", "--threads"):
        assert name in res.stdout


def test_train_help_lists_every_config_key_and_default():
    res = run_cli("train", "--help")
    assert res.returncode == 0
    text = " ".join(res.stdout.split())
    for key, default in TRAIN_CONFIG_DEFAULTS.items():
        assert f"{key}={default}" in text


def test_segment_help_shows_the_brn_defaults():
    res = run_cli("segment", "--help")
    assert res.returncode == 0
    text = " ".join(res.stdout.split())
    assert f"BRN threshold (default {DEFAULT_TAU})" in text
    assert f"(default {DEFAULT_LINK_RADIUS})" in text
    assert (DEFAULT_TAU, DEFAULT_LINK_RADIUS) == (0.6, 1.5)


def test_unknown_flag_exits_nonzero():
    res = run_cli("gen", "--out", "x", "--n-train", "1", "--n-test", "1",
                  "--frobnicate")
    assert res.returncode == EXIT_USAGE


def test_missing_subcommand_exits_usage():
    res = run_cli()
    assert res.returncode == EXIT_USAGE


def test_bad_threads_rejected(tmp_path):
    assert main(["--threads", "0", "gen", "--out", str(tmp_path / "d"),
                 "--n-train", "1", "--n-test", "1"]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# training config files

def test_cli_and_config_imports_leave_numpy_unloaded():
    # --threads must be pinned before numpy loads, so parsing loads none
    res = subprocess.run(
        [sys.executable, "-c", "import sys, boundseg.cli, boundseg.config; "
                               "print(sorted(m for m in sys.modules if m.startswith("
                               "('numpy', 'scipy'))))"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_read_train_config_defaults(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("# all defaults\n")
    config, schedule, hypers = read_train_config(cfg)
    assert config == desk_config()
    assert schedule == LossSchedule() == LossSchedule(0.9, 0.1, 60)
    assert hypers == {"lr": 0.1, "momentum": 0.9, "batch_size": 4, "seed": 0}


EVERY_KEY_CONFIG = """\
input_size = 48,40
encoder_widths = 6, 8,10,12
encoder_pools = 1,0,true,yes
encoder_dilations = 1,2,1,1
head_project = 12
head_deconv_widths = 10,8,6
classifier_widths = 5,7,9
classifier_mirror = TRUE
lambda_start = 0.8
lambda_end = 0.25
epochs = 3
lr = 0.05
momentum = 0
batch_size = 3
seed = 11
"""


def test_read_train_config_sets_every_key(tmp_path):
    cfg = tmp_path / "all.cfg"
    cfg.write_text(EVERY_KEY_CONFIG)
    assert len(EVERY_KEY_CONFIG.splitlines()) == len(TRAIN_CONFIG_DEFAULTS)
    config, schedule, hypers = read_train_config(cfg)
    assert config == PipelineConfig(
        input_size=(48, 40),
        encoder=EncoderSpec(widths=(6, 8, 10, 12), pools=(True, False, True, True),
                            dilations=(1, 2, 1, 1)),
        head=HeadSpec(project=12, deconv_widths=(10, 8, 6)),
        classifier=ClassifierSpec(widths=(5, 7, 9), mirror=True),
    )
    assert schedule == LossSchedule(0.8, 0.25, 3)
    assert hypers == {"lr": 0.05, "momentum": 0.0, "batch_size": 3, "seed": 11}
    assert type(hypers["momentum"]) is float


@pytest.mark.parametrize("line", ["encoder_pools = 2,1,1,0,0", "classifier_mirror = maybe",
                                  "input_size = 64,64,64", "head_deconv_widths = 4,,4"])
def test_read_train_config_rejects_a_malformed_value(tmp_path, line):
    # a pool flag is a boolean: 2 is not read as true
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(InvalidParams, match="bad value"):
        read_train_config(cfg)


def test_read_train_config_overrides_and_comments(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(TINY_CONFIG)
    config, schedule, hypers = read_train_config(cfg)
    assert config.encoder.widths == (4, 4, 4, 4, 4)
    assert schedule.total_epochs == 2
    assert hypers["batch_size"] == 2 and hypers["seed"] == 3


def test_read_train_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("learning_rate = 0.1\n")
    with pytest.raises(InvalidParams, match="unknown config key"):
        read_train_config(cfg)


def test_train_batch_size_zero_is_data_error(dataset, tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(TINY_CONFIG.replace("batch_size = 2", "batch_size = 0"))
    res = run_cli("train", "--config", cfg, "--data", dataset, "--out", tmp_path / "m.bseg")
    assert res.returncode == EXIT_DATA
    assert "Traceback" not in res.stderr
    assert "InvalidParams: batch_size must be >= 1, got 0" in res.stderr


@pytest.mark.parametrize("line, got", [
    ("lr = nan", "got lr nan, momentum 0.9"),
    ("lr = -0.1", "got lr -0.1, momentum 0.9"),
    ("momentum = -5", "got lr 0.05, momentum -5.0"),
    ("momentum = 1", "got lr 0.05, momentum 1.0"),
])
def test_train_unusable_optimiser_is_data_error(dataset, tmp_path, line, got):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(TINY_CONFIG + line + "\n")
    res = run_cli("train", "--config", cfg, "--data", dataset, "--out", tmp_path / "m.bseg")
    assert res.returncode == EXIT_DATA
    assert "Traceback" not in res.stderr
    assert ("InvalidParams: need a finite lr >= 0 and a momentum in [0, 1), " + got
            in res.stderr)
    assert not (tmp_path / "m.log.tsv").exists()


def test_read_train_config_rejects_bad_value(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epochs = many\n")
    with pytest.raises(InvalidParams):
        read_train_config(cfg)


# ---------------------------------------------------------------------------
# gen

def test_gen_writes_layout_and_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["gen", "--out", str(out), "--n-train", "2",
                     "--n-test", "1", "--seed", "7"]) == EXIT_OK
    assert (a / "manifest.tsv").is_file()
    assert tree_bytes(a) == tree_bytes(b)


def test_gen_range_override_and_rejection(tmp_path):
    out = tmp_path / "d"
    assert main(["gen", "--out", str(out), "--n-train", "1", "--n-test", "1",
                 "--seed", "1", "--range", "notch=0.0,0.1"]) == EXIT_OK
    assert main(["gen", "--out", str(tmp_path / "e"), "--n-train", "1",
                 "--n-test", "1", "--range", "bogus=0,1"]) == EXIT_DATA
    assert main(["gen", "--out", str(tmp_path / "f"), "--n-train", "1",
                 "--n-test", "1", "--range", "notch=0.5,0.1"]) == EXIT_DATA


@pytest.mark.parametrize("spec", ["notch=0,inf", "angle=-inf,0", "gain=nan,0",
                                  "angle=-1e308,1e308", "notch=0.5,0.1", "bogus=0,1",
                                  "notch", "notch=0", "notch=0,x"])
def test_gen_bad_range_is_data_error(tmp_path, spec):
    res = run_cli("gen", "--out", tmp_path / "d", "--n-train", "1", "--n-test", "1",
                  "--range", spec)
    assert res.returncode == EXIT_DATA
    assert "Traceback" not in res.stderr
    assert "InvalidParams" in res.stderr
    assert not (tmp_path / "d").exists()


def test_gen_huge_blur_sigma_is_data_error(tmp_path):
    res = run_cli("gen", "--out", tmp_path / "d", "--n-train", "1", "--n-test", "1",
                  "--range", "blur_sigma=1e300,1e300")
    assert res.returncode == EXIT_DATA
    assert "Traceback" not in res.stderr
    assert "InvalidParams" in res.stderr and "blur sigma 1e+300 outside [0, 64]" in res.stderr


def test_gen_negative_augment_is_data_error(tmp_path):
    res = run_cli("gen", "--out", tmp_path / "d", "--n-train", "1", "--n-test", "1",
                  "--augment", "-2")
    assert res.returncode == EXIT_DATA
    assert "Traceback" not in res.stderr
    assert "InvalidParams: augment must be >= 0, got -2" in res.stderr


# ---------------------------------------------------------------------------
# distmap

def test_distmap_roundtrip(tmp_path):
    m = np.zeros((32, 32), dtype=np.uint8)
    m[8:20, 10:25] = 1
    mask_path = tmp_path / "m.pgm"
    write_pgm(mask_path, m)
    out = tmp_path / "m.fmap"
    assert main(["distmap", "--mask", str(mask_path), "--out", str(out)]) == EXIT_OK
    got = read_fmap(out)
    assert np.array_equal(got, mask_to_distance_map(m))


def test_distmap_missing_input_is_data_error(tmp_path):
    assert main(["distmap", "--mask", str(tmp_path / "nope.pgm"),
                 "--out", str(tmp_path / "o.fmap")]) == EXIT_DATA


# ---------------------------------------------------------------------------
# train

def test_train_writes_checkpoint_and_log(checkpoint):
    assert checkpoint.is_file()
    assert checkpoint.with_suffix(".json").is_file()
    log = checkpoint.with_suffix(".log.tsv")
    assert log.is_file()
    rows = [l for l in log.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 2


def test_train_logs_resolved_training_config(dataset, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="boundseg")
    cfg = tmp_path / "t.cfg"
    cfg.write_text(TINY_CONFIG)
    assert main(["train", "--config", str(cfg), "--data", str(dataset),
                 "--out", str(tmp_path / "m.bseg")]) == EXIT_OK
    config, schedule, hypers = read_train_config(cfg)
    [line] = [r.getMessage() for r in caplog.records
              if r.getMessage().startswith("training config")]
    assert line == f"training config: {config}, {schedule}, {hypers}"
    assert "deconv_widths=(4, 4, 4)" in line and "'batch_size': 2" in line


def test_train_deterministic_across_runs(tmp_path, dataset):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(TINY_CONFIG)
    outs = []
    for name in ("one", "two"):
        ck = tmp_path / f"{name}.bseg"
        assert main(["train", "--config", str(cfg), "--data", str(dataset),
                     "--out", str(ck)]) == EXIT_OK
        outs.append(ck.read_bytes() + ck.with_suffix(".log.tsv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("bad", ["config", "manifest", "eval_manifest", "sidecar"])
def test_non_utf8_text_input_is_data_error(bad, dataset, checkpoint, tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(TINY_CONFIG)
    manifest = tmp_path / "manifest.tsv"
    shutil.copyfile(dataset / "manifest.tsv", manifest)
    ck = tmp_path / "model.bseg"
    shutil.copyfile(checkpoint, ck)
    shutil.copyfile(checkpoint.with_suffix(".json"), ck.with_suffix(".json"))
    target = {"config": cfg, "sidecar": ck.with_suffix(".json")}.get(bad, manifest)
    target.write_bytes(target.read_bytes() + b"# \xff\n")
    if bad == "eval_manifest":
        res = run_cli("eval", "--pred", dataset / "masks", "--gt", manifest,
                      "--report", tmp_path / "r.tsv")
    elif bad == "sidecar":
        res = run_cli("segment", "--ckpt", ck, "--image", dataset / "images" / "test_0000.pgm",
                      "--out", tmp_path / "o.pgm")
    else:
        res = run_cli("train", "--config", cfg, "--data", manifest,
                      "--out", tmp_path / "m.bseg")
    assert res.returncode == EXIT_DATA
    assert "Traceback" not in res.stderr
    assert "utf-8" in res.stderr.lower()


@pytest.mark.parametrize("command", ["gen", "train"])
def test_negative_seed_is_data_error(command, dataset, tmp_path):
    if command == "gen":
        res = run_cli("gen", "--out", tmp_path / "d", "--n-train", "1", "--n-test", "1",
                      "--seed", "-1")
    else:
        cfg = tmp_path / "t.cfg"
        cfg.write_text(TINY_CONFIG.replace("seed = 3", "seed = -2"))
        res = run_cli("train", "--config", cfg, "--data", dataset, "--out", tmp_path / "m.bseg")
    assert res.returncode == EXIT_DATA
    assert "Traceback" not in res.stderr
    assert "seed must be >= 0" in res.stderr


def test_train_missing_manifest_is_data_error(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(TINY_CONFIG)
    assert main(["train", "--config", str(cfg), "--data",
                 str(tmp_path / "nodata"), "--out",
                 str(tmp_path / "m.bseg")]) == EXIT_DATA


# ---------------------------------------------------------------------------
# segment

def test_segment_classifier_writes_mask_and_latency(checkpoint, dataset,
                                                    tmp_path, capsys):
    img = dataset / "images" / "test_0000.pgm"
    out = tmp_path / "pred.pgm"
    assert main(["segment", "--ckpt", str(checkpoint), "--image", str(img),
                 "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "test_0000.pgm" in printed and "s (classifier)" in printed
    mask = read_pgm_mask(out)
    assert mask.shape == (64, 64)
    assert set(np.unique(mask)) <= {0, 1}


def test_segment_deterministic(checkpoint, dataset, tmp_path):
    img = dataset / "images" / "test_0001.pgm"
    blobs = []
    for name in ("p1.pgm", "p2.pgm"):
        out = tmp_path / name
        assert main(["segment", "--ckpt", str(checkpoint), "--image", str(img),
                     "--out", str(out)]) == EXIT_OK
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_segment_brn_roundtrip_via_files(checkpoint, dataset, tmp_path):
    img = dataset / "images" / "test_0000.pgm"
    out = tmp_path / "brn.pgm"
    code = main(["segment", "--ckpt", str(checkpoint), "--image", str(img),
                 "--out", str(out), "--mode", "brn", "--tau", "0.2"])
    # An untrained-tiny model may legitimately fail contour reconstruction;
    # both a clean mask and a typed data/numeric error are in-contract here.
    if code == EXIT_OK:
        mask = read_pgm_mask(out)
        assert set(np.unique(mask)) <= {0, 1}
    else:
        assert code in (EXIT_DATA, 4)


@pytest.mark.parametrize("radius", ["nan", "inf"])
def test_segment_brn_rejects_a_non_finite_link_radius(checkpoint, dataset, tmp_path, radius):
    res = run_cli("segment", "--ckpt", checkpoint, "--image",
                  dataset / "images" / "test_0000.pgm", "--out", tmp_path / "o.pgm",
                  "--mode", "brn", "--tau", "1e-9", "--link-radius", radius)
    assert res.returncode == EXIT_DATA
    assert "Traceback" not in res.stderr
    assert f"InvalidParams: link radius must be finite, got {radius}" in res.stderr


@pytest.mark.parametrize("radius", ["-2", "0", "0.5"])
def test_segment_brn_rejects_a_link_radius_below_one(checkpoint, dataset, tmp_path, radius):
    res = run_cli("segment", "--ckpt", checkpoint, "--image",
                  dataset / "images" / "test_0000.pgm", "--out", tmp_path / "o.pgm",
                  "--mode", "brn", "--tau", "1e-9", "--link-radius", radius)
    assert res.returncode == EXIT_DATA
    assert "Traceback" not in res.stderr
    assert f"InvalidParams: link radius must be at least 1, got {float(radius)}" in res.stderr


def test_segment_overlay_triptych(checkpoint, dataset, tmp_path):
    img = dataset / "images" / "test_0000.pgm"
    out = tmp_path / "pred.pgm"
    tri = tmp_path / "tri.pgm"
    assert main(["segment", "--ckpt", str(checkpoint), "--image", str(img),
                 "--out", str(out), "--overlay", str(tri)]) == EXIT_OK
    from boundseg.imgio import read_pgm_image
    panel = read_pgm_image(tri)
    assert panel.shape == (64, 192)


def test_segment_missing_checkpoint_is_data_error(dataset, tmp_path):
    img = dataset / "images" / "test_0000.pgm"
    assert main(["segment", "--ckpt", str(tmp_path / "none.bseg"),
                 "--image", str(img),
                 "--out", str(tmp_path / "o.pgm")]) == EXIT_DATA


SIDECAR_MUTATIONS = {
    "missing_key": lambda m: m["config"]["head"].pop("project"),
    "float_project": lambda m: m["config"]["head"].update(project=2.0),
    "float_width": lambda m: m["config"]["encoder"].update(widths=[4, 4, 4.0, 4, 4]),
    "bool_width": lambda m: m["config"]["classifier"].update(widths=[4, True]),
    "float_input_size": lambda m: m["config"].update(input_size=[64.0, 64]),
    "string_mirror": lambda m: m["config"]["classifier"].update(mirror="no"),
    "string_pool": lambda m: m["config"]["encoder"].update(
        pools=["no", "no", "no", False, False]),
    "scalar_encoder": lambda m: m["config"].update(encoder=3),
    "scalar_input_size": lambda m: m["config"].update(input_size=64),
    "null_config": lambda m: m.update(config=None),
}


@pytest.mark.parametrize("mutation", sorted(SIDECAR_MUTATIONS))
def test_segment_sidecar_missing_key_is_data_error(mutation, checkpoint, dataset,
                                                   tmp_path):
    ck = tmp_path / "model.bseg"
    shutil.copyfile(checkpoint, ck)
    meta = json.loads(checkpoint.with_suffix(".json").read_text())
    SIDECAR_MUTATIONS[mutation](meta)
    ck.with_suffix(".json").write_text(json.dumps(meta))
    res = run_cli("segment", "--ckpt", ck,
                  "--image", dataset / "images" / "test_0000.pgm",
                  "--out", tmp_path / "o.pgm")
    assert res.returncode == EXIT_DATA
    assert "Traceback" not in res.stderr
    assert "IoFailure" in res.stderr


def test_segment_deeply_nested_sidecar_is_data_error(checkpoint, dataset, tmp_path):
    ck = tmp_path / "model.bseg"
    shutil.copyfile(checkpoint, ck)
    ck.with_suffix(".json").write_text('{"config":' + "[" * 200_000)
    res = run_cli("segment", "--ckpt", ck,
                  "--image", dataset / "images" / "test_0000.pgm",
                  "--out", tmp_path / "o.pgm")
    assert res.returncode == EXIT_DATA
    assert "Traceback" not in res.stderr
    assert "IoFailure: malformed config sidecar" in res.stderr
    assert "RecursionError" in res.stderr


def test_segment_logs_resolved_defaults(checkpoint, dataset, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="boundseg")
    assert main(["segment", "--ckpt", str(checkpoint),
                 "--image", str(dataset / "images" / "test_0000.pgm"),
                 "--out", str(tmp_path / "o.pgm")]) == EXIT_OK
    [line] = [r.getMessage() for r in caplog.records
              if r.getMessage().startswith("resolved config")]
    assert f"'tau': {DEFAULT_TAU!r}" in line
    assert f"'link_radius': {DEFAULT_LINK_RADIUS!r}" in line


# ---------------------------------------------------------------------------
# eval

def test_eval_pred_equals_gt_gives_dice_one(dataset, tmp_path, capsys):
    gt = dataset / "masks"
    report = tmp_path / "report.tsv"
    assert main(["eval", "--pred", str(gt), "--gt", str(gt),
                 "--report", str(report)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "dice: 1.0000 +/- 0.0000" in out
    back = read_report(report)
    assert all(r.dice == 1.0 for r in back.rows)


def test_eval_with_compare_adds_pvalues(dataset, tmp_path, capsys):
    gt = dataset / "masks"
    # Degrade a copy of the masks to make a second, worse prediction set.
    worse = tmp_path / "worse"
    worse.mkdir()
    for f in sorted(gt.glob("*.pgm")):
        m = read_pgm_mask(f)
        m[:, :3] = 1 - m[:, :3]
        write_pgm(worse / f.name, m)
    report = tmp_path / "report.tsv"
    assert main(["eval", "--pred", str(gt), "--gt", str(gt),
                 "--compare", str(worse), "--report", str(report)]) == EXIT_OK
    back = read_report(report)
    assert back.p_values is not None
    printed = capsys.readouterr().out
    assert "p=" in printed


def test_eval_mismatched_ids_is_data_error(dataset, tmp_path):
    gt = dataset / "masks"
    partial = tmp_path / "partial"
    partial.mkdir()
    first = sorted(gt.glob("*.pgm"))[0]
    (partial / first.name).write_bytes(first.read_bytes())
    assert main(["eval", "--pred", str(partial), "--gt", str(gt),
                 "--report", str(tmp_path / "r.tsv")]) == EXIT_DATA


def test_eval_empty_dir_is_data_error(dataset, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["eval", "--pred", str(empty), "--gt", str(dataset / "masks"),
                 "--report", str(tmp_path / "r.tsv")]) == EXIT_DATA


def test_eval_reads_utf8_manifest_under_ascii_locale(dataset, tmp_path):
    # ids and comments outside ASCII must not depend on the locale's encoding
    mask = (dataset / "masks" / "test_0000.pgm").resolve()
    manifest = tmp_path / "manifest.tsv"
    manifest.write_bytes(("# préd\n" + "\t".join(
        ["café", str(mask), str(mask), str(mask), "test"]) + "\n").encode("utf-8"))
    report = tmp_path / "r.tsv"
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    res = run_cli("eval", "--pred", manifest, "--gt", manifest, "--report", report,
                  env=env)
    assert res.returncode == EXIT_OK, res.stderr
    assert [r.id for r in read_report(report).rows] == ["café"]


def test_eval_deterministic_report(dataset, tmp_path):
    gt = dataset / "masks"
    blobs = []
    for name in ("r1.tsv", "r2.tsv"):
        rp = tmp_path / name
        assert main(["eval", "--pred", str(gt), "--gt", str(gt),
                     "--report", str(rp)]) == EXIT_OK
        blobs.append(rp.read_bytes())
    assert blobs[0] == blobs[1]


def test_eval_scores_an_empty_predicted_mask(dataset, tmp_path, capsys):
    gt = dataset / "masks"
    pred = tmp_path / "pred"
    shutil.copytree(gt, pred)
    empty = sorted(pred.glob("*.pgm"))[0]
    write_pgm(empty, np.zeros_like(read_pgm_mask(empty)))
    report = tmp_path / "report.tsv"
    assert main(["eval", "--pred", str(pred), "--gt", str(gt),
                 "--compare", str(gt), "--report", str(report)]) == EXIT_OK
    out = capsys.readouterr().out
    assert f"1 of {len(list(gt.glob('*.pgm')))} samples have an empty mask" in out
    assert "mean_distance: 0.0000 +/- 0.0000" in out
    row = report.read_text().splitlines()[2].split("\t")
    assert row == [empty.stem, "0.0", "na", row[3]]
    back = read_report(report)
    assert back.rows[0].mean_distance is None
    assert all(r.mean_distance == 0.0 for r in back.rows[1:])


def test_eval_of_a_truncated_mask_is_data_error(dataset, tmp_path):
    pred = tmp_path / "pred"
    shutil.copytree(dataset / "masks", pred)
    cut = sorted(pred.glob("*.pgm"))[0]
    cut.write_bytes(cut.read_bytes()[:-100])
    report = tmp_path / "r.tsv"
    res = run_cli("eval", "--pred", pred, "--gt", dataset / "masks", "--report", report)
    assert res.returncode == EXIT_DATA, res.stderr
    assert "Traceback" not in res.stderr
    assert "TruncatedData" in res.stderr and cut.name in res.stderr
    assert not report.exists()


def test_eval_prints_no_empty_mask_line_without_one(dataset, capsys, tmp_path):
    gt = dataset / "masks"
    assert main(["eval", "--pred", str(gt), "--gt", str(gt),
                 "--report", str(tmp_path / "r.tsv")]) == EXIT_OK
    assert "empty mask" not in capsys.readouterr().out


def test_eval_of_an_id_that_reads_as_a_comment_is_data_error(dataset, tmp_path):
    masks = tmp_path / "masks"
    masks.mkdir()
    shutil.copyfile(dataset / "masks" / "test_0000.pgm", masks / "#x.pgm")
    report = tmp_path / "r.tsv"
    res = run_cli("eval", "--pred", masks, "--gt", masks, "--report", report)
    assert res.returncode == EXIT_DATA
    assert "Traceback" not in res.stderr
    assert "IoFailure: cannot write report" in res.stderr
    assert not report.exists()
