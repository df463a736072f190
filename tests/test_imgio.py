import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boundseg import imgio
from boundseg.errors import BadMagic, BoundsegError, IoFailure, MalformedHeader, TruncatedData
from boundseg.metrics import EvalReport, SampleMetrics, read_report, write_report
from boundseg.models import EpochRecord, read_training_log, write_training_log
from boundseg.phantom import make_dataset, read_manifest


def test_pgm_image_roundtrip_quantization_bound(tmp_path):
    rng = np.random.default_rng(3)
    img = rng.random((32, 32)).astype(np.float32)
    p = tmp_path / "a.pgm"
    imgio.write_pgm(p, img)
    back = imgio.read_pgm_image(p)
    assert back.dtype == np.float32
    assert back.shape == img.shape
    # 8-bit quantization: worst case half a step of 1/255
    assert np.abs(back - img).max() <= 1.0 / 510 + 1e-7


def test_pgm_mask_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(4)
    mask = (rng.random((17, 23)) > 0.5).astype(np.uint8)
    p = tmp_path / "m.pgm"
    imgio.write_pgm(p, mask)
    assert np.array_equal(imgio.read_pgm_mask(p), mask)


def test_pgm_write_is_deterministic(tmp_path):
    img = np.linspace(0, 1, 64, dtype=np.float32).reshape(8, 8)
    pa, pb = tmp_path / "a.pgm", tmp_path / "b.pgm"
    imgio.write_pgm(pa, img)
    imgio.write_pgm(pb, img)
    assert pa.read_bytes() == pb.read_bytes()


def test_pgm_header_comments_and_whitespace(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n# a comment\n3 2\n# another\n255\n" + bytes(6))
    img = imgio.read_pgm_image(p)
    assert img.shape == (2, 3)
    assert (img == 0).all()


def test_pgm_rejects_wrong_magic(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P2\n3 2\n255\n0 0 0 0 0 0\n")
    with pytest.raises(MalformedHeader):
        imgio.read_pgm_image(p)


def test_pgm_rejects_truncated_payload(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(TruncatedData):
        imgio.read_pgm_image(p)


def test_pgm_rejects_bad_maxval(tmp_path):
    p = tmp_path / "mv.pgm"
    p.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(MalformedHeader):
        imgio.read_pgm_image(p)


def test_fmap_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(5)
    grid = rng.standard_normal((21, 13)).astype(np.float32)
    p = tmp_path / "g.fmap"
    imgio.write_fmap(p, grid)
    back = imgio.read_fmap(p)
    assert back.dtype == np.float32
    assert np.array_equal(back, grid)
    assert back.tobytes() == grid.tobytes()


def test_fmap_1x1_file_size(tmp_path):
    # 4 magic + 4 width + 4 height + 4 payload
    p = tmp_path / "one.fmap"
    imgio.write_fmap(p, np.array([[0.5]], dtype=np.float32))
    assert p.stat().st_size == 16


def test_fmap_wrong_magic(tmp_path):
    p = tmp_path / "bad.fmap"
    p.write_bytes(b"XMAP" + bytes(12))
    with pytest.raises(BadMagic):
        imgio.read_fmap(p)


def test_fmap_truncated(tmp_path):
    p = tmp_path / "short.fmap"
    imgio.write_fmap(p, np.ones((4, 4), dtype=np.float32))
    blob = p.read_bytes()
    p.write_bytes(blob[:-5])
    with pytest.raises(TruncatedData):
        imgio.read_fmap(p)


# ---------------------------------------------------------------------------
# tables

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=300)

# a cell that reads back: no tab or line break, and no lone surrogate (not UTF-8)
TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
               max_size=8)
FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1.7976931348623157e308])
COLUMNS = {"str": (str, TEXT), "int": (int, st.integers(-2**70, 2**70)),
           "float": (float, FLOATS),
           "optional": (imgio.optional(float), st.none() | FLOATS)}


@st.composite
def tables(draw):
    """(types, rows, head, tail) of a table that `write_table` must accept."""
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMNS)), min_size=1, max_size=5))
    row = st.tuples(*(COLUMNS[k][1] for k in kinds)).filter(
        lambda r: not (isinstance(r[0], str) and r[0].startswith("#"))
        and (len(r) > 1 or r[0] != ""))
    comment = st.lists(TEXT, min_size=1, max_size=3).map(tuple)
    return (tuple(COLUMNS[k][0] for k in kinds), draw(st.lists(row, max_size=6)),
            draw(st.lists(comment, max_size=2)), draw(st.lists(comment, max_size=2)))


def cells(rows):
    """Rows compared by repr, so nan equals nan and -0.0 differs from 0.0."""
    return [tuple(map(repr, r)) for r in rows]


@FUZZ
@given(tables(), st.integers(0, 6))
@example(((str, imgio.optional(float)), [("na", None), (" ", -0.0)], [("",)], []), 1)
def test_table_roundtrip(table, split):
    types, rows, head, tail = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.tsv"
        imgio.write_table(path, "table", head, rows[:split])
        imgio.write_table(path, "table", (), rows[split:], tail, mode="a")
        back, comments = imgio.read_table(path, "table", types)
    assert cells(back) == cells(rows)
    assert comments == [list(c) for c in head + tail]


@FUZZ
@given(tables(), st.sampled_from(["tab", "newline", "return", "hash", "blank"]),
       st.data())
def test_table_rejects_a_cell_that_would_not_read_back(table, flaw, data):
    types, rows, head, tail = table
    if flaw == "hash":
        bad = ("#" + data.draw(TEXT), *(data.draw(TEXT) for _ in types[1:]))
    elif flaw == "blank":
        bad = ("",) if data.draw(st.booleans()) else ()
    else:
        text = data.draw(TEXT)
        at = data.draw(st.integers(0, len(text)))
        mark = {"tab": "\t", "newline": "\n", "return": "\r"}[flaw]
        bad = [data.draw(TEXT) for _ in types]
        bad[data.draw(st.integers(0, len(types) - 1))] = text[:at] + mark + text[at:]
        bad = tuple(bad)
    where = data.draw(st.integers(0, len(rows)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.tsv"
        with pytest.raises(IoFailure, match="would not read back"):
            imgio.write_table(path, "table", head, rows[:where] + [bad] + rows[where:], tail)
        assert not path.exists()
        imgio.write_table(path, "table", head, rows, tail)
        before = path.read_bytes()
        with pytest.raises(IoFailure, match="would not read back"):
            imgio.write_table(path, "table", (), [bad], mode="a")
        assert path.read_bytes() == before


def test_table_comments_reject_line_breaks_but_not_hashes(tmp_path):
    path = tmp_path / "t.tsv"
    with pytest.raises(IoFailure):
        imgio.write_table(path, "table", [("a\nb",)], [])
    imgio.write_table(path, "table", [("#x", "y")], [("1",)], [("z",)])
    assert path.read_text() == "# #x\ty\n1\n# z\n"
    assert imgio.read_table(path, "table", (int,)) == ([(1,)], [["#x", "y"], ["z"]])


@pytest.mark.parametrize("body, message", [
    ("a\t1\nb\n", "line 2: 1 cells, expected 2"),
    ("a\tx\n", "line 1: could not convert"),
    ("a\tna\n", "line 1: could not convert"),
])
def test_read_table_names_the_bad_line(tmp_path, body, message):
    path = tmp_path / "t.tsv"
    path.write_text(body)
    with pytest.raises(IoFailure, match=message):
        imgio.read_table(path, "table", (str, float))


@pytest.fixture(scope="module")
def real_tables(tmp_path_factory):
    """The bytes of a manifest, a training log and a report as the package
    writes them, each with the reader that must parse them."""
    root = tmp_path_factory.mktemp("tables")
    manifest = make_dataset(root / "ds", n_train=2, n_test=1, seed=3, augment=1)
    write_training_log(root / "log.tsv", [EpochRecord(0, 0.9, 0.25, 0.5, None),
                                          EpochRecord(1, 0.1, None, 0.125, 0.75)])
    write_report(root / "report.tsv", EvalReport(
        [SampleMetrics("a", 0.5, 1.25, 0.75), SampleMetrics("b", 0.0, None, 0.875)],
        {"dice": 0.03125, "mean_distance": None, "accuracy": 1.0}))
    return {"manifest": (manifest.read_bytes(), read_manifest),
            "training log": ((root / "log.tsv").read_bytes(), read_training_log),
            "report": ((root / "report.tsv").read_bytes(), read_report)}


@FUZZ
@given(st.sampled_from(["manifest", "training log", "report"]),
       st.none() | st.integers(0, 4000),
       st.lists(st.tuples(st.integers(0, 4000), st.integers(0, 7)), max_size=4))
def test_table_readers_raise_only_package_errors(real_tables, which, cut, flips):
    blob, reader = real_tables[which]
    data = bytearray(blob if cut is None else blob[: cut % (len(blob) + 1)])
    for at, bit in flips:
        if data:
            data[at % len(data)] ^= 1 << bit
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.tsv"
        path.write_bytes(bytes(data))
        try:
            reader(path)
        except BoundsegError:
            pass


@pytest.fixture(scope="module")
def real_rasters(tmp_path_factory):
    """The bytes of an image, a mask and a distance map as `gen` writes
    them, each with the reader that must parse them."""
    root = tmp_path_factory.mktemp("rasters")
    rec = read_manifest(make_dataset(root / "ds", n_train=1, n_test=1, seed=3))[0]
    return {"image": (rec.image.read_bytes(), imgio.read_pgm_image),
            "mask": (rec.mask.read_bytes(), imgio.read_pgm_mask),
            "dmap": (rec.dmap.read_bytes(), imgio.read_fmap)}


# cuts and flips land in the header half the time
OFFSETS = st.integers(0, 24) | st.integers(0, 20000)


@FUZZ
@given(st.sampled_from(["image", "mask", "dmap"]), st.none() | OFFSETS,
       st.lists(st.tuples(OFFSETS, st.integers(0, 7)), max_size=4))
def test_raster_readers_raise_only_package_errors(real_rasters, which, cut, flips):
    blob, reader = real_rasters[which]
    data = bytearray(blob if cut is None else blob[: cut % (len(blob) + 1)])
    for at, bit in flips:
        if data:
            data[at % len(data)] ^= 1 << bit
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "raster"
        path.write_bytes(bytes(data))
        try:
            reader(path)
        except BoundsegError:
            pass
