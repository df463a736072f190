import struct
import tracemalloc

import numpy as np
import pytest

from boundseg.errors import BadMagic, MalformedHeader, ShapeMismatch, TruncatedData
from boundseg.nn import load_checkpoint, read_checkpoint, save_checkpoint


def test_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    arrays = [
        ("enc.0.w", rng.standard_normal((4, 3, 3, 3)).astype(np.float32)),
        ("enc.0.b", rng.standard_normal(4).astype(np.float32)),
        ("head.2.w", rng.standard_normal((4, 1, 4, 4)).astype(np.float32)),
    ]
    p = tmp_path / "m.bseg"
    save_checkpoint(p, arrays)
    back = load_checkpoint(p)
    assert list(back) == [n for n, _ in arrays]
    for name, arr in arrays:
        got = back[name]
        assert got.size == arr.size
        assert got.reshape(arr.shape).tobytes() == arr.tobytes()


def test_shapes_padded_to_four_dims(tmp_path):
    p = tmp_path / "m.bseg"
    save_checkpoint(p, [("b", np.arange(5, dtype=np.float32))])
    back = load_checkpoint(p)
    assert back["b"].shape == (5, 1, 1, 1)


def test_save_is_deterministic(tmp_path):
    arrays = [("w", np.ones((2, 2), dtype=np.float32))]
    pa, pb = tmp_path / "a.bseg", tmp_path / "b.bseg"
    save_checkpoint(pa, arrays)
    save_checkpoint(pb, arrays)
    assert pa.read_bytes() == pb.read_bytes()


def test_bad_magic(tmp_path):
    p = tmp_path / "x.bseg"
    p.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(BadMagic):
        load_checkpoint(p)


def test_bad_version(tmp_path):
    p = tmp_path / "x.bseg"
    p.write_bytes(b"BSEG" + (99).to_bytes(4, "little"))
    with pytest.raises(MalformedHeader):
        load_checkpoint(p)


def test_truncated_record(tmp_path):
    p = tmp_path / "m.bseg"
    save_checkpoint(p, [("w", np.ones((3, 3), dtype=np.float32))])
    blob = p.read_bytes()
    p.write_bytes(blob[:-8])
    with pytest.raises(TruncatedData):
        load_checkpoint(p)


def _one_record_header(name: bytes, shape) -> bytes:
    """Magic, version 1, and one record header; no parameter data."""
    return (b"BSEG" + struct.pack("<I", 1) + struct.pack("<I", len(name)) + name
            + struct.pack("<4I", *shape))


def test_non_utf8_name_is_malformed_header(tmp_path):
    p = tmp_path / "x.bseg"
    p.write_bytes(_one_record_header(b"\xff\xfe", (1, 1, 1, 1)) + bytes(4))
    with pytest.raises(MalformedHeader):
        load_checkpoint(p)


def test_shape_product_past_int64_is_truncated_data(tmp_path):
    # 65536**4 == 2**64 wraps to 0 in int64 arithmetic
    p = tmp_path / "x.bseg"
    p.write_bytes(_one_record_header(b"w", (65536,) * 4))
    with pytest.raises(TruncatedData):
        load_checkpoint(p)


def test_rejects_five_dim_arrays(tmp_path):
    with pytest.raises(MalformedHeader):
        save_checkpoint(tmp_path / "m.bseg", [("w", np.zeros((1, 1, 1, 1, 1), np.float32))])


def test_huge_promised_shape_is_truncated_data_without_allocating(tmp_path):
    # 1024**3 float32 values are 4 GiB; the file holds 8 bytes of data
    p = tmp_path / "x.bseg"
    p.write_bytes(_one_record_header(b"w", (1024, 1024, 1024, 1)) + bytes(8))
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedData):
            load_checkpoint(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_read_checkpoint_streams_records_in_file_order(tmp_path):
    p = tmp_path / "m.bseg"
    arrays = [("a", np.arange(6, dtype=np.float32).reshape(2, 3)),
              ("b", np.full(4, -0.0, dtype=np.float32)),
              ("c", np.float32([np.nan, np.inf]))]
    save_checkpoint(p, arrays)
    seen, filled = [], {}

    def visit(name, shape, read):
        seen.append((name, shape))
        if name != "b":  # skipped: the next record must still be read right
            filled[name] = read(np.empty(shape, dtype=np.float32))

    read_checkpoint(p, visit)
    assert seen == [("a", (2, 3, 1, 1)), ("b", (4, 1, 1, 1)), ("c", (2, 1, 1, 1))]
    for name, arr in arrays:
        if name != "b":
            assert filled[name].tobytes() == arr.tobytes()


def test_read_checkpoint_refuses_a_buffer_of_the_wrong_size(tmp_path):
    p = tmp_path / "m.bseg"
    save_checkpoint(p, [("w", np.ones(3, dtype=np.float32))])
    with pytest.raises(ShapeMismatch):
        read_checkpoint(p, lambda name, shape, read: read(np.empty(4, np.float32)))
