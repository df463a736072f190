"""BSEG checkpoint format.

Layout: magic ``BSEG``, u32 format version, then one record per
parameter: u32 name length, name bytes (utf-8), shape as four u32,
raw little-endian float32 data.  Round-trips are bit-exact.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from ..errors import BadMagic, MalformedHeader, TruncatedData, opened

MAGIC = b"BSEG"
VERSION = 1


def _shape4(shape) -> tuple[int, int, int, int]:
    shape = tuple(int(s) for s in shape)
    if len(shape) > 4:
        raise MalformedHeader(f"cannot store parameter with {len(shape)} dims")
    return shape + (1,) * (4 - len(shape))


def save_checkpoint(path, named_arrays) -> None:
    """Write (name, array) pairs; arrays are stored as float32."""
    with opened(path, "wb", "checkpoint") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        for name, arr in named_arrays:
            raw = name.encode("utf-8")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
            f.write(struct.pack("<4I", *_shape4(arr.shape)))
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint back as an ordered {name: float32 array} dict."""
    with opened(path, "rb", "checkpoint") as f:
        blob = f.read()
    if blob[:4] != MAGIC:
        raise BadMagic(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 8:
        raise TruncatedData(f"{path}: header truncated")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != VERSION:
        raise MalformedHeader(f"{path}: unsupported checkpoint version {version}")

    out: dict[str, np.ndarray] = {}
    pos = 8
    while pos < len(blob):
        if pos + 4 > len(blob):
            raise TruncatedData(f"{path}: truncated record header")
        (nlen,) = struct.unpack("<I", blob[pos : pos + 4])
        pos += 4
        if pos + nlen + 16 > len(blob):
            raise TruncatedData(f"{path}: truncated record for name length {nlen}")
        try:
            name = blob[pos : pos + nlen].decode("utf-8")
        except UnicodeDecodeError as e:
            raise MalformedHeader(f"{path}: parameter name is not UTF-8: {e}") from e
        pos += nlen
        shape = struct.unpack("<4I", blob[pos : pos + 16])
        pos += 16
        count = math.prod(shape)  # Python ints: no int64 wrap-around
        if pos + 4 * count > len(blob):
            raise TruncatedData(f"{path}: truncated data for parameter {name!r}")
        data = np.frombuffer(blob[pos : pos + 4 * count], dtype="<f4").reshape(shape).copy()
        pos += 4 * count
        out[name] = data
    return out
