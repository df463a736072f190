"""BSEG checkpoint format.

Layout: magic ``BSEG``, u32 format version, then one record per
parameter: u32 name length, name bytes (utf-8), shape as four u32,
raw little-endian float32 data.  Round-trips are bit-exact.

Records are streamed, never held as one blob: `save_checkpoint` writes
each array from its own buffer, and `read_checkpoint` reads each
record's data straight into the array its caller gives for it (for
`models.load_model`, the parameter's own buffer).  `load_checkpoint`
is the reader with a fresh array per record.  Each record header is
checked against the file's size before any buffer for its data exists,
so a corrupt shape cannot ask for more memory than the file holds.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from ..errors import BadMagic, MalformedHeader, ShapeMismatch, TruncatedData, opened

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
            f.write(np.ascontiguousarray(arr, dtype="<f4"))


def read_checkpoint(path, visit) -> None:
    """Stream a checkpoint's records: `visit(name, shape, read)` is called
    once per record, in file order.  `read(out)` fills the C-contiguous
    little-endian float32 array `out`, which must hold prod(shape) values,
    with the record's data and returns it; a record whose data `visit`
    does not read is skipped."""
    with opened(path, "rb", "checkpoint") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(8)
        if head[:4] != MAGIC:
            raise BadMagic(f"{path}: bad magic {head[:4]!r}")
        if len(head) < 8:
            raise TruncatedData(f"{path}: header truncated")
        (version,) = struct.unpack("<I", head[4:])
        if version != VERSION:
            raise MalformedHeader(f"{path}: unsupported checkpoint version {version}")

        def exactly(n: int) -> bytes:
            data = f.read(n)
            if len(data) != n:
                raise TruncatedData(f"{path}: file ended inside a record")
            return data

        pos = 8
        while pos < size:
            if pos + 4 > size:
                raise TruncatedData(f"{path}: truncated record header")
            (nlen,) = struct.unpack("<I", exactly(4))
            pos += 4
            if pos + nlen + 16 > size:
                raise TruncatedData(f"{path}: truncated record for name length {nlen}")
            try:
                name = exactly(nlen).decode("utf-8")
            except UnicodeDecodeError as e:
                raise MalformedHeader(f"{path}: parameter name is not UTF-8: {e}") from e
            shape = struct.unpack("<4I", exactly(16))
            pos += nlen + 16
            nbytes = 4 * math.prod(shape)  # Python ints: no int64 wrap-around
            if pos + nbytes > size:
                raise TruncatedData(f"{path}: truncated data for parameter {name!r}")

            def read(out: np.ndarray) -> np.ndarray:
                if (out.dtype != np.dtype("<f4") or out.nbytes != nbytes
                        or not out.flags.c_contiguous):
                    raise ShapeMismatch(
                        f"{path}: parameter {name!r} has {nbytes // 4} float32 values, "
                        f"cannot read them into {out.dtype} {out.shape}")
                if f.readinto(out) != nbytes:
                    raise TruncatedData(f"{path}: truncated data for parameter {name!r}")
                return out

            visit(name, shape, read)
            pos += nbytes
            f.seek(pos)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint back as an ordered {name: float32 array} dict."""
    out: dict[str, np.ndarray] = {}

    def keep(name, shape, read):
        out[name] = read(np.empty(shape, dtype="<f4"))

    read_checkpoint(path, keep)
    return out
