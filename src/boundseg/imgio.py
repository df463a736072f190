"""Readers and writers for the on-disk artifacts.

Three formats, all bit-exact on round-trip:

* PGM (binary ``P5``, maxval 255) for images and masks.  Intensities map
  linearly between [0, 1] floats and [0, 255] bytes; masks use {0, 255}.
* FMAP for real-valued grids: magic ``FMAP``, u32 width, u32 height,
  then row-major little-endian float32 samples.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import BadMagic, MalformedHeader, TruncatedData, opened

FMAP_MAGIC = b"FMAP"


def write_pgm(path, data: np.ndarray) -> None:
    """Write a 2-D array as binary PGM.

    Float arrays are treated as intensities in [0, 1] and quantized to
    8 bits; integer arrays are treated as masks in {0, 1} and written as
    {0, 255}.
    """
    if data.ndim != 2:
        raise MalformedHeader(f"PGM payload must be 2-D, got shape {data.shape}")
    h, w = data.shape
    if np.issubdtype(data.dtype, np.floating):
        samples = np.rint(np.clip(data, 0.0, 1.0) * 255.0).astype(np.uint8)
    else:
        samples = (np.asarray(data) != 0).astype(np.uint8) * 255
    with opened(path, "wb", "PGM") as f:
        f.write(b"P5\n%d %d\n255\n" % (w, h))
        f.write(samples.tobytes())


def _read_pgm_raw(path) -> np.ndarray:
    with opened(path, "rb", "PGM") as f:
        blob = f.read()
    if not blob.startswith(b"P5"):
        raise MalformedHeader(f"{path}: not a binary PGM (P5) file")
    # Header tokens: width, height, maxval; '#' comments allowed between them.
    pos = 2
    tokens = []
    while len(tokens) < 3:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if pos >= len(blob):
            raise MalformedHeader(f"{path}: truncated PGM header")
        if blob[pos : pos + 1] == b"#":
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        tokens.append(blob[start:pos])
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError as e:
        raise MalformedHeader(f"{path}: non-numeric PGM header") from e
    if w <= 0 or h <= 0:
        raise MalformedHeader(f"{path}: non-positive dimensions {w}x{h}")
    if maxval != 255:
        raise MalformedHeader(f"{path}: unsupported maxval {maxval} (want 255)")
    pos += 1  # single whitespace byte after maxval
    payload = blob[pos : pos + w * h]
    if len(payload) < w * h:
        raise TruncatedData(f"{path}: expected {w * h} samples, got {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w)


def read_pgm_image(path) -> np.ndarray:
    """Read a PGM file as a float32 intensity grid in [0, 1]."""
    raw = _read_pgm_raw(path)
    return raw.astype(np.float32) / 255.0


def read_pgm_mask(path) -> np.ndarray:
    """Read a PGM file as a {0, 1} uint8 mask (threshold at 128)."""
    raw = _read_pgm_raw(path)
    return (raw >= 128).astype(np.uint8)


def write_fmap(path, grid: np.ndarray) -> None:
    """Write a 2-D real grid losslessly as float32."""
    if grid.ndim != 2:
        raise MalformedHeader(f"FMAP payload must be 2-D, got shape {grid.shape}")
    h, w = grid.shape
    with opened(path, "wb", "FMAP") as f:
        f.write(FMAP_MAGIC)
        f.write(struct.pack("<II", w, h))
        f.write(np.ascontiguousarray(grid, dtype="<f4").tobytes())


def read_fmap(path) -> np.ndarray:
    """Read an FMAP file back into a float32 grid."""
    with opened(path, "rb", "FMAP") as f:
        blob = f.read()
    if blob[:4] != FMAP_MAGIC:
        raise BadMagic(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 12:
        raise TruncatedData(f"{path}: header truncated")
    w, h = struct.unpack("<II", blob[4:12])
    need = 12 + 4 * w * h
    if len(blob) < need:
        raise TruncatedData(f"{path}: expected {need} bytes, got {len(blob)}")
    return np.frombuffer(blob[12:need], dtype="<f4").reshape(h, w).copy()
