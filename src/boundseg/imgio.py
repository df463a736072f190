"""Readers and writers for the on-disk artifacts.

Three formats, all bit-exact on round-trip:

* PGM (binary ``P5``, maxval 255) for images and masks.  Intensities map
  linearly between [0, 1] floats and [0, 255] bytes; masks use {0, 255}.
* FMAP for real-valued grids: magic ``FMAP``, u32 width, u32 height,
  then row-major little-endian float32 samples.
* Tables (the dataset manifest, the training log, the evaluation report):
  UTF-8 text, ``#`` comment lines, one row per line of tab-separated
  cells, floats by `repr` and ``na`` for a missing value.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import BadMagic, IoFailure, MalformedHeader, TruncatedData, opened

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


def write_table(path, what: str, head, rows, tail=(), mode: str = "w") -> None:
    """Write `head` as comment lines, one line per row, then `tail` as
    comment lines; each is a sequence of cells, tab-joined, with None
    written as ``na``, a str as it is and anything else by `repr`.

    A cell that would not read back (one holding a tab or a line break, a
    blank row, or a row whose first cell starts with ``#``) is IoFailure,
    raised before the file is opened.  `mode` "a" appends."""
    lines = []
    for prefix, table in (("# ", head), ("", rows), ("# ", tail)):
        for cells in table:
            text = "\t".join("na" if c is None else c if isinstance(c, str) else repr(c)
                             for c in cells)
            if text.count("\t") != len(cells) - 1 or "\n" in text or "\r" in text \
                    or not prefix and (not text or text.startswith("#")):
                raise IoFailure(f"cannot write {what} {path}: {tuple(cells)!r} would not "
                                "read back (a tab or line break in a cell, or a row that "
                                "is blank or starts with '#')")
            lines.append(prefix + text + "\n")
    with opened(path, mode, what) as f:
        f.writelines(lines)


def optional(kind):
    """A `read_table` column type: ``na`` reads as None, any other cell as `kind`."""
    return lambda cell: None if cell == "na" else kind(cell)


def read_table(path, what: str, types) -> tuple[list[tuple], list[list[str]]]:
    """The rows of a `write_table` file, each cell read by its column's type
    in `types`, and its comment lines, each split into cells after the ``# ``.
    Blank lines are skipped.  A row with the wrong number of cells, or a
    cell its type rejects (ValueError), is IoFailure."""
    with opened(path, "r", what) as f:
        text = f.read()
    rows, comments = [], []
    for n, line in enumerate(text.split("\n"), start=1):
        if line.startswith("#"):
            comments.append(line[1:].removeprefix(" ").split("\t"))
        elif line:
            cells = line.split("\t")
            if len(cells) != len(types):
                raise IoFailure(f"{what} {path} line {n}: {len(cells)} cells, "
                                f"expected {len(types)}")
            try:
                rows.append(tuple(kind(cell) for kind, cell in zip(types, cells)))
            except ValueError as e:
                raise IoFailure(f"{what} {path} line {n}: {e}") from e
    return rows, comments
