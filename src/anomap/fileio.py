"""On-disk formats: F32R rasters and binary PGM masks (datasets: datasetio).

F32R is the repo-wide raster format: one ASCII header line
``F32R <width> <height>\\n`` followed by width*height little-endian 32-bit
floats in row-major order, all finite.  Masks are binary PGM (P5, maxval 255)
with 0 for background and 255 for foreground and no other byte.  Readers
reject anything else with an error that names the file, and writers refuse,
before opening the file, to write what their reader would reject.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .imagecore import BinaryMask


def _check_dims(path, fmt: str, w: int, h: int) -> None:
    if min(w, h) < 1:
        raise ValueError(f"{path}: {fmt} raster is {w}x{h} px; "
                         "width and height must be >= 1")


def write_f32r(path, arr: np.ndarray) -> None:
    """Write ``arr`` as float32; an empty raster or a value that is not
    finite as float32 (NaN, infinite, or beyond float32's range) is rejected
    before the file is opened."""
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise ValueError("F32R stores 2-D rasters")
    h, w = arr.shape
    _check_dims(path, "F32R", w, h)
    with np.errstate(over="ignore"):
        f32 = arr.astype("<f4")
    finite = np.isfinite(f32)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise ValueError(f"{path}: pixel {arr[r, c]} at row {r}, column {c} "
                         "is not a finite float32")
    with open(path, "wb") as f:
        f.write(f"F32R {w} {h}\n".encode("ascii"))
        f.write(f32.tobytes(order="C"))


def _header_ints(path, fmt: str, tokens) -> list:
    """Integer header fields; the first two, width and height, must be >= 1."""
    try:
        vals = [int(t) for t in tokens]
    except ValueError:
        text = b" ".join(tokens).decode("ascii", "replace")
        raise ValueError(f"{path}: {fmt} header fields {text!r} must be "
                         "integers") from None
    _check_dims(path, fmt, *vals[:2])
    return vals


def read_f32r(path) -> np.ndarray:
    with open(path, "rb") as f:
        header = f.readline()
        parts = header.split()
        if len(parts) != 3 or parts[0] != b"F32R":
            raise ValueError(f"{path}: bad F32R magic")
        w, h = _header_ints(path, "F32R", parts[1:])
        raw = f.read()
    expected = w * h * 4
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} payload bytes, got {len(raw)}")
    arr = np.frombuffer(raw, dtype="<f4").reshape(h, w)
    finite = np.isfinite(arr)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise ValueError(f"{path}: non-finite pixel {arr[r, c]} at row {r}, "
                         f"column {c}")
    return arr.astype(np.float64)


def write_pgm_mask(path, mask: BinaryMask) -> None:
    """Write ``mask``; an empty one is rejected before the file is opened."""
    _check_dims(path, "PGM", mask.width, mask.height)
    with open(path, "wb") as f:
        f.write(f"P5\n{mask.width} {mask.height}\n255\n".encode("ascii"))
        f.write((mask.bits.astype(np.uint8) * 255).tobytes(order="C"))


def read_pgm_mask(path) -> BinaryMask:
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM")
    # header: magic, width, height, maxval; '#' comments allowed between tokens
    tokens = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if pos == start:
            raise ValueError(f"{path}: truncated PGM header")
        tokens.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    w, h, maxval = _header_ints(path, "PGM", tokens)
    if maxval != 255:
        raise ValueError(f"{path}: expected maxval 255")
    raw = data[pos:pos + w * h]
    if len(raw) != w * h:
        raise ValueError(f"{path}: truncated PGM payload")
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(h, w)
    bits = arr == 255
    stray = ~bits & (arr != 0)
    if stray.any():
        r, c = np.argwhere(stray)[0]
        raise ValueError(f"{path}: mask byte {arr[r, c]} at row {r}, column {c} "
                         f"is neither 0 nor 255")
    return BinaryMask(bits)


def ensure_dir(path) -> Path:
    p = Path(path)
    os.makedirs(p, exist_ok=True)
    return p
