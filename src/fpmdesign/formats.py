"""File formats: FPMSTACK binary stacks, plain PGM previews, atomic writes.

FPMSTACK layout (all integers little-endian):
    magic   4 bytes  b"FPMS"
    version u32      currently 1
    count   u32      number of images
    height  u32
    width   u32
    dtype   u8       0 = real float32, 1 = complex float32 interleaved (re, im)
    data    raw row-major float32
Chosen for bit-exact round-trips and trivial parsing in any language.
"""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

from .errors import FormatError

STACK_MAGIC = b"FPMS"
STACK_VERSION = 1
_HEADER = struct.Struct("<4sIIIIB")


def atomic_write_bytes(path: str, data: bytes):
    """Write via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str):
    atomic_write_bytes(path, text.encode("utf-8"))


def write_stack(path: str, images: np.ndarray):
    """Write a (count, height, width) real or complex array as FPMSTACK."""
    images = np.asarray(images)
    if images.ndim != 3:
        raise FormatError(f"stack must be 3-D, got shape {images.shape}")
    count, height, width = images.shape
    if np.iscomplexobj(images):
        dtype_code = 1
        flat = np.empty((count, height, width, 2), dtype="<f4")
        flat[..., 0] = images.real
        flat[..., 1] = images.imag
        payload = flat.tobytes()
    else:
        dtype_code = 0
        payload = images.astype("<f4").tobytes()
    header = _HEADER.pack(STACK_MAGIC, STACK_VERSION, count, height, width, dtype_code)
    atomic_write_bytes(path, header + payload)


def read_stack(path: str) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from None
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, version, count, height, width, dtype_code = _HEADER.unpack_from(raw)
    if magic != STACK_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != STACK_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    per_px = 8 if dtype_code == 1 else 4
    if dtype_code not in (0, 1):
        raise FormatError(f"{path}: unknown dtype code {dtype_code}")
    need = _HEADER.size + count * height * width * per_px
    if len(raw) != need:
        raise FormatError(f"{path}: expected {need} bytes, found {len(raw)}")
    body = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size)
    if dtype_code == 1:
        body = body.reshape(count, height, width, 2)
        return (body[..., 0] + 1j * body[..., 1]).astype(complex)
    return body.reshape(count, height, width).astype(float)


def to_gray(img: np.ndarray) -> np.ndarray:
    """Affine rescale to uint8 0..255 (constant images map to 0)."""
    img = np.asarray(img, dtype=float)
    lo, hi = float(img.min()), float(img.max())
    if hi <= lo:
        return np.zeros(img.shape, dtype=np.uint8)
    return np.clip(np.rint((img - lo) / (hi - lo) * 255.0), 0, 255).astype(np.uint8)


def write_pgm(path: str, gray: np.ndarray):
    """Plain (P2) PGM from a uint8 array."""
    gray = np.asarray(gray)
    if gray.dtype != np.uint8 or gray.ndim != 2:
        raise FormatError("write_pgm expects a 2-D uint8 array")
    h, w = gray.shape
    lines = [f"P2\n{w} {h}\n255"]
    for row in gray:
        lines.append(" ".join(str(int(v)) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_csv(path: str, header: list[str], rows: list[list]):
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(str(v) for v in row))
    atomic_write_text(path, "\n".join(out) + "\n")
