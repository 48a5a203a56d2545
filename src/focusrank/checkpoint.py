"""Binary parameter checkpoints.

Layout (all integers little-endian):

    magic  b"FRCP" | version u32 | count u32 | crc32 u32 (of the 12 bytes before it)
    then `count` records:
    name_len u32 | name utf-8 | ndim u32 | dims u32 * ndim | data f64-le

Round-trips are bit-exact. Loading validates the magic, version, header
checksum, that names are utf-8, that no record runs past the end of the file,
that every value is finite and that the file ends exactly where the last
record says it does. Any malformed file raises `FormatError`; a non-finite
value is reported with its parameter name and the offset of its record.
"""

from __future__ import annotations

import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import FormatError
from .ops import ParameterSet

MAGIC = b"FRCP"
VERSION = 1


def save_parameters(params: ParameterSet | dict[str, np.ndarray], path) -> None:
    """Write `params` to `path`. A non-finite value raises `FormatError`
    naming its parameter before any byte is written: loading would reject it."""
    arrays = params.state() if isinstance(params, ParameterSet) else dict(params)
    for name, value in arrays.items():
        if not np.isfinite(value).all():
            raise FormatError(f"parameter {name!r} holds NaN or infinite values")
    chunks = []
    header = MAGIC + struct.pack("<II", VERSION, len(arrays))
    chunks.append(header + struct.pack("<I", zlib.crc32(header)))
    for name, value in arrays.items():
        value = np.asarray(value, dtype="<f8")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", value.ndim))
        chunks.append(struct.pack(f"<{value.ndim}I", *value.shape))
        chunks.append(value.tobytes())
    try:
        Path(path).write_bytes(b"".join(chunks))
    except OSError as exc:
        raise FormatError(f"cannot write checkpoint {path}: {exc.strerror}") from None


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def read(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise FormatError("truncated file", offset=self.pos)
        piece = self.blob[self.pos : self.pos + n]
        self.pos += n
        return piece

    def u32(self) -> int:
        return struct.unpack("<I", self.read(4))[0]


def load_parameters(path) -> dict[str, np.ndarray]:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read checkpoint {path}: {exc.strerror}") from None
    r = _Reader(blob)
    if r.read(4) != MAGIC:
        raise FormatError("bad magic; not a parameter checkpoint", offset=0)
    version = r.u32()
    count = r.u32()
    crc = r.u32()
    if zlib.crc32(blob[:12]) != crc:
        raise FormatError("header checksum mismatch", offset=12)
    if version != VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", offset=4)
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_at = r.pos
        try:
            name = r.read(r.u32()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError("parameter name is not utf-8", offset=name_at) from exc
        if name in arrays:
            raise FormatError(f"duplicate parameter {name!r}", offset=name_at)
        ndim = r.u32()
        if ndim > 8:
            raise FormatError(f"implausible ndim {ndim}", offset=r.pos - 4)
        shape_at = r.pos
        shape = tuple(r.u32() for _ in range(ndim))
        size = math.prod(shape)  # Python ints: a huge shape cannot wrap negative
        raw = r.read(8 * size)
        try:
            value = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        except ValueError as exc:  # e.g. (0, 2**31, 2**31): empty, but too big for numpy
            raise FormatError(f"shape {shape} is not representable", offset=shape_at) from exc
        if not np.isfinite(value).all():
            raise FormatError(f"parameter {name!r} holds NaN or infinite values", offset=name_at)
        arrays[name] = value
    if r.pos != len(blob):
        raise FormatError("trailing bytes after last record", offset=r.pos)
    return arrays
