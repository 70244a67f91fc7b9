"""Binary checkpoint files for model parameters.

Layout: magic "MATT", version u32=2, parameter count u32, then for each
parameter: name length u16, UTF-8 name bytes, rows u32, cols u32, row-major
float64 little-endian data, and last the SHA-256 of every byte before it.
One-dimensional parameters are stored as a single column.
"""

from __future__ import annotations

import hashlib
import os
import struct

import numpy as np

from .errors import ShapeError
from .numeric import ParamStore

MAGIC = b"MATT"
VERSION = 2
DIGEST_BYTES = 32


class BadCheckpoint(ShapeError):
    pass


def save_checkpoint(path, store: ParamStore):
    """Write the store's parameters atomically (temp file + rename)."""
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<II", VERSION, len(store.values))
    for name, value in store.values.items():
        encoded = name.encode("utf-8")
        if value.ndim == 1:
            rows, cols = value.shape[0], 1
        elif value.ndim == 2:
            rows, cols = value.shape
        else:
            raise ShapeError(f"parameter {name!r} has ndim {value.ndim}, expected 1 or 2")
        blob += struct.pack("<H", len(encoded))
        blob += encoded
        blob += struct.pack("<II", rows, cols)
        blob += np.ascontiguousarray(value, dtype="<f8").tobytes()
    blob += hashlib.sha256(blob).digest()
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(bytes(blob))
    os.replace(tmp, path)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read parameters back as a name -> (rows, cols) float64 dict.

    The trailing digest is checked before anything is parsed, so a cut or
    altered file is a BadCheckpoint rather than other weights. A parameter
    holding a NaN or infinite value is a BadCheckpoint too: scores computed
    from it would rank and print as if they were numbers."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise BadCheckpoint(f"cannot read checkpoint {path}: {exc}") from exc
    if data[:4] != MAGIC:
        raise BadCheckpoint(f"{path}: bad magic {data[:4]!r}")
    if len(data) >= 8 and (version := struct.unpack_from("<I", data, 4)[0]) != VERSION:
        raise BadCheckpoint(f"{path}: unsupported version {version}")
    data, digest = data[:-DIGEST_BYTES], data[-DIGEST_BYTES:]
    if len(data) < 12 or hashlib.sha256(data).digest() != digest:
        raise BadCheckpoint(f"{path}: checksum mismatch, the file is cut or altered")
    offset = 8
    params = {}
    try:
        (count,) = struct.unpack_from("<I", data, offset)
        offset = 12
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", data, offset)
            offset += 2
            name = data[offset : offset + name_len].decode("utf-8")
            offset += name_len
            rows, cols = struct.unpack_from("<II", data, offset)
            offset += 8
            n_bytes = rows * cols * 8
            raw = data[offset : offset + n_bytes]
            if len(raw) != n_bytes:
                raise BadCheckpoint(f"{path}: truncated data for {name!r}")
            offset += n_bytes
            params[name] = np.frombuffer(raw, dtype="<f8").reshape(rows, cols).copy()
            if not np.isfinite(params[name]).all():
                raise BadCheckpoint(f"{path}: parameter {name!r} holds a non-finite value")
    except struct.error:
        raise BadCheckpoint(f"{path}: truncated at byte {offset} of {len(data)}") from None
    except UnicodeDecodeError:
        raise BadCheckpoint(f"{path}: parameter name at byte {offset} is not UTF-8") from None
    if offset != len(data):
        raise BadCheckpoint(f"{path}: {len(data) - offset} trailing bytes")
    return params
