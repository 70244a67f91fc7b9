"""On-disk caches: delimited feature files and binary mel files.

Feature cache: one CSV per feature set, header `track_id,<family>_<stat>_<index>,...`,
values printed with 9 significant digits (enough to round-trip float32).

Mel cache: per track, magic "MELF", version u32=1, n_mels u32, n_frames u32,
then row-major little-endian float32.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from ..errors import CorruptAudio, ShapeError

MEL_MAGIC = b"MELF"
MEL_VERSION = 1


def format_value(x: float) -> str:
    return "%.9g" % x


def write_feature_csv(path, columns: list[str], rows: dict[str, np.ndarray]):
    """Write track_id -> vector rows (sorted by track id) atomically.

    For a named feature set, pass feature_set_columns(set_name) as columns.
    """
    lines = ["track_id," + ",".join(columns)]
    for track_id in sorted(rows):
        vector = np.asarray(rows[track_id], dtype=np.float32)
        if vector.shape != (len(columns),):
            raise ShapeError(
                f"{track_id}: vector length {vector.shape} != header width {len(columns)}"
            )
        lines.append(track_id + "," + ",".join(format_value(float(v)) for v in vector))
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def read_feature_csv(path) -> dict[str, np.ndarray]:
    """Returns track_id -> float32 vector; header is not validated against a set."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("track_id,"):
        raise CorruptAudio(f"{path}: missing feature header")
    n_cols = lines[0].count(",")
    rows = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != n_cols + 1:
            raise CorruptAudio(f"{path}: row width {len(parts)} != header {n_cols + 1}")
        try:
            rows[parts[0]] = np.array([float(p) for p in parts[1:]], dtype=np.float32)
        except ValueError as exc:
            raise CorruptAudio(f"{path}: track {parts[0]!r}: {exc}") from None
    return rows


def write_mel_cache(path, values: np.ndarray):
    n_mels, n_frames = values.shape
    blob = MEL_MAGIC + struct.pack("<III", MEL_VERSION, n_mels, n_frames)
    blob += np.ascontiguousarray(values, dtype="<f4").tobytes()
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)


def read_mel_cache(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MEL_MAGIC:
        raise CorruptAudio(f"{path}: bad mel magic {data[:4]!r}")
    version, n_mels, n_frames = struct.unpack_from("<III", data, 4)
    if version != MEL_VERSION:
        raise CorruptAudio(f"{path}: unsupported mel version {version}")
    expected = 16 + 4 * n_mels * n_frames
    if len(data) != expected:
        raise CorruptAudio(f"{path}: size {len(data)} != expected {expected}")
    return np.frombuffer(data, dtype="<f4", offset=16).reshape(n_mels, n_frames).copy()
