"""On-disk caches: delimited feature files and binary mel files.

Feature cache: one CSV per feature set, header `track_id,<family>_<stat>_<index>,...`,
float32 values printed as %.9g (9 significant digits round-trip float32).

Mel cache: per track, magic "MELF", version u32=1, n_mels u32, n_frames u32,
then row-major little-endian float32.
"""

from __future__ import annotations

import os
import struct
from itertools import chain

import numpy as np

from ..errors import CorruptAudio, DuplicateTrack, NotUtf8, ShapeError

MEL_MAGIC = b"MELF"
MEL_VERSION = 1


WRITE_BLOCK = 4096  # rows formatted per %


def format_feature_rows(track_ids: list[str], matrix: np.ndarray) -> str:
    """`track_id,v1,...,vn` lines for the rows of a float32 matrix, each value
    as %.9g of its exact double: one % over a flat (id, values...) tuple."""
    line = "%s" + ",%.9g" * matrix.shape[1] + "\n"
    cells = chain.from_iterable((t, *row) for t, row in zip(track_ids, matrix.tolist()))
    return line * len(track_ids) % tuple(cells)


def write_feature_csv(path, columns: list[str], rows: dict[str, np.ndarray]):
    """Write track_id -> vector rows (sorted by track id) atomically.

    For a named feature set, pass feature_set_columns(set_name) as columns.
    Vectors are stored as float32.
    """
    track_ids = sorted(rows)
    for track_id in track_ids:
        if np.shape(rows[track_id]) != (len(columns),):
            raise ShapeError(
                f"{track_id}: vector length {np.shape(rows[track_id])} "
                f"!= header width {len(columns)}"
            )
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("track_id," + ",".join(columns) + "\n")
        for i in range(0, len(track_ids), WRITE_BLOCK):
            block = track_ids[i : i + WRITE_BLOCK]
            matrix = np.array([rows[t] for t in block], dtype=np.float32)
            fh.write(format_feature_rows(block, matrix))
    os.replace(tmp, path)


def read_feature_csv(path) -> dict[str, np.ndarray]:
    """Returns track_id -> float32 vector; header is not validated against a set."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    except UnicodeDecodeError:
        raise NotUtf8.in_file(path) from None
    if not lines or not lines[0].startswith("track_id,"):
        raise CorruptAudio(f"{path}: missing feature header")
    return parse_feature_rows(lines[1:], lines[0].count(","), path)


def parse_feature_rows(lines: list[str], n_values: int, source) -> dict[str, np.ndarray]:
    """Parse `track_id,v1,...,vn` lines into track_id -> float32 vector.

    The whole body goes through one np.loadtxt call straight to float32 (it
    rounds through a double, as np.float32(float(cell)) does). Every row must
    have exactly n_values cells after its id, and every id must be new: the
    loader itself would drop extra cells and a dict would keep the last row.
    """
    ids = [ln.partition(",")[0] for ln in lines]
    seen = set()
    for track_id, ln in zip(ids, lines):
        if ln.count(",") != n_values:
            raise CorruptAudio(
                f"{source}: track {track_id!r}: row width {ln.count(',') + 1} "
                f"!= header {n_values + 1}"
            )
        if track_id in seen:
            raise DuplicateTrack(f"{source}: duplicate track {track_id!r}")
        seen.add(track_id)
    if not ids:
        return {}  # loadtxt warns on empty input
    try:
        matrix = _load_float32(lines, n_values)
    except ValueError as exc:
        # error path only: the loader's row numbers are not reliable, so find
        # the first row it rejects alone, then the first cell of that row
        for track_id, ln in zip(ids, lines):
            if _rejects(ln, n_values):
                cell = next((c for c in ln.split(",")[1:] if _rejects("," + c, 1)), ln)
                raise CorruptAudio(
                    f"{source}: track {track_id!r}: {cell!r} is not a number"
                ) from None
        raise CorruptAudio(f"{source}: {exc}") from None
    return dict(zip(ids, matrix))


def _load_float32(lines: list[str], n_values: int) -> np.ndarray:
    return np.loadtxt(
        lines,
        delimiter=",",
        usecols=range(1, n_values + 1),
        ndmin=2,
        dtype=np.float32,
        comments=None,
        quotechar=None,
    )


def _rejects(line: str, n_values: int) -> bool:
    try:
        _load_float32([line], n_values)
    except ValueError:
        return True
    return False


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
