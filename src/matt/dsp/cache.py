"""On-disk caches: delimited feature files and binary mel files.

Feature cache: one CSV per feature set, header `track_id,<family>_<stat>_<index>,...`,
each float32 value printed as %.9g of its exact double (9 significant digits
round-trip float32) by the bulk formatter of `matt.textfmt`. The CSV is the
interchange format; the writer also leaves a binary sidecar `<set>.csv.bin`
beside it: magic "FEAT", version u32=1, the SHA-256 of the
CSV's bytes, rows u32, columns u32, id-block length u32, the track ids as
UTF-8 joined by "\n", row-major little-endian float32 (NaN as the parser
reads "nan"), then a SHA-256 of everything before it. The reader serves the
sidecar only when it is whole and was written with the CSV's current bytes;
otherwise it parses the CSV text. Reads never write either file.

Mel cache: per track, magic "MELF", version u32=1, n_mels u32, n_frames u32,
then row-major little-endian float32.
"""

from __future__ import annotations

import hashlib
import os
import struct
from pathlib import Path

import numpy as np

from ..errors import CorruptAudio, DuplicateTrack, NotUtf8, ShapeError, ValidationError
from ..textfmt import BLOCK, float_cells, join_rows, text_cells

MEL_MAGIC = b"MELF"
MEL_VERSION = 1
FEATURE_MAGIC = b"FEAT"
FEATURE_VERSION = 1
# magic, version, SHA-256 of the CSV, rows, columns, id-block length
SIDECAR_HEAD = struct.Struct("<4sI32sIII")


def sidecar_path(csv_path) -> Path:
    """The binary sidecar that write_feature_csv leaves beside csv_path."""
    return Path(f"{csv_path}.bin")


def format_feature_rows(track_ids: list[str], matrix: np.ndarray) -> str:
    """`track_id,v1,...,vn` lines for the rows of a float32 matrix, each value
    as %.9g of its exact double."""
    return _feature_rows(track_ids, matrix).decode("utf-8")


def _feature_rows(track_ids: list[str], matrix: np.ndarray) -> bytes:
    separators = b"," * (matrix.shape[1] - 1) + b"\n"
    return join_rows(text_cells(track_ids), b",", float_cells(matrix, separators))


def write_feature_csv(path, columns: list[str], track_ids: list[str], values: np.ndarray):
    """Write row i of values as track_ids[i]'s vector (rows sorted by track
    id) atomically, and the binary sidecar `<path>.bin` beside it.

    For a named feature set, pass feature_set_columns(set_name) as columns.
    Values are stored as float32. A repeated id or a values shape other than
    (len(track_ids), len(columns)) is rejected before any file is written.
    Both files are written block by block, textfmt.BLOCK values (at least one
    row) at a time; the sidecar's CSV digest and checksum are filled in at
    the end.
    """
    if values.shape != (len(track_ids), len(columns)):
        raise ShapeError(f"{path}: values {values.shape} != {(len(track_ids), len(columns))}")
    order = sorted(range(len(track_ids)), key=track_ids.__getitem__)
    track_ids = list(map(track_ids.__getitem__, order))
    repeated = [a for a, b in zip(track_ids, track_ids[1:]) if a == b]
    if repeated:
        raise DuplicateTrack(f"{path}: duplicate track {repeated[0]!r}")
    _check_names(path, columns, track_ids)
    csv_digest = hashlib.sha256()
    tmp, tmp_sidecar = f"{path}.tmp", f"{path}.bin.tmp"
    with open(tmp, "wb") as csv, open(tmp_sidecar, "w+b") as sidecar:
        _write_hashed(csv, csv_digest, ("track_id," + ",".join(columns) + "\n").encode("utf-8"))
        _write_sidecar_head(sidecar, track_ids, len(columns))
        rows = max(1, BLOCK // len(columns))
        for i in range(0, len(track_ids), rows):
            block = track_ids[i : i + rows]
            # a fancy-index copy: the NaN rewrite below leaves the caller's values as they are
            matrix = values[order[i : i + rows]].astype(np.float32, copy=False)
            _write_hashed(csv, csv_digest, _feature_rows(block, matrix))
            # the text keeps no NaN sign or payload: store the NaN it parses to
            np.copyto(matrix, np.float32(np.nan), where=np.isnan(matrix))
            sidecar.write(np.ascontiguousarray(matrix, dtype="<f4").tobytes())
        sidecar.seek(len(FEATURE_MAGIC) + 4)  # past magic and version
        sidecar.write(csv_digest.digest())
        sidecar.seek(0)
        sidecar.write(hashlib.file_digest(sidecar, "sha256").digest())
    os.replace(tmp, path)
    os.replace(tmp_sidecar, sidecar_path(path))


def _check_names(path, columns: list[str], track_ids: list[str]):
    """Each name must read back from the text as written: none may hold a
    comma or a line break, and the header needs a column."""
    if not columns:
        raise ShapeError(f"{path}: no feature columns")
    names = "".join(columns) + "".join(track_ids)
    if "," in names or "\n" in names or "\r" in names:
        bad = next(n for n in [*columns, *track_ids] if {",", "\n", "\r"} & set(n))
        raise ShapeError(f"{path}: name {bad!r} holds a comma or a line break")


def _write_sidecar_head(fh, track_ids: list[str], n_columns: int):
    """Everything before the values, with a zero CSV digest for the writer
    to fill in; the id block is freed before the rows are formatted."""
    ids = "\n".join(track_ids).encode("utf-8")
    fh.write(SIDECAR_HEAD.pack(FEATURE_MAGIC, FEATURE_VERSION, bytes(32),
                               len(track_ids), n_columns, len(ids)))
    fh.write(ids)


def _write_hashed(fh, digest, data: bytes):
    fh.write(data)
    digest.update(data)


def read_feature_csv(path) -> tuple[list[str], np.ndarray]:
    """Returns (track_ids, (n, D) float32 rows); the header is not checked against a set.

    The sidecar `<path>.bin` is served when it is valid for the CSV's current
    bytes; any other CSV, edited or hand-written, is parsed as text, skipping
    a UTF-8 byte-order mark before the header.
    """
    try:
        table = _read_sidecar(path)
        if table is not None:
            return table
        with open(path, encoding="utf-8-sig") as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    except UnicodeDecodeError:
        raise NotUtf8.in_file(path) from None
    except OSError as exc:
        raise ValidationError(f"cannot read feature cache {path}: {exc}") from exc
    if not lines or not lines[0].startswith("track_id,"):
        raise CorruptAudio(f"{path}: missing feature header")
    return parse_feature_rows(lines[1:], lines[0].count(","), path)


def _read_sidecar(csv_path) -> tuple[list[str], np.ndarray] | None:
    """The ids and rows of the CSV's sidecar, or None unless its magic,
    version, size, stored CSV digest and checksum all match and it holds
    `rows` distinct UTF-8 ids. Only an error reading the CSV itself is raised."""
    try:
        fh = open(sidecar_path(csv_path), "rb")
    except OSError:
        return None
    with fh:
        head = fh.read(SIDECAR_HEAD.size)
        if len(head) != SIDECAR_HEAD.size:
            return None
        magic, version, digest, n_rows, n_columns, n_id_bytes = SIDECAR_HEAD.unpack(head)
        size = SIDECAR_HEAD.size + n_id_bytes + 4 * n_rows * n_columns + 32
        if (
            (magic, version) != (FEATURE_MAGIC, FEATURE_VERSION)
            or os.fstat(fh.fileno()).st_size != size
        ):
            return None
        with open(csv_path, "rb") as csv:
            if hashlib.file_digest(csv, "sha256").digest() != digest:
                return None
        ids = fh.read(n_id_bytes)
        matrix = np.fromfile(fh, dtype="<f4", count=n_rows * n_columns)
        checksum = hashlib.sha256(head + ids)
        checksum.update(matrix)
        if fh.read() != checksum.digest():
            return None
    try:
        track_ids = ids.decode("utf-8").split("\n") if n_rows else []
    except UnicodeDecodeError:
        return None  # the CSV's own text decides
    if len(set(track_ids)) != len(track_ids) or len(track_ids) != n_rows:
        return None  # the text parse names the repeated track
    return track_ids, matrix.reshape(n_rows, n_columns)


def parse_feature_rows(lines: list[str], n_values: int, source) -> tuple[list[str], np.ndarray]:
    """Parse `track_id,v1,...,vn` lines into (track_ids, (n, n_values) float32).

    The whole body goes through one np.loadtxt call straight to float32 (it
    rounds through a double, as np.float32(float(cell)) does). Every row must
    have exactly n_values cells after its id, and every id must be new: the
    loader itself would drop extra cells, and a repeated id would give two rows.
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
        return [], np.empty((0, n_values), dtype=np.float32)  # loadtxt warns on empty input
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
    return ids, matrix


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
