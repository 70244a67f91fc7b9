"""Minimal RIFF/WAVE reader and writer.

Supports the two formats the pipeline accepts: 16-bit integer PCM and 32-bit
IEEE float, 1 or 2 channels. Compressed audio is out of scope; convert to
WAV externally first.
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import CorruptAudio, EmptyAudio

PCM_INT = 1
PCM_FLOAT = 3
SAMPLE_TYPES = {(PCM_INT, 16): "<i2", (PCM_FLOAT, 32): "<f4"}


def read_wav(path):
    """Returns (channels, rate): channels is a (n_channels, n) float32 view of
    the one decoded, interleaved sample buffer.

    The data chunk must hold every byte its header declares, in whole frames
    (one sample per channel), so a cut file is CorruptAudio, not shorter audio.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise CorruptAudio(f"{path}: not a RIFF/WAVE file")
    view = memoryview(data)  # chunk bodies are views of the file's bytes, not copies
    offset = 12
    fmt = None
    payload = None
    while offset + 8 <= len(data):
        chunk_id = data[offset : offset + 4]
        (chunk_size,) = struct.unpack_from("<I", data, offset + 4)
        body = view[offset + 8 : offset + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise CorruptAudio(f"{path}: truncated fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            payload, declared = body, chunk_size
        offset += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned
    if fmt is None or payload is None:
        raise CorruptAudio(f"{path}: missing fmt or data chunk")
    audio_format, n_channels, rate, _, _, bits = fmt
    if n_channels not in (1, 2):
        raise CorruptAudio(f"{path}: {n_channels} channels unsupported")
    dtype = SAMPLE_TYPES.get((audio_format, bits))
    if dtype is None:
        raise CorruptAudio(f"{path}: format {audio_format}/{bits}-bit unsupported")
    if len(payload) % (n_channels * bits // 8):
        raise CorruptAudio(
            f"{path}: data chunk of {len(payload)} bytes is not a whole number of "
            f"{n_channels}-channel {bits}-bit frames"
        )
    if len(payload) < declared:
        raise CorruptAudio(
            f"{path}: data chunk holds {len(payload)} of the {declared} bytes its header declares"
        )
    samples = np.frombuffer(payload, dtype=dtype).astype(np.float32)
    if audio_format == PCM_INT:
        samples /= 32768.0
    if samples.size == 0:
        raise EmptyAudio(f"{path}: empty data chunk")
    return samples.reshape(-1, n_channels).T, rate


def write_wav(path, channels, rate: int, float32: bool = True):
    """Write a (n_channels, n) array; float32=False stores 16-bit PCM."""
    arr = np.asarray(channels)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    n_channels, n = arr.shape
    interleaved = arr.T.reshape(-1)
    if float32:
        payload = interleaved.astype("<f4").tobytes()
        audio_format, bits = PCM_FLOAT, 32
    else:
        clipped = np.clip(interleaved, -1.0, 32767.0 / 32768.0)
        payload = (clipped * 32768.0).round().astype("<i2").tobytes()
        audio_format, bits = PCM_INT, 16
    block_align = n_channels * bits // 8
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        audio_format,
        n_channels,
        rate,
        rate * block_align,
        block_align,
        bits,
        b"data",
        len(payload),
    )
    with open(path, "wb") as fh:
        fh.write(header + payload)
