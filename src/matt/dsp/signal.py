"""Mono PCM container, channel downmix, and time-domain frame descriptors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AudioTooShort, CorruptAudio, EmptyAudio, InvalidConfig

CLIP_TOLERANCE = 1e-3
# frames per block in every per-frame pass: at n_fft 2048 one block's frames,
# windowed copy, complex spectrum and magnitudes take ~1.8 MB
FRAME_BLOCK = 32
# samples per block of the downmix: a stereo block's float64 temporaries take ~1.5 MB
SAMPLE_BLOCK = 1 << 16


@dataclass(frozen=True)
class AudioSignal:
    """Mono PCM audio: float32 samples in [-1, 1] at a fixed sample rate."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise InvalidConfig(f"sample rate must be positive, got {self.sample_rate_hz}")
        if self.samples.size == 0:
            raise EmptyAudio("signal has no samples")


def downmix_and_validate(channels, rate: int) -> AudioSignal:
    """Average 1 or 2 equal-length channels to mono and validate the result.

    Accepts a single 1-D array, a list of 1-2 arrays, or a (channels, n)
    matrix. Raises EmptyAudio for empty input and CorruptAudio for non-finite
    or out-of-range samples. float32 input is checked in float32 and one
    channel passes through as it is; two channels are averaged in float64.
    Both are read SAMPLE_BLOCK samples at a time. Any other input is read as
    float64 first.
    """
    arr = np.asarray(channels)
    if arr.dtype != np.float32:
        arr = arr.astype(np.float64, copy=False)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2 or arr.shape[0] not in (1, 2):
        raise CorruptAudio(f"expected 1 or 2 channels, got shape {arr.shape}")
    if arr.shape[1] == 0:
        raise EmptyAudio("empty channel data")
    # one channel passes through; two are averaged straight into the output
    mono = arr[0] if arr.shape[0] == 1 else np.empty(arr.shape[1], dtype=np.float32)
    peak = 0.0
    for i in range(0, arr.shape[1], SAMPLE_BLOCK):
        block = arr[:, i : i + SAMPLE_BLOCK]
        if not np.all(np.isfinite(block)):
            raise CorruptAudio("non-finite sample value")
        if arr.shape[0] == 2:
            block = (block[0] + block[1].astype(np.float64)) / 2
            mono[i : i + SAMPLE_BLOCK] = block
        # max |x| with no |x| copy, as a Python float: numpy compares a
        # float32 peak with a float in float32
        peak = max(peak, float(block.max()), -float(block.min()))
    if peak > 1.0 + CLIP_TOLERANCE:
        raise CorruptAudio(f"sample magnitude {peak:.6g} exceeds 1 + {CLIP_TOLERANCE}")
    return AudioSignal(samples=mono.astype(np.float32, copy=False), sample_rate_hz=int(rate))


def frame_signal(samples: np.ndarray, n_fft: int, hop: int, center: bool) -> np.ndarray:
    """Slice a 1-D signal into overlapping frames of length n_fft (rows).

    With center=True the signal is reflect-padded by n_fft//2 on both sides
    so frame t is centered on sample t*hop. The result is a read-only strided
    view of the (padded) signal in its own dtype, float32 in extraction, so
    overlapping frames share memory; readers widen one block at a time.
    """
    x = np.asarray(samples)
    if center:
        pad = n_fft // 2
        if x.size <= pad:
            raise AudioTooShort(
                f"signal of {x.size} samples too short for reflect pad {pad}"
            )
        x = np.pad(x, pad, mode="reflect")
    if x.size < n_fft:
        raise AudioTooShort(f"padded signal ({x.size}) shorter than frame ({n_fft})")
    n_frames = 1 + (x.size - n_fft) // hop
    strides = (hop * x.strides[0], x.strides[0])
    return np.lib.stride_tricks.as_strided(
        x, shape=(n_frames, n_fft), strides=strides, writeable=False
    )


def frame_blocks(n_frames: int):
    """Slices of at most FRAME_BLOCK consecutive frames covering range(n_frames)."""
    return (slice(i, min(i + FRAME_BLOCK, n_frames)) for i in range(0, n_frames, FRAME_BLOCK))


def time_domain_descriptors(frames: np.ndarray):
    """Per-frame RMS and zero-crossing rate of an (n_frames, n) frame matrix.

    Extraction passes the STFT's unwindowed frames (MagnitudeSpectrogram.frames),
    so a track is framed once. Returns two (1, n_frames) matrices. ZCR counts
    sign changes between consecutive samples as a fraction of the n - 1
    adjacent pairs, so a perfectly alternating signal scores exactly 1.0.
    Zero samples count as non-negative. Frames are read a block at a time,
    each block widened to float64 (exact from float32 or int16).
    """
    n_frames, n = frames.shape
    mean_square = np.empty(n_frames)
    crossings = np.empty(n_frames, dtype=np.intp)
    for rows in frame_blocks(n_frames):
        block = frames[rows].astype(np.float64)
        mean_square[rows] = np.mean(block * block, axis=1)
        nonneg = block >= 0.0
        crossings[rows] = np.sum(nonneg[:, 1:] != nonneg[:, :-1], axis=1)
    rms = np.sqrt(mean_square)[np.newaxis, :]
    zcr = (crossings / (n - 1))[np.newaxis, :]
    return rms, zcr
