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


@dataclass(frozen=True)
class PaddedFrames:
    """The (n_frames, n_fft) frames of a signal, centre-padded or not, with no
    padded copy of it.

    Frame t covers samples [t*hop - pad, t*hop - pad + n_fft) of the signal,
    reflected at its edges. The interior frames, which reach no padding, are
    one read-only strided view of the samples in their own dtype. Only the
    frames that reach into the reflect padding come from a small padded head
    and tail. Indexing with a slice of rows gives those frames as an array
    (a view unless the rows span a head or tail edge), so frames[:] is the
    whole frame matrix. interior gives the interior frames' samples once
    each, for readers that go by hop-sized chunks (time_domain_descriptors).
    """

    # frame matrices in order: the head, interior and tail, or for a clip
    # with no interior frame, all frames of its padded copy
    parts: tuple
    hop: int
    # the samples the interior frames cover, a 1-D view of the signal (None
    # for a clip with no interior frame): interior frame i starts at i * hop
    interior: np.ndarray | None

    @property
    def shape(self):
        return sum(len(part) for part in self.parts), self.parts[0].shape[1]

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, _ = rows.indices(self.shape[0])
        pieces, offset = [], 0
        for part in self.parts:
            lo, hi = max(start - offset, 0), min(stop - offset, len(part))
            if lo < hi:
                pieces.append(part[lo:hi])
            offset += len(part)
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def _strided_frames(x: np.ndarray, n_frames: int, n_fft: int, hop: int) -> np.ndarray:
    return np.lib.stride_tricks.as_strided(
        x, shape=(n_frames, n_fft), strides=(hop * x.strides[0], x.strides[0]), writeable=False
    )


def frame_signal(samples: np.ndarray, n_fft: int, hop: int, center: bool) -> PaddedFrames:
    """Slice a 1-D signal into overlapping frames of length n_fft (rows).

    With center=True the signal is reflect-padded by n_fft//2 on both sides
    so frame t is centered on sample t*hop. The padded signal is never built:
    the interior frames are a strided view of the samples in their own dtype
    (float32 in extraction), and only the frames that reach into the padding
    (at n_fft 2048 and hop 1024, one at the start and one or two at the end)
    are read from small reflect-padded copies of the edges. Readers take
    blocks of rows and widen one block at a time (see PaddedFrames).
    """
    x = np.asarray(samples)
    pad = n_fft // 2 if center else 0
    if center and x.size <= pad:
        raise AudioTooShort(f"signal of {x.size} samples too short for reflect pad {pad}")
    if x.size + 2 * pad < n_fft:
        raise AudioTooShort(f"padded signal ({x.size + 2 * pad}) shorter than frame ({n_fft})")
    n_frames = 1 + (x.size + 2 * pad - n_fft) // hop
    # frames [first, stop) read no padding
    first = -(-pad // hop)
    stop = (x.size + pad - n_fft) // hop + 1
    if stop <= first:
        # a clip this short has no interior frame: its padded copy is small
        padded = np.pad(x, pad, mode="reflect")
        return PaddedFrames((_strided_frames(padded, n_frames, n_fft, hop),), hop, None)
    # the reflection of x[1:pad + 1] before the start, of x[-pad - 1:-1] after the end
    flipped = x[::-1]
    head = tail = x[:0]
    if first:
        head = np.concatenate([flipped[-1 - pad : -1], x[: (first - 1) * hop + n_fft - pad]])
    if stop < n_frames:
        end = (n_frames - 1) * hop + n_fft - pad  # past the last sample
        tail = np.concatenate([x[stop * hop - pad :], flipped[1 : 1 + end - x.size]])
    interior = x[first * hop - pad : (stop - 1) * hop - pad + n_fft]
    return PaddedFrames(
        (
            _strided_frames(head, first, n_fft, hop),
            _strided_frames(interior, stop - first, n_fft, hop),
            _strided_frames(tail, n_frames - stop, n_fft, hop),
        ),
        hop,
        interior,
    )


def frame_blocks(stop: int, start: int = 0):
    """Slices of at most FRAME_BLOCK consecutive frames covering range(start, stop)."""
    return (slice(i, min(i + FRAME_BLOCK, stop)) for i in range(start, stop, FRAME_BLOCK))


def _sums_in_chunks(n: int, chunk: int) -> bool:
    """Whether numpy's pairwise sum of n float64 values (numpy's
    pairwise_sum: a run of at most 128 values in 8 partial sums, a longer
    run split in two at half its length rounded down to a multiple of 8)
    halves exactly down to runs of chunk values. Then the sum of n values
    is the same tree over the sums of its chunks, bitwise."""
    while n > chunk:
        if n <= 128 or n % 16:
            return False
        n //= 2
    return n == chunk


def _chunk_descriptors(samples: np.ndarray, n: int, hop: int):
    """Sums of squares and sign-change counts of the n-sample frames of
    samples that start every hop samples, read one hop-sized chunk at a time.

    Each chunk is widened to float64 and squared once, and its sum and its
    sign changes (the last one across the junction into the next chunk) are
    kept. A frame's sum adds its n // hop chunk sums in numpy's pairwise
    tree (see _sums_in_chunks); its count adds its chunks' counts but the
    last junction, which lies past the frame. The chunks are read FRAME_BLOCK
    frames' worth at a time into buffers made once.
    """
    per_frame = n // hop
    n_chunks = samples.size // hop
    sums = np.empty(n_chunks)
    changes = np.empty(n_chunks, dtype=np.intp)
    junctions = np.zeros(n_chunks, dtype=bool)  # junction j is between chunks j and j + 1
    step = FRAME_BLOCK * per_frame
    wide = np.empty((min(step, n_chunks), hop))
    nonneg = np.empty(wide.shape, dtype=bool)
    change = np.empty(wide.shape, dtype=bool)
    for lo in range(0, n_chunks, step):
        hi = min(lo + step, n_chunks)
        block, signs, flips = wide[: hi - lo], nonneg[: hi - lo], change[: hi - lo]
        np.copyto(block, samples[lo * hop : hi * hop].reshape(-1, hop))
        np.greater_equal(block, 0.0, out=signs)
        np.not_equal(signs.ravel()[1:], signs.ravel()[:-1], out=flips.ravel()[:-1])
        flips[-1, -1] = False  # the next block holds this junction's far side
        if lo:
            junctions[lo - 1] = last_sign != signs[0, 0]
            changes[lo - 1] += junctions[lo - 1]
        last_sign = signs[-1, -1]
        changes[lo:hi] = np.count_nonzero(flips, axis=1)
        junctions[lo:hi] = flips[:, -1]
        sums[lo:hi] = np.add.reduce(np.square(block, out=block), axis=1)
    width = 1
    while width < per_frame:
        sums = sums[:-width] + sums[width:]
        width *= 2
    cum = np.concatenate([[0], np.cumsum(changes)])
    return sums, cum[per_frame:] - cum[:-per_frame] - junctions[per_frame - 1 :]


def time_domain_descriptors(frames: PaddedFrames):
    """Per-frame RMS and zero-crossing rate of (n_frames, n) frames.

    Extraction passes the STFT's unwindowed frames (MagnitudeSpectrogram.frames),
    so a track is framed once. Returns two (1, n_frames) matrices. ZCR counts
    sign changes between consecutive samples as a fraction of the n - 1
    adjacent pairs, so a perfectly alternating signal scores exactly 1.0.
    Zero samples count as non-negative. Samples are widened to float64
    (exact from float32 or int16) and RMS is the root of np.mean of their
    squares, to the bit.

    Where numpy sums n values as a tree of hop-sized chunks (hop = n/2 or
    n/4 at n_fft 512 and 2048; see _sums_in_chunks), the interior frames are
    read as hop-sized chunks of the signal, so each sample is read once
    rather than n / hop times (see _chunk_descriptors). The edge frames, a
    clip with no interior frame, and any other hop are read frame by frame,
    FRAME_BLOCK rows at a time.
    """
    n_frames, n = frames.shape
    sums = np.empty(n_frames)
    crossings = np.empty(n_frames, dtype=np.intp)
    by_frame = [slice(0, n_frames)]
    if frames.interior is not None and _sums_in_chunks(n, frames.hop):
        first = len(frames.parts[0])
        interior = slice(first, first + len(frames.parts[1]))
        sums[interior], crossings[interior] = _chunk_descriptors(frames.interior, n, frames.hop)
        by_frame = [slice(0, first), slice(interior.stop, n_frames)]
    for part in by_frame:
        for rows in frame_blocks(part.stop, part.start):
            block = frames[rows].astype(np.float64)
            sums[rows] = np.add.reduce(block * block, axis=1)
            nonneg = block >= 0.0
            crossings[rows] = np.sum(nonneg[:, 1:] != nonneg[:, :-1], axis=1)
    rms = np.sqrt(sums / n)[np.newaxis, :]
    zcr = (crossings / (n - 1))[np.newaxis, :]
    return rms, zcr
