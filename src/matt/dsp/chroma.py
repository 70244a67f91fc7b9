"""Pitch-class (chroma) profiles and the tonal-centroid (tonnetz) projection.

Three chroma variants share a 12-row layout with C at index 0 and A440 as
the tuning reference:

* stft  - each FFT bin's power folded onto its nearest pitch class,
          max-normalized per frame.
* cqt   - pseudo constant-Q: a log-spaced triangular filterbank over the
          FFT bins, folded by pitch class, max-normalized per frame.
* cens  - the raw (unnormalized) cqt fold, L1-normalized, amplitude-quantized,
          smoothed with a 41-frame moving average, then L2-normalized per frame.

Each raw fold is one product of a 12 x (n_fft/2 + 1) matrix with the power
rows; cqt and cens normalize one shared product per track (see
extract_frame_features). The stft fold is one-hot over every bin but DC, so
its product stays dense. The cqt fold is non-zero only from just below C1 to
just above B7 (bins 2-194 at 44.1 kHz and n_fft 2048), so its product
multiplies that span of bins only (banded_cqt_fold). The fold matrices
depend only on (n_fft, sample_rate); they are built once per pair and
returned read-only.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import InvalidConfig
from .mel import BandedWeights, triangular_filters

# C1; chosen so pseudo-CQT bin k has pitch class k mod 12 with C = 0
CQT_F_MIN = 32.70319566257483
CQT_BINS_PER_OCTAVE = 12
CQT_OCTAVES = 7
CENS_SMOOTH_FRAMES = 41
CENS_QUANT_STEPS = (0.05, 0.1, 0.2, 0.4)
NORM_GUARD = 1e-12


def _pitch_class_of_hz(freqs: np.ndarray) -> np.ndarray:
    """Nearest equal-tempered pitch class (C=0, A=440 Hz) for each positive frequency."""
    midi = 69.0 + 12.0 * np.log2(freqs / 440.0)
    return np.round(midi).astype(int) % 12


def _read_only(matrix: np.ndarray) -> np.ndarray:
    matrix.flags.writeable = False
    return matrix


@lru_cache(maxsize=16)
def stft_fold_matrix(n_fft: int, sample_rate: int) -> np.ndarray:
    """12 x bins one-hot matrix mapping each positive-frequency bin to its
    nearest pitch class; the DC bin maps nowhere."""
    freqs = np.fft.rfftfreq(n_fft, 1.0 / sample_rate)
    positive = np.flatnonzero(freqs > 0)
    fold = np.zeros((12, freqs.size))
    fold[_pitch_class_of_hz(freqs[positive]), positive] = 1.0
    return _read_only(fold)


def _cqt_filterbank(freqs: np.ndarray) -> np.ndarray:
    """Triangular filters at log-spaced centers, rows = CQT bins."""
    k = np.arange(-1, CQT_BINS_PER_OCTAVE * CQT_OCTAVES + 1)
    return triangular_filters(CQT_F_MIN * 2.0 ** (k / CQT_BINS_PER_OCTAVE), freqs)


@lru_cache(maxsize=16)
def cqt_fold_matrix(n_fft: int, sample_rate: int) -> np.ndarray:
    """12 x bins: the pseudo-CQT filterbank with its rows summed by pitch
    class (CQT bin k has pitch class k mod 12)."""
    fb = _cqt_filterbank(np.fft.rfftfreq(n_fft, 1.0 / sample_rate))
    return _read_only(fb.reshape(CQT_OCTAVES, CQT_BINS_PER_OCTAVE, -1).sum(axis=0))


@lru_cache(maxsize=16)
def banded_cqt_fold(n_fft: int, sample_rate: int) -> BandedWeights:
    """cqt_fold_matrix cut to its span of non-zero bins: the fold that
    extraction multiplies, one block of all 12 rows (see BandedWeights)."""
    return BandedWeights.of(cqt_fold_matrix(n_fft, sample_rate), CQT_BINS_PER_OCTAVE)


def _max_normalize(chroma: np.ndarray) -> np.ndarray:
    return chroma / np.maximum(chroma.max(axis=0, keepdims=True), NORM_GUARD)


def _l1_normalize(chroma: np.ndarray) -> np.ndarray:
    return chroma / np.maximum(np.abs(chroma).sum(axis=0, keepdims=True), NORM_GUARD)


def _cens(cqt_fold: np.ndarray) -> np.ndarray:
    l1 = _l1_normalize(cqt_fold)
    quant = np.zeros_like(l1)
    for step in CENS_QUANT_STEPS:
        quant += 0.25 * (l1 > step)
    # centered moving average over frames, zero-padded at the boundaries; the
    # one extra leading zero makes cum[:, t] the sum of the first t columns
    window = CENS_SMOOTH_FRAMES
    pad = window // 2
    cum = np.cumsum(np.pad(quant, ((0, 0), (pad + 1, pad))), axis=1)
    smoothed = (cum[:, window:] - cum[:, :-window]) / window
    norms = np.sqrt((smoothed**2).sum(axis=0, keepdims=True))
    return smoothed / np.maximum(norms, NORM_GUARD)


def chroma_features(fold: np.ndarray, variant: str) -> np.ndarray:
    """12-row chroma of the given variant ("stft", "cqt", or "cens"),
    normalized from its raw fold, which it leaves as it is."""
    if variant in ("stft", "cqt"):
        return _max_normalize(fold)
    if variant == "cens":
        return _cens(fold)
    raise InvalidConfig(f"unknown chroma variant {variant!r}")


def _tonnetz_transform() -> np.ndarray:
    """Fixed 6x12 projection onto the fifths/minor-third/major-third circles.

    Rows come in sin-cos pairs with radii (1, 1, 0.5); a one-hot chroma frame
    lands exactly on the corresponding circle.
    """
    pitch = np.arange(12.0)
    scale = np.array([7.0 / 6, 7.0 / 6, 3.0 / 2, 3.0 / 2, 2.0 / 3, 2.0 / 3])
    angles = np.outer(scale, pitch)
    angles[::2] -= 0.5  # sin rows: cos(pi(x - 1/2)) = sin(pi x)
    radii = np.array([1.0, 1.0, 1.0, 1.0, 0.5, 0.5])
    return radii[:, np.newaxis] * np.cos(np.pi * angles)


TONNETZ_TRANSFORM = _tonnetz_transform()


def tonnetz(chroma: np.ndarray) -> np.ndarray:
    """6-row tonal centroid of an L1-normalized chroma (normalized here)."""
    return TONNETZ_TRANSFORM @ _l1_normalize(chroma)
