"""Mel filterbank, log-mel frames, and mel-frequency cepstral coefficients.

Uses the Slaney mel scale: linear below 1 kHz (mel = 3f/200, so 1000 Hz maps
to mel 15), logarithmic above. Filters are triangles in Hz with area
normalization, matching the classic auditory-toolbox construction. The
geometry is fixed: N_MELS bands from 0 Hz to Nyquist, the emitted matrix
fitted to MEL_FRAMES columns, and N_MFCC cepstral coefficients.

Each triangle covers a few FFT bins (at 44.1 kHz and n_fft 2048, the 96 x
1025 filterbank holds 2 004 non-zero weights), so the mel product is banded:
each block of BAND_ROWS filters multiplies only the power rows of its own
span of bins (see BandedWeights). The spans are cut once per geometry,
beside the cached filterbank.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

N_MELS = 96
MEL_FRAMES = 1360
N_MFCC = 20

MIN_LOG_HZ = 1000.0
MIN_LOG_MEL = 15.0
LOG_STEP = np.log(6.4) / 27.0

DB_FLOOR = -80.0
DB_EPSILON = 1e-10

# mel filters per block of the banded product: from 2 to 8 rows per block the
# product takes the same time, above that the spans overlap more
BAND_ROWS = 8


def hz_to_mel(freq):
    freq = np.asarray(freq, dtype=np.float64)
    mels = 3.0 * freq / 200.0
    log_region = freq >= MIN_LOG_HZ
    mels = np.where(
        log_region,
        MIN_LOG_MEL + np.log(np.maximum(freq, MIN_LOG_HZ) / MIN_LOG_HZ) / LOG_STEP,
        mels,
    )
    return mels if mels.ndim else float(mels)


def mel_to_hz(mels):
    mels = np.asarray(mels, dtype=np.float64)
    freq = 200.0 * mels / 3.0
    log_region = mels >= MIN_LOG_MEL
    freq = np.where(
        log_region,
        MIN_LOG_HZ * np.exp(LOG_STEP * (mels - MIN_LOG_MEL)),
        freq,
    )
    return freq if freq.ndim else float(freq)


def triangular_filters(edges_hz: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """(len(edges_hz) - 2, len(freqs)) unit-peak triangles: filter i rises
    over [edge_i, edge_i+1] and falls over [edge_i+1, edge_i+2]."""
    diffs = np.diff(edges_hz)
    ramps = edges_hz[np.newaxis, :] - freqs[:, np.newaxis]
    lower = -ramps[:, :-2] / diffs[:-1]
    upper = ramps[:, 2:] / diffs[1:]
    return np.maximum(0.0, np.minimum(lower, upper)).T


@lru_cache(maxsize=16)
def mel_filterbank(rate: int, n_fft: int):
    """Triangular Slaney-scale filterbank spanning 0 Hz to Nyquist: the
    (N_MELS, n_fft//2 + 1) weights, with area-normalized non-negative rows.
    Filter i peaks at the (i + 1)-th of N_MELS + 2 mel-spaced edges. Built
    once per argument tuple and returned read-only.
    """
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(rate / 2.0), N_MELS + 2))
    weights = triangular_filters(edges_hz, np.fft.rfftfreq(n_fft, 1.0 / rate))
    area = 2.0 / (edges_hz[2:] - edges_hz[:-2])
    weights *= area[:, np.newaxis]
    weights.flags.writeable = False
    return weights


@dataclass(frozen=True)
class BandedWeights:
    """A non-negative weight matrix as blocks of consecutive rows, each cut
    to the span of bins where one of its rows has a non-zero weight.

    banded @ power multiplies each block by the power rows of its span only.
    The zeros it skips add nothing to a sum of non-negative terms, so the
    product equals weights @ power up to reassociation, and a silent frame
    (or a row with no weight) gives exact zeros.
    """

    n_rows: int
    blocks: tuple  # (rows, bins, weights[rows, bins]) per block; slices, read-only copy

    @classmethod
    def of(cls, weights: np.ndarray, rows_per_block: int) -> "BandedWeights":
        blocks = []
        for start in range(0, len(weights), rows_per_block):
            rows = slice(start, min(start + rows_per_block, len(weights)))
            nonzero = np.flatnonzero(weights[rows].any(axis=0))
            bins = slice(int(nonzero[0]), int(nonzero[-1]) + 1) if nonzero.size else slice(0, 0)
            block = weights[rows, bins].copy()
            block.flags.writeable = False
            blocks.append((rows, bins, block))
        return cls(n_rows=len(weights), blocks=tuple(blocks))

    def __matmul__(self, power: np.ndarray) -> np.ndarray:
        out = np.empty((self.n_rows, power.shape[1]))
        for rows, bins, block in self.blocks:
            np.matmul(block, power[bins], out=out[rows])
        return out


@lru_cache(maxsize=16)
def banded_mel_filterbank(rate: int, n_fft: int) -> BandedWeights:
    """The weights of mel_filterbank as blocks of BAND_ROWS filters (see
    BandedWeights), built once per argument tuple."""
    return BandedWeights.of(mel_filterbank(rate, n_fft), BAND_ROWS)


def power_to_db(power: np.ndarray) -> np.ndarray:
    """10*log10(power/ref) with ref = max(power, epsilon), clamped at DB_FLOOR.

    The floor is exact: silence maps to DB_FLOOR everywhere, the peak to 0 dB.
    The four steps (maximum, divide, log10, x10) overwrite power in place,
    which is returned.
    """
    ref = max(float(np.max(power)), DB_EPSILON)
    floor_power = ref * 10.0 ** (DB_FLOOR / 10.0)
    np.maximum(power, floor_power, out=power)
    np.divide(power, ref, out=power)
    np.log10(power, out=power)
    return np.multiply(power, 10.0, out=power)


def _fit_frames(values: np.ndarray, target: int, fill: float) -> np.ndarray:
    """Center-crop or center-pad the frame axis to exactly target columns."""
    n = values.shape[1]
    if n == target:
        return values
    if n > target:
        start = (n - target) // 2
        return values[:, start : start + target]
    left = (target - n) // 2
    out = np.full((values.shape[0], target), fill, dtype=values.dtype)
    out[:, left : left + n] = values
    return out


def log_mel_frames(power: np.ndarray, weights: BandedWeights) -> np.ndarray:
    """dB mel matrix of a power spectrogram at its native frame count, from
    the banded filterbank of banded_mel_filterbank."""
    return power_to_db(weights @ power)


def dct_matrix(n_out: int, n_in: int) -> np.ndarray:
    """Orthonormal DCT-II matrix, rows = coefficients."""
    k = np.arange(n_out)[:, np.newaxis]
    n = np.arange(n_in)[np.newaxis, :]
    mat = np.cos(np.pi * k * (2 * n + 1) / (2.0 * n_in))
    mat *= np.sqrt(2.0 / n_in)
    mat[0] *= np.sqrt(0.5)
    return mat


def mfcc(log_mel: np.ndarray) -> np.ndarray:
    """First N_MFCC coefficients of the orthonormal DCT-II along the mel axis."""
    return dct_matrix(N_MFCC, log_mel.shape[0]) @ log_mel
