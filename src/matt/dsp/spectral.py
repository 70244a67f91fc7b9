"""Frame-level spectral shape descriptors: centroid, bandwidth, contrast, rolloff."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import InvalidBand
from .frames import FrameFeatureMatrix
from .signal import frame_blocks
from .stft import MagnitudeSpectrogram

CONTRAST_F_MIN = 200.0
CONTRAST_BANDS = 6
CONTRAST_QUANTILE = 0.02
ROLLOFF_FRACTION = 0.85
_AMIN = 1e-10


def _centroid_bandwidth(S: np.ndarray, freqs: np.ndarray):
    per_frame = S.T  # (n_frames, bins): contiguous rows for an STFT's magnitudes
    total = per_frame.sum(axis=1)
    silent = total <= 0.0
    safe_total = np.where(silent, 1.0, total)
    centroid = (per_frame @ freqs) / safe_total
    centroid[silent] = 0.0
    # deviation form: the expanded sum(f^2 S) - c^2 sum(S) cancels badly on
    # narrowband frames
    spread = np.empty_like(centroid)
    for rows in frame_blocks(centroid.size):
        deviation = np.subtract.outer(centroid[rows], freqs)
        np.square(deviation, out=deviation)
        spread[rows] = np.einsum("tf,tf->t", deviation, per_frame[rows])
    bandwidth = np.sqrt(spread / safe_total)
    bandwidth[silent] = 0.0
    return centroid, bandwidth


def _rolloff(S: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    per_frame = S.T
    idx = np.empty(per_frame.shape[0], dtype=np.intp)
    silent = np.empty(per_frame.shape[0], dtype=bool)
    for rows in frame_blocks(per_frame.shape[0]):
        cum = np.cumsum(per_frame[rows], axis=1)
        total = cum[:, -1]
        silent[rows] = total <= 0.0
        idx[rows] = (cum >= (ROLLOFF_FRACTION * total)[:, np.newaxis]).argmax(axis=1)
    out = freqs[idx]
    out[silent] = 0.0
    return out


@lru_cache(maxsize=16)
def contrast_bands(n_fft: int, sample_rate: int) -> tuple[tuple[int, int, int], ...]:
    """(start, stop, take) for each of the CONTRAST_BANDS + 1 contrast bands.

    Bands are [0, f_min], then octaves [f_min*2^k, f_min*2^(k+1)]. Each
    octave band also takes the bin just below it, the last band extends to
    Nyquist, and every band but the last drops its top bin: spectrogram rows
    start:stop are what is left. take is the number of magnitudes averaged
    at each end, 2% of the band's bins before the drop and at least 1.

    Raises InvalidBand naming sample_rate and n_fft when a band is left with
    no bin: Nyquist below the last band's lower edge, or bins too far apart
    for the narrow low bands.
    """
    freqs = np.fft.rfftfreq(n_fft, 1.0 / sample_rate)
    edges = np.zeros(CONTRAST_BANDS + 2)
    edges[1:] = CONTRAST_F_MIN * 2.0 ** np.arange(CONTRAST_BANDS + 1)
    bands = []
    for k in range(CONTRAST_BANDS + 1):
        idx = np.flatnonzero((freqs >= edges[k]) & (freqs <= edges[k + 1]))
        start = stop = 0  # a band with no bin stays empty
        if idx.size:
            start = idx[0] - 1 if k > 0 and idx[0] > 0 else idx[0]
            stop = freqs.size if k == CONTRAST_BANDS else idx[-1] + 1
        take = int(max(1, np.rint(CONTRAST_QUANTILE * (stop - start))))
        if k < CONTRAST_BANDS:
            stop -= 1
        if stop <= start:
            raise InvalidBand(
                f"sample_rate {sample_rate} Hz with n_fft {n_fft} leaves spectral contrast "
                f"band {k} ({edges[k]:g}-{edges[k + 1]:g} Hz) without an FFT bin "
                f"(Nyquist {sample_rate / 2:g} Hz, bins {sample_rate / n_fft:g} Hz apart)"
            )
        bands.append((int(start), int(stop), take))
    return tuple(bands)


def _contrast(S: np.ndarray, bands) -> np.ndarray:
    """Per-band dB gap between the top and bottom magnitude quantiles."""
    per_frame = S.T
    valley = np.empty((len(bands), per_frame.shape[0]))
    peak = np.empty_like(valley)
    for rows in frame_blocks(per_frame.shape[0]):
        for k, (start, stop, take) in enumerate(bands):
            ordered = np.sort(per_frame[rows, start:stop], axis=1)
            np.add.reduce(ordered[:, :take], axis=1, out=valley[k, rows])
            np.add.reduce(ordered[:, -take:], axis=1, out=peak[k, rows])
    takes = np.array([take for _, _, take in bands], dtype=float)[:, np.newaxis]
    valley /= takes  # the means, divided as np.mean divides
    peak /= takes
    return 10.0 * (np.log10(np.maximum(peak, _AMIN)) - np.log10(np.maximum(valley, _AMIN)))


def spectral_descriptors(spec: MagnitudeSpectrogram):
    """Returns (centroid, bandwidth, contrast, rolloff) frame matrices.

    Centroid and bandwidth are the magnitude-weighted mean and standard
    deviation of bin frequency in Hz; rolloff is the lowest frequency holding
    85% of the cumulative magnitude. Silent frames yield 0 for all three.
    Contrast has one row per band of contrast_bands.
    """
    S = spec.bins
    freqs = spec.bin_frequencies_hz()
    centroid, bandwidth = _centroid_bandwidth(S, freqs)
    contrast = _contrast(S, contrast_bands(spec.config.n_fft, spec.sample_rate_hz))
    rolloff = _rolloff(S, freqs)
    return (
        FrameFeatureMatrix(values=centroid[np.newaxis, :], family="spec_centroid"),
        FrameFeatureMatrix(values=bandwidth[np.newaxis, :], family="spec_bandwidth"),
        FrameFeatureMatrix(values=contrast, family="spec_contrast"),
        FrameFeatureMatrix(values=rolloff[np.newaxis, :], family="spec_rolloff"),
    )
