"""Frame-level spectral shape descriptors: centroid, bandwidth, contrast, rolloff."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import InvalidBand
from .signal import frame_blocks
from .stft import MagnitudeSpectrogram

CONTRAST_F_MIN = 200.0
CONTRAST_BANDS = 6
CONTRAST_QUANTILE = 0.02
ROLLOFF_FRACTION = 0.85
_AMIN = 1e-10


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


def spectral_descriptors(spec: MagnitudeSpectrogram):
    """Returns (centroid, bandwidth, contrast, rolloff): (1, n_frames),
    except contrast, which has one row per contrast band.

    Centroid and bandwidth are the magnitude-weighted mean and standard
    deviation of bin frequency in Hz; rolloff is the lowest frequency holding
    85% of the cumulative magnitude. Silent frames yield 0 for all three.
    Contrast has one row per band of contrast_bands: the dB gap between the
    means of the band's top and bottom magnitude quantiles. All four are
    read from one pass over blocks of FRAME_BLOCK frames.
    """
    per_frame = spec.bins.T  # (n_frames, bins): contiguous rows for an STFT's magnitudes
    freqs = spec.bin_frequencies_hz()
    bands = contrast_bands(spec.config.n_fft, spec.sample_rate_hz)
    n_frames = per_frame.shape[0]
    centroid, bandwidth, rolloff = np.empty((3, n_frames))
    valley, peak = np.empty((2, len(bands), n_frames))
    # magnitudes are non-negative, so a frame's sum and its cumulative sum are
    # both 0 exactly on the silent frames
    silent = np.empty(n_frames, dtype=bool)
    for rows in frame_blocks(n_frames):
        block = per_frame[rows]
        total = block.sum(axis=1)
        silent[rows] = total <= 0.0
        total[silent[rows]] = 1.0
        centroid[rows] = (block @ freqs) / total
        # deviation form: the expanded sum(f^2 S) - c^2 sum(S) cancels badly on
        # narrowband frames
        deviation = np.subtract.outer(centroid[rows], freqs)
        np.square(deviation, out=deviation)
        bandwidth[rows] = np.sqrt(np.einsum("tf,tf->t", deviation, block) / total)
        cum = np.cumsum(block, axis=1, out=deviation)  # the deviations are done with
        reached = cum >= (ROLLOFF_FRACTION * cum[:, -1])[:, np.newaxis]
        rolloff[rows] = freqs[reached.argmax(axis=1)]
        for k, (start, stop, take) in enumerate(bands):
            ordered = np.sort(block[:, start:stop], axis=1)
            np.add.reduce(ordered[:, :take], axis=1, out=valley[k, rows])
            np.add.reduce(ordered[:, -take:], axis=1, out=peak[k, rows])
    for values in (centroid, bandwidth, rolloff):
        values[silent] = 0.0
    takes = np.array([take for _, _, take in bands], dtype=float)[:, np.newaxis]
    valley /= takes  # the means, divided as np.mean divides
    peak /= takes
    contrast = 10.0 * (np.log10(np.maximum(peak, _AMIN)) - np.log10(np.maximum(valley, _AMIN)))
    return centroid[np.newaxis, :], bandwidth[np.newaxis, :], contrast, rolloff[np.newaxis, :]
