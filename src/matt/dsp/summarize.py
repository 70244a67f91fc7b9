"""Frame-feature summarization and named feature-set assembly.

Each feature family is reduced to a fixed-width vector of 7 statistics per
base dimension (mean, std, skew, kurtosis, median, min, max), laid out
statistic-major. Extraction yields one 518-wide "1to9" vector, the families
in FAMILY_ORDER (chroma contributing all three variants), and each named set
is a selection of its columns: "3+6" (189), "3+6+4" (196), "1to9" (518).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import EmptyFeature, InvalidConfig
from .chroma import banded_cqt_fold, chroma_features, stft_fold_matrix, tonnetz
from .frames import FAMILY_BASE_DIMS, FrameFeatureMatrix
from .mel import DB_FLOOR, MEL_FRAMES, _fit_frames, banded_mel_filterbank, log_mel_frames, mfcc
from .signal import AudioSignal, time_domain_descriptors
from .spectral import contrast_bands, spectral_descriptors
from .stft import StftConfig, stft

STATISTICS = ("mean", "std", "skew", "kurtosis", "median", "min", "max")
NORMAL_MIN = np.finfo(np.float64).tiny  # smallest positive normal float64

FAMILY_ORDER = tuple(FAMILY_BASE_DIMS)

FEATURE_SETS = {
    "1": ("chroma_stft",),
    "2": ("tonnetz",),
    "3": ("mfcc",),
    "4": ("spec_centroid",),
    "5": ("spec_bandwidth",),
    "6": ("spec_contrast",),
    "7": ("spec_rolloff",),
    "8": ("rms",),
    "9": ("zcr",),
    "3+6": ("mfcc", "spec_contrast"),
    "3+6+4": ("mfcc", "spec_contrast", "spec_centroid"),
    "1to9": FAMILY_ORDER,
}


def summarize(frames: FrameFeatureMatrix) -> np.ndarray:
    """Reduce (d_base, n_frames) to the 7-statistic summary vector.

    std is the population standard deviation; skew is m3/m2^1.5 and kurtosis
    the excess m4/m2^2 - 3, each 0 by convention for a row of zero variance
    or whose denominator is below the smallest normal float; the
    median takes the lower-middle element for even frame counts.
    """
    x = frames.values
    if x.shape[1] < 1:
        raise EmptyFeature(f"{frames.family}: no frames to summarize")
    middle = (x.shape[1] - 1) // 2
    mean = x.mean(axis=1)
    centered = x - mean[:, np.newaxis]
    c2 = centered * centered
    m2 = c2.mean(axis=1)
    m3 = (c2 * centered).mean(axis=1)
    m4 = (c2 * c2).mean(axis=1)
    std = np.sqrt(m2)
    # m2 ** 1.5 and m2 ** 2 underflow long before m2 does: a denominator
    # that is not a positive normal float takes the zero-variance convention
    d3 = m2**1.5
    d4 = m2**2
    ok3 = d3 >= NORMAL_MIN
    ok4 = d4 >= NORMAL_MIN
    skew = np.where(ok3, m3 / np.where(ok3, d3, 1.0), 0.0)
    kurtosis = np.where(ok4, m4 / np.where(ok4, d4, 1.0) - 3.0, 0.0)
    median = np.partition(x, middle, axis=1)[:, middle]
    return np.concatenate([mean, std, skew, kurtosis, median, x.min(axis=1), x.max(axis=1)])


def _layout():
    """One walk of the "1to9" vector: each family's column indices and every
    column's name, <family>_<stat>_<index>."""
    columns, names = {}, []
    for family, d in FAMILY_BASE_DIMS.items():
        columns[family] = range(len(names), len(names) + 7 * d)
        names += [f"{family}_{stat}_{i}" for stat in STATISTICS for i in range(d)]
    return columns, tuple(names)


FAMILY_COLUMNS, COLUMN_NAMES = _layout()


def set_columns(set_name: str) -> np.ndarray:
    """Indices of the set's columns inside the "1to9" vector."""
    return np.concatenate([FAMILY_COLUMNS[f] for f in FEATURE_SETS[set_name]])


def feature_set_length(set_name: str) -> int:
    return len(set_columns(set_name))


def feature_set_columns(set_name: str) -> list[str]:
    return [COLUMN_NAMES[i] for i in set_columns(set_name)]


@dataclass(frozen=True)
class FeatureConfig:
    """Sample rate and STFT framing; the mel geometry is fixed (see mel.py).

    Construction raises InvalidConfig for a sample_rate that is not positive
    and InvalidBand when sample_rate and n_fft leave a spectral contrast band
    without an FFT bin (see contrast_bands), so a bad geometry fails before
    any track is read.
    """

    sample_rate: int = 44100
    stft: StftConfig = field(default_factory=StftConfig)

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise InvalidConfig(f"sample rate must be positive, got {self.sample_rate}")
        contrast_bands(self.stft.n_fft, self.sample_rate)


@dataclass(frozen=True)
class ExtractionResult:
    vector: np.ndarray  # the "1to9" summary vector, families in FAMILY_ORDER
    mel: np.ndarray  # (N_MELS, MEL_FRAMES) dB


def extract_frame_features(signal: AudioSignal, cfg: FeatureConfig):
    """Per-frame matrices for all 11 families, plus the fitted mel spectrogram.

    Every family reads the one STFT, in the order set here. The cached fold
    and mel matrices are fetched first, so building them on a process's
    first track does not add to the peak of the spectrogram; the cqt fold
    and the mel filterbank come cut to their non-zero bins (BandedWeights).
    The magnitude readers run next: the spectral descriptors, then RMS/ZCR
    from the frames. The magnitudes are then squared in place into the
    power, which chroma, tonnetz and log-mel/MFCC read. Since the frames are
    views of the signal (see frame_signal), the track keeps the caller's
    signal and one spectrogram-sized matrix throughout.
    """
    rate, n_fft = signal.sample_rate_hz, cfg.stft.n_fft
    stft_fold, cqt_fold = stft_fold_matrix(n_fft, rate), banded_cqt_fold(n_fft, rate)
    mel_weights = banded_mel_filterbank(rate, n_fft)

    spec = stft(signal, cfg.stft)
    frames: list[FrameFeatureMatrix] = list(spectral_descriptors(spec))
    rms, zcr = time_domain_descriptors(spec.frames)
    frames.append(FrameFeatureMatrix(values=rms, family="rms"))
    frames.append(FrameFeatureMatrix(values=zcr, family="zcr"))

    # no later reader sees the bins as magnitudes
    power = np.multiply(spec.bins, spec.bins, out=spec.bins)
    cqt_raw = cqt_fold @ power  # cqt and cens share it
    folds = {"stft": stft_fold @ power, "cqt": cqt_raw, "cens": cqt_raw}
    chroma = {v: chroma_features(fold, v) for v, fold in folds.items()}
    frames.extend(chroma.values())
    frames.append(tonnetz(chroma["cqt"]))

    # cepstrum runs on the native frame count to stay aligned with the other
    # families; only the emitted mel matrix is fitted to the fixed width
    native_db = log_mel_frames(power, mel_weights)
    mel = _fit_frames(native_db, MEL_FRAMES, DB_FLOOR)
    frames.append(FrameFeatureMatrix(values=mfcc(native_db), family="mfcc"))
    return {f.family: f for f in frames}, mel


def extract_feature_sets(signal: AudioSignal, cfg: FeatureConfig) -> ExtractionResult:
    """Extract and summarize all 11 base families plus the mel spectrogram."""
    frames, mel = extract_frame_features(signal, cfg)
    vector = np.concatenate([summarize(frames[family]) for family in FAMILY_ORDER])
    return ExtractionResult(vector=vector, mel=mel)
