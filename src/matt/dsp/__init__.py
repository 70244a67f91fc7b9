"""Audio feature extraction: STFT, mel/MFCC, chroma, spectral and time-domain
descriptors, and the 7-statistic summarization that yields the fixed feature
dimensionalities used by the classifier."""

from .signal import AudioSignal, downmix_and_validate, frame_signal, time_domain_descriptors
from .stft import StftConfig, hann_window, stft
from .mel import (
    DB_FLOOR,
    dct_matrix,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
    mfcc,
)
from .frames import FAMILY_BASE_DIMS, FrameFeatureMatrix
from .chroma import chroma_features, tonnetz
from .spectral import spectral_descriptors
from .summarize import (
    FAMILY_ORDER,
    FEATURE_SETS,
    FeatureConfig,
    extract_feature_sets,
    feature_set_columns,
    feature_set_length,
    summarize,
)
from .wav import read_wav, write_wav
from .cache import (
    read_feature_csv,
    read_mel_cache,
    write_feature_csv,
    write_mel_cache,
)
