import numpy as np

from matt.dsp import (
    FAMILY_BASE_DIMS,
    FAMILY_ORDER,
    FEATURE_SETS,
    AudioSignal,
    extract_feature_sets,
    feature_set_columns,
    feature_set_length,
)
from matt.dsp.summarize import FAMILY_COLUMNS, set_columns

from conftest import RATE, noisy_clip

PUBLISHED_DIMS = {
    "1": 84,
    "2": 42,
    "3": 140,
    "4": 7,
    "5": 7,
    "6": 49,
    "7": 7,
    "8": 7,
    "9": 7,
    "3+6": 189,
    "3+6+4": 196,
    "1to9": 518,
}


def test_set_lengths_match_published_dims():
    for name, dim in PUBLISHED_DIMS.items():
        assert feature_set_length(name) == dim, name


def test_extraction_vector_lengths(clip_extraction):
    for name, dim in PUBLISHED_DIMS.items():
        assert clip_extraction.vector[set_columns(name)].shape == (dim,), name


def test_every_family_summary_is_seven_times_base(clip_extraction):
    for family in FAMILY_ORDER:
        vec = clip_extraction.vector[FAMILY_COLUMNS[family]]
        assert vec.shape == (7 * FAMILY_BASE_DIMS[family],)


def test_silence_produces_finite_features_everywhere(stft_cfg):
    sig = AudioSignal(samples=np.zeros(RATE, dtype=np.float32), sample_rate_hz=RATE)
    result = extract_feature_sets(sig, stft_cfg)
    for family, columns in FAMILY_COLUMNS.items():
        assert np.all(np.isfinite(result.vector[columns])), family
    assert np.all(np.isfinite(result.mel))


def test_extraction_is_bit_deterministic(stft_cfg):
    sig = noisy_clip(seconds=1.0, seed=3)
    a = extract_feature_sets(sig, stft_cfg)
    b = extract_feature_sets(sig, stft_cfg)
    assert np.array_equal(a.vector, b.vector)
    assert np.array_equal(a.mel, b.mel)


def test_scaling_covariance(stft_cfg):
    sig = noisy_clip(seconds=1.0, seed=4)
    scaled = AudioSignal(samples=(2.0 * sig.samples).astype(np.float32),
                         sample_rate_hz=sig.sample_rate_hz)
    a = extract_feature_sets(sig, stft_cfg)
    b = extract_feature_sets(scaled, stft_cfg)
    # rms scales exactly; zcr unchanged; chroma pitch-class ranking unchanged
    rms, zcr, chroma = (FAMILY_COLUMNS[f] for f in ("rms", "zcr", "chroma_stft"))
    assert np.array_equal(b.vector[rms][:1], 2.0 * a.vector[rms][:1])
    assert np.array_equal(a.vector[zcr], b.vector[zcr])
    assert a.vector[chroma][:12].argmax() == b.vector[chroma][:12].argmax()


def test_column_names_align_with_slices():
    cols = feature_set_columns("1to9")
    assert len(cols) == 518
    assert cols[0] == "chroma_stft_mean_0"
    assert cols[-1] == "zcr_max_0"
    for name in FEATURE_SETS:
        assert len(set_columns(name)) == feature_set_length(name)


def test_every_set_names_the_full_vector_columns_it_selects():
    full = np.array(feature_set_columns("1to9"))
    for name in FEATURE_SETS:
        assert feature_set_columns(name) == full[set_columns(name)].tolist(), name
