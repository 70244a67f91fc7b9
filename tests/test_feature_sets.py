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
from matt.dsp.summarize import set_slices

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
        assert clip_extraction.set_vector(name).shape == (dim,), name


def test_every_family_summary_is_seven_times_base(clip_extraction):
    for family in FAMILY_ORDER:
        vec = clip_extraction.summaries[family].values
        assert vec.shape == (7 * FAMILY_BASE_DIMS[family],)


def test_silence_produces_finite_features_everywhere(feature_cfg):
    sig = AudioSignal(samples=np.zeros(RATE, dtype=np.float32), sample_rate_hz=RATE)
    result = extract_feature_sets(sig, feature_cfg)
    for family, summary in result.summaries.items():
        assert np.all(np.isfinite(summary.values)), family
    assert np.all(np.isfinite(result.mel))


def test_extraction_is_bit_deterministic(feature_cfg):
    sig = noisy_clip(seconds=1.0, seed=3)
    a = extract_feature_sets(sig, feature_cfg)
    b = extract_feature_sets(sig, feature_cfg)
    assert np.array_equal(a.set_vector("1to9"), b.set_vector("1to9"))
    assert np.array_equal(a.mel, b.mel)


def test_scaling_covariance(feature_cfg):
    sig = noisy_clip(seconds=1.0, seed=4)
    scaled = AudioSignal(samples=(2.0 * sig.samples).astype(np.float32),
                         sample_rate_hz=sig.sample_rate_hz)
    a = extract_feature_sets(sig, feature_cfg)
    b = extract_feature_sets(scaled, feature_cfg)
    # rms scales exactly; zcr unchanged; chroma pitch-class ranking unchanged
    assert np.array_equal(b.summaries["rms"].values[:1], 2.0 * a.summaries["rms"].values[:1])
    assert np.array_equal(a.summaries["zcr"].values, b.summaries["zcr"].values)
    assert (
        a.summaries["chroma_stft"].values[:12].argmax()
        == b.summaries["chroma_stft"].values[:12].argmax()
    )


def test_column_names_align_with_slices():
    cols = feature_set_columns("1to9")
    assert len(cols) == 518
    assert cols[0] == "chroma_stft_mean_0"
    assert cols[-1] == "zcr_max_0"
    for name in FEATURE_SETS:
        width = sum(b - a for a, b in set_slices(name))
        assert width == feature_set_length(name)
