import importlib
import warnings

import numpy as np
import pytest

from matt.dsp import FAMILY_BASE_DIMS, AudioSignal, StftConfig, extract_feature_sets, summarize
from matt.dsp.summarize import extract_frame_features
from matt.errors import EmptyFeature, ShapeError

from conftest import noisy_clip

# the submodule, which the package's summarize function shadows as an attribute
summarize_module = importlib.import_module("matt.dsp.summarize")


def test_constant_row_degenerates_cleanly():
    frames = np.array([[3.0, 3.0, 3.0, 3.0]])
    out = summarize(frames)
    assert np.array_equal(out, [3.0, 0.0, 0.0, 0.0, 3.0, 3.0, 3.0])


@pytest.mark.parametrize(
    "row",
    [
        [0.0, 1e-160, 0.0, 1e-160],  # m2 is subnormal: both of its powers underflow
        [0.0, 2e-100, 0.0, 2e-100],  # m2 ** 1.5 is normal, m2 ** 2 underflows
    ],
)
def test_a_variance_whose_powers_underflow_takes_the_zero_variance_convention(row):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, std, skew, kurtosis, *_ = summarize(np.array([row]))
    assert std > 0.0
    assert (skew, kurtosis) == (0.0, 0.0)  # a symmetric two-level row has no skew either


@pytest.mark.parametrize("kind", ["constant", "noise"])
@pytest.mark.parametrize("amplitude", [1e-30, 1e-20, 1e-12, 1e-6, 1e-3])
def test_near_silent_clips_extract_finite_features_without_warnings(kind, amplitude):
    rng = np.random.default_rng(0)
    n = 22050
    samples = (np.full(n, amplitude) if kind == "constant"
               else amplitude * rng.standard_normal(n)).astype(np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vector = extract_feature_sets(AudioSignal(samples, 22050), StftConfig()).vector
    assert np.isfinite(vector).all()


def test_hand_computed_four_frame_row():
    # row [1,2,3,4]: population moments by hand; median is the lower middle
    out = summarize(np.array([[1.0, 2.0, 3.0, 4.0]]))
    mean, std, skew, kurtosis, median, lo, hi = out
    assert mean == 2.5
    assert std == pytest.approx(np.sqrt(1.25), abs=1e-15)
    assert skew == pytest.approx(0.0, abs=1e-15)
    assert kurtosis == pytest.approx(2.5625 / 1.5625 - 3.0, abs=1e-12)
    assert median == 2.0
    assert (lo, hi) == (1.0, 4.0)


def test_mfcc_summary_has_length_140():
    rng = np.random.default_rng(0)
    frames = rng.standard_normal((20, 13))
    assert summarize(frames).shape == (140,)


def test_moments_match_scipy_oracle():
    import scipy.stats

    rng = np.random.default_rng(12)
    values = rng.standard_normal((7, 101)) * 3.0 + 1.0
    flat = summarize(values)
    mean, std = flat[0:7], flat[7:14]
    skew, kurt = flat[14:21], flat[21:28]
    assert np.allclose(mean, values.mean(axis=1))
    assert np.allclose(std, values.std(axis=1))
    assert np.allclose(skew, scipy.stats.skew(values, axis=1))
    assert np.allclose(kurt, scipy.stats.kurtosis(values, axis=1))


def test_statistic_ordering_invariant_random():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(1, 40))
        values = rng.standard_normal((12, n)) * rng.uniform(0.1, 10.0)
        flat = summarize(values)
        std = flat[12:24]
        median, lo, hi = flat[48:60], flat[60:72], flat[72:84]
        assert np.all(std >= 0.0)
        assert np.all(lo <= median) and np.all(median <= hi)


def test_empty_frames_raise():
    with pytest.raises(EmptyFeature):
        summarize(np.empty((1, 0)))


def _tonnetz_of_five_rows(stage):
    return lambda chroma: stage(chroma)[:5]


def _bandwidth_with_a_nan(stage):
    def descriptors(spec):
        centroid, bandwidth, contrast, rolloff = stage(spec)
        bandwidth[0, 1] = np.nan
        return centroid, bandwidth, contrast, rolloff

    return descriptors


def _cens_one_frame_short(stage):
    def chroma(fold, variant):
        values = stage(fold, variant)
        return values[:, :-1] if variant == "cens" else values

    return chroma


@pytest.mark.parametrize(
    "stage, family, corrupt, message",
    [
        ("tonnetz", "tonnetz", _tonnetz_of_five_rows, r"expected shape \(6, \d+\), got \(5, "),
        ("spectral_descriptors", "spec_bandwidth", _bandwidth_with_a_nan, "non-finite"),
        ("chroma_features", "chroma_cens", _cens_one_frame_short, r"expected shape \(12, "),
    ],
    ids=["tonnetz-rows", "spectral-nan", "chroma-frames"],
)
def test_a_malformed_family_is_rejected_naming_it(monkeypatch, stage, family, corrupt, message):
    monkeypatch.setattr(summarize_module, stage, corrupt(getattr(summarize_module, stage)))
    with pytest.raises(ShapeError, match=f"^{family}: {message}"):
        extract_frame_features(noisy_clip(seconds=0.5), StftConfig())


def test_family_dims_match_published_table():
    assert FAMILY_BASE_DIMS == {
        "chroma_stft": 12,
        "chroma_cqt": 12,
        "chroma_cens": 12,
        "tonnetz": 6,
        "mfcc": 20,
        "spec_centroid": 1,
        "spec_bandwidth": 1,
        "spec_contrast": 7,
        "spec_rolloff": 1,
        "rms": 1,
        "zcr": 1,
    }
